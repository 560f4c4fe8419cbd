"""The commutant spectrum from the swap sectors (three, or five real blocks
for the models, whose generators are each real or imaginary) equals the
spectrum of the dense stacked doubled-space adjoint matrix, which stays the
oracle: build_stacked_adjoint decomposed by rank_and_nullity."""

import numpy as np
import pytest

from qdist import (DEFAULT_TOL, NumericalError, ToleranceConfig, haar_unitary,
                   random_hermitian, tensor_double)
from qdist.commutant import (SECTOR_MIN_DIM, _hermitian_adjoint_entries,
                             build_stacked_adjoint, commutant_dimension,
                             sector_blocks, swap_sector_bases)
from qdist.linalg import hermiticity_defect, rank_and_nullity
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising,
                          hopping_drift)

from conftest import original_space_adjoint, random_pair_system

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODELS = {
    "hopping_d4": lambda: build_hopping_chain(4),
    "hopping_d5": lambda: build_hopping_chain(5),
    "hopping_d6": lambda: build_hopping_chain(6),
    "ising": lambda: build_two_qubit_ising(1.0),
    "cross_kerr_2_4": lambda: build_cross_kerr(2, 4),
}


def assert_matches_dense(gens, tol=DEFAULT_TOL):
    split = commutant_dimension(gens, tol=tol, want_symmetries=False)
    dense = rank_and_nullity(build_stacked_adjoint(gens), tol=tol,
                             want_null_basis=False)
    smax = dense.singular_values[0]
    np.testing.assert_allclose(split.singular_values, dense.singular_values,
                               rtol=0, atol=1e-12 * smax)
    assert (split.rank, split.nullity) == (dense.rank, dense.nullity)
    return split


@pytest.mark.parametrize("name", MODELS)
def test_models_match_the_dense_spectrum(name):
    system = MODELS[name]()
    assert system.dim >= SECTOR_MIN_DIM
    assert assert_matches_dense(system.algebra_generators()).controllable


@hypothesis.settings(max_examples=10, deadline=None, database=None)
@hypothesis.given(d=st.integers(4, 5), seed=st.integers(0, 2 ** 16))
def test_random_pairs_match_the_dense_spectrum(d, seed):
    assert_matches_dense(random_pair_system(d, seed).algebra_generators())


@pytest.mark.parametrize("rank_rel_tol", [0.05, 0.2, 0.3])
def test_one_cutoff_for_all_sectors(rank_rel_tol):
    # coarse cutoffs put singular values of the smaller sectors between a
    # per-sector and the global cutoff; only the global one matches the
    # dense rank
    tol = ToleranceConfig(rank_rel_tol=rank_rel_tol)
    split = assert_matches_dense(build_hopping_chain(5).algebra_generators(),
                                 tol=tol)
    assert split.nullity > 2


def symmetry_cases():
    rng = np.random.default_rng(5)
    return {
        "global_chain_1_1": build_global_control_chain(
            2, [1.0, 1.0]).algebra_generators(),
        "hopping_d5_drift_only": [hopping_drift(5)],
        "diagonal_d5_pair": [np.diag(rng.standard_normal(5)).astype(complex)
                             for _ in range(2)],
    }


@pytest.mark.parametrize("name", symmetry_cases())
def test_symmetry_basis_spans_the_doubled_commutant(name):
    gens = symmetry_cases()[name]
    result = commutant_dimension(gens)
    dense = rank_and_nullity(build_stacked_adjoint(gens), want_null_basis=False)
    assert len(result.symmetry_basis) == result.nullity == dense.nullity > 2
    for x in result.symmetry_basis:
        assert np.array_equal(x, x.conj().T)
    flat = np.array([x.ravel() for x in result.symmetry_basis])
    np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(len(flat)),
                               atol=1e-12)
    for h in gens:
        doubled = tensor_double(h)
        scale = np.linalg.norm(doubled)
        for x in result.symmetry_basis:
            assert np.linalg.norm(doubled @ x - x @ doubled) <= 1e-10 * scale


def test_verdict_and_nullity_survive_haar_conjugation():
    u = haar_unitary(5, 31)
    hopping = build_hopping_chain(5).algebra_generators()
    for gens in (hopping, [hopping[0]], random_pair_system(5, 7).algebra_generators()):
        before = commutant_dimension(gens, want_symmetries=False)
        after = commutant_dimension([u @ h @ u.conj().T for h in gens],
                                    want_symmetries=False)
        assert (after.controllable, after.nullity) \
            == (before.controllable, before.nullity)


@pytest.mark.parametrize("name", ["hopping_d5", "cross_kerr_2_4"])
def test_large_norm_generators_keep_their_verdict(name):
    gens = MODELS[name]().algebra_generators()
    result = commutant_dimension([1e6 * h for h in gens])
    assert result.controllable
    assert result.nullity == commutant_dimension(gens).nullity == 2


def test_sectors_of_an_accepted_input_are_not_rechecked():
    # a generator within hermiticity_tol of Hermitian is accepted, but its
    # doubled sectors are up to twice as far off, so they are symmetrized
    # and not checked again
    d = 5
    gens = random_pair_system(d, 11).algebra_generators()
    gens[0] = gens[0] + 0.45e-10j * np.eye(d)
    assert hermiticity_defect(gens[0]) <= DEFAULT_TOL.hermiticity_tol
    vs, _ = swap_sector_bases(d)
    assert hermiticity_defect(vs.T @ tensor_double(gens[0]) @ vs) \
        > DEFAULT_TOL.hermiticity_tol
    assert assert_matches_dense(gens).controllable


def test_sector_svd_failure_is_a_numerical_error(monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericalError, match="did not converge"):
        commutant_dimension(build_hopping_chain(4).algebra_generators())


def test_sector_blocks_cover_the_doubled_space():
    # [V_s V_a] is orthogonal, the widths add up to d^4, and the Sym^2
    # block is the original-space map on H_s
    d = 5
    vs, va = swap_sector_bases(d)
    v = np.hstack([vs, va])
    np.testing.assert_allclose(v.T @ v, np.eye(d * d), atol=1e-15)
    gens = random_pair_system(d, 3).algebra_generators()
    sym, anti, off = (b.matrix for b in sector_blocks(gens, vs, va))
    assert sym.shape[1] + anti.shape[1] + 2 * off.shape[1] == d ** 4
    h_s = vs.T @ tensor_double(gens[0]) @ vs
    np.testing.assert_allclose(
        sym[:sym.shape[1]],
        original_space_adjoint([(h_s + h_s.conj().T) / 2]),
        atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_cached_index_pattern_is_the_built_one_and_read_only(n):
    cached = _hermitian_adjoint_entries(n)
    assert cached is _hermitian_adjoint_entries(n)
    for part, built in zip(cached, _hermitian_adjoint_entries.__wrapped__(n)):
        np.testing.assert_array_equal(part, built)
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0


@pytest.mark.parametrize("d", range(2, 7))
def test_cached_swap_sector_bases_are_the_built_ones_and_read_only(d):
    cached = swap_sector_bases(d)
    assert cached is swap_sector_bases(d)
    for basis, built in zip(cached, swap_sector_bases.__wrapped__(d)):
        np.testing.assert_array_equal(basis, built)
        assert not basis.flags.writeable


def test_spectrum_after_another_size_was_cached():
    # d = 4 reads the patterns of n = 10 and 6 (sectors) and 16 (the dense
    # oracle); an n = 9 pattern (the dense matrix at d = 3) is cached first
    build_stacked_adjoint(random_pair_system(3, 1).algebra_generators())
    assert_matches_dense(random_pair_system(4, 11).algebra_generators())
