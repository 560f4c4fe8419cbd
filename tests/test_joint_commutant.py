"""joint_blocks finds the generators' joint commutant in the eigenbasis of one
random element R of their span, on the sum m_c^2 positions inside R's
eigenvalue clusters. The dense oracle is the full stacked original-space
matrix, conftest.original_space_adjoint decomposed by rank_and_nullity,
with the same random combination of its null vectors diagonalized."""

import numpy as np
import pytest

from qdist import (DEFAULT_TOL, ControlSystem, NumericalError, cli, commutant,
                   haar_unitary, random_hermitian)
from qdist.commutant import _joint_commutant, block_projector, joint_blocks
from qdist.distance import is_symmetry_witness
from qdist.linalg import devec_herm, rank_and_nullity, vec_herm
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising)

from conftest import (manual_gap_merge, original_space_adjoint,
                      random_pair_system)

MODELS = {
    "ising_0.5": lambda: build_two_qubit_ising(0.5),
    "ising_1": lambda: build_two_qubit_ising(1.0),
    "chain_1_1": lambda: build_global_control_chain(2, [1.0, 1.0]),
    "chain_1_1.2": lambda: build_global_control_chain(2, [1.0, 1.2]),
    "chain_n3": lambda: build_global_control_chain(3, [1.0, 1.3, 1.7]),
    **{f"hopping_d{d}": (lambda d=d: build_hopping_chain(d))
       for d in (2, 3, 4, 5, 6, 8)},
    "cross_kerr_2_3": lambda: build_cross_kerr(2, 3),
    "cross_kerr_2_4": lambda: build_cross_kerr(2, 4),
    "cross_kerr_3_2": lambda: build_cross_kerr(3, 2),
}

SEEDS = (719, 1, 2)


def oracle(gens, tol=DEFAULT_TOL):
    """(nullity, null basis, blocks) of the dense original-space commutant,
    the blocks as joint_blocks found them before: the eigenspaces of a
    random combination of the dense null vectors."""
    d = np.asarray(gens[0]).shape[0]
    r = rank_and_nullity(original_space_adjoint(gens, tol=tol), tol=tol)
    if r.nullity <= 1:
        return r.nullity, r.null_basis, None
    rng = np.random.default_rng(0)
    m = devec_herm(r.null_basis @ rng.standard_normal(r.nullity), d)
    w, v = np.linalg.eigh(m)
    blocks = [[0]]
    for i in range(1, d):
        if w[i] - w[i - 1] <= tol.degeneracy_tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return r.nullity, r.null_basis, (v, blocks) if len(blocks) > 1 else None


def projectors(joint):
    basis, blocks = joint
    return [block_projector(basis, b) for b in blocks]


def assert_matches_oracle(gens, seed, monkeypatch, tol=DEFAULT_TOL):
    nullity, null_basis, dense = oracle(gens, tol)
    # the null space itself, mapped back to the original space, lies in the
    # dense one: same dimension, so the same space
    r_basis, coords = _joint_commutant(gens, tol, np.random.default_rng(seed))
    assert len(coords) == nullity
    found = np.array([vec_herm(r_basis @ devec_herm(y, len(r_basis))
                               @ r_basis.conj().T) for y in coords])
    if nullity:
        outside = found - (found @ null_basis) @ null_basis.T
        assert np.abs(outside).max() <= 1e-8
    monkeypatch.setattr(commutant, "_JOINT_SEED", seed)
    joint = joint_blocks(gens, tol)
    assert (joint is None) == (dense is None)
    if joint is None:
        return
    assert sorted(map(len, joint[1])) == sorted(map(len, dense[1]))
    found = projectors(joint)
    np.testing.assert_allclose(sum(found), np.eye(len(r_basis)), atol=1e-12)
    for p in found:
        assert is_symmetry_witness(p, gens, tol)
    if nullity == len(found):  # abelian: the finest blocks are unique
        expected = projectors(dense)
        for p in found:
            assert min(np.abs(p - q).max() for q in expected) <= 1e-9


def recorder(monkeypatch, name):
    """Record the matrix that every call of commutant.<name> takes (its
    first argument; for _stacked_adjoint, the matrix it returns)."""
    log = []
    original = getattr(commutant, name)

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        log.append(out if name == "_stacked_adjoint" else args[0])
        return out

    monkeypatch.setattr(commutant, name, recorded)
    return log


def merged(system: ControlSystem) -> list:
    """The generators of the system gap merge builds: the closest drift
    eigenvalue pair shifted onto its midpoint."""
    cert = manual_gap_merge(system)
    perturbations = [(i, op.matrix) for i, op in cert.perturbations]
    return system.with_perturbations(perturbations).algebra_generators()


def tensor_with_qubit(seed, haar=True):
    """{A (x) 1_2, B (x) 1_2} at d = 6, A and B random, in a Haar basis or
    as built: a non-abelian joint commutant 1 (x) M_2, and any element of
    the span degenerate in pairs."""
    gens = [np.kron(random_hermitian(3, seed + k).matrix, np.eye(2))
            for k in range(2)]
    if not haar:
        return gens
    u = haar_unitary(6, seed + 7)
    gens = [u @ g @ u.conj().T for g in gens]
    return [(g + g.conj().T) / 2 for g in gens]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", range(2, 11))
def test_random_pairs(d, seed, monkeypatch):
    assert_matches_oracle(random_pair_system(d, 40 + d).algebra_generators(),
                          seed, monkeypatch)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", MODELS)
def test_models_their_controls_and_their_gap_merge(name, seed, monkeypatch):
    system = MODELS[name]()
    gens = system.algebra_generators()
    assert_matches_oracle(gens, seed, monkeypatch)
    controls = gens[1:] if system.drift is not None else gens
    if len(controls) > 1:
        assert_matches_oracle(controls, seed, monkeypatch)
    if system.drift is not None:
        assert_matches_oracle(merged(system), seed, monkeypatch)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", range(3, 9))
def test_gap_merged_random_pairs(d, seed, monkeypatch):
    assert_matches_oracle(merged(random_pair_system(d, 90 + d)), seed,
                          monkeypatch)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("haar", [False, True])
def test_non_abelian_commutant(haar, seed, monkeypatch):
    gens = tensor_with_qubit(500, haar)
    assert_matches_oracle(gens, seed, monkeypatch)
    # R is degenerate in pairs: three clusters of 2, 12 columns, and the
    # commutant 1 (x) M_2 has nullity 4; its finest blocks are 2 of 3
    inputs = recorder(monkeypatch, "singular_decomposition")
    _, coords = _joint_commutant(gens, DEFAULT_TOL,
                                 np.random.default_rng(seed))
    assert [m.shape[1] for m in inputs] == [12] and len(coords) == 4
    monkeypatch.setattr(commutant, "_JOINT_SEED", seed)
    assert sorted(map(len, joint_blocks(gens, DEFAULT_TOL)[1])) == [3, 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_generator_beside_a_nonzero_one(seed, monkeypatch):
    h = random_hermitian(2, 610).matrix
    gens = [np.zeros((2, 2)), h]
    assert_matches_oracle(gens, seed, monkeypatch)
    # both blocks are eigenspaces of h
    monkeypatch.setattr(commutant, "_JOINT_SEED", seed)
    assert sorted(map(len, joint_blocks(gens, DEFAULT_TOL)[1])) == [1, 1]


def test_a_cutoff_relative_to_the_restricted_matrix_fails(monkeypatch):
    # h is diagonal in R's basis, so the restricted matrix holds only
    # roundoff: relative to its own largest value, that roundoff is rank
    gens = [np.zeros((2, 2)), random_hermitian(2, 610).matrix]
    inputs = recorder(monkeypatch, "singular_decomposition")
    _, coords = _joint_commutant(gens, DEFAULT_TOL, np.random.default_rng(719))
    assert len(inputs) == 1
    s = np.linalg.svd(inputs[0], compute_uv=False)
    assert len(coords) == oracle(gens)[0] == 2
    assert 0 < s[0] < 1e-14
    relative_nullity = len(s) - np.count_nonzero(
        s > DEFAULT_TOL.rank_rel_tol * s[0])
    assert relative_nullity < 2


@pytest.mark.parametrize("scale", [1e-6, 1e6])
@pytest.mark.parametrize("case", ["hopping_d4", "chain_1_1", "random_d5",
                                  "merged_hopping_d6", "tensor", "zero"])
def test_rescaled_generators(case, scale, monkeypatch):
    gens = {"hopping_d4": lambda: build_hopping_chain(4).algebra_generators(),
            "chain_1_1": lambda: MODELS["chain_1_1"]().algebra_generators(),
            "random_d5": lambda: random_pair_system(5, 7).algebra_generators(),
            "merged_hopping_d6": lambda: merged(build_hopping_chain(6)),
            "tensor": lambda: tensor_with_qubit(520),
            "zero": lambda: [np.zeros((2, 2)),
                             random_hermitian(2, 610).matrix]}[case]()
    scaled = [scale * np.asarray(g) for g in gens]
    for seed in SEEDS:
        assert_matches_oracle(scaled, seed, monkeypatch)


@pytest.mark.parametrize("case", ["hopping_d8", "random_d5"])
def test_identity_shifted_generators(case, monkeypatch):
    # a shift far above the generators' spread moves R's eigenvalues away
    # from 0 but not apart: its clusters, and so its d columns, stay
    gens = (build_hopping_chain(8).algebra_generators() if case == "hopping_d8"
            else random_pair_system(5, 7).algebra_generators())
    d = len(gens[0])
    shifted = [np.asarray(g) + 1e6 * np.eye(d) for g in gens]
    assert_matches_oracle(shifted, 719, monkeypatch)
    inputs = recorder(monkeypatch, "singular_decomposition")
    _joint_commutant(shifted, DEFAULT_TOL, np.random.default_rng(719))
    assert [m.shape[1] for m in inputs] == [d]


@pytest.mark.parametrize("name", ["hopping_d16", "global_chain_n4"])
def test_no_d2_column_svd(name, monkeypatch):
    # analyze at d = 16: the commutant spectrum is guarded off, so every
    # SVD input of commutant is joint_blocks'. Its widest has d columns
    # (R's spectrum is simple), not the d^2 = 256 of the full stacked
    # matrix, and the restricted matrix is built with those columns alone.
    system = (build_hopping_chain(16) if name == "hopping_d16" else
              build_global_control_chain(4, [1.0, 1.3, 1.7, 2.2]))
    inputs = recorder(monkeypatch, "singular_decomposition")
    filled = recorder(monkeypatch, "_stacked_adjoint")
    _, code = cli.analyze_system(system, DEFAULT_TOL)
    assert code == cli.EXIT_OK
    for log in inputs, filled:
        assert log and max(m.shape[1] for m in log) == 16


@pytest.mark.parametrize("routine", ["eigh", "eigvalsh", "svd"])
def test_a_failed_decomposition_is_a_numerical_error(routine, monkeypatch):
    def failed(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, failed)
    with pytest.raises(NumericalError, match="converge"):
        joint_blocks(random_pair_system(3, 1).algebra_generators(), DEFAULT_TOL)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_selected_columns_are_those_of_the_full_matrix(d):
    mats = [random_hermitian(d, 800 + d + k).matrix for k in range(3)]
    mask = np.random.default_rng(d).random(d * d) < 0.4
    full = commutant._stacked_adjoint(mats)
    np.testing.assert_array_equal(commutant._stacked_adjoint(mats, mask),
                                  full[:, mask])
