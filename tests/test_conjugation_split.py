"""Generators that are each real or imaginary (up to the identity) split
the commutant's swap sectors once more, by complex conjugation: five real
SVD inputs instead of two real and one complex. The same parity grades the
Lie closure into real symmetric and imaginary antisymmetric elements.
Conjugating by a diagonal phase unitary keeps the spectrum and the Lie
algebra and destroys that parity, so each such system is checked against
its conjugated copy, which takes the general path, and against the general
path on the same generators."""

import itertools

import numpy as np
import pytest

from qdist import commutant, lie_closure, lie_dimension, tensor_double
from qdist.commutant import (SECTOR_MIN_DIM, _parity_blocks, _stacked_adjoint,
                             build_stacked_adjoint, commutant_dimension,
                             conjugation_parity, sector_blocks,
                             swap_sector_bases)
from qdist.linalg import rank_and_nullity
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising)

from conftest import PAULI_Y, PAULI_Z, random_pair_system

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PARITY_MODELS = {
    "hopping_d4": lambda: build_hopping_chain(4),
    "hopping_d5": lambda: build_hopping_chain(5),
    "hopping_d6": lambda: build_hopping_chain(6),
    "cross_kerr_2_3": lambda: build_cross_kerr(2, 3),
    "cross_kerr_2_4": lambda: build_cross_kerr(2, 4),
    "ising": lambda: build_two_qubit_ising(1.0),
    "global_chain_1_1.2": lambda: build_global_control_chain(2, [1.0, 1.2]),
    "global_chain_1_1": lambda: build_global_control_chain(2, [1.0, 1.0]),
}


def phase_conjugated(gens, seed=0):
    """Every generator conjugated by one diagonal phase unitary
    diag(exp(i theta_j)): the same spectrum, and no conjugation parity."""
    d = gens[0].shape[0]
    theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, d)
    phases = np.exp(1j * theta)
    return [phases[:, None] * h * phases.conj()[None, :] for h in gens]


def general_path(monkeypatch):
    """Make sector_blocks see no generator parity: the three swap sectors,
    the off-diagonal one complex."""
    monkeypatch.setattr(commutant, "conjugation_parity", lambda m: 0)


def span_projector(operators) -> np.ndarray:
    """Orthogonal projector onto the span of the operators, vectorized."""
    q, _ = np.linalg.qr(np.array([x.ravel() for x in operators]).T)
    return q @ q.conj().T


@pytest.mark.parametrize("name", PARITY_MODELS)
def test_phase_conjugated_copy_has_the_same_spectrum(name):
    gens = PARITY_MODELS[name]().algebra_generators()
    conjugated = phase_conjugated(gens)
    assert gens[0].shape[0] >= SECTOR_MIN_DIM
    assert all(conjugation_parity(h) for h in gens)
    assert not any(conjugation_parity(h) for h in conjugated)
    vs, va = swap_sector_bases(gens[0].shape[0])
    assert [b.matrix.dtype for b in sector_blocks(gens, vs, va)] \
        == [np.dtype(np.float64)] * 5
    assert [b.matrix.dtype for b in sector_blocks(conjugated, vs, va)] \
        == [np.dtype(np.float64)] * 2 + [np.dtype(np.complex128)]
    split = commutant_dimension(gens, want_symmetries=False)
    general = commutant_dimension(conjugated, want_symmetries=False)
    assert (split.rank, split.nullity) == (general.rank, general.nullity)
    smax = general.singular_values[0]
    np.testing.assert_allclose(split.singular_values, general.singular_values,
                               rtol=0, atol=1e-12 * smax)


@pytest.mark.parametrize("name", PARITY_MODELS)
def test_split_symmetries_span_the_general_paths(name, monkeypatch):
    gens = PARITY_MODELS[name]().algebra_generators()
    split = commutant_dimension(gens)
    assert len(split.symmetry_basis) == split.nullity
    for h in gens:
        doubled = tensor_double(h)
        scale = np.linalg.norm(doubled)
        for x in split.symmetry_basis:
            assert np.array_equal(x, x.conj().T)
            assert np.linalg.norm(doubled @ x - x @ doubled) <= 1e-10 * scale
    general_path(monkeypatch)
    general = commutant_dimension(gens)
    assert general.nullity == split.nullity
    np.testing.assert_allclose(span_projector(split.symmetry_basis),
                               span_projector(general.symmetry_basis),
                               rtol=0, atol=1e-9)


def test_identity_shifted_imaginary_generator_takes_the_split_path():
    # i A + c I: the real part is a multiple of the identity, which drops
    # out of every adjoint map, so the parity is read from the traceless part
    gens = build_two_qubit_ising(1.0).algebra_generators()
    shifted = [gens[0], np.kron(PAULI_Y, PAULI_Z) + 0.37 * np.eye(4)]
    assert np.any(shifted[1].real)
    assert conjugation_parity(shifted[1]) == -1
    vs, va = swap_sector_bases(4)
    blocks = sector_blocks(shifted, vs, va)
    assert [b.matrix.dtype for b in blocks] == [np.dtype(np.float64)] * 5
    split = commutant_dimension(shifted, want_symmetries=False)
    dense = rank_and_nullity(build_stacked_adjoint(shifted),
                             want_null_basis=False)
    assert (split.rank, split.nullity) == (dense.rank, dense.nullity)
    np.testing.assert_allclose(split.singular_values, dense.singular_values,
                               rtol=0, atol=1e-12 * dense.singular_values[0])


def test_parity_is_read_exactly():
    h = build_hopping_chain(4).algebra_generators()[0]
    antisymmetric = np.triu(h) - np.tril(h)
    assert conjugation_parity(h) == 1
    assert conjugation_parity(1j * antisymmetric + np.eye(4)) == -1
    assert conjugation_parity(np.zeros((4, 4), dtype=complex)) == 1
    # no tolerance: an imaginary part far below any cutoff still counts
    assert conjugation_parity(h + 1e-300j * antisymmetric) == 0
    # a real diagonal that is not constant stays in the traceless part
    assert conjugation_parity(1j * antisymmetric
                              + np.diag([0.0, 0.0, 0.0, 1.0])) == 0
    assert not any(conjugation_parity(g)
                   for g in random_pair_system(4, 0).algebra_generators())


@hypothesis.settings(max_examples=10, deadline=None, database=None)
@hypothesis.given(d=st.integers(4, 5), seed=st.integers(0, 2 ** 16),
                  parities=st.sampled_from([(1, 1), (1, -1), (-1, -1)]))
def test_random_parity_pairs_match_the_dense_spectrum(d, seed, parities):
    rng = np.random.default_rng(seed)
    gens = []
    for parity in parities:
        g = rng.standard_normal((d, d))
        gens.append((g + g.T).astype(complex) if parity > 0 else 1j * (g - g.T))
    assert [conjugation_parity(h) for h in gens] == list(parities)
    split = commutant_dimension(gens, want_symmetries=False)
    dense = rank_and_nullity(build_stacked_adjoint(gens), want_null_basis=False)
    assert (split.rank, split.nullity) == (dense.rank, dense.nullity)
    np.testing.assert_allclose(split.singular_values, dense.singular_values,
                               rtol=0, atol=1e-12 * dense.singular_values[0])


def fill_then_gather(mats, parities) -> list:
    """The parity blocks as the full stacked matrix holds them: every
    K n^4 entry filled, then each column group gathered with the rows it
    reaches. The reference _parity_blocks is checked against bit for bit."""
    stacked = _stacked_adjoint(mats)
    n2 = stacked.shape[1]
    upper = np.triu(np.ones((mats[0].shape[0],) * 2, dtype=bool)).ravel()
    groups = np.flatnonzero(upper), np.flatnonzero(~upper)
    out = []
    for cols, other in (groups, groups[::-1]):
        rows = np.concatenate([k * n2 + (cols if p < 0 else other)
                               for k, p in enumerate(parities)])
        out.append((stacked[np.ix_(rows, cols)], cols))
    return out


@pytest.mark.parametrize("n", range(2, 11))
def test_parity_blocks_are_the_gathered_full_matrix(n):
    rng = np.random.default_rng(n)
    for k in (1, 2, 3):
        for parities in itertools.product((1, -1), repeat=k):
            mats = []
            for parity in parities:
                g = rng.standard_normal((n, n))
                mats.append((g + g.T).astype(complex) if parity > 0
                            else 1j * (g - g.T) + 0.3 * np.eye(n))
            for (matrix, cols), (gathered, expected) in zip(
                    _parity_blocks(mats, parities),
                    fill_then_gather(mats, parities)):
                assert np.array_equal(cols, expected)
                assert matrix.shape == gathered.shape
                assert matrix.tobytes() == gathered.tobytes(), parities


@pytest.fixture
def closure_widths(monkeypatch):
    """The coordinate width of every candidate batch the Lie closure
    takes: d(d+1)/2 or d(d-1)/2 for a grade, d^2 for the one grade."""
    widths = set()
    extend = lie_closure._extend

    def logging_extend(grade, candidates, *args):
        widths.add(candidates.shape[1])
        return extend(grade, candidates, *args)

    monkeypatch.setattr(lie_closure, "_extend", logging_extend)
    return widths


GRADED_SYSTEMS = {**PARITY_MODELS, **{
    f"hopping_d{d}": (lambda d=d: build_hopping_chain(d)) for d in range(7, 13)}}


@pytest.mark.parametrize("name", GRADED_SYSTEMS)
def test_graded_closure_matches_its_phase_conjugated_copy(name,
                                                          closure_widths):
    gens = GRADED_SYSTEMS[name]().algebra_generators()
    d = gens[0].shape[0]
    graded = lie_dimension(gens)
    assert closure_widths == {d * (d + 1) // 2, d * (d - 1) // 2}
    closure_widths.clear()
    general = lie_dimension(phase_conjugated(gens))
    assert closure_widths == {d * d}
    assert (graded.dimension, graded.depth) == (general.dimension,
                                                general.depth)


def test_mixed_parity_input_takes_the_one_grade(closure_widths):
    # one generator without a parity puts every element in one grade
    real = build_hopping_chain(4).algebra_generators()[0]
    imaginary = np.kron(PAULI_Y, PAULI_Z)
    generic = random_pair_system(4, 0).algebra_generators()[0]
    mixed = [real, imaginary, generic]
    assert [conjugation_parity(h) for h in mixed] == [1, -1, 0]
    result = lie_dimension(mixed)
    assert closure_widths == {16}
    assert result.controllable
