import numpy as np
import pytest

from qdist import (InputError, commutant_dimension, devec_herm,
                   haar_unitary, lie_closure, lie_dimension,
                   random_hermitian, vec_herm)
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising, pauli_on)

from conftest import (PAULI_X, PAULI_Y, PAULI_Z, block_symmetric_pair,
                      random_pair_system, reference_lie_closure)


def test_single_qubit_pair_closes_su2():
    result = lie_dimension([PAULI_Z, PAULI_X])
    assert result.dimension == 3
    assert lie_dimension([PAULI_Z, PAULI_X]).controllable


def test_single_generator_dimension_one():
    result = lie_dimension([PAULI_Z])
    assert result.dimension == 1
    assert not lie_dimension([PAULI_Z]).controllable


def test_two_local_su2_never_couple():
    gens = [pauli_on(2, 0, "X"), pauli_on(2, 0, "Y"),
            pauli_on(2, 1, "X"), pauli_on(2, 1, "Y")]
    assert lie_dimension(gens).dimension == 6


def test_ising_with_full_local_control():
    gens = [np.kron(PAULI_Z, PAULI_Z),
            pauli_on(2, 0, "X"), pauli_on(2, 0, "Y"),
            pauli_on(2, 1, "X"), pauli_on(2, 1, "Y")]
    assert lie_dimension(gens).dimension == 15


def test_hopping_chain_with_site_control_controllable():
    system = build_hopping_chain(4)
    assert lie_dimension(system.algebra_generators()).controllable


def test_trace_is_shifted_out():
    # the trace is shifted out: I + Z closes like Z
    r = lie_dimension([np.eye(2) + PAULI_Z])
    assert r.dimension == 1


def test_dimension_mismatch():
    with pytest.raises(InputError):
        lie_dimension([PAULI_Z, np.kron(PAULI_Z, PAULI_Z)])


def test_non_hermitian_list_is_the_commutant_input_error():
    # both oracles run the one input check, linalg.checked_generators
    gens = [PAULI_Z, np.array([[0, 1], [0, 0]], dtype=complex)]
    messages = []
    for oracle in (lie_dimension, commutant_dimension):
        with pytest.raises(InputError, match="not Hermitian") as info:
            oracle(gens)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_invariant_under_conjugation():
    u = haar_unitary(4, 5)
    gens = [np.kron(PAULI_Z, PAULI_Z), pauli_on(2, 0, "X"), pauli_on(2, 1, "Y")]
    conjugated = [u @ g @ u.conj().T for g in gens]
    assert lie_dimension(gens).dimension == lie_dimension(conjugated).dimension


def test_invariant_under_rescaling():
    gens = [PAULI_Z, PAULI_X]
    scaled = [(-3.7) * PAULI_Z, 0.01 * PAULI_X]
    assert lie_dimension(gens).dimension == lie_dimension(scaled).dimension


def test_monotone_in_generators():
    for seed in range(10):
        d = 3
        a = random_hermitian(d, seed, traceless=True).matrix
        b = random_hermitian(d, seed + 50, traceless=True).matrix
        c = random_hermitian(d, seed + 100, traceless=True).matrix
        base = lie_dimension([a, b]).dimension
        extended = lie_dimension([a, b, c]).dimension
        assert extended >= base


def test_agreement_with_commutant_oracle():
    # mix of generic and deliberately degenerate generator pairs
    count = 0
    for seed in range(50):
        d = 2 + seed % 3
        a = random_hermitian(d, 3 * seed, traceless=True).matrix
        if seed % 5 == 0:
            b = np.diag(np.diag(a)).copy()  # commuting-ish / low rank cases
            a = np.diag(np.sort(np.diag(a).real)).astype(complex)
            b = b - np.trace(b) / d * np.eye(d)
            a = a - np.trace(a) / d * np.eye(d)
        else:
            b = random_hermitian(d, 3 * seed + 1, traceless=True).matrix
        lie_verdict = lie_dimension([a, b]).controllable
        com_verdict = commutant_dimension([a, b], want_symmetries=False).controllable
        assert lie_verdict == com_verdict
        count += 1
    assert count == 50


DIMENSION_TABLE = [
    pytest.param(lambda d=d: build_hopping_chain(d), d * d - 1,
                 id=f"hopping_d{d}") for d in range(3, 13)] + [
    pytest.param(lambda: build_cross_kerr(3, 3), 99, id="cross_kerr_3_3"),
    pytest.param(lambda: build_global_control_chain(4, [1.0, 1.3, 1.7, 2.2]),
                 255, id="global_chain_n4"),
    pytest.param(lambda: build_global_control_chain(2, [1.0, 1.0]), 9,
                 id="global_chain_n2_equal_gammas"),
    pytest.param(lambda: build_two_qubit_ising(1.0), 15, id="ising"),
]


@pytest.mark.parametrize("build, expected", DIMENSION_TABLE)
def test_dimension_table(build, expected):
    gens = build().algebra_generators()
    assert lie_dimension(gens).dimension == expected


@pytest.mark.parametrize("d", range(3, 21))
def test_hopping_depth_is_right_normed_bracket_depth(d):
    # the drift and the site control need brackets of 2d - 1 generators
    gens = build_hopping_chain(d).algebra_generators()
    assert lie_dimension(gens).depth == 2 * (d - 1)


def test_closure_brackets_with_generators_only(monkeypatch):
    # every candidate passes through _extend once: K generators plus K
    # brackets per basis element, not one bracket per pair of elements
    calls = 0
    extend = lie_closure._extend

    def counting_extend(grade, candidates, *args):
        nonlocal calls
        calls += len(candidates)
        return extend(grade, candidates, *args)

    monkeypatch.setattr(lie_closure, "_extend", counting_extend)
    gens = build_hopping_chain(16).algebra_generators()
    result = lie_dimension(gens)
    k, dim = len(gens), result.dimension
    assert dim == 255
    assert k < calls <= k * (dim + 1)


ORACLE_CASES = DIMENSION_TABLE + [
    pytest.param(lambda d=d, seed=seed: random_pair_system(d, seed), None,
                 id=f"random_d{d}_seed{seed}")
    for d in range(2, 9) for seed in (0, 1)] + [
    pytest.param(lambda: build_two_qubit_ising(0.5), None, id="ising_0.5"),
    pytest.param(lambda: build_global_control_chain(2, [1.0, 1.2]), None,
                 id="global_chain_n2"),
    pytest.param(lambda: build_global_control_chain(3, [1.0, 1.0, 1.5]), None,
                 id="global_chain_n3_two_equal"),
]


@pytest.mark.parametrize("build, expected", ORACLE_CASES)
def test_matches_the_per_candidate_reference(build, expected):
    gens = build().algebra_generators()
    result, reference = lie_dimension(gens), reference_lie_closure(gens)
    assert (result.dimension, result.depth, result.controllable) == (
        reference.dimension, reference.depth, reference.controllable)


@pytest.mark.parametrize("eta", [1e-11, 1e-9, 1e-7])
def test_near_symmetric_pairs_match_the_reference(eta):
    # remainders near rank_rel_tol decide these closures; the verdict and
    # the dimension do not depend on the order candidates are taken in
    for seed in range(10):
        gens = block_symmetric_pair(seed, eta)
        result, reference = lie_dimension(gens), reference_lie_closure(gens)
        assert (result.controllable, result.dimension) == (
            reference.controllable, reference.dimension), seed


@pytest.mark.parametrize("d", [2, 3, 5])
def test_grade_coordinates_are_vec_herm(d):
    # the closure reads and writes the coordinates of linalg.vec_herm
    h = random_hermitian(d, d).matrix
    coords = vec_herm(h)
    for grade, positions in ((0, np.ones(d * d, dtype=bool)),
                             (1, np.triu(np.ones((d, d), dtype=bool)).ravel()),
                             (-1, ~np.triu(np.ones((d, d), dtype=bool)).ravel())):
        part = lie_closure._Grade(d, grade)
        # iH = P - P^dagger for P = iH / 2
        read = part.coordinates((0.5j * h)[None])
        np.testing.assert_allclose(read[0], coords[positions], atol=1e-15)
        part.rows[0] = read[0]
        out = np.zeros((1, d, d), dtype=complex)
        part.write_elements(0, out)
        kept = np.where(positions, coords, 0.0)
        np.testing.assert_allclose(out[0], 1j * devec_herm(kept, d), atol=1e-15)
