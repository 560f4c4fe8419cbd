import numpy as np
import pytest

from qdist import (InputError, commutant_dimension, haar_unitary, hs_inner,
                   lie_closure, lie_dimension, random_hermitian)
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising, pauli_on)

from conftest import PAULI_X, PAULI_Y, PAULI_Z


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


def test_basis_orthonormal_and_skew_hermitian():
    result = lie_dimension([PAULI_Z, PAULI_X])
    for i, a in enumerate(result.basis):
        assert np.max(np.abs(a + a.conj().T)) < 1e-12  # skew-Hermitian
        assert abs(np.trace(a)) < 1e-12
        for j, b in enumerate(result.basis):
            expected = 1.0 if i == j else 0.0
            assert hs_inner(a, b) == pytest.approx(expected, abs=1e-10)


def test_trace_is_shifted_out():
    # the trace is shifted out: I + Z closes like Z
    r = lie_dimension([np.eye(2) + PAULI_Z])
    assert r.dimension == 1


def test_dimension_mismatch():
    with pytest.raises(InputError):
        lie_dimension([PAULI_Z, np.kron(PAULI_Z, PAULI_Z)])


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


@pytest.mark.parametrize("d", range(3, 13))
def test_hopping_depth_is_right_normed_bracket_depth(d):
    # the drift and the site control need brackets of 2d - 1 generators
    gens = build_hopping_chain(d).algebra_generators()
    assert lie_dimension(gens).depth == 2 * (d - 1)


def test_closure_brackets_with_generators_only(monkeypatch):
    # every candidate passes through real_vec once: K generators plus K
    # brackets per basis element, not one bracket per pair of elements
    calls = 0
    real_vec = lie_closure.real_vec

    def counting_real_vec(m):
        nonlocal calls
        calls += 1
        return real_vec(m)

    monkeypatch.setattr(lie_closure, "real_vec", counting_real_vec)
    gens = build_hopping_chain(16).algebra_generators()
    result = lie_dimension(gens)
    k, dim = len(gens), result.dimension
    assert dim == 255
    assert calls <= k * (dim + 1)
