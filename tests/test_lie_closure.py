import numpy as np
import pytest

from qdist import (InputError, haar_unitary, hs_inner, is_controllable_commutant,
                   is_controllable_lie, lie_dimension, random_hermitian)
from qdist.models import build_hopping_chain, pauli_on

from conftest import PAULI_X, PAULI_Y, PAULI_Z


def test_single_qubit_pair_closes_su2():
    result = lie_dimension([PAULI_Z, PAULI_X])
    assert result.dimension == 3
    assert is_controllable_lie([PAULI_Z, PAULI_X])


def test_single_generator_dimension_one():
    result = lie_dimension([PAULI_Z])
    assert result.dimension == 1
    assert not is_controllable_lie([PAULI_Z])


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
    assert is_controllable_lie(system.algebra_generators())


def test_basis_orthonormal_and_skew_hermitian():
    result = lie_dimension([PAULI_Z, PAULI_X])
    for i, a in enumerate(result.basis):
        assert np.max(np.abs(a + a.conj().T)) < 1e-12  # skew-Hermitian
        assert abs(np.trace(a)) < 1e-12
        for j, b in enumerate(result.basis):
            expected = 1.0 if i == j else 0.0
            assert hs_inner(a, b) == pytest.approx(expected, abs=1e-10)


def test_requires_traceless_by_default():
    with pytest.raises(InputError):
        lie_dimension([np.eye(2) + PAULI_Z])
    # auto-shifted variant accepts the same input
    r = lie_dimension([np.eye(2) + PAULI_Z], require_traceless=False)
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
        lie_verdict = is_controllable_lie([a, b])
        com_verdict = is_controllable_commutant([a, b])
        assert lie_verdict == com_verdict
        count += 1
    assert count == 50
