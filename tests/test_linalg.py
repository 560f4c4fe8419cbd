import numpy as np
import pytest

from qdist import (HermitianOperator, InputError, ToleranceConfig,
                   commutator, haar_unitary, hermitian_eigensystem,
                   operator_norm, random_hermitian, rank_and_nullity,
                   tensor_double)
from qdist.commutant import build_stacked_adjoint

from conftest import (PAULI_X, PAULI_Y, PAULI_Z, adjoint_action_matrix,
                      devec_row, random_density, vec_row)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_scaled_pauli(self):
        assert operator_norm(0.37 * PAULI_Z) == pytest.approx(0.37, abs=1e-14)

    def test_vector_sampling_oracle(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        norm = operator_norm(m)
        best = 0.0
        for _ in range(1000):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            best = max(best, np.linalg.norm(m @ v))
        assert norm >= best - 1e-6  # sampling only ever gives a lower bound
        # independent eigenvalue oracle: ||M||^2 = lambda_max(M^dagger M)
        lam = np.linalg.eigvalsh(m.conj().T @ m).max()
        assert norm == pytest.approx(np.sqrt(lam), rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            operator_norm(np.array([[np.nan, 0], [0, 1]]))

    def test_submultiplicative_and_unitary_invariant(self, rng):
        for k in range(20):
            d = int(rng.integers(2, 5))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10
            u = haar_unitary(d, 100 + k)
            v = haar_unitary(d, 200 + k)
            assert operator_norm(u @ a @ v) == pytest.approx(operator_norm(a),
                                                             rel=1e-10)


class TestCommutator:
    def test_pauli_z_x(self):
        np.testing.assert_allclose(commutator(PAULI_Z, PAULI_X), 2j * PAULI_Y,
                                   atol=1e-14)

    def test_self_commutator_vanishes(self, rng):
        a = rng.standard_normal((3, 3))
        assert np.max(np.abs(commutator(a, a))) == 0.0

    def test_two_qubit_entrywise(self):
        zz = np.kron(PAULI_Z, PAULI_Z)
        x1 = np.kron(PAULI_X, np.eye(2))
        expected = zz @ x1 - x1 @ zz  # direct 4x4 multiplication
        np.testing.assert_allclose(commutator(zz, x1), expected, atol=1e-14)
        np.testing.assert_allclose(expected, 2j * np.kron(PAULI_Y, PAULI_Z),
                                   atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            commutator(np.eye(2), np.eye(3))


class TestTensorDouble:
    def test_zero(self):
        assert np.max(np.abs(tensor_double(np.zeros((3, 3))))) == 0.0

    def test_identity(self):
        np.testing.assert_allclose(tensor_double(np.eye(3)), 2 * np.eye(9),
                                   atol=1e-14)

    def test_pauli_z(self):
        np.testing.assert_allclose(tensor_double(PAULI_Z),
                                   np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-14)

    def test_is_the_kronecker_sum_bit_for_bit(self, rng):
        for d in range(1, 7):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            eye = np.eye(d)
            assert (tensor_double(a).tobytes()
                    == (np.kron(a, eye) + np.kron(eye, a)).tobytes())

    def test_norm_bound(self, rng):
        for k in range(100):
            d = 2 + k % 3
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert operator_norm(tensor_double(a)) <= 2 * operator_norm(a) + 1e-10


class TestAdjointActionAndVec:
    def test_identity_is_zero(self):
        assert np.max(np.abs(adjoint_action_matrix(np.eye(4)))) == 0.0

    def test_represents_commutator(self, rng):
        bad = adjoint_action_matrix(PAULI_Z)
        for _ in range(20):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            np.testing.assert_allclose(bad @ vec_row(x),
                                       vec_row(commutator(PAULI_Z, x)),
                                       atol=1e-12)

    def test_represents_commutator_random_b(self, rng):
        for k in range(10):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            bad = adjoint_action_matrix(b)
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            np.testing.assert_allclose(bad @ vec_row(x),
                                       vec_row(commutator(b, x)), atol=1e-12)
            assert operator_norm(bad) <= 2 * operator_norm(b) + 1e-10

    def test_vec_row_order(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(vec_row(m), [1, 2, 3, 4])

    def test_devec_round_trip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(devec_row(vec_row(m), 3, 3), m)

    def test_kron_identity_property(self, rng):
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(vec_row(b @ x),
                                   np.kron(b, np.eye(3)) @ vec_row(x), atol=1e-12)

    def test_devec_length_mismatch(self):
        with pytest.raises(InputError):
            devec_row(np.ones(5), 2, 2)


class TestRankAndNullity:
    def test_identity(self):
        r = rank_and_nullity(np.eye(4))
        assert (r.rank, r.nullity) == (4, 0)

    def test_rank_one_outer_product(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        r = rank_and_nullity(np.outer(u, v.conj()))
        assert (r.rank, r.nullity) == (1, 3)
        assert r.null_basis.shape == (4, 3)

    def test_single_qubit_stacked_matrix(self):
        # stacked doubled-space adjoint for the controllable pair (Z, X)
        stacked = build_stacked_adjoint([PAULI_Z, PAULI_X])
        assert stacked.shape == (32, 16)
        r = rank_and_nullity(stacked)
        assert (r.rank, r.nullity) == (14, 2)

    def test_null_vector_quality(self, rng):
        m = rng.standard_normal((6, 4))
        m[:, 3] = m[:, 0] + m[:, 1]  # force rank deficiency
        r = rank_and_nullity(m)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        tol = ToleranceConfig()
        for j in range(r.nullity):
            assert np.linalg.norm(m @ r.null_basis[:, j]) <= 10 * tol.rank_rel_tol * smax

    def test_zero_matrix(self):
        r = rank_and_nullity(np.zeros((3, 5)))
        assert (r.rank, r.nullity) == (0, 5)

    def test_wide_matrix_null_space(self, rng):
        m = rng.standard_normal((2, 5))
        r = rank_and_nullity(m)
        assert (r.rank, r.nullity) == (2, 3)
        assert np.max(np.abs(m @ r.null_basis)) < 1e-12

    def test_unitary_invariance(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m[:, 4] = m[:, 2]  # rank 4
        u = haar_unitary(5, 1)
        v = haar_unitary(5, 2)
        assert rank_and_nullity(u @ m @ v).rank == rank_and_nullity(m).rank


class TestHermitianEigensystem:
    def test_pauli_z(self):
        w, v = hermitian_eigensystem(PAULI_Z)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-14)

    def test_hopping_three_sites(self):
        h = np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
        w, _ = hermitian_eigensystem(h)
        np.testing.assert_allclose(w, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)

    def test_reconstruction(self):
        h = random_hermitian(5, 99).matrix
        w, v = hermitian_eigensystem(h)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


class TestRandomGenerators:
    def test_determinism(self):
        a = random_hermitian(4, 7).matrix
        b = random_hermitian(4, 7).matrix
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(haar_unitary(4, 7), haar_unitary(4, 7))

    def test_haar_unitarity(self):
        for seed in range(5):
            u = haar_unitary(3, seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_traceless_variant(self):
        h = random_hermitian(5, 3, traceless=True)
        assert abs(np.trace(h.matrix)) <= 1e-12


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_matrix_frozen(self):
        op = HermitianOperator(PAULI_Z)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestSupplementaryInequalities:
    def test_doubled_unitary_difference(self):
        for k in range(100):
            d = 2 + k % 3
            u1 = haar_unitary(d, 2 * k)
            u2 = haar_unitary(d, 2 * k + 1)
            lhs = operator_norm(np.kron(u1, u1) - np.kron(u2, u2))
            assert lhs <= 2 * operator_norm(u1 - u2) + 1e-10

    def test_state_action_difference(self):
        for k in range(100):
            d = 2 + k % 3
            v = haar_unitary(d, 3 * k)
            w = haar_unitary(d, 3 * k + 1)
            rho = random_density(d, k)
            lhs = np.linalg.norm(v @ rho @ v.conj().T - w @ rho @ w.conj().T, "nuc")
            assert lhs <= 2 * operator_norm(v - w) + 1e-10


def test_tolerance_config_validation():
    with pytest.raises(InputError):
        ToleranceConfig(rank_rel_tol=1.5)
    with pytest.raises(InputError):
        ToleranceConfig(commute_tol=-1e-9)


def test_blas_threads_are_pinned_before_numpy_loads():
    # conftest sets the thread counts before the first import of numpy;
    # set after it, they would not reach BLAS
    import os

    import conftest
    assert not conftest.NUMPY_PRELOADED
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(var)
