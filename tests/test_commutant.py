import numpy as np
import pytest

from qdist import (DimensionGuardError, commutant, commutator,
                   commutant_dimension, extract_original_space_symmetry,
                   haar_unitary, lie_dimension, operator_norm,
                   random_hermitian, tensor_double, vec_herm)
from qdist.commutant import build_stacked_adjoint
from qdist.linalg import rank_and_nullity
from qdist.models import build_global_control_chain, build_hopping_chain, pauli_on

from conftest import PAULI_X, PAULI_Z, SWAP_4


class TestBuildStackedAdjoint:
    def test_zero_generator(self):
        stacked = build_stacked_adjoint([np.zeros((2, 2))])
        assert stacked.shape == (16, 16)
        assert np.max(np.abs(stacked)) == 0.0

    def test_universal_null_vectors(self):
        stacked = build_stacked_adjoint([PAULI_Z, PAULI_X])
        assert stacked.shape == (32, 16)
        assert np.max(np.abs(stacked @ vec_herm(np.eye(4)))) < 1e-12
        assert np.max(np.abs(stacked @ vec_herm(SWAP_4))) < 1e-12

    def test_three_generator_shape(self):
        stacked = build_stacked_adjoint([PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X
                                         + PAULI_X @ PAULI_Z])
        assert stacked.shape == (48, 16)


class TestCommutantDimension:
    def test_controllable_pair(self):
        res = commutant_dimension([PAULI_Z, PAULI_X])
        assert res.nullity == 2
        assert res.rank == 14
        assert res.controllable
        assert res.expected_rank == 14
        s = res.singular_values
        assert s.shape == (16,)
        assert np.count_nonzero(s > 1e-9 * s[0]) == res.rank

    def test_repeated_generator_uncontrollable(self):
        res = commutant_dimension([PAULI_Z, PAULI_Z])
        assert res.nullity > 2
        assert not res.controllable

    def test_zero_drift_single_control_uncontrollable(self):
        assert not commutant_dimension([np.zeros((2, 2)), PAULI_X],
                                       want_symmetries=False).controllable

    def test_two_qubit_ising_full_local(self):
        gens = [np.kron(PAULI_Z, PAULI_Z),
                pauli_on(2, 0, "X"), pauli_on(2, 0, "Y"),
                pauli_on(2, 1, "X"), pauli_on(2, 1, "Y")]
        assert build_stacked_adjoint(gens).shape == (5 * 256, 256)
        res = commutant_dimension(gens)
        assert res.nullity == 2

    def test_hopping_chain_d3(self):
        system = build_hopping_chain(3)
        stacked = build_stacked_adjoint(system.algebra_generators())
        assert stacked.shape == (162, 81)
        assert commutant_dimension(system.algebra_generators(),
                                   want_symmetries=False).controllable

    def test_nullity_at_least_two_always(self):
        for seed in range(10):
            d = 2 + seed % 3
            gens = [random_hermitian(d, seed, traceless=True).matrix,
                    random_hermitian(d, seed + 30, traceless=True).matrix]
            res = commutant_dimension(gens)
            assert res.nullity >= 2
            # the two universal null directions are annihilated
            stacked = build_stacked_adjoint(gens)
            scale = operator_norm(stacked)
            eye = vec_herm(np.eye(d * d))
            swap = vec_herm(np.eye(d * d).reshape(d, d, d, d)
                            .transpose(1, 0, 2, 3).reshape(d * d, d * d))
            assert np.max(np.abs(stacked @ eye)) <= 1e-10 * scale
            assert np.max(np.abs(stacked @ swap)) <= 1e-10 * scale

    def test_symmetry_basis_properties(self):
        gens = [PAULI_Z, PAULI_Z]
        res = commutant_dimension(gens)
        assert len(res.symmetry_basis) == res.nullity
        for s in res.symmetry_basis:
            assert np.max(np.abs(s - s.conj().T)) < 1e-10  # Hermitian
            for g in gens:
                doubled = tensor_double(g)
                resid = operator_norm(commutator(s, doubled))
                assert resid <= 1e-9 * max(operator_norm(doubled), 1e-300)

    def test_verdict_invariant_under_conjugation(self):
        u = haar_unitary(3, 11)
        for seed in (0, 1):
            a = random_hermitian(3, seed, traceless=True).matrix
            b = random_hermitian(3, seed + 5, traceless=True).matrix
            direct = commutant_dimension([a, b], want_symmetries=False).controllable
            rotated = commutant_dimension(
                [u @ a @ u.conj().T, u @ b @ u.conj().T],
                want_symmetries=False).controllable
            assert direct == rotated

    def test_dimension_guard(self):
        gens = [random_hermitian(7, 0, traceless=True).matrix]
        with pytest.raises(DimensionGuardError):
            commutant_dimension(gens)


class TestSwapOnDoubledSpace:
    def test_swap_construction_helper(self):
        # sanity for the swap vector used above: swap (x) basis reordering
        d = 2
        swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3) \
            .reshape(d * d, d * d)
        np.testing.assert_array_equal(swap, SWAP_4.real)


class TestExtractOriginalSpaceSymmetry:
    def test_commuting_diagonal_family(self):
        gens = [np.kron(PAULI_Z, PAULI_Z), np.kron(PAULI_Z, np.eye(2))]
        sym = extract_original_space_symmetry(gens)
        assert sym is not None
        for g in gens:
            assert operator_norm(commutator(sym.matrix, g)) < 1e-9
        # non-trivial: not a multiple of the identity
        m = sym.matrix
        assert operator_norm(m - np.trace(m) / 4 * np.eye(4)) > 1e-6

    def test_irreducible_pair_has_none(self):
        assert extract_original_space_symmetry([PAULI_Z, PAULI_X]) is None

    def test_equal_gamma_chain_swap_symmetry(self):
        system = build_global_control_chain(2, [1.0, 1.0])
        sym = extract_original_space_symmetry(system.algebra_generators())
        assert sym is not None
        # SWAP lies in span{identity, returned symmetry}
        a = np.column_stack([np.eye(4).ravel(), sym.matrix.ravel()])
        coef, *_ = np.linalg.lstsq(a, SWAP_4.ravel(), rcond=None)
        assert np.linalg.norm(a @ coef - SWAP_4.ravel()) < 1e-9

    def test_stops_at_the_first_witness(self, monkeypatch):
        # drift removed from hopping d=16: the site control alone has a
        # 1 + 15^2 dimensional commutant, but one symmetry is all it returns
        gens = build_hopping_chain(16).algebra_generators()[1:]
        r = rank_and_nullity(build_stacked_adjoint(gens, doubled=False))
        assert r.nullity == 226
        eye = np.eye(16) / 4.0
        first = list(commutant._null_symmetries(
            r.null_basis, 16, project_out=[eye]))[0]

        built = 0
        devec_herm = commutant.devec_herm

        def counting_devec_herm(v, n):
            nonlocal built
            built += 1
            return devec_herm(v, n)

        monkeypatch.setattr(commutant, "devec_herm", counting_devec_herm)
        sym = extract_original_space_symmetry(gens)
        assert built == 1
        np.testing.assert_array_equal(sym.matrix, (first + first.conj().T) / 2)


class TestOracleEquivalence:
    def test_hundred_random_pairs(self):
        agree = 0
        for seed in range(100):
            d = 2 + seed % 2
            a = random_hermitian(d, 7 * seed, traceless=True).matrix
            b = random_hermitian(d, 7 * seed + 3, traceless=True).matrix
            if seed % 7 == 0:
                b = a  # force uncontrollable cases into the sample
            by_commutant = commutant_dimension([a, b], want_symmetries=False)
            assert by_commutant.controllable == lie_dimension([a, b]).controllable
            agree += 1
        assert agree == 100
