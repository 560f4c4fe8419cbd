import numpy as np
import pytest

from qdist import (DimensionGuardError, commutant, commutator,
                   commutant_dimension, devec_herm,
                   extract_original_space_symmetry,
                   haar_unitary, is_symmetry_witness, lie_dimension,
                   operator_norm, random_hermitian, tensor_double, vec_herm)
from qdist.commutant import build_stacked_adjoint
from qdist.linalg import DEFAULT_TOL, rank_and_nullity
from qdist.models import build_global_control_chain, build_hopping_chain, pauli_on

from conftest import PAULI_X, PAULI_Z, SWAP_4, random_pair_system


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

    def test_returns_the_first_joint_block_projector(self):
        # drift removed from hopping d=16: the site control alone has two
        # eigenspaces, its site and the other 15 sites
        gens = build_hopping_chain(16).algebra_generators()[1:]
        basis, blocks = commutant.joint_blocks(gens, DEFAULT_TOL)
        assert sorted(len(b) for b in blocks) == [1, 15]
        sym = extract_original_space_symmetry(gens)
        np.testing.assert_array_equal(
            sym.matrix, commutant.block_projector(basis, blocks[0]))

    @pytest.mark.parametrize("seed", range(20))
    def test_rotated_block_diagonal_witness_is_a_projector(self, seed):
        # K generators block diagonal over a random partition of d, seen in
        # a Haar-rotated basis: the witness is an orthogonal projector that
        # is_symmetry_witness accepts
        rng = np.random.default_rng(3100 + seed)
        d = int(rng.integers(3, 8))
        cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(
            1, min(3, d - 1) + 1)), replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [d]]))
        u = haar_unitary(d, 3200 + seed)
        gens = []
        for k in range(int(rng.integers(1, 4))):
            h = np.zeros((d, d), dtype=complex)
            start = 0
            for j, size in enumerate(sizes):
                h[start:start + size, start:start + size] = random_hermitian(
                    int(size), 3300 + 100 * seed + 10 * k + j).matrix
                start += size
            gens.append(u @ h @ u.conj().T)
        sym = extract_original_space_symmetry(gens)
        assert sym is not None
        p = sym.matrix
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12
        assert is_symmetry_witness(p, gens)


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


# below SECTOR_MIN_DIM the dense matrix is commutant_dimension's one block,
# taken through the merge, the cutoff and the null-vector path the sectors
# take: the answers are the dense oracle's, bit for bit
DENSE_CASES = [
    pytest.param(lambda: [PAULI_Z], id="Z"),
    pytest.param(lambda: [PAULI_X, PAULI_Z], id="X_Z"),
    pytest.param(lambda: build_hopping_chain(3).algebra_generators(),
                 id="hopping_d3"),
] + [pytest.param(lambda d=d, seed=seed:
                  random_pair_system(d, seed).algebra_generators(),
                  id=f"random_d{d}_seed{seed}")
     for d in (2, 3) for seed in (0, 1)]


@pytest.mark.parametrize("build", DENSE_CASES)
def test_the_dense_block_gives_the_oracle_bit_for_bit(build):
    gens = build()
    d = gens[0].shape[0]
    assert d < commutant.SECTOR_MIN_DIM
    result = commutant_dimension(gens)
    oracle = rank_and_nullity(build_stacked_adjoint(gens))
    assert np.array_equal(result.singular_values, oracle.singular_values)
    assert result.singular_values.dtype == oracle.singular_values.dtype
    assert (result.rank, result.nullity, result.controllable) == (
        oracle.rank, oracle.nullity, oracle.nullity == 2)
    expected = [devec_herm(v, d * d) for v in oracle.null_basis.T]
    assert len(result.symmetry_basis) == len(expected) == result.nullity
    for op, want in zip(result.symmetry_basis, expected):
        assert np.array_equal(op, want)

