import itertools
import re

import numpy as np
import pytest

from qdist import distance
from qdist import (DistanceCertificate, HermitianOperator, InputError,
                   NumericalError, UncontrollableSystemError,
                   commutator, cut_weight_of,
                   epsilon_best, epsilon_lower_svd, epsilon_upper_block_search,
                   epsilon_upper_drift_removal, epsilon_upper_gap_merge,
                   epsilon_upper_min_cut, haar_unitary, hermitian_eigensystem,
                   make_system, operator_norm, random_hermitian,
                   stoer_wagner_min_cut, verify_certificate)
from qdist.commutant import (commutant_dimension,
                             extract_original_space_symmetry)
from qdist.distance import (certificate_from_json, certificate_to_json,
                            is_symmetry_witness, verify_uncontrollable)
from qdist.lie_closure import lie_dimension
from qdist.linalg import DEFAULT_TOL, traceless_part
from qdist.models import (build_global_control_chain, build_hopping_chain,
                          build_two_qubit_ising, hopping_drift,
                          hopping_spectrum, pauli_on, site_projector)

from conftest import (PAULI_X, PAULI_Z, flip_commutant_verdicts,
                      random_pair_system)


def brute_force_min_cut(weights):
    n = weights.shape[0]
    best = np.inf
    best_side = None
    for bits in range(1, 2 ** (n - 1)):
        side = [i for i in range(n - 1) if bits >> i & 1]
        w = cut_weight_of(weights, side)
        if w < best:
            best = w
            best_side = side
    return best, best_side


def control_basis_graph(drift, control):
    """(basis, blocks, weights) of the graph the min cut reads for one
    control: its blocks from _joint_control_blocks, weights from
    _cut_weights."""
    basis, blocks = distance._joint_control_blocks([control], DEFAULT_TOL)
    return basis, blocks, distance._cut_weights(drift, basis, blocks)


def brute_force_block_search(drift, controls):
    """Assemble and norm every bipartition of the controls' joint blocks one
    at a time; the first candidate wins unless a later one is smaller by more
    than 1e-15. Returns the winner's (norm, side)."""
    basis, blocks = distance._joint_control_blocks(controls, DEFAULT_TOL)
    nb = len(blocks)
    best = None
    for bits in range(1, 2 ** (nb - 1)):
        side = [i for i in range(nb - 1) if bits >> i & 1]
        delta, _ = distance._block_cut_delta(drift, basis, blocks, side)
        norm = operator_norm(delta)
        if best is None or norm < best[0] - 1e-15:
            best = (norm, tuple(side))
    return best


def block_search_systems():
    """Twenty seeded (drift, controls) inputs for the block search."""
    cases = []
    for d in range(3, 11):
        # repeated control eigenvalues (multiplicity 1 or 2) in a Haar basis
        rng = np.random.default_rng(d)
        values = np.repeat(np.arange(d), rng.integers(1, 3, size=d))[:d]
        u = haar_unitary(d, 300 + d)
        control = u @ np.diag(values) @ u.conj().T
        cases.append((random_hermitian(d, 500 + d).matrix, [control]))
    for d in range(4, 10):
        # two controls sharing blocks of size 1 to 3, in a Haar basis
        rng = np.random.default_rng(40 + d)
        sizes = []
        while sum(sizes) < d:
            sizes.append(min(int(rng.integers(1, 4)), d - sum(sizes)))
        u = haar_unitary(d, 600 + d)
        controls = []
        for _ in range(2):
            blocks = np.zeros((d, d), dtype=complex)
            start = 0
            for size in sizes:
                g = (rng.standard_normal((size, size))
                     + 1j * rng.standard_normal((size, size)))
                blocks[start:start + size, start:start + size] = g + g.conj().T
                start += size
            controls.append(u @ blocks @ u.conj().T)
        cases.append((random_hermitian(d, 700 + d).matrix, controls))
    for d in range(4, 10):
        # mirror-symmetric: each side ties with its mirror image
        control = np.diag(np.arange(d) - (d - 1) / 2).astype(complex)
        cases.append((hopping_drift(d), [control]))
    return cases


def d4_shapes(svd_log, d):
    """Shapes of the logged SVD inputs with d^4 columns, the width of the
    stacked doubled-space adjoint matrix the commutant test decomposes."""
    return [c.shape for c in svd_log if c.shape[-1] == d ** 4]


class TestGapMerge:
    def test_hopping_three_sites(self):
        cert = epsilon_upper_gap_merge(hopping_drift(3), site_projector(3, 0))
        assert cert.op_norm == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert cert.verified_uncontrollable
        assert cert.method == "gap_merge"

    def test_hopping_d10_norm_and_gap_bound(self):
        d = 10
        cert = epsilon_upper_gap_merge(hopping_drift(d), site_projector(d, 0))
        gap = 2 * (np.cos(np.pi / 11) - np.cos(2 * np.pi / 11))
        assert cert.op_norm == pytest.approx(gap / 2, abs=1e-12)
        assert gap <= 3 * np.pi ** 2 / d ** 2
        assert cert.verified_uncontrollable

    def test_diagonal_drift_merges_closest_pair(self):
        cert = epsilon_upper_gap_merge(np.diag([0.0, 1.0, 3.0]).astype(complex),
                                       site_projector(3, 0))
        assert cert.op_norm == pytest.approx(0.5, abs=1e-12)
        assert "0" in cert.detail and "1" in cert.detail

    def test_degenerate_spectrum_zero_certificate(self):
        # nothing to merge: the zero shift would prove nothing, so the
        # estimator declines before it verifies anything
        drift = np.kron(PAULI_Z, PAULI_Z)
        controls = [pauli_on(2, 0, "X"), pauli_on(2, 0, "Y"),
                    pauli_on(2, 1, "X"), pauli_on(2, 1, "Y")]
        with pytest.raises(InputError, match="degenerate"):
            epsilon_upper_gap_merge(drift, controls)

    def test_norm_is_exactly_half_min_gap(self, rng):
        for seed in range(5):
            drift = random_hermitian(4, seed, traceless=True).matrix
            w, _ = hermitian_eigensystem(drift)
            cert = epsilon_upper_gap_merge(drift, site_projector(4, 0))
            assert cert.op_norm == pytest.approx(np.min(np.diff(w)) / 2, rel=1e-10)


class TestControlBasisGraph:
    def test_commuting_pair_all_zero(self):
        _, _, weights = control_basis_graph(np.diag([1.0, -1.0, 0.0]),
                                            np.diag([0.5, 0.2, -0.7]))
        assert np.max(weights) == 0.0

    def test_hopping_chain_is_path_graph(self):
        d = 4
        control = np.diag(np.arange(d, dtype=float))
        basis, blocks, weights = control_basis_graph(hopping_drift(d), control)
        assert len(blocks) == d
        # weight 1 exactly between chain neighbours, 0 otherwise
        sites = [int(np.argmax(np.abs(basis[:, b[0]]))) for b in blocks]
        for i in range(d):
            for j in range(i + 1, d):
                expected = 1.0 if abs(sites[i] - sites[j]) == 1 else 0.0
                assert weights[i, j] == pytest.approx(expected, abs=1e-12)

    def test_weights_match_change_of_basis(self, rng):
        drift = random_hermitian(4, 21, traceless=True).matrix
        control = random_hermitian(4, 22, traceless=True).matrix
        _, _, weights = control_basis_graph(drift, control)
        w, v = hermitian_eigensystem(control)
        for i in range(4):
            for j in range(i + 1, 4):
                expected = abs(v[:, i].conj() @ drift @ v[:, j])
                assert weights[i, j] == pytest.approx(expected, abs=1e-10)

    def test_grouping_merges_degenerate_space(self):
        _, blocks, _ = control_basis_graph(hopping_drift(4), site_projector(4, 0))
        assert len(blocks) == 2  # rank-1 control: eigenvalue 0 is 3-fold


class TestStoerWagner:
    def test_two_vertices(self):
        cut = stoer_wagner_min_cut(np.array([[0.0, 3.5], [3.5, 0.0]]))
        assert cut.cut_weight == pytest.approx(3.5)
        assert sorted(map(sorted, cut.partition)) == [[0], [1]]

    def test_path_graph_middle_edge(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 3.0
        w[1, 2] = w[2, 1] = 1.0
        w[2, 3] = w[3, 2] = 2.0
        cut = stoer_wagner_min_cut(w)
        assert cut.cut_weight == pytest.approx(1.0)
        assert sorted(map(sorted, cut.partition)) == [[0, 1], [2, 3]]

    def test_disconnected_graph(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 2.0
        w[2, 3] = w[3, 2] = 1.0
        cut = stoer_wagner_min_cut(w)
        assert cut.cut_weight == 0.0

    def test_matches_brute_force(self, rng):
        for trial in range(60):
            n = int(rng.integers(3, 11))
            w = np.triu(rng.integers(0, 10, size=(n, n)).astype(float), 1)
            w = w + w.T
            cut = stoer_wagner_min_cut(w)
            best, _ = brute_force_min_cut(w)
            assert cut.cut_weight == best
            assert cut_weight_of(w, cut.partition[0]) == cut.cut_weight

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            stoer_wagner_min_cut(np.array([[0.0]]))
        with pytest.raises(InputError):
            stoer_wagner_min_cut(np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestMinCut:
    def test_hopping_chain_removes_one_edge(self):
        cert = epsilon_upper_min_cut(hopping_drift(4), site_projector(4, 0))
        assert cert.op_norm == pytest.approx(1.0, abs=1e-10)
        assert cert.l11_norm == pytest.approx(2.0, abs=1e-10)
        assert cert.verified_uncontrollable
        assert cert.symmetry_witness is not None
        # witness is a projector commuting with control and perturbed drift
        p = cert.symmetry_witness.matrix
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        perturbed = hopping_drift(4) + cert.perturbations[0][1].matrix
        assert operator_norm(commutator(p, perturbed)) < 1e-9
        assert operator_norm(commutator(p, site_projector(4, 0))) < 1e-9

    def test_removed_entries_exactly_zero_in_control_basis(self):
        drift = random_hermitian(4, 31, traceless=True).matrix
        control = random_hermitian(4, 32, traceless=True).matrix
        cert = epsilon_upper_min_cut(drift, control)
        p = cert.symmetry_witness.matrix
        q = np.eye(4) - p
        perturbed = drift + cert.perturbations[0][1].matrix
        assert operator_norm(p @ perturbed @ q) < 1e-12

    def test_block_diagonal_drift_zero_certificate(self):
        drift = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
        drift[0, 1] = drift[1, 0] = 0.3
        drift[2, 3] = drift[3, 2] = 0.2
        control = np.diag([5.0, 4.0, 1.0, 0.0]).astype(complex)
        cert = epsilon_upper_min_cut(drift - np.trace(drift) / 4 * np.eye(4),
                                     control - np.trace(control) / 4 * np.eye(4))
        assert cert.op_norm == pytest.approx(0.0, abs=1e-12)
        assert cert.verified_uncontrollable

    def test_l11_is_twice_brute_force_cut(self, rng):
        drift = random_hermitian(4, 41, traceless=True).matrix
        control = random_hermitian(4, 42, traceless=True).matrix
        cert = epsilon_upper_min_cut(drift, control)
        _, _, weights = control_basis_graph(drift, control)
        best, _ = brute_force_min_cut(weights)
        assert cert.l11_norm == pytest.approx(2 * best, rel=1e-12)


class TestBlockSearch:
    def test_hopping_chain(self):
        cert = epsilon_upper_block_search(hopping_drift(4), site_projector(4, 0))
        assert cert.op_norm == pytest.approx(1.0, abs=1e-10)
        assert cert.verified_uncontrollable

    def test_ising_with_full_local_controls_kills_drift(self):
        delta = 0.7
        drift = delta * np.kron(PAULI_Z, PAULI_Z)
        controls = [pauli_on(2, 0, "X"), pauli_on(2, 0, "Y"),
                    pauli_on(2, 1, "X"), pauli_on(2, 1, "Y")]
        # no shared block structure: the drift removal is left to its own
        # estimator, which epsilon_best runs once
        with pytest.raises(InputError, match="block structure"):
            epsilon_upper_block_search(drift, controls)
        cert = epsilon_best(build_two_qubit_ising(delta)).upper
        assert cert.method == "drift_removal"
        assert cert.op_norm == pytest.approx(delta, abs=1e-12)
        assert cert.verified_uncontrollable
        np.testing.assert_allclose(cert.perturbations[0][1].matrix, -drift,
                                   atol=1e-12)

    @pytest.mark.parametrize("drift, controls", block_search_systems())
    def test_matches_the_per_subset_enumeration(self, drift, controls):
        cert = epsilon_upper_block_search(drift, controls)
        best, _ = brute_force_block_search(drift, controls)
        assert cert.op_norm == pytest.approx(best, rel=1e-12)
        # the subset named in detail reaches the minimum
        basis, blocks = distance._joint_control_blocks(controls, DEFAULT_TOL)
        match = re.fullmatch(r"best block subset \(([\d, ]*)\) of (\d+) blocks",
                             cert.detail)
        assert int(match.group(2)) == len(blocks)
        side = [int(i) for i in match.group(1).split(",") if i.strip()]
        delta, _ = distance._block_cut_delta(drift, basis, blocks, side)
        assert operator_norm(delta) == pytest.approx(best, rel=1e-12)
        assert cert.verified_uncontrollable

    def test_builds_and_verifies_only_the_winner(self, monkeypatch):
        system = random_pair_system(12, 4)
        calls = {"_block_cut_delta": 0, "verify_uncontrollable": 0}
        for name in calls:
            def counted(*args, _fn=getattr(distance, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(distance, name, counted)
        cert = epsilon_upper_block_search(system.drift.matrix,
                                          system.unbounded[0].matrix)
        assert cert.detail.endswith("of 12 blocks")  # 2047 candidates
        assert calls == {"_block_cut_delta": 1, "verify_uncontrollable": 1}

    @pytest.mark.parametrize("d", range(6, 11))
    def test_tied_pick_does_not_depend_on_the_basis(self, d):
        # the mirror-symmetric chain ties many bipartitions at norm 1 in exact
        # arithmetic; in a Haar-rotated basis their norms differ by roundoff
        drift = hopping_drift(d)
        control = np.diag(np.arange(d) - (d - 1) / 2)
        plain = epsilon_upper_block_search(drift, control).detail
        picks = {}
        for seed in range(10):
            u = haar_unitary(d, seed)
            rotated = epsilon_upper_block_search(u @ drift @ u.conj().T,
                                                 u @ control @ u.conj().T)
            picks[seed] = rotated.detail
        assert picks == {seed: plain for seed in range(10)}

    def test_block_diagonal_drift_zero(self):
        drift = np.zeros((3, 3), dtype=complex)
        drift[2, 2] = 1.0
        drift[0, 0] = -1.0
        control = np.diag([3.0, 2.0, -5.0]).astype(complex)
        cert = epsilon_upper_block_search(drift, control - np.trace(control) / 3
                                          * np.eye(3))
        assert cert.op_norm == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("kind", ["random", "site_projector", "three_level"])
    @pytest.mark.parametrize("d", range(3, 8))
    def test_never_loses_to_min_cut(self, d, kind, rotated):
        # both read their blocks from _joint_control_blocks, and the min-cut
        # bipartition is one of the candidates the block search scores
        for seed in range(30):
            drift = random_hermitian(d, 500 + seed, traceless=True).matrix
            control = {
                "random": lambda: random_hermitian(d, 600 + seed).matrix,
                "site_projector": lambda: site_projector(d, seed % d),
                "three_level": lambda: np.diag([float(j % 3) for j in range(d)]),
            }[kind]()
            if rotated:
                u = haar_unitary(d, 700 + seed)
                drift, control = u @ drift @ u.conj().T, u @ control @ u.conj().T
            block = epsilon_upper_block_search(drift, control)
            min_cut = epsilon_upper_min_cut(drift, control)
            assert block.op_norm <= min_cut.op_norm * (1 + 1e-12) + 1e-15, seed


class TestDriftRemoval:
    def test_ising_norm_delta(self):
        drift = np.kron(PAULI_Z, PAULI_Z)
        cert = epsilon_upper_drift_removal(drift, pauli_on(2, 0, "X"))
        assert cert.op_norm == pytest.approx(1.0, abs=1e-12)
        assert cert.verified_uncontrollable  # a lone control never suffices

    def test_zero_drift(self):
        cert = epsilon_upper_drift_removal(np.zeros((2, 2)), PAULI_X)
        assert cert.op_norm == 0.0
        assert cert.verified_uncontrollable

    def test_hopping_d5_norm(self):
        cert = epsilon_upper_drift_removal(hopping_drift(5), site_projector(5, 0))
        assert cert.op_norm == pytest.approx(np.sqrt(3), abs=1e-12)
        assert cert.op_norm == pytest.approx(np.max(np.abs(hopping_spectrum(5))),
                                             abs=1e-12)


class TestLowerBound:
    def test_single_qubit_positive(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        lower = epsilon_lower_svd(system, [0])
        assert lower > 0

    def test_uncontrollable_input_rejected(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        with pytest.raises(UncontrollableSystemError):
            epsilon_lower_svd(system, [0])

    def test_scaling_linear_in_generators(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        doubled = make_system(drift=2 * PAULI_Z, unbounded=[2 * PAULI_X])
        assert epsilon_lower_svd(doubled, [0]) == pytest.approx(
            2 * epsilon_lower_svd(system, [0]), rel=1e-12)

    def test_below_every_verified_certificate(self):
        for seed in range(12):
            d = 2 + seed % 2
            system = random_pair_system(d, 1000 + seed)
            estimate = epsilon_best(system)
            lower = epsilon_lower_svd(system, [0])
            assert lower <= estimate.upper.op_norm + 1e-12


class TestVerifyCertificate:
    def test_drift_removal_always_true_for_pair(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = epsilon_upper_drift_removal(PAULI_Z, PAULI_X)
        assert verify_certificate(system, cert)

    def test_zero_perturbation_on_controllable_system(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        zero = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            op_norm=0.0, l11_norm=0.0, method="manual",
            verified_uncontrollable=False)
        assert not verify_certificate(system, zero)

    def test_gap_merge_on_hopping_chain(self):
        system = build_hopping_chain(4)
        cert = epsilon_upper_gap_merge(hopping_drift(4), site_projector(4, 0))
        assert verify_certificate(system, cert)

    def test_index_out_of_range(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        bad = DistanceCertificate(
            perturbations=[(5, HermitianOperator(np.zeros((2, 2))))],
            op_norm=0.0, l11_norm=0.0, method="manual",
            verified_uncontrollable=False)
        with pytest.raises(InputError):
            verify_certificate(system, bad)

    @pytest.mark.parametrize("witness", [3.0 * np.eye(2), PAULI_Z, PAULI_X])
    def test_trivial_or_noncommuting_witness_never_verifies(self, witness):
        # the zero perturbation leaves (Z, X) controllable: a scalar witness
        # and witnesses that miss one generator must not prove otherwise
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        zero = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            op_norm=0.0, l11_norm=0.0, method="manual",
            verified_uncontrollable=True,
            symmetry_witness=HermitianOperator(witness))
        assert not verify_certificate(system, zero)
        assert not is_symmetry_witness(witness, system.algebra_generators())

    def test_wrong_dimension_witness_is_input_error(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = epsilon_upper_drift_removal(PAULI_Z, PAULI_X)
        bad = DistanceCertificate(
            perturbations=cert.perturbations, op_norm=cert.op_norm,
            l11_norm=cert.l11_norm, method=cert.method,
            verified_uncontrollable=True,
            symmetry_witness=HermitianOperator(np.diag([1.0, 0.0, 0.0])))
        with pytest.raises(InputError):
            verify_certificate(system, bad)


class TestVerifyUncontrollable:
    def test_returns_an_accepted_witness(self):
        uncontrollable, witness = verify_uncontrollable([PAULI_Z, 2 * PAULI_Z])
        assert uncontrollable
        assert is_symmetry_witness(witness, [PAULI_Z])

    def test_controllable_pair_has_no_witness(self):
        assert verify_uncontrollable([PAULI_Z, PAULI_X]) == (False, None)

    @pytest.mark.parametrize("oracle", [lie_dimension, commutant_dimension,
                                        verify_uncontrollable])
    def test_one_dimensional_generators_are_input_errors(self, oracle):
        # su(1) is trivial: the oracles used to return opposite verdicts
        with pytest.raises(InputError, match="dimension must be >= 2"):
            oracle([[[1.0]], [[2.0]]])

    def test_no_generators_is_an_input_error(self):
        with pytest.raises(InputError, match="at least one generator"):
            verify_uncontrollable([])

    def test_witness_commutant_and_lie_agree_at_d5(self):
        # d = 5 is above the built-in commutant cross-check, so compare all
        # three oracles on every certificate the four estimators produce
        systems = [build_hopping_chain(5)] + [random_pair_system(5, 2500 + k)
                                              for k in range(3)]
        checked = 0
        for system in systems:
            drift, control = system.algebra_generators()
            certificates = [
                epsilon_upper_gap_merge(drift, control),
                epsilon_upper_min_cut(drift, control),
                epsilon_upper_block_search(drift, control),
                epsilon_upper_drift_removal(drift, control),
            ]
            for cert in certificates:
                gens = system.with_perturbations(
                    [(i, d.matrix) for i, d in cert.perturbations]
                ).algebra_generators()
                found = extract_original_space_symmetry(gens)
                by_witness = any(w is not None and is_symmetry_witness(w, gens)
                                 for w in (cert.symmetry_witness, found))
                by_commutant = not commutant_dimension(
                    gens, want_symmetries=False).controllable
                by_lie = not lie_dimension(gens).controllable
                assert by_witness == by_commutant == by_lie, cert.method
                assert cert.verified_uncontrollable == by_witness
                checked += 1
        assert checked == 16

    @pytest.mark.parametrize("build", [
        lambda: build_hopping_chain(6), lambda: random_pair_system(6, 2600)],
        ids=["hopping_d6", "random_d6"])
    def test_lie_and_commutant_agree_at_d6(self, build):
        # d = 6 is the largest dimension where both oracles run; check the
        # unperturbed generators and every certificate the estimators produce
        system = build()
        drift, control = system.algebra_generators()
        certificates = [
            epsilon_upper_gap_merge(drift, control),
            epsilon_upper_min_cut(drift, control),
            epsilon_upper_block_search(drift, control),
            epsilon_upper_drift_removal(drift, control),
        ]
        generator_sets = [system.algebra_generators()] + [
            system.with_perturbations(
                [(i, d.matrix) for i, d in cert.perturbations]
            ).algebra_generators() for cert in certificates]
        for gens in generator_sets:
            assert lie_dimension(gens).controllable \
                == commutant_dimension(gens, want_symmetries=False).controllable

    def test_lie_closure_decides_without_a_d4_svd_above_d4(self, svd_log):
        # the gap merge of this pair leaves it controllable and has no
        # witness, so only a no-witness oracle can reject it
        system = random_pair_system(6, 2600)
        drift, control = system.algebra_generators()
        cert = epsilon_upper_gap_merge(drift, control)
        svd_log.clear()
        assert verify_certificate(system, cert) is False
        assert cert.verified_uncontrollable is False
        assert cert.symmetry_witness is None
        assert d4_shapes(svd_log, 6) == []
        # at d <= 4 the commutant still cross-checks the Lie closure: exactly
        # one d^4 SVD; a witness is cross-checked by the Lie closure alone
        system = build_hopping_chain(4)
        drift, control = system.algebra_generators()
        cert = epsilon_upper_drift_removal(drift, control)
        svd_log.clear()
        assert verify_uncontrollable([drift, control]) == (False, None)
        assert len(d4_shapes(svd_log, 4)) == 1
        assert verify_certificate(system, cert) is True
        assert len(d4_shapes(svd_log, 4)) == 1

    def test_commutant_disagreement_at_d4_is_numerical_error(self,
                                                             monkeypatch):
        # a gap merge that leaves this pair controllable: no witness, so
        # the commutant spectrum cross-checks the Lie closure's verdict
        system = random_pair_system(4, 0)
        drift, control = system.algebra_generators()
        cert = epsilon_upper_gap_merge(drift, control)
        assert cert.symmetry_witness is None
        assert verify_certificate(system, cert) is False
        flip_commutant_verdicts(monkeypatch)
        with pytest.raises(NumericalError, match="disagree at d=4"):
            verify_certificate(system, cert)

    def test_near_a_symmetry_errs_on_the_controllable_side(self):
        # block-diagonal (2 | 3) pairs in a Haar-rotated basis, broken by
        # eta * random; near rank_rel_tol the Lie closure may call a system
        # controllable that the commutant spectrum does not, never the
        # reverse, so a certificate can be lost but not falsely accepted
        u = haar_unitary(5, 1729)

        def rotated_blocks(seed):
            m = np.zeros((5, 5), dtype=complex)
            m[:2, :2] = random_hermitian(2, seed).matrix
            m[2:, 2:] = random_hermitian(3, seed + 1).matrix
            return u @ m @ u.conj().T

        verdicts = []
        for seed in (0, 1):
            drift = rotated_blocks(10 * seed)
            control = rotated_blocks(10 * seed + 5)
            for eta in (0.0, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6):
                gens = [traceless_part(drift + eta * random_hermitian(
                            5, 100 + seed, traceless=True).matrix),
                        traceless_part(control + eta * random_hermitian(
                            5, 200 + seed, traceless=True).matrix)]
                spectrum = commutant_dimension(gens, want_symmetries=False)
                uncontrollable, _ = verify_uncontrollable(gens)
                if uncontrollable:
                    assert spectrum.nullity > 2, (seed, eta)
                if not lie_dimension(gens).controllable:
                    assert not spectrum.controllable, (seed, eta)
                verdicts.append(uncontrollable)
        assert verdicts[0] and verdicts[6]  # eta = 0: exact symmetry
        assert not verdicts[5] and not verdicts[11]  # eta = 1e-6: broken


class TestEpsilonBest:
    def test_two_qubit_ising(self):
        system = build_two_qubit_ising(1.0)
        estimate = epsilon_best(system)
        assert estimate.upper.op_norm == pytest.approx(1.0, abs=1e-12)
        assert estimate.upper.verified_uncontrollable
        assert 0 < estimate.lower <= 1.0

    def test_hopping_d6_gap_merge_wins(self):
        system = build_hopping_chain(6)
        estimate = epsilon_best(system)
        gap = 2 * (np.cos(np.pi / 7) - np.cos(2 * np.pi / 7))
        assert gap / 2 < 1.0  # beats the unit edge cut for d >= 5
        assert estimate.upper.op_norm == pytest.approx(gap / 2, abs=1e-10)
        assert estimate.upper.method == "gap_merge"

    @pytest.mark.parametrize("system", [
        build_two_qubit_ising(1.0), build_global_control_chain(2, [1.0, 1.2])])
    def test_each_d4_input_is_decomposed_once(self, svd_log, system):
        epsilon_best(system)
        inputs = [c.matrix for c in svd_log if c.shape[-1] == system.dim ** 4]
        assert len(inputs) == 2  # the drift removal's cross-check, the spectrum
        for a, b in itertools.combinations(inputs, 2):
            assert a.shape != b.shape or not np.array_equal(a, b)

    def test_no_applicable_method_is_input_error(self):
        methods = ("gap_merge", "min_cut", "block_search")
        with pytest.raises(InputError, match="gap_merge, min_cut, block_search"):
            epsilon_best(build_two_qubit_ising(1.0), methods=methods)

    def test_uncontrollable_input_is_error(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        with pytest.raises(UncontrollableSystemError):
            epsilon_best(system)

    def test_all_returned_certificates_verified(self):
        for seed in range(8):
            system = random_pair_system(2 + seed % 2, 500 + seed)
            estimate = epsilon_best(system)
            assert estimate.upper.verified_uncontrollable
            assert estimate.lower <= estimate.upper.op_norm + 1e-12

    def test_driftless_system_removes_bounded_generators(self):
        from qdist.models import build_cross_kerr
        system = build_cross_kerr(2, 4, cap_c=0.5)
        estimate = epsilon_best(system)
        assert estimate.upper.method == "drift_removal"
        assert estimate.upper.verified_uncontrollable
        # traceless-shifted coupling: half the spread of {a(N-a)} = N^2/8
        assert estimate.upper.op_norm == pytest.approx(2.0, abs=1e-12)
        assert 0 < estimate.lower <= estimate.upper.op_norm
        from qdist import t_star_lower
        report = t_star_lower(system, estimate.upper)
        assert report.amplitude_cap_c == 0.5
        assert report.t_star_lower == pytest.approx(0.25 / (0.5 * 2.0),
                                                    rel=1e-12)

    def test_driftless_with_universal_unbounded_controls_rejected(self):
        y = np.array([[0, -1j], [1j, 0]])
        system = make_system(bounded=[(y, 1.0)], unbounded=[PAULI_Z, PAULI_X])
        with pytest.raises(InputError):
            epsilon_best(system)

    def test_estimators_invariant_under_conjugation(self):
        drift = random_hermitian(4, 61, traceless=True).matrix
        control = random_hermitian(4, 62, traceless=True).matrix
        u = haar_unitary(4, 63)
        rotated = (u @ drift @ u.conj().T, u @ control @ u.conj().T)
        for estimator in (epsilon_upper_gap_merge, epsilon_upper_min_cut,
                          epsilon_upper_block_search, epsilon_upper_drift_removal):
            plain = estimator(drift, control)
            conj = estimator(*rotated)
            assert plain.op_norm == pytest.approx(conj.op_norm, abs=1e-9)


class TestCertificateSerialization:
    def test_round_trip(self):
        cert = epsilon_upper_min_cut(hopping_drift(4), site_projector(4, 0))
        doc = certificate_to_json(cert)
        back = certificate_from_json(doc)
        assert back.method == cert.method
        assert back.op_norm == cert.op_norm
        assert back.l11_norm == cert.l11_norm
        assert back.verified_uncontrollable == cert.verified_uncontrollable
        np.testing.assert_array_equal(back.perturbations[0][1].matrix,
                                      cert.perturbations[0][1].matrix)
        np.testing.assert_array_equal(back.symmetry_witness.matrix,
                                      cert.symmetry_witness.matrix)

    def test_unknown_keys_rejected(self):
        cert = epsilon_upper_drift_removal(PAULI_Z, PAULI_X)
        doc = certificate_to_json(cert)
        doc["surprise"] = 1
        with pytest.raises(InputError):
            certificate_from_json(doc)
