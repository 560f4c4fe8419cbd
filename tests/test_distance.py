import dataclasses
import itertools
import re

import numpy as np
import pytest

from qdist import commutant, distance
from qdist import (DistanceCertificate, HermitianOperator, InputError,
                   NumericalError, UncontrollableSystemError,
                   commutator, cut_weight_of, delta_lower_bound,
                   epsilon_best, epsilon_lower_svd, epsilon_upper_block_search,
                   epsilon_upper_drift_removal, epsilon_upper_gap_merge,
                   epsilon_upper_min_cut, haar_unitary, hermitian_eigensystem,
                   make_system, operator_norm, random_hermitian,
                   stoer_wagner_min_cut, t_star_lower, verify_certificate)
from qdist.commutant import (block_projector, commutant_dimension,
                             extract_original_space_symmetry, joint_blocks)
from qdist.distance import (Invariants, certificate_from_json,
                            certificate_to_json, is_symmetry_witness,
                            verify_uncontrollable)
from qdist.lie_closure import lie_dimension
from qdist.linalg import DEFAULT_TOL, traceless_part
from qdist.models import (build_global_control_chain, build_hopping_chain,
                          build_two_qubit_ising, hopping_drift,
                          hopping_spectrum, pauli_on, site_projector)

from conftest import (PAULI_X, PAULI_Z, drift_system, flip_commutant_verdicts,
                      manual_gap_merge, random_pair_system)


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
    control: its blocks from commutant.joint_blocks, weights from
    _cut_weights."""
    basis, blocks = joint_blocks([control], DEFAULT_TOL)
    return basis, blocks, distance._cut_weights(drift, basis, blocks)


def brute_force_block_search(drift, controls):
    """Assemble and norm every bipartition of the controls' joint blocks one
    at a time; the first candidate wins unless a later one is smaller by more
    than 1e-15. Returns the winner's (norm, side)."""
    basis, blocks = joint_blocks(controls, DEFAULT_TOL)
    nb = len(blocks)
    best = None
    for bits in range(1, 2 ** (nb - 1)):
        side = [i for i in range(nb - 1) if bits >> i & 1]
        delta, _ = distance._block_cut_delta(drift, basis, blocks, side)
        norm = operator_norm(delta)
        if best is None or norm < best[0] - 1e-15:
            best = (norm, tuple(side))
    return best


def masked_eigvalsh_norms(h, inside):
    """The candidate norms by the formula _bipartition_norms replaced: h
    masked to the entries crossing each cut is Hermitian, so its norm is
    its largest |eigenvalue|, from one eigvalsh over the (N, d, d) stack."""
    cross = inside[:, :, None] != inside[:, None, :]
    return np.abs(np.linalg.eigvalsh(h * cross)).max(axis=1)


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


class TestGapMerge:
    def test_hopping_three_sites(self):
        cert = epsilon_upper_gap_merge(
            drift_system(hopping_drift(3), site_projector(3, 0)))
        assert cert.op_norm == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert cert.verified_uncontrollable
        assert cert.method == "gap_merge"

    def test_hopping_d10_norm_and_gap_bound(self):
        d = 10
        cert = epsilon_upper_gap_merge(
            drift_system(hopping_drift(d), site_projector(d, 0)))
        gap = 2 * (np.cos(np.pi / 11) - np.cos(2 * np.pi / 11))
        assert cert.op_norm == pytest.approx(gap / 2, abs=1e-12)
        assert gap <= 3 * np.pi ** 2 / d ** 2
        assert cert.verified_uncontrollable

    def test_diagonal_drift_merges_closest_pair(self):
        cert = epsilon_upper_gap_merge(drift_system(
            np.diag([0.0, 1.0, 3.0]).astype(complex), site_projector(3, 0)))
        assert cert.op_norm == pytest.approx(0.5, abs=1e-12)
        # 0 and 1, shifted by the trace: the estimators read the traceless drift
        assert cert.detail == "merged eigenvalues -1.33333 and -0.333333"

    def test_degenerate_spectrum_zero_certificate(self):
        # nothing to merge: the zero shift would prove nothing, so the
        # estimator declines before it verifies anything
        drift = np.kron(PAULI_Z, PAULI_Z)
        controls = [pauli_on(2, 0, "X"), pauli_on(2, 0, "Y"),
                    pauli_on(2, 1, "X"), pauli_on(2, 1, "Y")]
        with pytest.raises(InputError, match="degenerate"):
            epsilon_upper_gap_merge(drift_system(drift, *controls))

    def test_norm_is_exactly_half_min_gap(self, rng):
        for seed in range(5):
            drift = random_hermitian(4, seed, traceless=True).matrix
            w, _ = hermitian_eigensystem(drift)
            cert = epsilon_upper_gap_merge(drift_system(drift, site_projector(4, 0)))
            assert cert.op_norm == pytest.approx(np.min(np.diff(w)) / 2, rel=1e-10)

    @pytest.mark.parametrize("d, seed", [(4, 0), (6, 2600)])
    def test_declines_without_a_witness(self, d, seed, spectrum_log,
                                        monkeypatch):
        # the merged pair keeps a single joint block: no witness to offer,
        # so the estimator declines before any Lie closure or spectrum runs
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return lie_dimension(*args, **kwargs)

        monkeypatch.setattr(distance, "lie_dimension", counted)
        with pytest.raises(InputError, match="no symmetry witness"):
            epsilon_upper_gap_merge(random_pair_system(d, seed))
        assert calls == []
        assert spectrum_log == []

    @pytest.mark.parametrize("d", [3, 6])
    def test_manual_gap_merge_is_the_estimators_perturbation(self, d):
        system = build_hopping_chain(d)
        cert, manual = epsilon_upper_gap_merge(system), manual_gap_merge(system)
        assert [i for i, _ in manual.perturbations] == [0]
        np.testing.assert_allclose(manual.perturbations[0][1].matrix,
                                   cert.perturbations[0][1].matrix, atol=1e-12)
        assert manual.op_norm == pytest.approx(cert.op_norm, abs=1e-12)
        assert manual.symmetry_witness is None
        assert manual.verified_uncontrollable == cert.verified_uncontrollable


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
        cert = epsilon_upper_min_cut(
            drift_system(hopping_drift(4), site_projector(4, 0)))
        assert cert.op_norm == pytest.approx(1.0, abs=1e-10)
        assert cert.detail.startswith("cut weight 1,")
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
        cert = epsilon_upper_min_cut(drift_system(drift, control))
        p = cert.symmetry_witness.matrix
        q = np.eye(4) - p
        perturbed = drift + cert.perturbations[0][1].matrix
        assert operator_norm(p @ perturbed @ q) < 1e-12

    def test_block_diagonal_drift_zero_certificate(self):
        drift = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
        drift[0, 1] = drift[1, 0] = 0.3
        drift[2, 3] = drift[3, 2] = 0.2
        control = np.diag([5.0, 4.0, 1.0, 0.0]).astype(complex)
        cert = epsilon_upper_min_cut(drift_system(
            drift - np.trace(drift) / 4 * np.eye(4),
            control - np.trace(control) / 4 * np.eye(4)))
        assert cert.op_norm == pytest.approx(0.0, abs=1e-12)
        assert cert.verified_uncontrollable

    def test_l11_is_twice_brute_force_cut(self, rng):
        drift = random_hermitian(4, 41, traceless=True).matrix
        control = random_hermitian(4, 42, traceless=True).matrix
        cert = epsilon_upper_min_cut(drift_system(drift, control))
        basis, _, weights = control_basis_graph(drift, control)
        best, _ = brute_force_min_cut(weights)
        assert cert.detail.startswith(f"cut weight {best:.6g},")
        # the removed entries, in the block basis, sum to twice the cut weight
        delta = basis.conj().T @ cert.perturbations[0][1].matrix @ basis
        assert np.sum(np.abs(delta)) == pytest.approx(2 * best, rel=1e-12)


class TestBlockSearch:
    def test_hopping_chain(self):
        cert = epsilon_upper_block_search(
            drift_system(hopping_drift(4), site_projector(4, 0)))
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
            epsilon_upper_block_search(drift_system(drift, *controls))
        cert = epsilon_best(build_two_qubit_ising(delta))
        assert cert.method == "drift_removal"
        assert cert.op_norm == pytest.approx(delta, abs=1e-12)
        assert cert.verified_uncontrollable
        np.testing.assert_allclose(cert.perturbations[0][1].matrix, -drift,
                                   atol=1e-12)

    @pytest.mark.parametrize("drift, controls", block_search_systems())
    def test_matches_the_per_subset_enumeration(self, drift, controls):
        invariants = Invariants(drift_system(drift, *controls))
        cert = epsilon_upper_block_search(invariants.system,
                                          invariants=invariants)
        best, _ = brute_force_block_search(drift, controls)
        assert cert.op_norm == pytest.approx(best, rel=1e-12)
        # the subset named in detail, of the blocks the search read, reaches
        # the minimum
        basis, blocks = invariants.fixed_blocks
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
        cert = epsilon_upper_block_search(system)
        assert cert.detail.endswith("of 12 blocks")  # 2047 candidates
        assert calls == {"_block_cut_delta": 1, "verify_uncontrollable": 1}

    def test_guard_bounds_the_candidate_batch_not_d(self, monkeypatch):
        # hopping d=16: the site control has two blocks, one candidate
        system = build_hopping_chain(16)
        invariants = Invariants(system)
        block = epsilon_upper_block_search(system, invariants=invariants)
        min_cut = epsilon_upper_min_cut(system, invariants=invariants)
        assert block.verified_uncontrollable
        assert block.method == "block_search"
        assert block.op_norm == min_cut.op_norm == pytest.approx(1.0, abs=1e-12)
        # a random d=14 control has 14 blocks: 8191 candidates of 14 x 14,
        # none scored; the min cut's one bipartition answers instead
        system = random_pair_system(14, 1)
        invariants = Invariants(system)
        min_cut = epsilon_upper_min_cut(system, invariants=invariants)

        def unscored(*args):
            raise AssertionError("a candidate was scored above the guard")

        monkeypatch.setattr(distance, "_bipartition_norms", unscored)
        block = epsilon_upper_block_search(system, invariants=invariants)
        assert block.method == "min_cut"
        assert block.op_norm == min_cut.op_norm
        assert block.verified_uncontrollable
        assert verify_certificate(system, block)

    @pytest.mark.parametrize("d", range(6, 11))
    def test_tied_pick_does_not_depend_on_the_basis(self, d):
        # the mirror-symmetric chain ties many bipartitions at norm 1 in exact
        # arithmetic; in a Haar-rotated basis their norms differ by roundoff
        drift = hopping_drift(d)
        control = np.diag(np.arange(d) - (d - 1) / 2)
        plain = epsilon_upper_block_search(drift_system(drift, control)).detail
        picks = {}
        for seed in range(10):
            u = haar_unitary(d, seed)
            rotated = epsilon_upper_block_search(drift_system(
                u @ drift @ u.conj().T, u @ control @ u.conj().T))
            picks[seed] = rotated.detail
        assert picks == {seed: plain for seed in range(10)}

    @pytest.mark.parametrize("kind", ["random", "site_projector", "three_level"])
    @pytest.mark.parametrize("d", range(3, 13))
    def test_scores_match_the_masked_eigenvalue_formula(self, d, kind):
        # random: d single-vector blocks (at d = 12, the 2047 candidates of
        # a random pair); site projector and three levels: degenerate blocks
        system = random_pair_system(d, 4)
        drift, control = system.algebra_generators()
        if kind != "random":
            u = haar_unitary(d, 900 + d)
            control = u @ (site_projector(d, d // 2) if kind == "site_projector"
                           else np.diag([float(j % 3) for j in range(d)])
                           ) @ u.conj().T
        basis, blocks = joint_blocks([control], DEFAULT_TOL)
        assert len(blocks) == {"random": d, "site_projector": 2,
                               "three_level": 3}[kind]
        inside = distance._bipartitions(blocks, d)
        assert inside.shape == (2 ** (len(blocks) - 1) - 1, d)
        h = basis.conj().T @ drift @ basis
        np.testing.assert_allclose(distance._bipartition_norms(h, inside),
                                   masked_eigvalsh_norms(h, inside),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", range(3, 13))
    def test_block_diagonal_drift_scores_exactly_zero(self, d):
        # blocks of sizes 1, 2, 3, ... in a random order of the basis: every
        # rectangle of a drift that keeps them is zero
        label = np.random.default_rng(d).permutation(
            np.repeat(np.arange(d), np.arange(1, d + 1))[:d])
        blocks = [list(np.flatnonzero(label == b)) for b in np.unique(label)]
        h = random_hermitian(d, 800 + d).matrix * (label[:, None] == label)
        inside = distance._bipartitions(blocks, d)
        assert np.all(distance._bipartition_norms(h, inside) == 0.0)
        np.testing.assert_allclose(masked_eigvalsh_norms(h, inside), 0.0,
                                   atol=1e-14)

    def test_block_diagonal_drift_zero(self):
        drift = np.zeros((3, 3), dtype=complex)
        drift[2, 2] = 1.0
        drift[0, 0] = -1.0
        control = np.diag([3.0, 2.0, -5.0]).astype(complex)
        cert = epsilon_upper_block_search(drift_system(
            drift, control - np.trace(control) / 3 * np.eye(3)))
        assert cert.op_norm == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("kind", ["random", "site_projector", "three_level",
                                      "diagonal_pair"])
    @pytest.mark.parametrize("d", range(3, 8))
    def test_never_loses_to_min_cut(self, d, kind, rotated):
        # both read their blocks from commutant.joint_blocks, and the min-cut
        # bipartition is one of the candidates the block search scores;
        # diagonal_pair is a control family, two commuting diagonal controls
        for seed in range(30):
            drift = random_hermitian(d, 500 + seed, traceless=True).matrix
            controls = {
                "random": lambda: [random_hermitian(d, 600 + seed).matrix],
                "site_projector": lambda: [site_projector(d, seed % d)],
                "three_level": lambda: [np.diag([float(j % 3) for j in range(d)])],
                "diagonal_pair": lambda: [np.diag([float(j % m) for j in range(d)])
                                          for m in (2, 3)],
            }[kind]()
            if rotated:
                u = haar_unitary(d, 700 + seed)
                drift = u @ drift @ u.conj().T
                controls = [u @ c @ u.conj().T for c in controls]
            system = drift_system(drift, *controls)
            invariants = Invariants(system)
            block = epsilon_upper_block_search(system, invariants=invariants)
            min_cut = epsilon_upper_min_cut(system, invariants=invariants)
            assert block.op_norm <= min_cut.op_norm * (1 + 1e-12) + 1e-15, seed


class TestDriftRemoval:
    def test_ising_norm_delta(self):
        drift = np.kron(PAULI_Z, PAULI_Z)
        cert = epsilon_upper_drift_removal(drift_system(drift, pauli_on(2, 0, "X")))
        assert cert.op_norm == pytest.approx(1.0, abs=1e-12)
        assert cert.verified_uncontrollable  # a lone control never suffices

    def test_zero_drift(self):
        cert = epsilon_upper_drift_removal(drift_system(np.zeros((2, 2)), PAULI_X))
        assert cert.op_norm == 0.0
        assert cert.verified_uncontrollable

    def test_hopping_d5_norm(self):
        cert = epsilon_upper_drift_removal(
            drift_system(hopping_drift(5), site_projector(5, 0)))
        assert cert.op_norm == pytest.approx(np.sqrt(3), abs=1e-12)
        assert cert.op_norm == pytest.approx(np.max(np.abs(hopping_spectrum(5))),
                                             abs=1e-12)

    @pytest.mark.parametrize("system", [
        build_hopping_chain(5), build_two_qubit_ising(1.0),
        build_global_control_chain(2, [1.0, 1.0]),
        build_global_control_chain(2, [1.0, 1.2]),
        random_pair_system(4, 3), random_pair_system(6, 7),
    ], ids=["hopping_5", "ising", "chain_equal", "chain_distinct",
            "random_4", "random_6"])
    def test_carries_the_controls_first_block_projector(self, system):
        cert = epsilon_upper_drift_removal(system)
        controls = system.algebra_generators()[1:]
        assert cert.verified_uncontrollable
        joint = joint_blocks(controls, DEFAULT_TOL)
        if joint is None:
            assert cert.symmetry_witness is None
        else:
            basis, blocks = joint
            np.testing.assert_array_equal(
                cert.symmetry_witness.matrix,
                block_projector(basis, blocks[0]))


class TestLowerBound:
    def test_single_qubit_positive(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        lower = epsilon_lower_svd(system, [0])
        assert lower > 0

    def test_uncontrollable_input_is_at_distance_zero(self):
        # the bound never decides a verdict: an uncontrollable system is at
        # distance 0, and epsilon_best is the one that rejects it
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        assert epsilon_lower_svd(system, [0]) == 0.0

    def test_scaling_linear_in_generators(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        doubled = make_system(drift=2 * PAULI_Z, unbounded=[2 * PAULI_X])
        assert epsilon_lower_svd(doubled, [0]) == pytest.approx(
            2 * epsilon_lower_svd(system, [0]), rel=1e-12)

    @pytest.mark.parametrize("index", [0.7, 1.0, "0", "x", None, True])
    def test_index_that_is_no_integer_is_an_input_error(self, index):
        # indices are checked, not truncated: 0.7 would read generator 0
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        with pytest.raises(InputError, match="must be an integer"):
            epsilon_lower_svd(system, [index])

    def test_numpy_integer_index_is_an_index(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        assert epsilon_lower_svd(system, [np.int64(1)]) \
            == epsilon_lower_svd(system, [1])

    def test_below_every_verified_certificate(self):
        for seed in range(12):
            d = 2 + seed % 2
            system = random_pair_system(d, 1000 + seed)
            cert = epsilon_best(system)
            lower = epsilon_lower_svd(system, [0])
            assert lower <= cert.op_norm + 1e-12


class TestVerifyCertificate:
    def test_drift_removal_always_true_for_pair(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = epsilon_upper_drift_removal(drift_system(PAULI_Z, PAULI_X))
        assert verify_certificate(system, cert)

    def test_zero_perturbation_on_controllable_system(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        zero = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            method="manual", verified_uncontrollable=False)
        assert not verify_certificate(system, zero)

    def test_gap_merge_on_hopping_chain(self):
        system = build_hopping_chain(4)
        cert = epsilon_upper_gap_merge(
            drift_system(hopping_drift(4), site_projector(4, 0)))
        assert verify_certificate(system, cert)

    def test_index_out_of_range(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        bad = DistanceCertificate(
            perturbations=[(5, HermitianOperator(np.zeros((2, 2))))],
            method="manual", verified_uncontrollable=False)
        with pytest.raises(InputError):
            verify_certificate(system, bad)

    @pytest.mark.parametrize("witness", [3.0 * np.eye(2), PAULI_Z, PAULI_X])
    def test_trivial_or_noncommuting_witness_never_verifies(self, witness):
        # the zero perturbation leaves (Z, X) controllable: a scalar witness
        # and witnesses that miss one generator must not prove otherwise
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        zero = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            method="manual", verified_uncontrollable=True,
            symmetry_witness=HermitianOperator(witness))
        assert not verify_certificate(system, zero)
        assert not is_symmetry_witness(witness, system.algebra_generators())

    def test_wrong_dimension_witness_is_input_error(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = epsilon_upper_drift_removal(drift_system(PAULI_Z, PAULI_X))
        bad = DistanceCertificate(
            perturbations=cert.perturbations, method=cert.method,
            verified_uncontrollable=True,
            symmetry_witness=HermitianOperator(np.diag([1.0, 0.0, 0.0])))
        with pytest.raises(InputError):
            verify_certificate(system, bad)


@pytest.mark.parametrize("w", [1e-12, 1e-9, 1e-6, 1.0, 1e3])
@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e6])
def test_witness_floor_scales_with_the_generators(c, w):
    # a generator that is zero up to the roundoff of the others (as a gap
    # merge leaves on hopping d=2) does not reject the witness at any scale
    # of either; one that breaks the symmetry far above roundoff does at
    # every scale; a zero witness and the identity never pass
    witness = w * np.diag([1.0, 0.0])
    assert is_symmetry_witness(witness, [c * PAULI_Z, c * 1e-16 * PAULI_X])
    assert not is_symmetry_witness(witness, [c * PAULI_Z, c * 1e-6 * PAULI_X])
    assert not is_symmetry_witness(0 * witness, [c * PAULI_Z])
    assert not is_symmetry_witness(w * np.eye(2), [c * PAULI_Z])


def test_a_small_certificate_witness_keeps_the_sqrt2_floor():
    system = build_hopping_chain(4)
    cert = epsilon_best(system)
    assert cert.method == "gap_merge"
    small = dataclasses.replace(cert, symmetry_witness=HermitianOperator(
        1e-9 * cert.symmetry_witness.matrix))
    assert delta_lower_bound(system, small) == (np.sqrt(2), "symmetry_sqrt2")
    assert t_star_lower(system, small).t_star_lower == pytest.approx(
        t_star_lower(system, cert).t_star_lower, rel=1e-12)


class TestVerifyUncontrollable:
    def test_returns_an_accepted_witness(self):
        offered = HermitianOperator(PAULI_Z)
        uncontrollable, witness = verify_uncontrollable([PAULI_Z, 2 * PAULI_Z],
                                                        witness=offered)
        assert uncontrollable
        assert witness is offered
        assert is_symmetry_witness(witness, [PAULI_Z])
        # a rejected witness is not returned; the Lie closure decides
        assert verify_uncontrollable([PAULI_Z, 2 * PAULI_Z],
                                     witness=PAULI_X) == (True, None)

    def test_searches_for_no_witness_of_its_own(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return joint_blocks(*args, **kwargs)

        for module in (commutant, distance):
            monkeypatch.setattr(module, "joint_blocks", counted)
        # Z is a symmetry of the pair, but only an offered witness counts
        assert verify_uncontrollable([PAULI_Z, 2 * PAULI_Z]) == (True, None)
        assert calls == []

    @pytest.mark.parametrize("build", [
        lambda: build_hopping_chain(5), lambda: random_pair_system(5, 2500),
        lambda: random_pair_system(5, 2501), lambda: random_pair_system(5, 2502),
        lambda: build_hopping_chain(6), lambda: random_pair_system(6, 2600)],
        ids=["hopping_d5", "random_d5_0", "random_d5_1", "random_d5_2",
             "hopping_d6", "random_d6"])
    def test_estimator_certificates_carry_their_witness(self, build):
        # only drift removal without a fixed joint block is left to the Lie
        # closure; every other construction offers a witness or declines
        system = build()
        no_blocks = Invariants(system).fixed_blocks is None
        for estimator in (epsilon_upper_gap_merge, epsilon_upper_min_cut,
                          epsilon_upper_block_search, epsilon_upper_drift_removal):
            try:
                cert = estimator(system)
            except InputError:
                continue
            if cert.method == "drift_removal" and no_blocks:
                continue
            assert cert.symmetry_witness is not None, cert.method
            assert cert.verified_uncontrollable, cert.method

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
            certificates = [manual_gap_merge(system),
                            epsilon_upper_min_cut(system),
                            epsilon_upper_block_search(system),
                            epsilon_upper_drift_removal(system)]
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
        certificates = [manual_gap_merge(system),
                        epsilon_upper_min_cut(system),
                        epsilon_upper_block_search(system),
                        epsilon_upper_drift_removal(system)]
        generator_sets = [system.algebra_generators()] + [
            system.with_perturbations(
                [(i, d.matrix) for i, d in cert.perturbations]
            ).algebra_generators() for cert in certificates]
        for gens in generator_sets:
            assert lie_dimension(gens).controllable \
                == commutant_dimension(gens, want_symmetries=False).controllable

    def test_lie_closure_decides_without_a_d4_svd_above_d4(self, spectrum_log):
        # the gap merge of this pair leaves it controllable and has no
        # witness, so only a no-witness oracle can reject it
        system = random_pair_system(6, 2600)
        cert = manual_gap_merge(system)
        spectrum_log.clear()
        assert verify_certificate(system, cert) is False
        assert cert.verified_uncontrollable is False
        assert cert.symmetry_witness is None
        assert spectrum_log == []
        # at d <= 4 the commutant still cross-checks the Lie closure: exactly
        # one spectrum; a witness is cross-checked by the Lie closure alone
        system = build_hopping_chain(4)
        cert = epsilon_upper_drift_removal(system)
        spectrum_log.clear()
        assert verify_uncontrollable(system.algebra_generators()) == (False, None)
        assert len(spectrum_log) == 1
        assert verify_certificate(system, cert) is True
        assert len(spectrum_log) == 1

    def test_commutant_disagreement_at_d4_is_numerical_error(self,
                                                             monkeypatch):
        # a gap merge that leaves this pair controllable: no witness, so
        # the commutant spectrum cross-checks the Lie closure's verdict
        system = random_pair_system(4, 0)
        cert = manual_gap_merge(system)
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
        cert = epsilon_best(system)
        assert cert.op_norm == pytest.approx(1.0, abs=1e-12)
        assert cert.verified_uncontrollable
        assert 0 < epsilon_lower_svd(system, [0]) <= 1.0

    def test_hopping_d6_gap_merge_wins(self):
        system = build_hopping_chain(6)
        cert = epsilon_best(system)
        gap = 2 * (np.cos(np.pi / 7) - np.cos(2 * np.pi / 7))
        assert gap / 2 < 1.0  # beats the unit edge cut for d >= 5
        assert cert.op_norm == pytest.approx(gap / 2, abs=1e-10)
        assert cert.method == "gap_merge"

    @pytest.mark.parametrize("system, method, ratio", [
        (build_hopping_chain(4), "gap_merge", 0.5),
        (build_hopping_chain(6), "gap_merge", 0.27747906604368),
        (random_pair_system(4, 0), "block_search", 0.99258769667912),
        (random_pair_system(5, 3), "block_search", 1.67392984253025)],
        ids=["hopping_d4", "hopping_d6", "pair_d4", "pair_d5"])
    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-8, 1e-6, 1.0, 1e3, 1e6])
    def test_the_best_bound_does_not_depend_on_units(self, system, method,
                                                     ratio, scale):
        # degeneracy_tol is relative: with an absolute 1e-8 every system
        # here fell back to drift removal at the small scales (op_norm/s
        # 1.618, 1.802, 1.674 and 4.442)
        cert = epsilon_best(make_system(
            drift=scale * system.drift.matrix,
            unbounded=[scale * u.matrix for u in system.unbounded]))
        assert cert.method == method
        assert cert.op_norm / scale == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("system", [
        build_two_qubit_ising(1.0), build_global_control_chain(2, [1.0, 1.2])])
    def test_each_d4_input_is_decomposed_once(self, svd_log, spectrum_log,
                                              system):
        epsilon_best(system)
        assert len(spectrum_log) == 2  # the drift removal's cross-check, the spectrum
        # no matrix at all is decomposed twice: the controls' joint blocks
        # are found once, for block search and drift removal both
        for a, b in itertools.combinations([c.matrix for c in svd_log], 2):
            assert a.shape != b.shape or not np.array_equal(a, b)

    @pytest.mark.parametrize("system", [
        build_two_qubit_ising(1.0), build_global_control_chain(2, [1.0, 1.2]),
        build_hopping_chain(4)], ids=["ising", "chain", "hopping_d4"])
    def test_fixed_blocks_are_found_once(self, monkeypatch, system):
        controls = system.algebra_generators()[1:]
        calls = []

        def counted(generators, tol):
            mats = list(generators)
            if len(mats) == len(controls) and all(
                    np.array_equal(a, b) for a, b in zip(mats, controls)):
                calls.append(len(mats))
            return joint_blocks(mats, tol)

        monkeypatch.setattr(commutant, "joint_blocks", counted)
        monkeypatch.setattr(distance, "joint_blocks", counted)
        epsilon_best(system)
        assert len(calls) == 1

    @pytest.mark.parametrize("system, estimator, match", [
        # the ZZ drift is degenerate
        (build_two_qubit_ising(1.0), epsilon_upper_gap_merge, "degenerate"),
        # the local controls share no blocks
        (build_two_qubit_ising(1.0), epsilon_upper_block_search,
         "share no invariant block structure"),
        # merging a random pair's closest eigenvalues leaves one joint block
        (random_pair_system(4, 0), epsilon_upper_gap_merge, "single joint block")],
        ids=["ising-gap_merge", "ising-block_search", "pair_d4-gap_merge"])
    def test_an_estimator_that_does_not_apply_gives_way(self, system, estimator,
                                                        match):
        with pytest.raises(InputError, match=match):
            estimator(system)
        # another certificate stands in
        assert epsilon_best(system).verified_uncontrollable

    @pytest.mark.parametrize("system, method", [
        (random_pair_system(4, 0), "block_search"),
        (random_pair_system(12, 3), "block_search"),
        (build_hopping_chain(6), "gap_merge")],
        ids=["pair_d4", "pair_d12", "hopping_d6"])
    def test_runs_no_min_cut_below_the_guard(self, monkeypatch, system, method):
        # on both random pairs the min cut ties the block search's pick
        for name in ("epsilon_upper_min_cut", "stoer_wagner_min_cut"):
            def unexpected(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} ran below the guard")
            monkeypatch.setattr(distance, name, unexpected)
        upper = epsilon_best(system)
        assert upper.verified_uncontrollable
        assert upper.method == method

    def test_control_family_above_the_guard_gets_the_min_cut(self):
        # a d=14 drift with two commuting diagonal controls: 14 joint blocks,
        # above block search's guard. Its min cut takes control families,
        # and beats removing the drift
        d = 14
        drift = random_hermitian(d, 1400, traceless=True).matrix
        controls = [np.diag(np.arange(d) - (d - 1) / 2),
                    np.diag([float(j % 3) for j in range(d)])]
        system = drift_system(drift, *controls)
        invariants = Invariants(system)
        assert len(invariants.fixed_blocks[1]) == d
        upper = epsilon_best(system, invariants=invariants)
        assert upper.method == "min_cut"
        assert upper.verified_uncontrollable
        removal = epsilon_upper_drift_removal(system, invariants=invariants)
        assert upper.op_norm < removal.op_norm

    def test_uncontrollable_input_is_error(self, svd_log):
        # the Lie closure's verdict ends it before any SVD
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        with pytest.raises(UncontrollableSystemError):
            epsilon_best(system)
        assert svd_log == []

    def test_all_returned_certificates_verified(self):
        for seed in range(8):
            system = random_pair_system(2 + seed % 2, 500 + seed)
            cert = epsilon_best(system)
            assert cert.verified_uncontrollable
            assert epsilon_lower_svd(system, [0]) <= cert.op_norm + 1e-12

    def test_driftless_system_removes_bounded_generators(self):
        from qdist.models import build_cross_kerr
        system = build_cross_kerr(2, 4, cap_c=0.5)
        cert = epsilon_best(system)
        assert cert.method == "drift_removal"
        assert cert.verified_uncontrollable
        # numbered by the system's flat layout, as every certificate is
        assert [i for i, _ in cert.perturbations] == system.indices("bounded")
        # the other estimators perturb a drift, and this system has none
        for estimator in (epsilon_upper_gap_merge, epsilon_upper_min_cut,
                          epsilon_upper_block_search):
            with pytest.raises(InputError, match="has none"):
                estimator(system)
        # traceless-shifted coupling: half the spread of {a(N-a)} = N^2/8
        assert cert.op_norm == pytest.approx(2.0, abs=1e-12)
        from qdist import t_star_lower
        report = t_star_lower(system, cert)
        assert 0 < report.epsilon_lower <= cert.op_norm
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
        plain_system = drift_system(drift, control)
        rotated = drift_system(u @ drift @ u.conj().T, u @ control @ u.conj().T)
        for estimator in (manual_gap_merge, epsilon_upper_min_cut,
                          epsilon_upper_block_search, epsilon_upper_drift_removal):
            plain = estimator(plain_system)
            conj = estimator(rotated)
            assert plain.op_norm == pytest.approx(conj.op_norm, abs=1e-9)


class TestCertificateSerialization:
    def test_round_trip(self):
        cert = epsilon_upper_min_cut(
            drift_system(hopping_drift(4), site_projector(4, 0)))
        doc = certificate_to_json(cert)
        back = certificate_from_json(doc)
        assert back.method == cert.method
        assert back.op_norm == cert.op_norm
        assert cert.verified_uncontrollable
        assert not back.verified_uncontrollable  # the file's flag is not kept
        np.testing.assert_array_equal(back.perturbations[0][1].matrix,
                                      cert.perturbations[0][1].matrix)
        np.testing.assert_array_equal(back.symmetry_witness.matrix,
                                      cert.symmetry_witness.matrix)

    @pytest.mark.parametrize("index", [0.7, 1.0, "0", True, False, None, [0]])
    def test_index_that_is_no_integer_is_an_input_error(self, index):
        # hopping d=4: the stored certificate perturbs the drift, index 0;
        # 0.7 and "0" would load as 0 and verify, True as 1
        system = build_hopping_chain(4)
        doc = certificate_to_json(epsilon_best(system))
        assert doc["perturbations"][0]["index"] == 0
        assert verify_certificate(system, certificate_from_json(doc))
        doc["perturbations"][0]["index"] = index
        with pytest.raises(InputError, match="must be an integer"):
            certificate_from_json(doc)

    def test_a_loaded_certificate_is_unverified(self):
        # hopping d=4: a 1e-6 shift of two drift eigenvalues breaks nothing,
        # yet its file claims a verdict. Kept, that claim gave T* = 250000,
        # with epsilon_upper 1e-6 below the SVD lower bound 0.106
        system = build_hopping_chain(4)
        doc = certificate_to_json(DistanceCertificate(
            perturbations=[(0, HermitianOperator(1e-6 * np.diag([1, -1, 0, 0])))],
            method="manual", verified_uncontrollable=True))
        assert doc["verified_uncontrollable"] is True
        cert = certificate_from_json(doc)
        assert not cert.verified_uncontrollable
        assert not verify_certificate(system, cert)
        with pytest.raises(InputError, match="requires a verified certificate"):
            t_star_lower(system, cert)

    def test_certificate_index_is_checked_on_construction(self):
        with pytest.raises(InputError, match="must be an integer"):
            DistanceCertificate(
                perturbations=[(0.7, HermitianOperator(np.zeros((2, 2))))],
                method="manual", verified_uncontrollable=False)

    def test_certificate_without_perturbation_is_an_input_error(self):
        with pytest.raises(InputError, match="carries no perturbation"):
            DistanceCertificate(perturbations=[], method="manual",
                                verified_uncontrollable=True)

    def test_repeated_index_is_an_input_error(self):
        # hopping d=4: four quarters of the drift's gap merge, applied, are
        # the whole merge, and op_norm would read a quarter of its norm
        system = build_hopping_chain(4)
        delta = epsilon_best(system).perturbations[0][1].matrix
        quarters = [(i, HermitianOperator(delta / 4))
                    for i in (0, np.int64(0), 0, 0)]
        with pytest.raises(InputError, match="generator 0 twice"):
            DistanceCertificate(perturbations=quarters, method="manual",
                                verified_uncontrollable=True)
        doc = certificate_to_json(epsilon_best(system))
        doc["perturbations"] *= 2
        with pytest.raises(InputError, match="generator 0 twice"):
            certificate_from_json(doc)

    def test_op_norm_is_read_off_the_perturbations(self):
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(0.5 * PAULI_Z)),
                           (1, HermitianOperator(-2.0 * PAULI_X))],
            method="manual", verified_uncontrollable=False)
        assert cert.op_norm == 2.0
        with pytest.raises(AttributeError):
            cert.op_norm = 1.0
        with pytest.raises(TypeError):
            DistanceCertificate(perturbations=cert.perturbations, op_norm=1.0,
                                method="manual", verified_uncontrollable=False)

    def test_unknown_keys_rejected(self):
        cert = epsilon_upper_drift_removal(drift_system(PAULI_Z, PAULI_X))
        doc = certificate_to_json(cert)
        doc["surprise"] = 1
        with pytest.raises(InputError):
            certificate_from_json(doc)
