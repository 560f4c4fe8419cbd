import tracemalloc

import numpy as np
import pytest

from qdist import (DistanceCertificate, HermitianOperator, InputError,
                   PiecewisePulse, delta_lower_bound, epsilon_best,
                   epsilon_upper_drift_removal, epsilon_upper_min_cut, evolve,
                   haar_unitary, make_system, operator_norm, pulse_from_json,
                   pulse_to_json, random_hermitian, reachable_distance_lower,
                   t_star_lower, verify_perturbation_inequality)
from qdist.distance import Invariants
from qdist.models import (build_cross_kerr, build_hopping_chain,
                          build_two_qubit_ising, cross_kerr_coupling,
                          fock_sector_basis)
from qdist.speed_limit import _CHUNK_ENTRIES, DELTA_SYMMETRY, DELTA_UNIVERSAL

from conftest import (PAULI_X, PAULI_Y, PAULI_Z, random_density,
                      random_pair_system, reference_propagator)


class TestDeltaSelection:
    def test_min_cut_certificate_gets_sqrt2(self):
        system = build_hopping_chain(4)
        cert = epsilon_upper_min_cut(system)
        delta, provenance = delta_lower_bound(system, cert)
        assert delta == pytest.approx(np.sqrt(2))
        assert provenance == "symmetry_sqrt2"

    def test_ising_drift_removal_gets_quarter(self):
        system = build_two_qubit_ising(1.0)
        cert = epsilon_best(system)
        delta, provenance = delta_lower_bound(system, cert)
        assert delta == DELTA_UNIVERSAL
        assert provenance == "universal_quarter"

    def test_failing_witness_falls_back_to_quarter(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        base = epsilon_upper_drift_removal(system)
        # attach a witness that does not commute with the controls
        bad = DistanceCertificate(
            perturbations=base.perturbations, method=base.method,
            verified_uncontrollable=True,
            symmetry_witness=HermitianOperator(PAULI_Z))
        delta, provenance = delta_lower_bound(system, bad)
        assert (delta, provenance) == (DELTA_UNIVERSAL, "universal_quarter")

    def test_unverified_certificate_rejected(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            method="manual", verified_uncontrollable=False)
        with pytest.raises(InputError):
            delta_lower_bound(system, cert)


class TestTStarLower:
    def test_two_qubit_ising_quarter_over_delta(self):
        for delta in (0.5, 1.0, 2.0):
            system = build_two_qubit_ising(delta)
            report = t_star_lower(system, epsilon_best(system))
            assert report.t_star_lower == pytest.approx(1 / (4 * delta), abs=1e-12)
            exact = np.pi / (2 * delta)
            assert exact / report.t_star_lower == pytest.approx(2 * np.pi,
                                                                abs=1e-12)

    def test_hopping_chain_symmetry_bound(self):
        system = build_hopping_chain(5)
        cert = epsilon_best(system)
        report = t_star_lower(system, cert)
        assert report.delta_lower == pytest.approx(np.sqrt(2))
        assert report.t_star_lower == pytest.approx(
            np.sqrt(2) / cert.op_norm, rel=1e-12)
        assert report.epsilon_lower is not None
        assert report.epsilon_lower <= report.epsilon_upper

    @pytest.mark.parametrize("unbounded", [
        [], [np.eye(2)], [np.eye(2), 2 * np.eye(2)]],
        ids=["none", "identity", "two_identities"])
    def test_removing_every_bounded_control_gets_sqrt2(self, unbounded):
        # only phases stay reachable: the same perturbed dynamics, so the
        # same rank-1 projector witness in every case
        system = make_system(bounded=[(PAULI_X, 1.0), (PAULI_Y, 1.0)],
                             unbounded=unbounded)
        invariants = Invariants(system)
        cert = epsilon_best(system, invariants=invariants)
        report = t_star_lower(system, cert, invariants=invariants)
        assert report.delta_lower == DELTA_SYMMETRY
        assert report.t_star_lower == pytest.approx(0.7071, abs=1e-4)

    def test_cross_kerr_paper_convention(self):
        # perturbing the physical coupling by its negative (norm N^2/4) and
        # using the universal 1/4 reproduces the 1 / (c N^2) scaling
        n_photons, cap = 4, 0.5
        system = build_cross_kerr(2, n_photons, cap_c=cap)
        coupling = cross_kerr_coupling(fock_sector_basis(2, n_photons), 0)
        assert operator_norm(coupling) == pytest.approx(n_photons ** 2 / 4)
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(-coupling))],
            method="manual", verified_uncontrollable=True)
        report = t_star_lower(system, cert)
        assert report.delta_provenance == "universal_quarter"
        assert report.amplitude_cap_c == cap
        assert report.t_star_lower == pytest.approx(1 / (cap * n_photons ** 2),
                                                    abs=1e-12)

    def test_rejects_unbounded_perturbation(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = DistanceCertificate(
            perturbations=[(1, HermitianOperator(-PAULI_X))],
            method="manual", verified_uncontrollable=True)
        with pytest.raises(InputError):
            t_star_lower(system, cert)

    def test_scaling(self):
        system = build_two_qubit_ising(1.0)
        invariants = Invariants(system)
        cert = epsilon_best(system, invariants=invariants)
        report = t_star_lower(system, cert, invariants=invariants)
        scaled_system = build_two_qubit_ising(3.0)
        scaled_invariants = Invariants(scaled_system)
        scaled_cert = epsilon_best(scaled_system, invariants=scaled_invariants)
        scaled = t_star_lower(scaled_system, scaled_cert,
                              invariants=scaled_invariants)
        assert scaled.epsilon_upper == pytest.approx(3 * report.epsilon_upper,
                                                     rel=1e-12)
        assert scaled.t_star_lower == pytest.approx(report.t_star_lower / 3,
                                                    rel=1e-12)

    def test_uncontrollable_system_has_zero_lower_bound(self):
        # drift and control both Z: the distance to uncontrollability is 0
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(0.1 * PAULI_Z))],
            method="manual", verified_uncontrollable=True)
        report = t_star_lower(system, cert)
        assert report.epsilon_lower == 0.0
        assert isinstance(report.epsilon_lower, float)


class TestEvolve:
    def test_zero_hamiltonian(self):
        system = make_system(drift=np.zeros((3, 3)), unbounded=[np.diag([1., 0., -1.])])
        pulse = PiecewisePulse(durations=[2.5], amplitudes=[[0.0]])
        np.testing.assert_allclose(evolve(system, pulse), np.eye(3), atol=1e-12)

    def test_z_segment_phases(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        pulse = PiecewisePulse(durations=[0.3], amplitudes=[[0.0]])
        u = evolve(system, pulse)
        np.testing.assert_allclose(np.diag(u), [np.exp(0.3j), np.exp(-0.3j)],
                                   atol=1e-12)
        assert abs(u[0, 1]) < 1e-14

    def test_segment_splitting_semigroup(self, rng):
        system = random_pair_system(3, 77)
        amps = rng.normal(0, 1, size=(1, 1))
        whole = PiecewisePulse(durations=[0.8], amplitudes=amps)
        halves = PiecewisePulse(durations=[0.4, 0.4],
                                amplitudes=np.vstack([amps, amps]))
        np.testing.assert_allclose(evolve(system, whole), evolve(system, halves),
                                   atol=1e-12)

    def test_unitarity(self, rng):
        for seed in range(10):
            system = random_pair_system(2 + seed % 3, 300 + seed)
            pulse = PiecewisePulse(
                durations=rng.uniform(0.1, 1.0, 6),
                amplitudes=rng.normal(0, 2, (6, 1)))
            u = evolve(system, pulse)
            assert np.max(np.abs(u.conj().T @ u - np.eye(system.dim))) < 1e-10

    def test_cap_violation(self):
        system = make_system(drift=PAULI_Z, bounded=[(PAULI_X, 2.0), (PAULI_Y, 1.0)])
        pulse = PiecewisePulse(durations=[1.0, 1.0],
                               amplitudes=[[0.5, -1.5], [2.0, 0.0]])
        with pytest.raises(InputError) as info:
            evolve(system, pulse)
        assert str(info.value) == ("pulse violates cap on bounded control 1: "
                                   "|amplitude| 1.5 > 1.0")

    def test_column_count(self):
        system = make_system(drift=PAULI_Z, bounded=[(PAULI_X, 1.0)],
                             unbounded=[PAULI_Y])
        pulse = PiecewisePulse(durations=[1.0], amplitudes=[[0.5, 0.1, 0.2]])
        with pytest.raises(InputError) as info:
            evolve(system, pulse)
        assert str(info.value) == ("pulse has 3 amplitude columns, "
                                   "system has 2 controls")

    def test_nonpositive_duration(self):
        with pytest.raises(InputError):
            PiecewisePulse(durations=[0.0], amplitudes=[[1.0]])


def random_pulse(rng, segments):
    """A pulse for a system with one unbounded control."""
    return PiecewisePulse(durations=rng.uniform(0.01, 0.5, segments),
                          amplitudes=rng.normal(0, 1, (segments, 1)))


class TestChunkedEvolve:
    """evolve diagonalizes a chunk of segments at once and multiplies them
    pairwise; the product must be the segment-by-segment one."""

    @pytest.mark.parametrize("d, segments", [(2, 1), (3, 1), (3, 7), (4, 13),
                                             (2, 16), (4, 64)])
    def test_matches_the_sequential_product(self, d, segments):
        system = random_pair_system(d, 500 + d)
        pulse = random_pulse(np.random.default_rng([d, segments]), segments)
        np.testing.assert_allclose(evolve(system, pulse),
                                   reference_propagator(system, pulse),
                                   atol=1e-12)

    def test_pulse_across_chunks(self):
        d = 8
        per_chunk = _CHUNK_ENTRIES // d ** 2
        # two full chunks and an odd remainder
        segments = 2 * per_chunk + 37
        system = random_pair_system(d, 508)
        pulse = random_pulse(np.random.default_rng(8), segments)
        u = evolve(system, pulse)
        np.testing.assert_allclose(u, reference_propagator(system, pulse),
                                   atol=1e-12)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_memory_stays_within_the_chunk_budget(self):
        # 100 000 segments at d = 2: the bound is 5.3 MB, while every
        # segment at once holds several 6.4 MB stacks, 38 MB at the peak
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        pulse = random_pulse(np.random.default_rng(2), 100_000)
        pulse_bytes = pulse.durations.nbytes + pulse.amplitudes.nbytes
        chunk_bytes = _CHUNK_ENTRIES * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            evolve(system, pulse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * pulse_bytes + 8 * chunk_bytes


class TestPerturbationInequality:
    def test_zero_perturbation(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            method="manual", verified_uncontrollable=True)
        pulse = PiecewisePulse(durations=[1.0], amplitudes=[[0.7]])
        check = verify_perturbation_inequality(system, cert, pulse)
        assert check.lhs == pytest.approx(0.0, abs=1e-12)
        assert check.holds

    def test_ising_random_pulse(self, rng):
        system = build_two_qubit_ising(1.0)
        cert = epsilon_best(system)
        pulse = PiecewisePulse(durations=rng.uniform(0.05, 0.6, 20),
                               amplitudes=rng.normal(0, 1.5, (20, 4)))
        check = verify_perturbation_inequality(system, cert, pulse)
        assert check.holds
        assert check.lhs <= check.rhs + 1e-9

    def test_hundred_random_triples(self, rng):
        held = 0
        for seed in range(100):
            d = 2 + seed % 3
            system = random_pair_system(d, 400 + seed)
            cert = epsilon_upper_drift_removal(system)
            pulse = PiecewisePulse(
                durations=rng.uniform(0.02, 0.5, 20),
                amplitudes=rng.normal(0, 1.0, (20, 1)))
            check = verify_perturbation_inequality(system, cert, pulse)
            assert check.holds
            held += 1
        assert held == 100


def sampled_pulse(system, rng, segments: int = 8) -> PiecewisePulse:
    """Random piecewise pulse within the system's caps: the sampler the
    reachable-distance bound is checked against."""
    durations = rng.uniform(0.05, 1.5, size=segments)
    cols = [rng.uniform(-b.cap, b.cap, size=segments) for b in system.bounded]
    cols += [rng.normal(0.0, 2.0, size=segments) for _ in system.unbounded]
    amplitudes = np.column_stack(cols) if cols else np.zeros((segments, 0))
    return PiecewisePulse(durations=durations, amplitudes=amplitudes)


def block_diagonal_system(sizes, basis, seed):
    """Drift, one bounded and one unbounded control, each a random Hermitian
    block-diagonal matrix (block sizes `sizes`) in the columns of `basis`,
    with the block projectors in that basis."""
    d = sum(sizes)
    edges = np.cumsum([0, *sizes])

    def blocked(offset):
        m = np.zeros((d, d), dtype=complex)
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            m[lo:hi, lo:hi] = random_hermitian(hi - lo, seed + offset + k).matrix
        return basis @ m @ basis.conj().T

    system = make_system(drift=blocked(0), bounded=[(blocked(100), 1.0)],
                         unbounded=[blocked(200)])
    projectors = [basis[:, lo:hi] @ basis[:, lo:hi].conj().T
                  for lo, hi in zip(edges[:-1], edges[1:])]
    return system, projectors


def conjugated(system, w):
    """The system with every generator conjugated by the unitary w."""
    def conj(op):
        return w @ op.matrix @ w.conj().T
    return make_system(drift=conj(system.drift),
                       bounded=[(conj(b.operator), b.cap) for b in system.bounded],
                       unbounded=[conj(op) for op in system.unbounded])


class TestReachableDistanceLower:
    def test_blocked_chain_reads_sqrt2(self):
        system = build_hopping_chain(4)
        cert = epsilon_upper_min_cut(system)
        blocked = system.with_perturbations(
            [(i, d.matrix) for i, d in cert.perturbations])
        # permutation moving every site across the cut
        target = np.eye(4)[:, ::-1].astype(complex)
        assert reachable_distance_lower(blocked, target) == pytest.approx(
            np.sqrt(2))

    def test_diagonal_system_vs_x_target(self):
        # every reachable unitary is a diagonal phase, so X stays at the
        # sqrt(2) orthogonal-state floor
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        assert reachable_distance_lower(system, PAULI_X) == pytest.approx(
            np.sqrt(2))

    def test_finest_joint_blocks_catch_a_site_swap(self):
        # every reachable unitary is diagonal; the swap of sites 0 and 1
        # maps site 0 onto site 1, so the site-0 block reads sqrt(2)
        system = make_system(drift=np.diag([1.0, 2.0, 3.0]),
                             unbounded=[np.diag([1.0, -1.0, 0.5])])
        target = np.eye(3)[:, [1, 0, 2]].astype(complex)
        assert reachable_distance_lower(system, target) == pytest.approx(
            np.sqrt(2))

    def test_controllable_system_reads_zero(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        assert reachable_distance_lower(system, PAULI_Y) == 0.0

    def test_reachable_target_reads_zero(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        target = evolve(system, PiecewisePulse(durations=[0.4],
                                               amplitudes=[[0.3]]))
        assert reachable_distance_lower(system, target) == pytest.approx(
            0.0, abs=1e-12)

    def test_wrong_dimension_target_rejected(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        with pytest.raises(InputError):
            reachable_distance_lower(system, np.eye(3))

    def test_never_exceeds_a_sampled_distance(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            d = 2 + trial % 5
            cut = 1 + trial % (d - 1)
            sizes = (cut, d - cut)
            basis = haar_unitary(d, 600 + trial)
            system, projectors = block_diagonal_system(sizes, basis, 50 * trial)
            target = haar_unitary(d, 900 + trial)
            reached = [evolve(system, sampled_pulse(system, rng))
                       for _ in range(60)]
            bound = reachable_distance_lower(system, target)
            assert bound <= min(operator_norm(v - target) for v in reached) + 1e-9
            # the bound needs no unitary target
            shrunk = 0.5 * target
            assert reachable_distance_lower(system, shrunk) <= min(
                operator_norm(v - shrunk) for v in reached) + 1e-9
            # a unitary target reads the closed form at its best block
            off = max(operator_norm((np.eye(d) - p) @ target @ p)
                      for p in projectors)
            assert bound == pytest.approx(
                np.sqrt(2 - 2 * np.sqrt(max(0.0, 1 - off ** 2))), rel=1e-9)
            # neither a global phase nor a change of basis moves it
            assert reachable_distance_lower(
                system, np.exp(0.7j * trial) * target) == pytest.approx(
                    bound, rel=1e-9)
            w = haar_unitary(d, 1200 + trial)
            assert reachable_distance_lower(
                conjugated(system, w), w @ target @ w.conj().T
            ) == pytest.approx(bound, rel=1e-9)


class TestComposedSupplementaryInequality:
    def test_doubled_state_action_bound(self):
        for k in range(100):
            d = 2 + k % 3
            u1 = haar_unitary(d, 5 * k)
            u2 = haar_unitary(d, 5 * k + 2)
            rho = random_density(d * d, k)
            w1 = np.kron(u1, u1)
            w2 = np.kron(u2, u2)
            lhs = np.linalg.norm(w1 @ rho @ w1.conj().T - w2 @ rho @ w2.conj().T, "nuc")
            assert lhs <= 4 * operator_norm(u1 - u2) + 1e-10


class TestPulseSerialization:
    def test_round_trip(self):
        pulse = PiecewisePulse(durations=[0.5, 1.0],
                               amplitudes=[[0.1, -0.2], [0.0, 0.3]])
        doc = pulse_to_json(pulse)
        back = pulse_from_json(doc)
        np.testing.assert_array_equal(back.durations, pulse.durations)
        np.testing.assert_array_equal(back.amplitudes, pulse.amplitudes)

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError):
            pulse_from_json({"durations": [1.0], "amplitudes": [[0.0]],
                             "extra": 1})
