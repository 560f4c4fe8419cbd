import numpy as np
import pytest

from qdist import (DistanceCertificate, HermitianOperator, InputError,
                   PiecewisePulse, delta_lower_bound, epsilon_best,
                   epsilon_upper_drift_removal, epsilon_upper_min_cut, evolve,
                   haar_unitary, make_system, operator_norm, pulse_from_json,
                   pulse_to_json, reachable_distance_probe, t_star_lower,
                   trace_norm, verify_perturbation_inequality)
from qdist.models import (build_cross_kerr, build_hopping_chain,
                          build_two_qubit_ising, cross_kerr_coupling,
                          fock_sector_basis, hopping_drift, site_projector)
from qdist.speed_limit import DELTA_SYMMETRY, DELTA_UNIVERSAL

from conftest import PAULI_X, PAULI_Z, random_density, random_pair_system


class TestDeltaSelection:
    def test_min_cut_certificate_gets_sqrt2(self):
        system = build_hopping_chain(4)
        cert = epsilon_upper_min_cut(hopping_drift(4),
                                     system.unbounded[0].matrix)
        delta, provenance = delta_lower_bound(system, cert)
        assert delta == pytest.approx(np.sqrt(2))
        assert provenance == "symmetry_sqrt2"

    def test_ising_drift_removal_gets_quarter(self):
        system = build_two_qubit_ising(1.0)
        cert = epsilon_upper_block_search_or_removal(system)
        delta, provenance = delta_lower_bound(system, cert)
        assert delta == DELTA_UNIVERSAL
        assert provenance == "universal_quarter"

    def test_failing_witness_falls_back_to_quarter(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        base = epsilon_upper_drift_removal(PAULI_Z, PAULI_X)
        # attach a witness that does not commute with the controls
        bad = DistanceCertificate(
            perturbations=base.perturbations, op_norm=base.op_norm,
            l11_norm=base.l11_norm, method=base.method,
            verified_uncontrollable=True,
            symmetry_witness=HermitianOperator(PAULI_Z))
        delta, provenance = delta_lower_bound(system, bad)
        assert (delta, provenance) == (DELTA_UNIVERSAL, "universal_quarter")

    def test_unverified_certificate_rejected(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            op_norm=0.0, l11_norm=0.0, method="manual",
            verified_uncontrollable=False)
        with pytest.raises(InputError):
            delta_lower_bound(system, cert)


def epsilon_upper_block_search_or_removal(system):
    return epsilon_best(system).upper


class TestTStarLower:
    def test_two_qubit_ising_quarter_over_delta(self):
        for delta in (0.5, 1.0, 2.0):
            system = build_two_qubit_ising(delta)
            report = t_star_lower(system, epsilon_best(system).upper)
            assert report.t_star_lower == pytest.approx(1 / (4 * delta), abs=1e-12)
            exact = np.pi / (2 * delta)
            assert exact / report.t_star_lower == pytest.approx(2 * np.pi,
                                                                abs=1e-12)

    def test_hopping_chain_symmetry_bound(self):
        system = build_hopping_chain(5)
        estimate = epsilon_best(system)
        report = t_star_lower(system, estimate.upper)
        assert report.delta_lower == pytest.approx(np.sqrt(2))
        assert report.t_star_lower == pytest.approx(
            np.sqrt(2) / estimate.upper.op_norm, rel=1e-12)
        assert report.epsilon_lower is not None
        assert report.epsilon_lower <= report.epsilon_upper

    def test_cross_kerr_paper_convention(self):
        # perturbing the physical coupling by its negative (norm N^2/4) and
        # using the universal 1/4 reproduces the 1 / (c N^2) scaling
        n_photons, cap = 4, 0.5
        system = build_cross_kerr(2, n_photons, cap_c=cap)
        coupling = cross_kerr_coupling(fock_sector_basis(2, n_photons), 0)
        assert operator_norm(coupling) == pytest.approx(n_photons ** 2 / 4)
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(-coupling))],
            op_norm=operator_norm(coupling), l11_norm=float(np.sum(np.abs(coupling))),
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
            op_norm=1.0, l11_norm=2.0, method="manual",
            verified_uncontrollable=True)
        with pytest.raises(InputError):
            t_star_lower(system, cert)

    def test_scaling(self):
        system = build_two_qubit_ising(1.0)
        estimate = epsilon_best(system)
        report = t_star_lower(system, estimate.upper,
                              commutant=estimate.commutant)
        scaled_system = build_two_qubit_ising(3.0)
        scaled_estimate = epsilon_best(scaled_system)
        scaled = t_star_lower(scaled_system, scaled_estimate.upper,
                              commutant=scaled_estimate.commutant)
        assert scaled.epsilon_upper == pytest.approx(3 * report.epsilon_upper,
                                                     rel=1e-12)
        assert scaled.t_star_lower == pytest.approx(report.t_star_lower / 3,
                                                    rel=1e-12)

    def test_uncontrollable_system_has_zero_lower_bound(self):
        # drift and control both Z: the distance to uncontrollability is 0
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(0.1 * PAULI_Z))],
            op_norm=0.1, l11_norm=0.2, method="manual",
            verified_uncontrollable=True)
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
        system = make_system(drift=PAULI_Z, bounded=[(PAULI_X, 1.0)])
        pulse = PiecewisePulse(durations=[1.0], amplitudes=[[1.5]])
        with pytest.raises(InputError):
            evolve(system, pulse)

    def test_nonpositive_duration(self):
        with pytest.raises(InputError):
            PiecewisePulse(durations=[0.0], amplitudes=[[1.0]])


class TestPerturbationInequality:
    def test_zero_perturbation(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        cert = DistanceCertificate(
            perturbations=[(0, HermitianOperator(np.zeros((2, 2))))],
            op_norm=0.0, l11_norm=0.0, method="manual",
            verified_uncontrollable=True)
        pulse = PiecewisePulse(durations=[1.0], amplitudes=[[0.7]])
        check = verify_perturbation_inequality(system, cert, pulse)
        assert check.lhs == pytest.approx(0.0, abs=1e-12)
        assert check.holds

    def test_ising_random_pulse(self, rng):
        system = build_two_qubit_ising(1.0)
        cert = epsilon_best(system).upper
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
            cert = epsilon_upper_drift_removal(system.drift.matrix,
                                               system.unbounded[0].matrix)
            pulse = PiecewisePulse(
                durations=rng.uniform(0.02, 0.5, 20),
                amplitudes=rng.normal(0, 1.0, (20, 1)))
            check = verify_perturbation_inequality(system, cert, pulse)
            assert check.holds
            held += 1
        assert held == 100


class TestReachableDistanceProbe:
    def test_blocked_chain_symmetry_floor(self):
        system = build_hopping_chain(4)
        cert = epsilon_upper_min_cut(hopping_drift(4), system.unbounded[0].matrix)
        blocked = system.with_perturbations(
            [(i, d.matrix) for i, d in cert.perturbations])
        # permutation moving every site across the cut
        target = np.eye(4)[:, ::-1].astype(complex)
        probe = reachable_distance_probe(blocked, target, sample_budget=10)
        assert probe.certified
        assert probe.value == pytest.approx(np.sqrt(2))

    def test_reachable_target_small_distance(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        target = evolve(system, PiecewisePulse(durations=[0.4],
                                               amplitudes=[[0.3]]))
        short = reachable_distance_probe(system, target, sample_budget=100,
                                         seed=5)
        long = reachable_distance_probe(system, target, sample_budget=400,
                                        seed=5)
        assert not short.certified
        assert long.value <= short.value  # nested sampling with a shared seed
        assert long.value < 0.1

    def test_diagonal_system_vs_x_target(self):
        # every reachable unitary is a diagonal phase, so the distance to X
        # certifies at the sqrt(2) orthogonal-state floor
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_Z])
        probe = reachable_distance_probe(system, PAULI_X, sample_budget=10)
        assert probe.certified
        assert probe.value == pytest.approx(np.sqrt(2))
        # sampling agrees: random reachable unitaries never get closer
        rng = np.random.default_rng(9)
        for _ in range(50):
            phi = rng.uniform(0, 2 * np.pi)
            u = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
            assert operator_norm(u - PAULI_X) >= np.sqrt(2) - 1e-6

    def test_controllable_input_rejected(self):
        system = make_system(drift=PAULI_Z, unbounded=[PAULI_X])
        with pytest.raises(InputError):
            reachable_distance_probe(system, np.eye(2))


class TestComposedSupplementaryInequality:
    def test_doubled_state_action_bound(self):
        for k in range(100):
            d = 2 + k % 3
            u1 = haar_unitary(d, 5 * k)
            u2 = haar_unitary(d, 5 * k + 2)
            rho = random_density(d * d, k)
            w1 = np.kron(u1, u1)
            w2 = np.kron(u2, u2)
            lhs = trace_norm(w1 @ rho @ w1.conj().T - w2 @ rho @ w2.conj().T)
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
