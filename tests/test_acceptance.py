"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Every tolerance and runtime budget is asserted, not just reported.
"""

import time

import numpy as np
import pytest

from qdist import (epsilon_best, epsilon_lower_svd, epsilon_upper_block_search,
                   epsilon_upper_drift_removal, epsilon_upper_min_cut, evolve,
                   haar_unitary, lie_dimension, make_system, operator_norm,
                   random_hermitian, stoer_wagner_min_cut, t_star_lower,
                   verify_perturbation_inequality)
from qdist.commutant import (commutant_dimension,
                             extract_original_space_symmetry)
from qdist.distance import Invariants, cut_weight_of
from qdist.models import (ModelSpec, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising,
                          cross_kerr_coupling, fock_sector_basis,
                          hopping_spectrum, reference_bounds)
from qdist.speed_limit import PiecewisePulse

from conftest import (SWAP_4, manual_gap_merge, random_density,
                      random_pair_system)


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds {self.budget}s budget")


def _report(n, name, watch):
    print(f"ACCEPTANCE {n} ({name}): PASS in {watch.elapsed:.2f}s")


def _criterion_1_pass():
    for delta in (0.5, 1.0, 2.0):
        system = build_two_qubit_ising(delta)
        invariants = Invariants(system)
        cert = epsilon_best(system, invariants=invariants)
        report = t_star_lower(system, cert, invariants=invariants)
        bound = 1.0 / (4.0 * delta)
        assert abs(report.t_star_lower - bound) <= 1e-12
        ref = reference_bounds(ModelSpec("two_qubit_ising", {"delta": delta}))
        exact = ref["exact_t_star"]
        assert exact == np.pi / (2 * delta)
        assert abs(exact / report.t_star_lower - 2 * np.pi) <= 1e-12


def test_criterion_1_two_qubit_bound(spectrum_log):
    # the first multi-threaded BLAS work of a fresh process can run many
    # times slower than later work, so the budget times a second pass
    _criterion_1_pass()
    spectrum_log.clear()
    with Stopwatch(1.0) as watch:
        _criterion_1_pass()
    # per delta: the unperturbed spectrum and the witness-free d <= 4
    # commutant cross-check of the drift removal, each a spectrum of the
    # five 4 x 4 generators
    assert [(len(g), g[0].shape) for g in spectrum_log] == [(5, (4, 4))] * 6
    _report(1, "two-qubit bound 1/(4 delta), exact pi/(2 delta)", watch)


def test_criterion_2_hopping_chain_sweep():
    with Stopwatch(5.0) as watch:
        for d in range(3, 101):
            system = build_hopping_chain(d)
            w = np.linalg.eigvalsh(system.drift.matrix)
            assert np.max(np.abs(np.sort(w) - hopping_spectrum(d))) <= 1e-10
            min_gap = float(np.min(np.diff(np.sort(w))))
            assert min_gap <= 3 * np.pi ** 2 / d ** 2 + 1e-12
            ref = reference_bounds(ModelSpec("hopping_chain", {"d": d}))
            expected = np.sqrt(2.0) * d ** 2 / (3 * np.pi ** 2)
            assert abs(ref["t_bound"] - expected) <= 1e-12
    _report(2, "hopping chain spectrum, gap bound, sqrt(2)d^2/(3pi^2)", watch)


def test_criterion_3_cross_kerr():
    with Stopwatch(1.0) as watch:
        for n_photons in (2, 4, 6):
            basis = fock_sector_basis(2, n_photons)
            norm = operator_norm(cross_kerr_coupling(basis, 0))
            assert norm == n_photons ** 2 / 4.0  # exact for even N
            for cap in (0.5, 1.0):
                ref = reference_bounds(ModelSpec(
                    "cross_kerr", {"n_modes": 2, "n_photons": n_photons,
                                   "cap_c": cap}))
                assert ref["t_bound"] == 1.0 / (cap * n_photons ** 2)
                assert 0.25 / (cap * ref["kerr_norm"]) == ref["t_bound"]
        for n_photons in (3, 5):
            ref = reference_bounds(ModelSpec(
                "cross_kerr", {"n_modes": 2, "n_photons": n_photons}))
            assert ref["kerr_norm"] == (n_photons ** 2 - 1) / 4.0
            assert not ref["paper_norm_is_exact"]
    _report(3, "cross-Kerr norms N^2/4 and bound 1/(c N^2)", watch)


def test_criterion_4_global_control_chain():
    with Stopwatch(10.0) as watch:
        equal = build_global_control_chain(2, [1.0, 1.0])
        gens = equal.algebra_generators()
        assert not commutant_dimension(gens, want_symmetries=False).controllable
        sym = extract_original_space_symmetry(gens)
        assert sym is not None
        stacked = np.column_stack([np.eye(4).ravel(), sym.matrix.ravel()])
        coef, *_ = np.linalg.lstsq(stacked, SWAP_4.ravel(), rcond=None)
        assert np.linalg.norm(stacked @ coef - SWAP_4.ravel()) < 1e-9

        distinct = build_global_control_chain(2, [1.0, 1.2])
        assert commutant_dimension(distinct.algebra_generators(),
                                   want_symmetries=False).controllable
        for cap in (1.0, 2.0):
            ref = reference_bounds(ModelSpec(
                "global_control_chain",
                {"n_qubits": 2, "gammas": [1.0, 1.2], "cap_c": cap}))
            assert abs(ref["t_bound"] - np.sqrt(2.0) / (cap * 0.2)) <= 1e-12
    _report(4, "global chain verdicts, SWAP symmetry, sqrt(2)/(c 0.2)", watch)


def test_criterion_5_oracle_equivalence():
    with Stopwatch(60.0) as watch:
        checked = 0
        for seed in range(110):
            d = 2 + seed % 2
            gens = [random_hermitian(d, 13 * seed + j, traceless=True).matrix
                    for j in range(2 + seed % 2)]  # pairs and triples
            if seed % 9 == 0:
                gens = [gens[0], gens[0].copy()]  # force uncontrollable cases
            if seed % 9 == 5:
                gens = [np.diag(np.diag(g)).copy() - np.trace(np.diag(np.diag(g)))
                        / d * np.eye(d) for g in gens]  # commuting family
            assert lie_dimension(gens).controllable == commutant_dimension(
                gens, want_symmetries=False).controllable
            checked += 1
        assert checked >= 100
    _report(5, "Lie-closure vs commutant verdicts agree on 110 samples", watch)


def test_criterion_6_distance_consistency():
    with Stopwatch(120.0) as watch:
        checked = 0
        for seed in range(50):
            d = 2 + seed % 2
            system = random_pair_system(d, 9000 + seed)
            if not lie_dimension(system.algebra_generators()).controllable:
                continue
            lower = epsilon_lower_svd(system, [0])
            certificates = [manual_gap_merge(system),
                            epsilon_upper_min_cut(system),
                            epsilon_upper_block_search(system),
                            epsilon_upper_drift_removal(system)]
            for cert in certificates:
                if cert.verified_uncontrollable:
                    assert lower <= cert.op_norm + 1e-12
            best = epsilon_best(system)
            assert best.verified_uncontrollable
            assert lower <= best.op_norm + 1e-12
            checked += 1
        assert checked >= 50
    _report(6, "SVD lower bound below every verified certificate", watch)


def test_criterion_7_stoer_wagner_vs_brute_force():
    rng = np.random.default_rng(424242)
    with Stopwatch(10.0) as watch:
        for trial in range(200):
            n = int(rng.integers(3, 11))
            w = np.triu(rng.integers(0, 12, size=(n, n)).astype(float), 1)
            if trial % 3 == 0:
                w[w < 4] = 0.0  # sparser graphs, sometimes disconnected
            w = w + w.T
            cut = stoer_wagner_min_cut(w)
            best = min(cut_weight_of(w, [i for i in range(n - 1) if bits >> i & 1])
                       for bits in range(1, 2 ** (n - 1)))
            assert cut.cut_weight == best  # exact: integer weights
    _report(7, "Stoer-Wagner equals brute-force enumeration on 200 graphs",
            watch)


def test_criterion_8_perturbation_inequality():
    rng = np.random.default_rng(31337)
    with Stopwatch(60.0) as watch:
        held = 0
        for seed in range(100):
            d = 2 + seed % 3
            system = random_pair_system(d, 7000 + seed)
            cert = epsilon_upper_drift_removal(system)
            pulse = PiecewisePulse(
                durations=rng.uniform(0.02, 0.6, 20),
                amplitudes=rng.normal(0.0, 1.2, (20, 1)))
            check = verify_perturbation_inequality(system, cert, pulse)
            assert check.holds
            held += 1
        assert held == 100
    _report(8, "propagation inequality holds on 100 random triples", watch)


def test_criterion_9_supplementary_norm_lemmas():
    with Stopwatch(30.0) as watch:
        for k in range(100):
            d = 2 + k % 3
            u1 = haar_unitary(d, 11 * k)
            u2 = haar_unitary(d, 11 * k + 5)
            assert operator_norm(np.kron(u1, u1) - np.kron(u2, u2)) \
                <= 2 * operator_norm(u1 - u2) + 1e-10
            rho = random_density(d, 1000 + k)
            assert np.linalg.norm(u1 @ rho @ u1.conj().T - u2 @ rho @ u2.conj().T,
                                  "nuc") <= 2 * operator_norm(u1 - u2) + 1e-10
    _report(9, "both doubled-space norm lemmas hold on 100 samples", watch)
