"""Each command builds one distance.Invariants of the unperturbed system and
passes it to every stage, so the Lie closure and the commutant spectrum
(or, at or above the dimension guard, the answer that there is none) are
computed once; the shared object gives bit-identical numbers, and one
built for another system or tolerance is an InputError."""

import json

import numpy as np
import pytest

from qdist import (DEFAULT_TOL, InputError, ToleranceConfig, cli, commutant,
                   distance, epsilon_best, epsilon_lower_svd, lie_closure)
from qdist.cli import analyze_system, main
from qdist.commutant import (COMMUTANT_DIM_GUARD, SECTOR_MIN_DIM,
                             build_stacked_adjoint, commutant_dimension)
from qdist.distance import (Invariants, certificate_to_json,
                            epsilon_upper_block_search,
                            epsilon_upper_drift_removal, epsilon_upper_gap_merge,
                            epsilon_upper_min_cut)
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain)
from qdist.speed_limit import t_star_lower
from qdist.system import make_system, system_to_json

from conftest import PAULI_X, PAULI_Y, PAULI_Z, random_pair_system

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SYSTEMS = {
    "hopping_d4": lambda: build_hopping_chain(4),    # drift path
    "cross_kerr_2_3": lambda: build_cross_kerr(2, 3),  # driftless path
}


def same_generators(mats, gens) -> bool:
    return len(mats) == len(gens) and all(
        np.array_equal(a, b) for a, b in zip(mats, gens))


def count_closures(monkeypatch, gens, counts, key):
    """Count in counts[key] the Lie closures of exactly these generators."""
    counts[key] = 0
    closure = lie_closure.lie_dimension

    def counting_closure(generators, *args, **kwargs):
        mats = list(generators)
        if same_generators(mats, gens):
            counts[key] += 1
        return closure(mats, *args, **kwargs)

    for module in (lie_closure, distance, cli):
        monkeypatch.setattr(module, "lie_dimension", counting_closure)


def count_unperturbed_work(monkeypatch, svd_log, spectrum_log, system):
    """Count the unperturbed commutant spectra and the Lie closures of the
    unperturbed generators; other inputs are not counted. A spectrum is
    counted as one SVD of the stacked adjoint matrix below SECTOR_MIN_DIM,
    and as one call of commutant.sector_blocks from there, however the
    sectors are split into SVD inputs. Returns a function that gives the
    counts so far."""
    gens = system.algebra_generators()
    stacked = build_stacked_adjoint(gens) if system.dim < SECTOR_MIN_DIM else None
    closures = {}
    count_closures(monkeypatch, gens, closures, "lie")

    def counts():
        if stacked is None:
            spectra = sum(same_generators(g, gens) for g in spectrum_log)
        else:
            spectra = sum(1 for c in svd_log if c.shape == stacked.shape
                          and np.array_equal(c.matrix, stacked))
        return {"spectrum": spectra, **closures}

    return counts


def write_system(tmp_path, system):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    return str(path)


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("name", SYSTEMS)
def test_analyze_computes_each_invariant_once(monkeypatch, svd_log,
                                              spectrum_log, name):
    system = SYSTEMS[name]()
    counts = count_unperturbed_work(monkeypatch, svd_log, spectrum_log,
                                    system)
    report, code = analyze_system(system, DEFAULT_TOL)
    assert code == 0 and report["qsl"] is not None
    assert counts() == {"spectrum": 1, "lie": 1}


@pytest.mark.parametrize("name", SYSTEMS)
def test_analyze_report_matches_unshared_calls(name):
    system = SYSTEMS[name]()
    report, _ = analyze_system(system, DEFAULT_TOL)
    cert = epsilon_best(system, tol=DEFAULT_TOL)
    qsl = t_star_lower(system, cert, tol=DEFAULT_TOL)
    lower = epsilon_lower_svd(system, [i for i, _ in cert.perturbations],
                              tol=DEFAULT_TOL)
    assert dumps(report["distance"]) == dumps(
        {"upper": certificate_to_json(cert), "lower": lower})
    assert dumps(report["qsl"]) == dumps(qsl.to_dict())


@pytest.mark.parametrize("argv", [["distance"], ["qsl"]])
def test_commands_compute_each_invariant_once(tmp_path, capsys, monkeypatch,
                                              svd_log, spectrum_log, argv):
    system = build_hopping_chain(4)
    path = tmp_path / "hop4.json"
    path.write_text(json.dumps(system_to_json(system)))
    counts = count_unperturbed_work(monkeypatch, svd_log, spectrum_log,
                                    system)
    assert main(argv + ["--system", str(path)]) == 0
    capsys.readouterr()
    assert counts() == {"spectrum": 1, "lie": 1}


@pytest.mark.parametrize("argv, code", [(["distance"], 1), (["qsl"], 1)],
                         ids=["distance", "qsl"])
def test_controllable_controls_are_rejected_before_any_svd(
        tmp_path, capsys, svd_log, argv, code):
    # the controls X, Y alone generate su(2), so no drift perturbation can
    # break controllability and the spectrum would go unused
    system = make_system(drift=PAULI_Z, unbounded=[PAULI_X, PAULI_Y])
    path = tmp_path / "zxy.json"
    path.write_text(json.dumps(system_to_json(system)))
    assert main(argv + ["--system", str(path)]) == code
    out, err = capsys.readouterr()
    assert "the controls alone are controllable" in out + err
    assert len(svd_log) == 0


@pytest.mark.parametrize("argv, code", [(["distance"], 1), (["qsl"], 1)],
                         ids=["distance", "qsl"])
def test_controllable_unbounded_controls_are_rejected_before_the_svd(
        tmp_path, capsys, monkeypatch, svd_log, spectrum_log, argv, code):
    # driftless: X, Y alone generate su(2), so removing the bounded Z cannot
    # break controllability and the 48 x 16 spectrum would go unused
    system = make_system(bounded=[(PAULI_Z, 1.0)], unbounded=[PAULI_X, PAULI_Y])
    path = write_system(tmp_path, system)
    counts = count_unperturbed_work(monkeypatch, svd_log, spectrum_log,
                                    system)
    assert main(argv + ["--system", path]) == code
    out, err = capsys.readouterr()
    assert "the unbounded controls alone are controllable" in out + err
    assert counts() == {"spectrum": 0, "lie": 1}


@pytest.mark.parametrize("argv", [["distance"], ["qsl"], ["analyze"]],
                         ids=["distance", "qsl", "analyze"])
def test_controls_alone_are_closed_once(tmp_path, capsys, monkeypatch, argv):
    system = build_hopping_chain(4)
    path = write_system(tmp_path, system)
    counts = {}
    count_closures(monkeypatch, system.algebra_generators()[1:], counts,
                   "controls")
    assert main(argv + ["--system", path]) == 0
    capsys.readouterr()
    assert counts == {"controls": 1}


@pytest.mark.parametrize("d", [4, 7])
def test_estimate_reads_the_spectrum_of_its_invariants(d):
    system = build_hopping_chain(d)
    invariants = Invariants(system)
    cert = epsilon_best(system, invariants=invariants)
    lower = t_star_lower(system, cert, invariants=invariants).epsilon_lower
    if d < COMMUTANT_DIM_GUARD:
        assert len(invariants.spectrum.singular_values) == d ** 4
        assert lower == epsilon_lower_svd(system, [0], invariants=invariants) > 0
    else:
        assert invariants.spectrum is None and lower == 0.0


@pytest.mark.parametrize("argv", [["analyze"], ["distance"], ["qsl"]],
                         ids=["analyze", "distance", "qsl"])
def test_the_guard_is_asked_once_per_command(tmp_path, capsys, monkeypatch,
                                             argv):
    # at d >= COMMUTANT_DIM_GUARD the answer "no spectrum" is kept like a
    # spectrum: asking again would raise the guard again
    system = build_hopping_chain(COMMUTANT_DIM_GUARD)
    path = write_system(tmp_path, system)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return commutant_dimension(*args, **kwargs)

    for module in (commutant, distance, cli):
        monkeypatch.setattr(module, "commutant_dimension", counted)
    assert main(argv + ["--system", path]) == 0
    capsys.readouterr()
    assert len(calls) == 1


CONTROLLABLE_GRID = {
    **{f"hopping_d{d}": (lambda d=d: build_hopping_chain(d))
       for d in range(3, 9)},
    "cross_kerr_2_3": lambda: build_cross_kerr(2, 3),
    "cross_kerr_3_3": lambda: build_cross_kerr(3, 3),
    "global_chain_1_1.2": lambda: build_global_control_chain(2, [1.0, 1.2]),
}


@pytest.mark.parametrize("name", CONTROLLABLE_GRID)
def test_analyze_reports_one_lower_bound(name):
    # distance.lower and qsl.epsilon_lower are the same bound on the same
    # generators, with or without a spectrum at this dimension
    report, code = analyze_system(CONTROLLABLE_GRID[name](), DEFAULT_TOL)
    assert code == 0
    lower = report["qsl"]["epsilon_lower"]
    assert isinstance(lower, float)
    assert lower == report["distance"]["lower"]


def test_invariants_of_another_system_are_input_errors():
    system = build_hopping_chain(4)
    cert = epsilon_best(system)
    # same dimension and tolerance: only the system object tells them apart
    other = Invariants(random_pair_system(4, 7), DEFAULT_TOL)
    loose = Invariants(system, ToleranceConfig(rank_rel_tol=1e-8))
    for invariants in (other, loose):
        with pytest.raises(InputError, match="another system or tolerance"):
            epsilon_best(system, invariants=invariants)
        with pytest.raises(InputError, match="another system or tolerance"):
            epsilon_lower_svd(system, [0], invariants=invariants)
        with pytest.raises(InputError, match="another system or tolerance"):
            t_star_lower(system, cert, invariants=invariants)
        for estimator in (epsilon_upper_gap_merge, epsilon_upper_min_cut,
                          epsilon_upper_block_search, epsilon_upper_drift_removal):
            with pytest.raises(InputError, match="another system or tolerance"):
                estimator(system, invariants=invariants)


@hypothesis.settings(max_examples=12, deadline=None, database=None)
@hypothesis.given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
                  indices=st.sampled_from([[0], [1], [0, 1]]))
def test_passed_spectrum_gives_bit_identical_bounds(d, seed, indices):
    system = random_pair_system(d, seed)
    invariants = Invariants(system)
    hypothesis.assume(invariants.spectrum.controllable)
    assert (epsilon_lower_svd(system, indices, invariants=invariants)
            == epsilon_lower_svd(system, indices))
    cert = epsilon_best(system, invariants=invariants)
    assert cert.op_norm == epsilon_best(system).op_norm
    assert (t_star_lower(system, cert, invariants=invariants).epsilon_lower
            == t_star_lower(system, cert).epsilon_lower)
