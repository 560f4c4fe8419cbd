"""Each command computes the unperturbed Lie closure and commutant spectrum
once and passes them on; the shared objects give bit-identical numbers."""

import json

import numpy as np
import pytest

from qdist import (DEFAULT_TOL, InputError, cli, distance, epsilon_best,
                   epsilon_lower_svd, lie_closure, lie_dimension)
from qdist.cli import analyze_system, main
from qdist.commutant import (COMMUTANT_DIM_GUARD, build_stacked_adjoint,
                             commutant_dimension)
from qdist.distance import certificate_to_json
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


def count_closures(monkeypatch, gens, counts, key):
    """Count in counts[key] the Lie closures of exactly these generators."""
    counts[key] = 0
    closure = lie_closure.lie_dimension

    def counting_closure(generators, *args, **kwargs):
        mats = list(generators)
        if len(mats) == len(gens) and all(
                np.array_equal(a, b) for a, b in zip(mats, gens)):
            counts[key] += 1
        return closure(mats, *args, **kwargs)

    for module in (lie_closure, distance, cli):
        monkeypatch.setattr(module, "lie_dimension", counting_closure)


def count_unperturbed_work(monkeypatch, svd_log, system):
    """Count SVDs of the unperturbed stacked adjoint matrix and Lie closures
    of the unperturbed generators; other inputs are not counted. Returns a
    function that gives the counts so far."""
    gens = system.algebra_generators()
    stacked = build_stacked_adjoint(gens)
    closures = {}
    count_closures(monkeypatch, gens, closures, "lie")

    def counts():
        svds = sum(1 for c in svd_log if c.shape == stacked.shape
                   and np.array_equal(c.matrix, stacked))
        return {"svd": svds, **closures}

    return counts


def write_system(tmp_path, system):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    return str(path)


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("name", SYSTEMS)
def test_analyze_computes_each_invariant_once(monkeypatch, svd_log, name):
    system = SYSTEMS[name]()
    counts = count_unperturbed_work(monkeypatch, svd_log, system)
    report, code = analyze_system(system, DEFAULT_TOL)
    assert code == 0 and report["qsl"] is not None
    assert counts() == {"svd": 1, "lie": 1}


@pytest.mark.parametrize("name", SYSTEMS)
def test_analyze_report_matches_unshared_calls(name):
    system = SYSTEMS[name]()
    report, _ = analyze_system(system, DEFAULT_TOL)
    estimate = epsilon_best(system, tol=DEFAULT_TOL)
    qsl = t_star_lower(system, estimate.upper, tol=DEFAULT_TOL)
    assert dumps(report["distance"]) == dumps(
        {"upper": certificate_to_json(estimate.upper), "lower": estimate.lower})
    assert dumps(report["qsl"]) == dumps(qsl.to_dict())


@pytest.mark.parametrize("argv", [["distance"], ["distance", "--perturb", "all"],
                                  ["qsl"]])
def test_commands_compute_each_invariant_once(tmp_path, capsys, monkeypatch,
                                              svd_log, argv):
    system = build_hopping_chain(4)
    path = tmp_path / "hop4.json"
    path.write_text(json.dumps(system_to_json(system)))
    counts = count_unperturbed_work(monkeypatch, svd_log, system)
    assert main(argv + ["--system", str(path)]) == 0
    capsys.readouterr()
    assert counts() == {"svd": 1, "lie": 1}


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


@pytest.mark.parametrize("argv, code", [
    (["distance", "--perturb", "all"], 1), (["qsl"], 1)],
    ids=["distance_all", "qsl"])
def test_controllable_unbounded_controls_are_rejected_before_the_svd(
        tmp_path, capsys, monkeypatch, svd_log, argv, code):
    # driftless: X, Y alone generate su(2), so removing the bounded Z cannot
    # break controllability and the 48 x 16 spectrum would go unused
    system = make_system(bounded=[(PAULI_Z, 1.0)], unbounded=[PAULI_X, PAULI_Y])
    path = write_system(tmp_path, system)
    counts = count_unperturbed_work(monkeypatch, svd_log, system)
    assert main(argv + ["--system", path]) == code
    out, err = capsys.readouterr()
    assert "the unbounded controls alone are controllable" in out + err
    assert counts() == {"svd": 0, "lie": 1}


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
def test_estimate_returns_the_spectrum_its_lower_bound_read(d):
    system = build_hopping_chain(d)
    estimate = epsilon_best(system)
    if d < COMMUTANT_DIM_GUARD:
        assert len(estimate.commutant.singular_values) == d ** 4
        assert estimate.lower == epsilon_lower_svd(
            system, [0], commutant=estimate.commutant) > 0
    else:
        assert estimate.commutant is None and estimate.lower == 0.0


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


def test_wrong_dimension_invariants_are_input_errors():
    small = build_hopping_chain(3).algebra_generators()
    com = commutant_dimension(small, want_symmetries=False)
    lie = lie_dimension(small)
    system = build_hopping_chain(4)
    cert = epsilon_best(system).upper
    with pytest.raises(InputError, match="spectrum"):
        epsilon_lower_svd(system, [0], commutant=com)
    with pytest.raises(InputError, match="spectrum"):
        epsilon_best(system, commutant=com)
    with pytest.raises(InputError, match="spectrum"):
        t_star_lower(system, cert, commutant=com)
    with pytest.raises(InputError, match="basis"):
        epsilon_best(system, lie=lie)


@hypothesis.settings(max_examples=12, deadline=None, database=None)
@hypothesis.given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
                  indices=st.sampled_from([[0], [1], [0, 1]]))
def test_passed_spectrum_gives_bit_identical_bounds(d, seed, indices):
    system = random_pair_system(d, seed)
    com = commutant_dimension(system.algebra_generators(),
                              want_symmetries=False)
    hypothesis.assume(com.controllable)
    assert (epsilon_lower_svd(system, indices, commutant=com)
            == epsilon_lower_svd(system, indices))
    cert = epsilon_best(system).upper
    assert (t_star_lower(system, cert, commutant=com).epsilon_lower
            == t_star_lower(system, cert).epsilon_lower)
