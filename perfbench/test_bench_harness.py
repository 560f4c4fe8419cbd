"""Tests of the benchmark's own code: correctness rule, workloads, tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)["systems"]


@pytest.fixture
def ref():
    return dict(REFERENCE["hopping_d4"])


def test_check_accepts_exact_copy(ref):
    assert checks.check(dict(ref), ref) == []


def test_check_accepts_tighter_bounds(ref):
    tighter = dict(ref, upper_op_norm=ref["upper_op_norm"] * 0.9,
                   lower=ref["lower"] * 1.1, t_star_lower=ref["t_star_lower"] * 1.1,
                   qsl_t_star_lower=ref["qsl_t_star_lower"] * 1.1)
    assert checks.check(tighter, ref) == []


def test_check_tolerates_roundoff(ref):
    nudged = dict(ref, upper_op_norm=ref["upper_op_norm"] * (1 + 1e-12),
                  lower=ref["lower"] * (1 - 1e-12))
    assert checks.check(nudged, ref) == []


@pytest.mark.parametrize("change", [
    {"lie_controllable": False},
    {"commutant_controllable": False},
    {"exit_code": 2},
    {"lie_dimension": 14},
    {"nullity": 3},
    {"cert_verified": False},
    {"ineq_holds": False},
])
def test_check_rejects_changed_verdicts_and_counts(ref, change):
    assert checks.check(dict(ref, **change), ref)


def test_check_rejects_looser_bounds(ref):
    assert checks.check(dict(ref, upper_op_norm=ref["upper_op_norm"] * (1 + 1e-6)), ref)
    assert checks.check(dict(ref, lower=ref["lower"] * (1 - 1e-6)), ref)
    assert checks.check(dict(ref, t_star_lower=ref["t_star_lower"] * (1 - 1e-6)), ref)


def test_check_rejects_missing_stage_and_unsound_pair(ref):
    assert checks.check(dict(ref, upper_op_norm=None), ref)
    assert checks.check(dict(ref, lower=ref["upper_op_norm"] * 2), ref)
    assert checks.check(dict(ref), None)


def test_every_selectable_system_has_a_reference():
    for seed in range(40):
        for workload in workloads.WORKLOADS:
            names = workloads.system_names(workload, seed)
            assert all(n in REFERENCE for n in names), (workload, seed)
    recorded = [n for w in workloads.WORKLOADS for n in workloads.reference_names(w)]
    assert sorted(recorded) == sorted(REFERENCE)


def test_workload_inputs_depend_only_on_seed():
    assert workloads.system_names("small_batch", 3) == workloads.system_names("small_batch", 3)
    assert workloads.system_names("small_batch", 3) != workloads.system_names("small_batch", 4)
    assert len(workloads.system_names("small_batch", 0)) == 28
    a = workloads.build("random_d3_k7").algebra_generators()
    b = workloads.build("random_d3_k7").algebra_generators()
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    times = tracer_mod.self_times(spans)
    assert times["a"] == [1, 6.0]
    assert times["b"] == [2, 3.0]
    assert times["c"] == [1, 1.0]


def test_svd_flops_grow_with_outputs():
    values_only = tracer_mod.svd_flops(20, 10, False, False, False)
    thin = tracer_mod.svd_flops(20, 10, True, False, False)
    full = tracer_mod.svd_flops(20, 10, True, True, False)
    assert 0 < values_only < thin < full
    assert tracer_mod.svd_flops(10, 20, False, False, True) == 4 * values_only


def test_traced_pass_restores_every_binding():
    import qdist
    import qdist.cli

    originals = {}
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "qdist" or k.startswith("qdist."))]
    for module in modules:
        for attr, value in vars(module).items():
            if callable(value):
                originals[(module.__name__, attr)] = value
    svd = np.linalg.svd

    t = tracer_mod.Tracer()
    t.install()
    try:
        assert np.linalg.svd is not svd
        assert qdist.cli.analyze_system is not originals[("qdist.cli", "analyze_system")]
        system = workloads.round_trip(workloads.build("hopping_d3"))
        t.request, t.dim = "hopping_d3", system.dim
        observed = workloads.run_system(system, True, workloads.pulse_for(system, 0, 0))
    finally:
        rebound = t.restore()

    assert checks.check(observed, REFERENCE["hopping_d3"]) == []
    assert np.linalg.svd is svd
    for module in modules:
        for attr, value in vars(module).items():
            if callable(value):
                assert value is originals[(module.__name__, attr)], (module.__name__, attr)
    # every from-import binding was wrapped, not only the defining module's
    owners = {owner.__name__ for owner, attr, _ in rebound if attr == "epsilon_lower_svd"}
    assert {"qdist", "qdist.distance", "qdist.speed_limit", "qdist.cli"} <= owners

    metrics = t.metrics()
    assert metrics["cli.analyze_system.calls"] == 1
    assert metrics["distance.verify_certificate.calls"] == 1
    assert metrics["kernel.svd_d4.calls"] > 0
    assert 0 < metrics["kernel.svd_d4.distinct_ratio"] <= 1
    assert metrics["distance.cert_verified_ratio"] > 0


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    produced = set(tracer_mod.Tracer().metrics()) | {"trace.overhead_s"}
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed == produced
    for metric in spec["per_layer"]:
        assert run.per_layer_unit(metric["name"]) == metric["unit"]
