import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdist import cli
from qdist.cli import build_parser, main
from qdist.distance import (certificate_from_json, certificate_to_json,
                            epsilon_upper_drift_removal, epsilon_upper_min_cut)
from qdist.linalg import matrix_to_json
from qdist.models import build_hopping_chain, pauli_on
from qdist.speed_limit import PiecewisePulse, pulse_to_json
from qdist.system import make_system, system_to_json

from conftest import (PAULI_X, PAULI_Y, PAULI_Z, drift_system,
                      flip_commutant_verdicts, manual_gap_merge,
                      random_pair_system)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_file(tmp_path, capsys, name, *params):
    """Write a bundled model with `qdist model --out`; returns its path."""
    out = tmp_path / f"{name}.json"
    argv = ["model", "--name", name, "--out", str(out)]
    for param in params:
        argv += ["--param", param]
    assert run(capsys, *argv)[0] == 0
    return str(out)


def write_pair_system(path, drift, control):
    def matjson(m):
        m = np.asarray(m, dtype=complex)
        return {"rows": m.shape[0], "cols": m.shape[1],
                "re": list(map(float, m.real.ravel())),
                "im": list(map(float, m.imag.ravel()))}

    path.write_text(json.dumps({
        "format": 1,
        "drift": matjson(drift),
        "bounded": [],
        "unbounded": [matjson(control)],
    }))
    return str(path)


def test_model_then_lie(tmp_path, capsys):
    out = tmp_path / "sys.json"
    code, _, _ = run(capsys, "model", "--name", "hopping_chain",
                     "--param", "d=3", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "lie", "--system", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["dimension"] == 8
    assert doc["max_dimension"] == 8
    assert doc["controllable"] is True


def test_commutant_uncontrollable_exit_code(tmp_path, capsys):
    path = write_pair_system(tmp_path / "zz.json", PAULI_Z, PAULI_Z)
    code, stdout, _ = run(capsys, "commutant", "--system", path)
    assert code == 2
    doc = json.loads(stdout)
    assert doc["controllable"] is False
    assert doc["nullity"] > 2


@pytest.mark.parametrize("model, params, expected", [
    pytest.param(None, [], 2, id="zz_pair"),
    # d = 4: the swap sectors' operators, the split ones for cross-Kerr
    pytest.param("global_control_chain", ["n_qubits=2", "gammas=1,1"], 2,
                 id="chain_1_1"),
    pytest.param("cross_kerr", ["n_modes=2", "n_photons=3"], 0,
                 id="cross_kerr_2_3")])
def test_emit_symmetries(tmp_path, capsys, model, params, expected):
    # one operator per unit of nullity, more than the two universal ones
    # exactly when the verdict is uncontrollable
    if model is None:
        path = write_pair_system(tmp_path / "zz.json", PAULI_Z, PAULI_Z)
    else:
        path = model_file(tmp_path, capsys, model, *params)
    out = tmp_path / "syms.json"
    code, stdout, _ = run(capsys, "commutant", "--system", path,
                          "--emit-symmetries", str(out))
    assert code == expected
    nullity = json.loads(stdout)["nullity"]
    assert len(json.loads(out.read_text())["symmetries"]) == nullity
    assert (nullity > 2) == (expected == 2)


def test_distance_and_qsl_roundtrip(tmp_path, capsys):
    path = write_pair_system(tmp_path / "zx.json", PAULI_Z, PAULI_X)
    code, stdout, _ = run(capsys, "distance", "--system", path)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["upper"]["verified_uncontrollable"] is True
    assert doc["lower"] <= doc["upper"]["op_norm"] + 1e-12
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(doc["upper"]))
    code, stdout, _ = run(capsys, "qsl", "--system", path,
                          "--cert", str(cert_file))
    assert code == 0
    report = json.loads(stdout)
    assert report["t_star_lower"] > 0
    assert report["delta_provenance"] in ("universal_quarter", "symmetry_sqrt2")


def test_qsl_cert_with_wrong_dimension_witness_exit_1(tmp_path, capsys):
    path = write_pair_system(tmp_path / "zx.json", PAULI_Z, PAULI_X)
    doc = certificate_to_json(
        epsilon_upper_drift_removal(drift_system(PAULI_Z, PAULI_X)))
    doc["symmetry_witness"] = {"rows": 3, "cols": 3,
                               "re": [1.0, 0, 0, 0, 0, 0, 0, 0, 0],
                               "im": [0.0] * 9}
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "qsl", "--system", path,
                               "--cert", str(cert_file))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr


def test_qsl_cert_oracle_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    # a witness-free d=4 certificate, so the commutant cross-check runs
    system = random_pair_system(4, 0)
    path = write_pair_system(tmp_path / "pair.json", *system.algebra_generators())
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(certificate_to_json(
        manual_gap_merge(system))))
    flip_commutant_verdicts(monkeypatch)
    code, stdout, stderr = run(capsys, "qsl", "--system", path,
                               "--cert", str(cert_file))
    assert code == 4
    assert stdout == ""
    assert stderr.startswith("numerical error:")
    assert "disagree at d=4" in stderr and "Traceback" not in stderr


def test_verify_ineq(tmp_path, capsys):
    path = write_pair_system(tmp_path / "zx.json", PAULI_Z, PAULI_X)
    cert = epsilon_upper_drift_removal(drift_system(PAULI_Z, PAULI_X))
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(certificate_to_json(cert)))
    pulse_file = tmp_path / "pulse.json"
    pulse = PiecewisePulse(durations=[0.2, 0.3], amplitudes=[[0.5], [-0.25]])
    pulse_file.write_text(json.dumps(pulse_to_json(pulse)))
    code, stdout, _ = run(capsys, "verify-ineq", "--system", path,
                          "--cert", str(cert_file), "--pulse", str(pulse_file))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["holds"] is True
    assert doc["lhs"] <= doc["rhs"] + 1e-9


@pytest.mark.parametrize("amplitudes, expected, message", [
    pytest.param([[0.5, -1.0], [1.0, 0.25]], 0, None, id="within_the_caps"),
    pytest.param([[0.5, -1.0], [2.0, 0.25]], 1,
                 "violates cap on bounded control 0", id="above_a_cap"),
    pytest.param([[0.5, -1.0, 0.0], [1.0, 0.25, 0.0]], 1,
                 "3 amplitude columns", id="extra_column"),
])
def test_verify_ineq_exit_codes_on_the_distance_certificate(
        tmp_path, capsys, amplitudes, expected, message):
    # global chain (1, 1.2): two bounded controls of cap 1, the certificate
    # as `distance` prints it
    system = str(tmp_path / "chain.json")
    run(capsys, "model", "--name", "global_control_chain", "--param",
        "n_qubits=2", "--param", "gammas=1,1.2", "--out", system)
    code, stdout, _ = run(capsys, "distance", "--system", system)
    assert code == 0
    cert = tmp_path / "upper.json"
    cert.write_text(json.dumps(json.loads(stdout)["upper"]))
    pulse = tmp_path / "pulse.json"
    pulse.write_text(json.dumps({"durations": [0.5, 0.25],
                                 "amplitudes": amplitudes}))
    code, stdout, err = run(capsys, "verify-ineq", "--system", system,
                            "--cert", str(cert), "--pulse", str(pulse))
    assert code == expected
    if message:
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
    else:
        assert json.loads(stdout)["holds"] is True


def test_analyze_report_structure_and_determinism(tmp_path, capsys):
    out = tmp_path / "sys.json"
    run(capsys, "model", "--name", "two_qubit_ising", "--param", "delta=1.0",
        "--out", str(out))
    code, first, _ = run(capsys, "analyze", "--system", str(out))
    assert code == 0
    code, second, _ = run(capsys, "analyze", "--system", str(out))
    assert first == second  # byte-identical reports
    report = json.loads(first)
    assert report["lie"]["controllable"] == report["commutant"]["controllable"]
    assert report["qsl"]["t_star_lower"] == pytest.approx(0.25, abs=1e-12)
    assert report["provenance"]["tolerances"]["rank_rel_tol"] == 1e-9
    # lossless JSON round trip
    assert json.loads(json.dumps(report)) == report


def test_analyze_uncontrollable_exit_2(tmp_path, capsys):
    path = write_pair_system(tmp_path / "zz.json", PAULI_Z, PAULI_Z)
    code, stdout, _ = run(capsys, "analyze", "--system", path)
    assert code == 2
    report = json.loads(stdout)
    assert report["distance"] is None
    assert "uncontrollable" in report["note"]


@pytest.mark.parametrize("text, message", [
    (b"{not json", "line"),
    (b'{"format": 1, "drift": \xff}', "utf-8"),
    (b'{"format": ' + b"1" * 5000 + b"}", "4300 digits")],
    ids=["not_json", "not_utf8", "integer_beyond_the_digit_limit"])
def test_malformed_json_exit_1(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    code, _, err = run(capsys, "lie", "--system", str(bad))
    assert code == 1
    assert err.startswith("error:") and message in err


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


SYSTEM_FLAGS = ["lie", "--system", "{system}"]
CERT_FLAGS = ["qsl", "--system", "{system}", "--cert", "{cert}"]
PULSE_FLAGS = ["verify-ineq", "--system", "{system}", "--cert", "{cert}",
               "--pulse", "{pulse}"]


@pytest.mark.parametrize("argv, broken, change", [
    pytest.param(SYSTEM_FLAGS, "system",
                 lambda s: s | {"bounded": [{"matrix": s["drift"]}]},
                 id="bounded_without_cap"),
    pytest.param(SYSTEM_FLAGS, "system",
                 lambda s: s | {"bounded": [{"matrix": s["drift"], "cap": "abc"}]},
                 id="cap_not_a_number"),
    pytest.param(SYSTEM_FLAGS, "system", lambda s: s | {"bounded": 5},
                 id="bounded_not_a_list"),
    pytest.param(CERT_FLAGS, "cert", _drop("op_norm"), id="cert_without_op_norm"),
    pytest.param(CERT_FLAGS, "cert", _drop("perturbations"),
                 id="cert_without_perturbations"),
    pytest.param(CERT_FLAGS, "cert", lambda c: c | {"perturbations": []},
                 id="cert_with_no_perturbation"),
    pytest.param(CERT_FLAGS, "cert",
                 lambda c: c | {"perturbations": c["perturbations"] * 2},
                 id="cert_repeats_an_index"),
    pytest.param(CERT_FLAGS, "cert", lambda c: c | {"l11_norm": "2"},
                 id="legacy_l11_norm_a_numeric_string"),
    pytest.param(CERT_FLAGS, "cert", lambda c: c | {"perturbations": [5]},
                 id="perturbation_not_an_object"),
    pytest.param(CERT_FLAGS, "cert", lambda c: c | {"perturbations": [
        c["perturbations"][0] | {"index": "abc"}]}, id="index_not_an_integer"),
    pytest.param(PULSE_FLAGS, "pulse",
                 lambda p: p | {"amplitudes": [1.0, 0.5, -1.0]},
                 id="flat_amplitudes_do_not_split_into_segments"),
    pytest.param(PULSE_FLAGS, "pulse",
                 lambda p: p | {"amplitudes": [1.0, -1.0]},
                 id="flat_amplitudes_one_per_segment"),
    pytest.param(SYSTEM_FLAGS, "system", lambda s: s | {"format": True},
                 id="format_true"),
    pytest.param(SYSTEM_FLAGS, "system",
                 lambda s: s | {"drift": s["drift"] | {"rows": 2.9}},
                 id="rows_not_an_integer"),
    # JSON reads 1e400 as inf, as it reads json.dumps's Infinity
    pytest.param(SYSTEM_FLAGS, "system",
                 lambda s: s | {"drift": s["drift"] | {"rows": float("inf")}},
                 id="rows_overflows_to_inf"),
    pytest.param(SYSTEM_FLAGS, "system",
                 lambda s: s | {"drift": s["drift"] | {"re": [[1, 0], [0, -1]]}},
                 id="re_nested_im_flat"),
    pytest.param(SYSTEM_FLAGS, "system",
                 lambda s: s | {"bounded": [{"matrix": s["drift"], "cap": "2"}]},
                 id="cap_a_numeric_string"),
    pytest.param(SYSTEM_FLAGS, "system",
                 lambda s: s | {"bounded": [{"matrix": s["drift"], "cap": True}]},
                 id="cap_true"),
    pytest.param(CERT_FLAGS, "cert",
                 lambda c: c | {"verified_uncontrollable": "false"},
                 id="verified_flag_a_string"),
    pytest.param(CERT_FLAGS, "cert", lambda c: c | {"op_norm": "0.5"},
                 id="op_norm_a_numeric_string"),
    pytest.param(PULSE_FLAGS, "pulse", lambda p: p | {"durations": ["0.5", 0.25]},
                 id="duration_a_numeric_string"),
    pytest.param(["model", "--name", "hopping_chain", "--param", "d=abc"],
                 None, None, id="param_d_not_an_integer"),
    pytest.param(["model", "--name", "global_control_chain", "--param",
                  "gammas=1,x"], None, None, id="param_gammas_not_numbers"),
    pytest.param(["model", "--name", "global_control_chain", "--param",
                  "edges=0-1-2"], None, None, id="param_edge_not_a_pair"),
    pytest.param(["model", "--name", "hopping_chain", "--param", "d=4.5"],
                 None, None, id="param_d_not_integral"),
])
def test_malformed_input_exit_1_without_traceback(tmp_path, capsys, argv,
                                                  broken, change):
    docs = {
        "system": {"format": 1, "drift": matrix_to_json(PAULI_Z),
                   "bounded": [], "unbounded": [matrix_to_json(PAULI_X)]},
        "cert": certificate_to_json(
            epsilon_upper_drift_removal(drift_system(PAULI_Z, PAULI_X))),
        "pulse": {"durations": [0.5, 0.25], "amplitudes": [[1.0], [-1.0]]},
    }
    if broken is not None:
        docs[broken] = change(docs[broken])
    paths = {name: str(tmp_path / f"{name}.json") for name in docs}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unknown_model_parameter_is_named_by_the_model(capsys):
    code, stdout, err = run(capsys, "model", "--name", "hopping_chain",
                            "--param", "d=4", "--param", "n_sites=4")
    assert (code, stdout) == (1, "")
    assert "unknown parameters for hopping_chain: ['n_sites']" in err


def test_integral_float_parameter_builds_the_integer_model(capsys):
    # ModelSpec decides a parameter's kind, for the CLI as for the library
    outputs = []
    for value in ("4", "4.0"):
        code, stdout, err = run(capsys, "model", "--name", "hopping_chain",
                                "--param", f"d={value}")
        assert code == 0, err
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


# the `upper` that `qdist distance` wrote for the (Z, X) pair before
# certificates lost l11_norm, and the `qsl --cert` report it gave then
LEGACY_CERT = {
    "detail": "best block subset (0,) of 2 blocks", "format": 1,
    "l11_norm": 1.9999999999999996, "method": "block_search",
    "op_norm": 0.9999999999999998,
    "perturbations": [{"index": 0, "matrix": {
        "cols": 2, "im": [0.0, 0.0, 0.0, 0.0],
        "re": [-0.9999999999999998, 0.0, 0.0, 0.9999999999999998], "rows": 2}}],
    "symmetry_witness": {
        "cols": 2, "im": [0.0, 0.0, 0.0, 0.0],
        "re": [0.4999999999999999, -0.4999999999999999, -0.4999999999999999,
               0.4999999999999999], "rows": 2},
    "verified_uncontrollable": True}
LEGACY_QSL = {
    "amplitude_cap_c": 1.0, "delta_lower": 1.4142135623730951,
    "delta_provenance": "symmetry_sqrt2", "epsilon_lower": 0.4999999999999999,
    "epsilon_upper": 0.9999999999999998, "t_star_lower": 1.4142135623730954}


def qsl_with_cert(tmp_path, capsys, cert: dict) -> dict:
    system = write_pair_system(tmp_path / "zx.json", PAULI_Z, PAULI_X)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, stdout, err = run(capsys, "qsl", "--system", system, "--cert", str(path))
    assert code == 0, err
    report = json.loads(stdout)
    del report["tolerances"]
    return report


def test_a_certificate_with_l11_norm_still_loads(tmp_path, capsys):
    report = qsl_with_cert(tmp_path, capsys, LEGACY_CERT)
    legacy = {k: v for k, v in LEGACY_CERT.items() if k != "l11_norm"}
    assert report.pop("certificate") == legacy
    assert report == pytest.approx(LEGACY_QSL, rel=1e-12)


def test_a_loaded_certificate_reports_the_norm_of_its_perturbations(
        tmp_path, capsys):
    # a stored op_norm is checked as a number and then ignored
    report = qsl_with_cert(tmp_path, capsys, LEGACY_CERT | {"op_norm": 5.0})
    assert report["certificate"]["op_norm"] == LEGACY_CERT["op_norm"]
    assert report["epsilon_upper"] == LEGACY_CERT["op_norm"]


def test_unknown_field_rejected(tmp_path, capsys):
    doc = {"format": 1, "drift": None, "bounded": [], "unbounded": [],
           "astonishing": True}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "lie", "--system", str(path))
    assert code == 1
    assert "astonishing" in err


def test_empty_generator_list_exit_1(tmp_path, capsys):
    doc = {"format": 1, "drift": None, "bounded": [], "unbounded": []}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "lie", "--system", str(path))
    assert code == 1


def test_dimension_guard_exit_3(tmp_path, capsys):
    out = tmp_path / "big.json"
    run(capsys, "model", "--name", "global_control_chain",
        "--param", "n_qubits=3", "--param", "gammas=1,1.2,0.9",
        "--out", str(out))
    code, _, err = run(capsys, "commutant", "--system", str(out))
    assert code == 3
    assert "lie-closure test" in err.lower()


@pytest.mark.parametrize("command, flag", [("commutant", "--force"),
                                           ("analyze", "--skip-commutant"),
                                           ("distance", "--perturb"),
                                           ("distance", "--methods")])
def test_removed_flags_are_unknown_arguments(tmp_path, capsys, command, flag):
    path = write_pair_system(tmp_path / "zx.json", PAULI_Z, PAULI_X)
    with pytest.raises(SystemExit) as exc:
        main([command, "--system", path, flag])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze"], "the following arguments are required: --system"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["distance", "--system", "{system}", "--tol-rank", "abc"],
     "invalid float value: 'abc'")], ids=["no_system", "no_command", "bad_float"])
def test_usage_errors_are_malformed_input(tmp_path, capsys, argv, message):
    # exit 2 is the mathematical verdict: argparse's own code would read as
    # "uncontrollable" to a script
    path = write_pair_system(tmp_path / "zx.json", PAULI_Z, PAULI_X)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(system=path) for arg in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qdist") and message in captured.err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def _parser_flags() -> dict:
    """subcommand -> the long options build_parser gives it (not --help)."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions
                   for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}


def test_readme_cli_block_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    documented = {}
    for line in block.split("```", 1)[0].splitlines():
        usage = line.split("#", 1)[0]
        if usage.startswith("qdist "):
            documented[usage.split()[1]] = set(
                re.findall(r"--[a-z][a-z-]*", usage))
    flags = _parser_flags()
    # the flags every subcommand shares need only appear somewhere
    common = set.intersection(*flags.values())
    assert {f for f in common if f not in readme} == set()
    assert {name: documented[name] - common for name in documented} == {
        name: f - common for name, f in flags.items()}
    assert all(documented[name] <= flags[name] for name in documented)


def test_lie_guard_exit_3_without_traceback(tmp_path, capsys):
    # d^2 - 1 complex d x d matrices take 1.1 GB at d=91, above the guard on
    # the closure's buffers
    out = tmp_path / "big.json"
    run(capsys, "model", "--name", "hopping_chain", "--param", "d=91",
        "--out", str(out))
    code, stdout, err = run(capsys, "lie", "--system", str(out))
    assert code == 3
    assert stdout == ""
    assert err.startswith("guard:") and "Traceback" not in err


@pytest.mark.parametrize("command, stage", [
    ("lie", "lie_dimension"),
    ("commutant", "commutant_dimension"),
    ("distance", "epsilon_best"),
    ("qsl", "t_star_lower"),
    ("analyze", "analyze_system"),
])
def test_memory_error_in_any_stage_exits_3(tmp_path, capsys, monkeypatch,
                                            command, stage):
    path = write_pair_system(tmp_path / "zx.json", PAULI_Z, PAULI_X)

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.77 GiB")

    monkeypatch.setattr(cli, stage, exhausted)
    code, stdout, err = run(capsys, command, "--system", path)
    assert code == 3
    assert stdout == ""
    assert err.startswith("guard:") and "Traceback" not in err


def test_stored_min_cut_certificate_still_loads(tmp_path, capsys):
    # the hopping d=4 site cut, stored under the min_cut label that block
    # search gives its certificates above the guard
    path = model_file(tmp_path, capsys, "hopping_chain", "d=4")
    doc = certificate_to_json(epsilon_upper_min_cut(build_hopping_chain(4)))
    assert certificate_from_json(doc).method == "min_cut"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "qsl", "--system", path,
                          "--cert", str(cert_file))
    assert code == 0
    report = json.loads(stdout)
    assert report["certificate"]["method"] == "min_cut"
    assert report["delta_lower"] == pytest.approx(np.sqrt(2))
    assert report["delta_provenance"] == "symmetry_sqrt2"


TOL_CONFIG_FLAGS = SYSTEM_FLAGS + ["--tol-config", "{config}"]


@pytest.mark.parametrize("argv, config", [
    pytest.param(TOL_CONFIG_FLAGS, '{"rank_rel_tol": "abc"}',
                 id="config_value_not_a_number"),
    pytest.param(TOL_CONFIG_FLAGS, '{"rank_rel_tol": null}',
                 id="config_value_null"),
    pytest.param(TOL_CONFIG_FLAGS, '{"rank_rel_tol": "1e-6"}',
                 id="config_value_a_numeric_string"),
    pytest.param(TOL_CONFIG_FLAGS, '{"commute_tol": true}',
                 id="config_value_true"),
    pytest.param(TOL_CONFIG_FLAGS, '{"rank_rel_tol": ',
                 id="config_malformed_json"),
    pytest.param(SYSTEM_FLAGS + ["--tol-config", "{missing}/tol.json"], None,
                 id="config_file_missing"),
    pytest.param(TOL_CONFIG_FLAGS, '{"trace_tol": 1e-10}',
                 id="config_sets_unknown_tolerance"),
    pytest.param(["model", "--name", "hopping_chain", "--param", "d=3",
                  "--out", "{missing}/x.json"], None,
                 id="model_out_directory_missing"),
    pytest.param(["commutant", "--system", "{system}", "--emit-symmetries",
                  "{missing}/s.json"], None,
                 id="emit_symmetries_directory_missing"),
])
def test_bad_tolerance_or_output_path_exit_1_without_traceback(
        tmp_path, capsys, argv, config):
    system = write_pair_system(tmp_path / "sys.json", PAULI_Z, PAULI_X)
    if config is not None:
        (tmp_path / "tol.json").write_text(config)
    paths = {"system": system, "config": str(tmp_path / "tol.json"),
             "missing": str(tmp_path / "missing")}
    code, stdout, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "lie", "commutant", "distance",
                                     "qsl"])
def test_one_dimensional_system_exit_1(tmp_path, capsys, command):
    # su(1) is trivial: the two oracles used to disagree on a 1 x 1 system
    path = write_pair_system(tmp_path / "one.json", [[1.0]], [[2.0]])
    code, stdout, err = run(capsys, command, "--system", path)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and "dimension must be >= 2" in err


@pytest.mark.parametrize("command", ["distance", "reproduce-paper"])
def test_pretty_and_json_carry_identical_numbers(tmp_path, capsys, command):
    argv = [command]
    if command == "distance":
        out = tmp_path / "sys.json"
        run(capsys, "model", "--name", "hopping_chain", "--param", "d=4",
            "--out", str(out))
        argv += ["--system", str(out)]
    _, json_out, _ = run(capsys, *argv)
    _, pretty_out, _ = run(capsys, *argv, "--pretty")
    doc = json.loads(json_out)
    if command == "distance":
        assert repr(doc["upper"]["op_norm"]) in pretty_out
        assert repr(doc["lower"]) in pretty_out
    else:
        pretty = re.findall(r"^ *(?:computed|paper): (.*)$", pretty_out, re.M)
        assert pretty == [repr(row[key]) for row in doc["rows"]
                          for key in ("computed", "paper")]
        assert "all_pass: True" in pretty_out


def test_model_above_the_dimension_guard_exits_3(capsys):
    # refused on the parameters, before hopping_drift builds 10^5 x 10^5
    code, stdout, err = run(capsys, "model", "--name", "hopping_chain",
                            "--param", "d=100000")
    assert code == 3
    assert stdout == ""
    assert err.startswith("guard:") and "Traceback" not in err


def test_model_reference_block(capsys):
    code, stdout, _ = run(capsys, "model", "--name", "cross_kerr",
                          "--param", "n_modes=2", "--param", "n_photons=4",
                          "--reference")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["reference"]["kerr_norm"] == 4.0
    assert doc["reference"]["t_bound"] == pytest.approx(1 / 16)
    assert doc["system"]["format"] == 1


def test_reproduce_paper_passes(capsys):
    code, stdout, _ = run(capsys, "reproduce-paper")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["all_pass"] is True
    assert len(doc["rows"]) >= 10
    examples = {row["example"] for row in doc["rows"]}
    assert examples == {"two_qubit_ising", "hopping_chain",
                        "global_control_chain", "cross_kerr"}


@pytest.mark.parametrize("params", [
    ["--name", "two_qubit_ising", "--param", "delta=inf"],
    ["--name", "global_control_chain", "--param", "n_qubits=2",
     "--param", "gammas=1,inf"]], ids=["ising_delta", "chain_gamma"])
def test_non_finite_model_parameter_is_one_error_line(capsys, params):
    # rejected before any arithmetic: no numpy warning precedes the error
    code, stdout, err = run(capsys, "model", *params)
    assert (code, stdout) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_hopping_d7_has_no_spectrum_and_zero_lower_bounds(tmp_path, capsys):
    # at COMMUTANT_DIM_GUARD the commutant command is guarded, and the
    # commands that only read the spectrum report that it is missing
    path = model_file(tmp_path, capsys, "hopping_chain", "d=7")
    code, stdout, err = run(capsys, "commutant", "--system", path)
    assert (code, stdout) == (3, "")
    assert err.startswith("guard:")
    docs = {}
    for command in ("analyze", "distance", "qsl"):
        code, stdout, err = run(capsys, command, "--system", path)
        assert code == 0, err
        docs[command] = json.loads(stdout)
    assert docs["analyze"]["commutant"] == {"skipped": "dimension guard"}
    assert docs["distance"]["lower"] == 0.0
    assert docs["qsl"]["epsilon_lower"] == 0.0


def test_hopping_d6_is_below_the_guard(tmp_path, capsys):
    # the largest d the swap-sector kernel serves
    path = model_file(tmp_path, capsys, "hopping_chain", "d=6")
    for command in ("commutant", "analyze"):
        code, _, err = run(capsys, command, "--system", path)
        assert code == 0, err


def test_driftless_cross_kerr_removes_the_bounded_coupling(tmp_path, capsys):
    path = model_file(tmp_path, capsys, "cross_kerr", "n_modes=2",
                      "n_photons=3")
    code, stdout, _ = run(capsys, "distance", "--system", path)
    assert code == 0
    upper = json.loads(stdout)["upper"]
    code, stdout, _ = run(capsys, "qsl", "--system", path)
    assert code == 0
    assert upper["method"] == "drift_removal"
    assert [p["index"] for p in upper["perturbations"]] == [0]
    assert json.loads(stdout)["epsilon_upper"] == upper["op_norm"]


@pytest.mark.parametrize("model", [
    ("hopping_chain", "d=3"), ("hopping_chain", "d=4"),
    # the commutant is guarded off at d = 8, so the lower bound is 0.0
    ("hopping_chain", "d=8"), ("two_qubit_ising", "delta=1.0"),
    ("global_control_chain", "n_qubits=2", "gammas=1,1.2"),
    ("cross_kerr", "n_modes=2", "n_photons=3"), None],
    ids=["hopping_d3", "hopping_d4", "hopping_d8", "ising", "global_chain",
         "cross_kerr", "random_pair_d4"])
def test_distance_prints_what_analyze_reports(tmp_path, capsys, model):
    if model is None:
        path = write_pair_system(tmp_path / "pair.json",
                                 *random_pair_system(4, 0).algebra_generators())
    else:
        path = model_file(tmp_path, capsys, *model)
    docs = {}
    for command in ("distance", "analyze"):
        code, stdout, err = run(capsys, command, "--system", path)
        assert code == 0, err
        docs[command] = json.loads(stdout)
    distance_doc = docs["distance"]
    assert sorted(distance_doc) == ["lower", "tolerances", "upper"]
    assert json.dumps({k: distance_doc[k] for k in ("upper", "lower")},
                      sort_keys=True) == json.dumps(docs["analyze"]["distance"],
                                                    sort_keys=True)
    if model == ("hopping_chain", "d=8"):
        assert distance_doc["lower"] == 0.0


@pytest.mark.parametrize("argv, model, expected", [
    pytest.param(["reproduce-paper"], None, 0, id="reproduce_paper"),
    pytest.param(["analyze"], None, 1, id="usage_error"),
    pytest.param(["distance"], ("cross_kerr", "n_modes=2", "n_photons=3"), 0,
                 id="distance_without_drift"),
    # the controls X, Y alone generate su(2): no drift perturbation can
    # break controllability
    pytest.param(["distance"], make_system(drift=PAULI_Z,
                                           unbounded=[PAULI_X, PAULI_Y]), 1,
                 id="distance_controllable_controls"),
    pytest.param(["analyze"], ("global_control_chain", "n_qubits=2",
                               "gammas=1,1"), 2, id="analyze_uncontrollable"),
    pytest.param(["commutant"], ("hopping_chain", "d=7"), 3,
                 id="commutant_guard")])
def test_python_m_qdist_exit_codes(tmp_path, capsys, argv, model, expected):
    # the one check that needs a real process: `python -m qdist` turns
    # main's return into the exit status, errors print nothing on stdout,
    # and no path prints a traceback
    if isinstance(model, tuple):
        argv = argv + ["--system", model_file(tmp_path, capsys, *model)]
    elif model is not None:
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_to_json(model)))
        argv = argv + ["--system", str(path)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "qdist", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr
    if expected in (1, 3):
        assert done.stdout == ""
    else:
        json.loads(done.stdout)
