"""Command-line front end.

JSON-first output (opt-in pretty tables with --pretty) so reports can feed
scripts and CI gates directly. Exit codes distinguish failure kinds:
0 success, 1 malformed input (a usage error too), 2 mathematical verdict
(uncontrollable input or a failed reproduction row), 3 size guard,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .commutant import (CommutantResult, commutant_dimension,
                        extract_original_space_symmetry)
from .distance import (Invariants, certificate_from_json, certificate_to_json,
                       epsilon_best, epsilon_lower_svd, verify_certificate)
from .errors import (DimensionGuardError, InputError, NumericalError,
                     QdistError, UncontrollableSystemError)
from .lie_closure import LieClosureResult, lie_dimension
from .linalg import (DEFAULT_TOL, ToleranceConfig, json_object, json_value,
                     matrix_to_json)
from .models import (ModelSpec, build_model, build_global_control_chain,
                     build_two_qubit_ising, delta_gamma, hopping_spectrum,
                     reference_bounds)
from .speed_limit import (pulse_from_json, t_star_lower,
                          verify_perturbation_inequality)
from .system import ControlSystem, system_from_json, system_to_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
EXIT_GUARD = 3
EXIT_NUMERICAL = 4

_TOL_FIELDS = tuple(f.name for f in dataclasses.fields(ToleranceConfig))


def _resolve_tolerances(args) -> ToleranceConfig:
    """defaults < --tol-config file < explicit flags."""
    values = DEFAULT_TOL.to_dict()
    config_path = getattr(args, "tol_config", None)
    if config_path:
        loaded = json_object(_load_json(config_path, "tolerance config"),
                             "tolerance config", optional=_TOL_FIELDS)
        values.update({k: json_value(v, float, f"tolerance config {k}")
                       for k, v in loaded.items()})
    for field in _TOL_FIELDS:
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    return ToleranceConfig(**values)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable table instead of JSON")
    parser.add_argument("--tol-config", help="JSON file overriding tolerances")
    parser.add_argument("--tol-hermiticity", dest="hermiticity_tol", type=float)
    parser.add_argument("--tol-rank", dest="rank_rel_tol", type=float)
    parser.add_argument("--tol-commute", dest="commute_tol", type=float)
    parser.add_argument("--tol-degeneracy", dest="degeneracy_tol", type=float)


def _load_json(path: str, kind: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path} at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer of over 4300 digits
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _write_json(path: str, obj, kind: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {kind} file {path}: {exc}") from exc


def _load_system(path: str, tol: ToleranceConfig) -> ControlSystem:
    return system_from_json(_load_json(path, "system"), tol=tol)


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        for line in _pretty_lines(obj):
            print(line)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _pretty_lines(obj, prefix="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{prefix}{key}:")
                lines.extend(_pretty_lines(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {_scalar(value)}")
    elif isinstance(obj, list):
        for item in obj:
            sub = _pretty_lines(item, prefix + "  ")
            if sub:
                lines.append(prefix + "- " + sub[0][len(prefix) + 2:])
                lines.extend(sub[1:])
    else:
        lines.append(f"{prefix}{_scalar(obj)}")
    return lines


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value)


def _scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


# ---------------------------------------------------------------- commands


def _number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_model_param(raw: str) -> tuple[str, object]:
    """key=value with value a number, or one of the two list syntaxes
    (gammas=1,1.2 and edges=0-1,1-2). ModelSpec decides which keys a model
    takes and what kind of number each must be."""
    if "=" not in raw:
        raise InputError(f"--param expects key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    key = key.strip()
    try:
        if key == "gammas":
            return key, [float(x) for x in value.split(",") if x]
        if key == "edges":
            edges = []
            for pair in value.split(","):
                if pair:
                    i, j = pair.split("-")
                    edges.append((int(i), int(j)))
            return key, edges
        return key, _number(value)
    except ValueError as exc:
        raise InputError(f"--param {key}: cannot parse {value!r}: {exc}") from None


def cmd_model(args) -> int:
    tol = _resolve_tolerances(args)
    params = dict(_parse_model_param(p) for p in args.param or [])
    spec = ModelSpec(args.name, params)
    system = build_model(spec, tol=tol)
    doc = system_to_json(system)
    if args.out:
        _write_json(args.out, doc, "system")
    output = doc
    if args.reference:
        output = {"system": doc, "reference": reference_bounds(spec)}
    if not args.out or args.reference:
        _emit(output, args.pretty)
    return EXIT_OK


def _lie_section(lie: LieClosureResult, d: int) -> dict:
    """The `lie` report of `qdist lie` and of analyze."""
    return {"dimension": lie.dimension, "max_dimension": d * d - 1,
            "controllable": lie.controllable, "depth": lie.depth}


def _commutant_section(com: CommutantResult) -> dict:
    """The `commutant` report of `qdist commutant` and of analyze."""
    return {"rank": com.rank, "expected_rank": com.expected_rank,
            "nullity": com.nullity, "controllable": com.controllable}


def cmd_lie(args) -> int:
    tol = _resolve_tolerances(args)
    system = _load_system(args.system, tol)
    result = lie_dimension(system.algebra_generators(), tol=tol)
    _emit(_lie_section(result, system.dim) | {"tolerances": tol.to_dict()},
          args.pretty)
    return EXIT_OK if result.controllable else EXIT_VERDICT


def cmd_commutant(args) -> int:
    tol = _resolve_tolerances(args)
    system = _load_system(args.system, tol)
    result = commutant_dimension(system.algebra_generators(), tol=tol,
                                 want_symmetries=bool(args.emit_symmetries))
    if args.emit_symmetries:
        _write_json(args.emit_symmetries,
                    {"symmetries": [matrix_to_json(s)
                                    for s in result.symmetry_basis]},
                    "symmetries")
    _emit(_commutant_section(result) | {"tolerances": tol.to_dict()},
          args.pretty)
    return EXIT_OK if result.controllable else EXIT_VERDICT


def cmd_distance(args) -> int:
    tol = _resolve_tolerances(args)
    system = _load_system(args.system, tol)
    invariants = Invariants(system, tol)
    cert = epsilon_best(system, tol, invariants=invariants)
    _emit({
        "upper": certificate_to_json(cert),
        "lower": epsilon_lower_svd(system, [i for i, _ in cert.perturbations],
                                   tol=tol, invariants=invariants),
        "tolerances": tol.to_dict(),
    }, args.pretty)
    return EXIT_OK


def cmd_qsl(args) -> int:
    tol = _resolve_tolerances(args)
    system = _load_system(args.system, tol)
    invariants = Invariants(system, tol)
    if args.cert:
        cert = certificate_from_json(_load_json(args.cert, "certificate"), tol=tol)
        # never trust a serialized flag: the bound is only sound if the
        # perturbed system really is uncontrollable
        if not verify_certificate(system, cert, tol=tol):
            raise InputError("certificate failed verification against this "
                             "system; its perturbation does not break "
                             "controllability")
        cert = dataclasses.replace(cert, verified_uncontrollable=True)
    else:
        cert = epsilon_best(system, tol=tol, invariants=invariants)
    report = t_star_lower(system, cert, tol=tol, invariants=invariants)
    _emit(report.to_dict() | {"tolerances": tol.to_dict()}, args.pretty)
    return EXIT_OK


def cmd_verify_ineq(args) -> int:
    tol = _resolve_tolerances(args)
    system = _load_system(args.system, tol)
    cert = certificate_from_json(_load_json(args.cert, "certificate"), tol=tol)
    pulse = pulse_from_json(_load_json(args.pulse, "pulse"))
    check = verify_perturbation_inequality(system, cert, pulse, tol=tol)
    _emit({"lhs": check.lhs, "rhs": check.rhs, "holds": check.holds,
           "tolerances": tol.to_dict()}, args.pretty)
    return EXIT_OK if check.holds else EXIT_VERDICT


def analyze_system(system: ControlSystem, tol: ToleranceConfig
                   ) -> tuple[dict, int]:
    """Full pipeline report; returns (report dict, exit code).

    Every stage reads one Invariants of the system. distance.lower is the
    qsl report's epsilon_lower. Where the system has no spectrum (the
    commutant's dimension guard), the commutant section says so, and that
    lower bound is 0.0.
    """
    invariants = Invariants(system, tol)
    report: dict = {
        "format": 1,
        "system": {
            "dim": system.dim,
            "has_drift": system.drift is not None,
            "n_bounded": len(system.bounded),
            "n_unbounded": len(system.unbounded),
            "caps": [b.cap for b in system.bounded],
        },
        "lie": _lie_section(invariants.lie, system.dim),
        "commutant": ({"skipped": "dimension guard"}
                      if invariants.spectrum is None
                      else _commutant_section(invariants.spectrum)),
        "distance": None,
        "qsl": None,
        "provenance": {"version": __version__, "tolerances": tol.to_dict()},
    }
    if not invariants.controllable:
        report["note"] = "system uncontrollable: distance and qsl stages skipped"
        return report, EXIT_VERDICT
    try:
        cert = epsilon_best(system, tol=tol, invariants=invariants)
    except InputError as exc:
        report["note"] = f"distance stage unavailable: {exc}"
        return report, EXIT_OK
    qsl = t_star_lower(system, cert, tol=tol, invariants=invariants)
    report["distance"] = {"upper": certificate_to_json(cert),
                          "lower": qsl.epsilon_lower}
    report["qsl"] = qsl.to_dict()
    return report, EXIT_OK


def cmd_analyze(args) -> int:
    tol = _resolve_tolerances(args)
    system = _load_system(args.system, tol)
    report, code = analyze_system(system, tol)
    _emit(report, args.pretty)
    return code


# ------------------------------------------------------- paper reproduction


def reproduce_paper_rows(tol: ToleranceConfig = DEFAULT_TOL) -> list[dict]:
    """Fixed reproduction table: every worked example with PASS/FAIL."""
    rows: list[dict] = []

    def row(example, quantity, computed, expected, ok, detail=""):
        rows.append({"example": example, "quantity": quantity,
                     "computed": computed, "paper": expected,
                     "pass": bool(ok), "detail": detail})

    # two-qubit Ising: bound 1/(4 delta), exact value pi/(2 delta)
    for delta in (0.5, 1.0, 2.0):
        system = build_two_qubit_ising(delta, tol=tol)
        invariants = Invariants(system, tol)
        cert = epsilon_best(system, tol=tol, invariants=invariants)
        report = t_star_lower(system, cert, tol, invariants=invariants)
        bound = 1.0 / (4.0 * delta)
        exact = math.pi / (2.0 * delta)
        ratio = exact / report.t_star_lower
        ok = (abs(report.t_star_lower - bound) <= 1e-12
              and abs(ratio - 2.0 * math.pi) <= 1e-12)
        row("two_qubit_ising", f"t_star_bound(delta={delta})",
            report.t_star_lower, bound, ok,
            detail=f"exact {exact:.6g}, ratio {ratio:.12g}")

    # hopping chain: spectrum formula, gap bound, closed-form time bound
    for d in (3, 10, 100):
        spec = ModelSpec("hopping_chain", {"d": d})
        ref = reference_bounds(spec)
        w = np.linalg.eigvalsh(np.diag(np.ones(d - 1), 1)
                               + np.diag(np.ones(d - 1), -1))
        spectrum_dev = float(np.max(np.abs(np.sort(w) - hopping_spectrum(d))))
        min_gap = float(np.min(np.diff(np.sort(w))))
        ok = spectrum_dev <= 1e-10 and min_gap <= ref["gap_bound"] + 1e-12
        row("hopping_chain", f"min_gap(d={d})", min_gap, ref["gap_bound"], ok,
            detail=f"gap <= bound; spectrum dev {spectrum_dev:.2e}; "
                   f"t_bound {ref['t_bound']:.6g}")

    # global-control chain: controllability verdicts plus the crowding bound
    uncontrolled = build_global_control_chain(2, [1.0, 1.0], tol=tol)
    res_equal = Invariants(uncontrolled, tol).spectrum
    witness = extract_original_space_symmetry(uncontrolled.algebra_generators(),
                                              tol=tol)
    row("global_control_chain", "gamma=(1,1) uncontrollable",
        float(res_equal.nullity), 2.0,
        (not res_equal.controllable) and witness is not None,
        detail="nullity > 2 with extracted symmetry")
    controlled = build_global_control_chain(2, [1.0, 1.2], tol=tol)
    res_distinct = Invariants(controlled, tol).spectrum
    dg = delta_gamma([1.0, 1.2])
    t_bound = math.sqrt(2.0) / (1.0 * dg)
    ok = res_distinct.controllable and abs(t_bound - math.sqrt(2.0) / 0.2) <= 1e-12
    row("global_control_chain", "gamma=(1,1.2) t_bound", t_bound,
        math.sqrt(2.0) / 0.2, ok, detail=f"controllable, delta_gamma {dg:.6g}")

    # cross-Kerr: coupling norm N^2/4 and bound 1/(c N^2)
    for n_photons in (2, 4, 6):
        for cap in (1.0, 0.5):
            spec = ModelSpec("cross_kerr", {"n_modes": 2, "n_photons": n_photons,
                                            "cap_c": cap})
            ref = reference_bounds(spec)
            computed_bound = 0.25 / (cap * ref["kerr_norm"])
            paper_bound = 1.0 / (cap * n_photons ** 2)
            ok = (abs(ref["kerr_norm"] - n_photons ** 2 / 4.0) <= 1e-12
                  and abs(computed_bound - paper_bound) <= 1e-12)
            row("cross_kerr", f"t_bound(N={n_photons}, c={cap})",
                computed_bound, paper_bound, ok,
                detail=f"||n1 n2|| = {ref['kerr_norm']:.6g}")
    return rows


def cmd_reproduce_paper(args) -> int:
    tol = _resolve_tolerances(args)
    rows = reproduce_paper_rows(tol)
    all_pass = all(r["pass"] for r in rows)
    _emit({"rows": rows, "all_pass": all_pass}, args.pretty)
    return EXIT_OK if all_pass else EXIT_VERDICT


# ------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: exit 1, where argparse exits 2,
    the code of a mathematical verdict. Subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdist",
        description="Controllability, distance to uncontrollability, and "
                    "quantum-speed-limit bounds for finite-dimensional "
                    "control systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="build a named example system")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", help="write system JSON to this path")
    p.add_argument("--reference", action="store_true",
                   help="include closed-form reference bounds")
    _add_common(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("lie", help="Lie-closure controllability test")
    p.add_argument("--system", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("commutant", help="doubled-space commutant test")
    p.add_argument("--system", required=True)
    p.add_argument("--emit-symmetries", metavar="OUT_JSON",
                   help="write the symmetry basis to a file")
    _add_common(p)
    p.set_defaults(func=cmd_commutant)

    p = sub.add_parser("distance", help="distance-to-uncontrollability bounds")
    p.add_argument("--system", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("qsl", help="quantum-speed-limit report")
    p.add_argument("--system", required=True)
    p.add_argument("--cert", help="certificate JSON (default: run estimators)")
    _add_common(p)
    p.set_defaults(func=cmd_qsl)

    p = sub.add_parser("analyze", help="full pipeline report")
    p.add_argument("--system", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-ineq", help="check the propagation inequality")
    p.add_argument("--system", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--pulse", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify_ineq)

    p = sub.add_parser("reproduce-paper",
                       help="reproduce all worked examples with PASS/FAIL")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UncontrollableSystemError as exc:
        print(f"verdict: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except DimensionGuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:
        print(f"guard: out of memory: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
