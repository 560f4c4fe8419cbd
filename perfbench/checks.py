"""Correctness rule: compare an observed system summary with its reference.

Verdicts, exit code, Lie dimension and nullity must match exactly. Bounds may
only get tighter: the upper bound may not exceed the reference, and the lower
bound and T* bound may not fall below it, each beyond a relative REL_TOL.
The lower bound may never exceed the upper bound.
"""

from __future__ import annotations

REL_TOL = 1e-9

EXACT_KEYS = ("exit_code", "lie_controllable", "lie_dimension",
              "commutant_controllable", "nullity", "cert_verified", "ineq_holds")
# keys whose value may fall but not rise, and keys whose value may rise but not fall
NOT_ABOVE = ("upper_op_norm",)
NOT_BELOW = ("lower", "t_star_lower", "qsl_t_star_lower")


def check(observed: dict, reference: dict | None) -> list[str]:
    """Problems found in `observed`; an empty list means it passes."""
    if reference is None:
        return ["no reference output recorded for this system"]
    problems = []
    for key in EXACT_KEYS:
        if observed.get(key) != reference.get(key):
            problems.append(f"{key}: {observed.get(key)!r} != reference "
                            f"{reference.get(key)!r}")
    for key in NOT_ABOVE + NOT_BELOW:
        got, want = observed.get(key), reference.get(key)
        if (got is None) != (want is None):
            problems.append(f"{key}: {got!r} where reference has {want!r}")
        elif got is None:
            continue
        elif key in NOT_ABOVE and got > want + REL_TOL * abs(want):
            problems.append(f"{key}: {got!r} looser than reference {want!r}")
        elif key in NOT_BELOW and got < want - REL_TOL * abs(want):
            problems.append(f"{key}: {got!r} looser than reference {want!r}")
    lower, upper = observed.get("lower"), observed.get("upper_op_norm")
    if lower is not None and upper is not None and lower > upper:
        problems.append(f"lower {lower!r} exceeds upper.op_norm {upper!r}")
    return problems
