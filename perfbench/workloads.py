"""Workload definitions: which systems each workload analyzes, and the calls
made on each one.

A system is named by the recipe that builds it, so a name identifies its
inputs exactly and keys its reference outputs in `reference.json`. Random
(drift, control) pairs are drawn from a fixed pool per dimension: pool member
k at dimension d is generated from the seed sequence (RANDOM_TAG, d, k), and
the workload seed chooses which members a run uses. Every pool member has a
recorded reference, so the outputs of any seed can be checked.

Nothing here imports qdist at module level: the worker times that import as
part of set-up.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("dense_svd", "lie_large", "small_batch")
DEFAULT_SEED = 0

RANDOM_TAG = 20101615
SELECT_TAG = 7301
PULSE_TAG = 6402
PULSE_SEGMENTS = 64

# global-control chain at n=2: equal gammas are uncontrollable (early exit)
SMALL_CHAIN_GAMMAS = ((1.0, 1.0), (1.0, 1.2), (0.5, 1.5), (1.0, 2.0))
LARGE_CHAIN_GAMMAS = (1.0, 1.3, 1.7, 2.2)


def _fmt(x: float) -> str:
    return repr(float(x))


def hopping(d: int) -> str:
    return f"hopping_d{d}"


def cross_kerr(n_modes: int, n_photons: int) -> str:
    return f"cross_kerr_m{n_modes}_n{n_photons}"


def chain(gammas) -> str:
    return f"global_chain_n{len(gammas)}_g" + "_".join(_fmt(g) for g in gammas)


def ising(delta: float) -> str:
    return f"ising_delta{_fmt(delta)}"


def random_pair(d: int, k: int) -> str:
    return f"random_d{d}_k{k}"


FIXED = {
    "dense_svd": [hopping(6), cross_kerr(2, 4)],
    "lie_large": [hopping(16), hopping(18), chain(LARGE_CHAIN_GAMMAS), cross_kerr(3, 3)],
    "small_batch": [ising(x) for x in (0.5, 1.0, 2.0)]
    + [hopping(3), hopping(4), cross_kerr(2, 3)]
    + [chain(g) for g in SMALL_CHAIN_GAMMAS],
}
# random pairs per pass: dimension -> (pairs picked, pool size). In small_batch
# a d=4 system costs ~8x a d<=3 one; with 10 of 28 systems cheap, the median
# system lies inside the d=4 cluster, not in the gap between the two clusters.
RANDOM = {
    "dense_svd": {5: (1, 16)},
    "lie_large": {12: (1, 16)},
    "small_batch": {2: (4, 48), 3: (4, 48), 4: (10, 48)},
}


def system_names(workload: str, seed: int) -> list[str]:
    """Systems of one workload pass, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([SELECT_TAG, seed])
    names = list(FIXED[workload])
    for d, (count, pool) in RANDOM[workload].items():
        names += [random_pair(d, int(k)) for k in rng.choice(pool, size=count, replace=False)]
    return names


def reference_names(workload: str) -> list[str]:
    """Every system any seed can select in this workload: each pool member."""
    names = list(FIXED[workload])
    for d, (_, pool) in RANDOM[workload].items():
        names += [random_pair(d, k) for k in range(pool)]
    return names


def cert_flow(workload: str) -> bool:
    """Whether each controllable system also runs the `qsl --cert` flow."""
    return workload == "small_batch"


# ------------------------------------------------------------- construction


def build(name: str):
    """Build the named system through the qdist model builders."""
    import qdist

    if name.startswith("hopping_d"):
        return qdist.build_hopping_chain(int(name[len("hopping_d"):]))
    if name.startswith("cross_kerr_m"):
        modes, photons = name[len("cross_kerr_m"):].split("_n")
        return qdist.build_cross_kerr(int(modes), int(photons))
    if name.startswith("global_chain_n"):
        gammas = [float(g) for g in name.split("_g", 1)[1].split("_")]
        return qdist.build_global_control_chain(len(gammas), gammas)
    if name.startswith("ising_delta"):
        return qdist.build_two_qubit_ising(float(name[len("ising_delta"):]))
    if name.startswith("random_d"):
        d, k = (int(part[1:]) for part in name.split("_")[1:])
        drift = qdist.random_hermitian(d, [RANDOM_TAG, d, k, 0]).matrix
        control = qdist.random_hermitian(d, [RANDOM_TAG, d, k, 1]).matrix
        return qdist.pair_system(drift, control)
    raise ValueError(f"unknown system {name!r}")


def round_trip(system):
    """Serialize a system to JSON text and parse it back."""
    from qdist import system as qsystem

    text = json.dumps(qsystem.system_to_json(system))
    return qsystem.system_from_json(json.loads(text))


def build_all(names: list[str]) -> list:
    return [round_trip(build(name)) for name in names]


def pulse_for(system, seed: int, index: int):
    """Seeded 64-segment pulse that respects every amplitude cap."""
    from qdist import PiecewisePulse

    rng = np.random.default_rng([PULSE_TAG, seed, index])
    durations = rng.uniform(0.01, 0.1, size=PULSE_SEGMENTS)
    cols = [rng.uniform(-b.cap, b.cap, size=PULSE_SEGMENTS) for b in system.bounded]
    cols += [rng.normal(0.0, 1.0, size=PULSE_SEGMENTS) for _ in system.unbounded]
    return PiecewisePulse(durations=durations, amplitudes=np.column_stack(cols))


# ------------------------------------------------------------------- calls


def run_system(system, with_cert_flow: bool, pulse) -> dict:
    """Analyze one system, plus the `qsl --cert` flow when asked.

    Functions are looked up on their modules at call time, so a tracer that
    rebinds them sees every call. Returns the observed summary that the
    correctness check compares with the reference.
    """
    import dataclasses

    from qdist import cli, distance, speed_limit
    from qdist.linalg import DEFAULT_TOL

    report, code = cli.analyze_system(system, DEFAULT_TOL)
    observed = summarize(report, code)
    if not with_cert_flow or report["distance"] is None:
        return observed
    text = json.dumps(report["distance"]["upper"])
    cert = distance.certificate_from_json(json.loads(text))
    observed["cert_verified"] = bool(distance.verify_certificate(system, cert))
    cert = dataclasses.replace(cert, verified_uncontrollable=True)
    qsl = speed_limit.t_star_lower(system, cert)
    observed["qsl_t_star_lower"] = qsl.t_star_lower
    check = speed_limit.verify_perturbation_inequality(system, cert, pulse)
    observed["ineq_holds"] = bool(check.holds)
    return observed


def summarize(report: dict, code: int) -> dict:
    """The fields of an analyze report that the correctness rule compares."""
    commutant = report["commutant"] or {}
    skipped = "skipped" in commutant
    dist = report["distance"]
    return {
        "exit_code": int(code),
        "lie_controllable": bool(report["lie"]["controllable"]),
        "lie_dimension": int(report["lie"]["dimension"]),
        "commutant_controllable": None if skipped else bool(commutant["controllable"]),
        "nullity": None if skipped else int(commutant["nullity"]),
        "upper_op_norm": None if dist is None else float(dist["upper"]["op_norm"]),
        "lower": None if dist is None else float(dist["lower"]),
        "t_star_lower": None if report["qsl"] is None
        else float(report["qsl"]["t_star_lower"]),
    }
