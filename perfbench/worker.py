"""One measurement process: set up one workload, run its passes, print JSON.

Started by run.py with the BLAS thread count already fixed in its
environment. Systems run one after another (a closed loop with one client).
Untraced passes repeat until the time budget would be exceeded; with
--trace 1 a final traced pass follows, after which every original function
is restored. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        deps = {}
    keep = ("name", "version", "openblas configuration")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: v for k, v in deps.get("blas", {}).items() if k in keep},
        "lapack": {k: v for k, v in deps.get("lapack", {}).items() if k in keep},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_pass(names, systems, pulses, with_cert_flow, reference, tracer=None) -> dict:
    import workloads

    times, failures = [], []
    start = time.perf_counter()
    for name, system, pulse in zip(names, systems, pulses):
        if tracer is not None:
            tracer.request, tracer.dim = name, system.dim
        t = time.perf_counter()
        try:
            observed = workloads.run_system(system, with_cert_flow, pulse)
        except Exception as exc:  # a failed system counts against fail_ratio
            observed, problems = None, [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - t)
        if observed is not None:
            problems = checks.check(observed, reference.get(name))
        if problems:
            failures.append({"system": name, "problems": problems})
    return {"wall_s": time.perf_counter() - start, "system_s": times,
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of untraced passes (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    # numpy and qdist are imported only from here on: set-up time includes them
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import qdist
    import qdist.cli  # noqa: F401  (analyze_system lives here)
    import workloads

    if not os.path.abspath(qdist.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qdist was imported from {qdist.__file__}, not {SRC}")
    names = workloads.system_names(args.workload, args.seed)
    systems = workloads.build_all(names)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["systems"]
    with_cert = workloads.cert_flow(args.workload)
    pulses = [workloads.pulse_for(s, args.seed, i) for i, s in enumerate(systems)]

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(names, systems, pulses, with_cert, reference))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] > args.budget:
            break
    result = {"setup_s": setup_s, "names": names, "passes": passes}

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            tracer.request = "setup"
            traced_systems = workloads.build_all(names)
            traced = run_pass(names, traced_systems, pulses, with_cert, reference,
                              tracer=tracer)
        finally:
            rebound = tracer.restore()
        traced["restored"] = all(getattr(owner, attr) is original
                                 for owner, attr, original in rebound)
        traced["rebound"] = len(rebound)
        traced["metrics"] = tracer.metrics()
        traced["metrics"]["trace.overhead_s"] = (
            traced["wall_s"] - statistics.median(p["wall_s"] for p in passes))
        traced["svd_d4_by_system"] = tracer.svd_d4_by_request()
        result["traced"] = traced
        if args.spans:
            tracer.write(args.spans)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
