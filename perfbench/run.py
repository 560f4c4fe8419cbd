"""qdist benchmark: the `analyze` pipeline end to end, one workload per run.

    python3 perfbench/run.py --workload dense_svd --seed 0 --seconds 40 --trace 0

Run from the repository root. Workloads: dense_svd, lie_large, small_batch
(see perfbench/README.md). With --trace 0 the result holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced pass.
Every system's outputs are checked against perfbench/reference.json. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

BLAS_THREADS = 1          # one thread: far steadier than two on a 2-core machine
SETUP_SAMPLES = 5         # fresh processes timing import + build, besides the main one
DEADLINE_S = 170.0        # the whole run, setup processes included
TRACE_BUDGET_SHARE = 0.5  # share of --seconds spent on untraced passes with --trace 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "system_s.p50": "s",
                    "system_s.max": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".gflop_computed"):
        return "Gflop"
    if name.endswith(".gbyte_computed"):
        return "GB"
    return "s"


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    return env


def run_worker(worker_args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *worker_args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s and was killed") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], result: dict) -> dict[str, float]:
    passes = result["passes"]
    per_system = zip(*(p["system_s"] for p in passes))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "system_s.p50": statistics.median(t for p in passes for t in p["system_s"]),
        # the slowest system, each system timed by its median over passes
        "system_s.max": max(statistics.median(times) for times in per_system),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("dense_svd", "lie_large", "small_batch"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "qdist", "__init__.py")):
        print(f"error: no qdist source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{tag}.json")
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    budget = args.seconds * (TRACE_BUDGET_SHARE if args.trace else 1.0)
    try:
        run_worker(base + ["--setup-only"], deadline)  # warm-up: byte-compile, fill file cache
        setups = [run_worker(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        result = run_worker(base + ["--budget", str(budget), "--trace", str(args.trace),
                                    "--spans", spans_path], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    passes = result["passes"] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(p["system_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    e2e = end_to_end(setups, result)
    n_systems = len(result["names"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  systems/pass {n_systems}")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_ratio':<14} {len(failures) / attempted:12.6g} ratio "
          f"({len(failures)}/{attempted})")
    print(f"  samples: setup {len(setups)}, wall {len(result['passes'])}, "
          f"system {len(result['passes']) * n_systems}")
    for failure in failures:
        print(f"  FAIL {failure['system']}: {'; '.join(failure['problems'])}")
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")

    if args.trace:
        traced = result["traced"]
        if not traced["restored"]:
            print("  FAIL tracer: original bindings not restored")
        for system, (calls, distinct) in traced["svd_d4_by_system"].items():
            print(f"  svd_d4 {system}: {calls} calls, {distinct} distinct inputs")
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in traced["metrics"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "setup_s_samples": setups, "end_to_end": e2e,
                   "metrics": metrics, "failures": failures, **result}, fh, indent=1)
    correct = not failures and (not args.trace or result["traced"]["restored"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
