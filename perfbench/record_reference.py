"""Record the reference outputs that the correctness check compares with.

    python3 perfbench/record_reference.py

Runs every system any seed can select (the fixed systems and every member
of the random-pair pools) through its workload's calls and writes the
observed summaries to perfbench/reference.json. Run it only on a commit
whose outputs are trusted; a change that alters outputs must not re-record.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402

os.environ.update(run.child_env())  # the benchmark's BLAS threads, before numpy loads

import workloads  # noqa: E402
from worker import environment  # noqa: E402


def main() -> int:
    systems = {}
    for workload in workloads.WORKLOADS:
        for name in workloads.reference_names(workload):
            system = workloads.round_trip(workloads.build(name))
            pulse = workloads.pulse_for(system, workloads.DEFAULT_SEED, 0)
            systems[name] = workloads.run_system(system, workloads.cert_flow(workload),
                                                 pulse)
            print(name, systems[name], flush=True)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"recorded_with": environment(), "systems": systems}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
