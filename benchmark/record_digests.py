"""Record the baseline digests behind the per-layer metric report.bytes_changed.

    python3 benchmark/record_digests.py

Runs every experiment of a report workload at every seed of the experiment
seed pool, in the environment the workload processes get (opalg from src/,
BLAS pinned to run.BLAS_THREADS threads), checks each report's flags against
the expected table, and stores the digest of the bytes each operation emits
(CSV then JSON) in digests.json.  Exits 1 if any report fails its check.
"""

from __future__ import annotations

import json
import os
import sys

import run

if dict(os.environ) != run.worker_env():
    os.execve(sys.executable, [sys.executable, __file__], run.worker_env())

import workloads  # noqa: E402  (imports opalg, which needs the environment above)
from worker import DIGESTS  # noqa: E402


def main() -> int:
    digests, problems = {}, []
    for names in workloads.WORKLOADS.values():
        for name in names:
            row = []
            for seed in range(workloads.SEED_POOL):
                op = workloads.Experiment(name, seed)
                result = op()
                problems.append(op.check(result))
                row.append(workloads.digest(result[1]))
            digests[name] = row
            print(f"{name}: {workloads.SEED_POOL} seeds", file=sys.stderr, flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    problems = [p for p in problems if p is not None]
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
