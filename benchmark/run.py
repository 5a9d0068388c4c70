"""opalg benchmark: time to a verified report, on four workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from src/.
Every workload process is a fresh interpreter with BLAS_THREADS BLAS threads
running one closed-loop client (see worker.py and workloads.py).

--trace 0 prints the end-to-end metrics.  After one unmeasured warm-up, set-up
is measured in SETUP_SAMPLES fresh processes before the measured run and as
many after it, plus the run itself, and reported as their median, so that
slow drift of the machine's speed during the run is sampled too.  The other
metrics come from the measured run, which makes the workload's fixed number
of passes (workloads.PASSES, about 21 to 28 s on the reference machine) and
stops early only at the first pass boundary past CAP_FACTOR * S seconds.

--trace 1 prints the per-layer metrics.  It runs the workload untraced, then
again in a fresh process with every layer function wrapped (spans.py) for the
same number of passes.  The traced run fails if a layer its workload must
reach records no calls, or if its failure count differs from the untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# One BLAS thread: each process then owns one core of the machine, which keeps
# run-to-run spread low on a small shared box (always <= nproc).
BLAS_THREADS = 1
SETUP_SAMPLES = 7
CAP_FACTOR = 2
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    # 1 - failed_ratio: a metric must never read 0
    "verified_ratio": "ratio",
}
PER_LAYER = {**spans.layer_units(), "report.bytes_changed": "count",
             "trace.overhead_ratio": "ratio"}


class WorkerFailed(RuntimeError):
    pass


def tail(latencies):
    """(value, percentile, samples beyond) for the highest percentile of
    `latencies` that has at least ten samples beyond it.  With ten samples or
    fewer no percentile qualifies; the maximum is returned, with none beyond."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 10 if n > 10 else n
    return xs[k - 1], 100.0 * k / n, n - k


def machine_facts() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version()}


def worker_env() -> dict:
    """The environment of every workload process: opalg from src/, BLAS pinned."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    if src not in env.get("PYTHONPATH", "").split(os.pathsep):
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # set-up is measured with bytecode cached, as an installed `opalg` has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_worker(args, mode, **extra) -> dict:
    """Run worker.py to completion in a fresh interpreter; return its JSON line."""
    env = worker_env()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(run: dict, setups: list) -> dict:
    latencies = run["latencies"]
    verified = run["attempted"] - run["failed"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": verified / run["pass_s"],
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "peak_rss_mb": run["peak_rss_mb"],
        "verified_ratio": verified / run["attempted"],
    }


def per_layer(run: dict, traced: dict) -> dict:
    return {**traced["layers"], "report.bytes_changed": traced["bytes_changed"],
            "trace.overhead_ratio": traced["pass_s"] / run["pass_s"] - 1.0}


def measure(args):
    """Run the workload processes; return (run, metrics, units, problems)."""
    if args.trace == 0:
        start_worker(args, "setup")  # warm-up: bytecode and file caches
        before = [start_worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        run = start_worker(args, "run", cap_s=CAP_FACTOR * args.seconds)
        after = [start_worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        return run, end_to_end(run, before + [run["setup_s"]] + after), END_TO_END, []
    run = start_worker(args, "run", cap_s=CAP_FACTOR * args.seconds)
    traced = start_worker(args, "traced", passes=run["passes"])
    problems = [f"traced run: layer {group} recorded no calls"
                for group in traced["uncovered"]]
    if traced["failed"] != run["failed"]:
        problems.append(f"traced run failed {traced['failed']} operations, "
                        f"untraced {run['failed']}")
    return run, per_layer(run, traced), PER_LAYER, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "opalg" / "__init__.py").is_file():
        print(f"benchmark: no opalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run, metrics, units, problems = measure(args)
    except WorkerFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    problems = run["problems"] + problems
    _, pct, beyond = tail(run["latencies"])
    print(f"workload {args.workload}  seed {args.seed}  passes {run['passes']}  "
          f"attempted {run['attempted']}  failed {run['failed']}  "
          f"failed_ratio {run['failed'] / run['attempted']:g}")
    print("machine " + json.dumps({**machine_facts(), **run["machine"]}))
    print(f"op_tail_s is p{pct:.1f} of {len(run['latencies'])} latencies "
          f"({beyond} beyond it)")
    if run["capped"]:
        print(f"note run capped at {CAP_FACTOR * args.seconds:g} s after "
              f"{run['passes']} passes")
    for line in run["notes"]:
        print("note " + line)
    for line in problems:
        print("FAIL " + line)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
