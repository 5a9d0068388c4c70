"""One workload process, started fresh by run.py.

The parent passes the monotonic time read just before it started this
process; set-up time runs from there to the moment the first operation could
be issued (imports, BLAS load, first inputs built).  With --mode setup the
process stops there.  Otherwise it runs the workload's fixed number of passes
(workloads.PASSES, or --passes) in a closed loop with one client and prints
one JSON line with what it measured.  --cap-s stops the run early, at the
first pass boundary past that many seconds.  With --mode traced the layer
modules are wrapped first (spans.install).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import time
from pathlib import Path

import numpy as np

import spans
import workloads
from opalg import cli, gauge, numkit, report, shift, volterra

DIGESTS = Path(__file__).with_name("digests.json")


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads()}


def closed_loop(passes, cap_s=None, baseline=None) -> dict:
    """Run the operations of each pass in `passes`, or stop at the first pass
    boundary past `cap_s` seconds.  Every result is checked."""
    latencies, problems, notes = [], [], set()
    attempted = changed = done = 0
    start = time.perf_counter()
    for ops in passes:
        for op in ops:
            attempted += 1
            t = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # a raising operation is a failed one
                latencies.append(time.perf_counter() - t)
                problems.append(f"{type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t)
            problem = op.check(result)
            if problem is not None:
                problems.append(problem)
            notes.update(op.notes(result))
            if baseline is not None and isinstance(op, workloads.Experiment):
                recorded = baseline.get(op.name, [])
                changed += (op.seed >= len(recorded)
                            or workloads.digest(result[1]) != recorded[op.seed])
        done += 1
        if cap_s is not None and time.perf_counter() - start >= cap_s:
            break
    return {"pass_s": time.perf_counter() - start, "passes": done,
            "capped": done != len(passes),
            "attempted": attempted, "failed": len(problems), "problems": problems[:5],
            "latencies": latencies, "notes": sorted(notes), "bytes_changed": changed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--cap-s", type=float, default=None)
    args = parser.parse_args(argv)
    passes = workloads.passes(args.workload, args.seed, args.passes)
    out = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        tracer = baseline = None
        if args.mode == "traced":
            baseline = json.loads(DIGESTS.read_text())
            tracer = spans.Tracer()
            spans.install(tracer, [cli, gauge, numkit, report, shift, volterra])
        out.update(closed_loop(passes, args.cap_s, baseline))
        if tracer is not None:
            layers = spans.layer_metrics(tracer.spans)
            out["layers"] = layers
            out["uncovered"] = [group for group in workloads.COVERAGE[args.workload]
                                if layers[f"{group}.calls"] == 0]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        out["machine"] = machine_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
