"""Experiment runner: every named experiment checks one verifiable claim
about the two operator algebras and emits a deterministic CSV/JSON report.

An experiment is a claim function (`EXPERIMENTS`); its keyword parameters are
the options it reads, with their defaults, and any other option is a
validation error.  `--seed` is taken by every experiment: it is echoed in the
params and as the first row even where the claim draws nothing at random.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 validation error,
3 numeric failure (an iterative kernel hit its cap).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import gauge, shift, volterra
from .numkit import CircleGrid, ConvergenceError, operator_norm
from .report import ExperimentReport

OPTIONS = ("dim", "nodes", "nmax", "weights", "kernel")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dim: int | None = None
    nodes: int | None = None
    seed: int = 0
    weights: str | None = None
    kernel: str | None = None
    nmax: int | None = None
    out: str | None = None
    format: str = "csv"


def run_gauge_scan(*, dim: int = 16, nodes: int = 64, weights: str = shift.HARMONIC,
                   seed: int = 0) -> ExperimentReport:
    """Phase-scan isometry on a shift polynomial, plus the two standard
    obstructions: a projection's power dependence and the diagonal compact
    operator's norm asymmetry."""
    if dim < 5:
        raise ValueError(f"gauge-scan checks T^1..T^4, so dim must be at least 5, got {dim}")
    grid = CircleGrid(nodes)
    t = shift.build_shift(shift.parse_weight_spec(weights, dim), dim)
    coeffs = shift.random_polynomial(t, seed, 0, degree=min(8, dim - 1))
    s = shift.polynomial_in(t, coeffs)
    base = operator_norm(s)
    conjugates = np.stack([gauge.gauge_conjugate(s, lam) for lam in grid.nodes])
    drift = max(abs(norm - base) for norm in operator_norm(conjugates))
    rep = ExperimentReport("gauge-scan", {"dim": dim, "nodes": nodes, "weights": weights})
    rep.add("shift_isometry_drift", drift)
    rep.check("shift_scan_isometric", drift < 1e-9)
    flat = gauge.certify_no_gauge_norm_scan([1.0, 0.5, -1.0], t.powers(3), grid,
                                            margin=1e-7)
    rep.check("shift_scan_yields_no_witness", flat is None)
    diag = np.diag(1.0 / (np.arange(dim) + 1.0)).astype(complex)
    witness = gauge.certify_no_gauge_norm_scan([1.0, -1.0], [diag, diag @ diag],
                                               grid, margin=0.5)
    rep.add("diagonal_ratio", witness.ratio if witness else 1.0)
    rep.check("diagonal_witness_found",
              witness is not None and abs(witness.ratio - 8.0) <= 1e-12)
    rng = np.random.default_rng(int(seed) + 1)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    proj = np.outer(u, u.conj())
    dep = gauge.certify_no_gauge_linear_dependence([proj, proj @ proj])
    rep.check("projection_dependence_found",
              dep is not None and dep.kind == "linear_dependence")
    none = gauge.certify_no_gauge_linear_dependence(t.powers(4))
    rep.check("shift_powers_independent", none is None)
    return rep


EXPERIMENTS = {
    "v2norm": volterra.v2norm,
    "littlereade": volterra.littlereade,
    "notell1": volterra.notell1,
    "inequivalence": shift.inequivalence,
    "equivalence": shift.equivalence,
    "fejer": gauge.fejer,
    "neumann": shift.neumann,
    "titchmarsh": volterra.titchmarsh,
    "muntz": volterra.muntz,
    "nilpotent-density": volterra.nilpotent_density,
    "unbounded-witness": volterra.unbounded_witness,
    "gauge-scan": run_gauge_scan,
    "quasinilpotence": shift.quasinilpotence,
}

# The parameters each claim takes, read once at import: a wrapper that later
# rebinds an entry (as benchmark/spans.py does to record calls) keeps its
# behaviour but hides its signature.
TAKES = {name: tuple(inspect.signature(claim).parameters)
         for name, claim in EXPERIMENTS.items()}


def validate_config(config: ExperimentConfig):
    if config.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; "
            f"choose from {', '.join(sorted(EXPERIMENTS))}")
    takes = TAKES[config.experiment]
    for name in OPTIONS:
        if getattr(config, name) is not None and name not in takes:
            raise ValueError(
                f"{config.experiment} does not read --{name}; it reads "
                + ", ".join(f"--{p}" for p in takes))
    if config.format not in ("csv", "json"):
        raise ValueError(f"unknown format {config.format!r}")
    if config.dim is not None and config.dim < 2:
        raise ValueError("dim must be at least 2")
    if config.nodes is not None and config.nodes < 2:
        raise ValueError("nodes must be at least 2")
    if config.nmax is not None and config.nmax < 1:
        raise ValueError("nmax must be positive")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    validate_config(config)
    options = {name: getattr(config, name) for name in OPTIONS
               if getattr(config, name) is not None}
    if "seed" in TAKES[config.experiment]:
        options["seed"] = config.seed
    start = time.monotonic()
    rep = EXPERIMENTS[config.experiment](**options)
    rep.wall_time = time.monotonic() - start
    # the seed must appear in every serialized output, including bare CSV rows
    rep.params = {"experiment": config.experiment, "seed": config.seed, **rep.params}
    rep.rows.insert(0, ("seed", float(config.seed)))
    return rep


def emit_report(report: ExperimentReport, fmt: str) -> bytes:
    if fmt == "csv":
        return report.to_csv_bytes()
    if fmt == "json":
        return report.to_json_bytes()
    raise ValueError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opalg",
        description="Run a named operator-algebra experiment and emit its report.")
    parser.add_argument("experiment", help=", ".join(sorted(EXPERIMENTS)))
    parser.add_argument("--dim", type=int, default=None, help="truncation/grid size N")
    parser.add_argument("--nodes", type=int, default=None, help="circle quadrature nodes M")
    parser.add_argument("--seed", type=int, default=0, help="random seed (echoed in output)")
    parser.add_argument("--weights", default=None,
                        help="weight spec: list:a0,a1,... | harmonic | geometric:r | ones")
    parser.add_argument("--kernel", default=None,
                        help="kernel spec: const:c | poly:c0,c1,... | powern:n | "
                             "step:a,b,v;... | notell1:m | singular32")
    parser.add_argument("--nmax", type=int, default=None,
                        help="order/count parameter (meaning depends on the experiment)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    args = parser.parse_args(argv)
    config = ExperimentConfig(
        experiment=args.experiment, dim=args.dim, nodes=args.nodes, seed=args.seed,
        weights=args.weights, kernel=args.kernel, nmax=args.nmax, out=args.out,
        format=args.format)
    try:
        report = run_experiment(config)
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    payload = emit_report(report, config.format)
    if config.out is not None:
        try:
            with open(config.out, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"cannot write {config.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    passed = sum(1 for _, ok in report.flags if ok)
    print(f"{report.experiment}: {passed}/{len(report.flags)} assertions passed "
          f"in {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
