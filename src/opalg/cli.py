"""Experiment runner: every named experiment checks one verifiable claim
about the two operator algebras and emits a deterministic CSV/JSON report.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 validation error,
3 numeric failure (an iterative kernel hit its cap).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import gauge, shift, volterra
from .numkit import CircleGrid, ConvergenceError, operator_norm, toeplitz_operator_norm
from .report import ExperimentReport


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

    def resolved(self, *, dim, nodes=None, nmax=None, weights=None):
        """Fill experiment-specific defaults for unset fields."""
        return {
            "dim": self.dim if self.dim is not None else dim,
            "nodes": self.nodes if self.nodes is not None else nodes,
            "nmax": self.nmax if self.nmax is not None else nmax,
            "weights": self.weights if self.weights is not None else weights,
        }


def _echo_params(config: ExperimentConfig, resolved: dict) -> dict:
    params = {"experiment": config.experiment, "seed": config.seed}
    for key in ("dim", "nodes", "nmax", "weights"):
        if resolved.get(key) is not None:
            params[key] = resolved[key]
    if config.kernel is not None:
        params["kernel"] = config.kernel
    return params


def run_v2norm(config: ExperimentConfig) -> ExperimentReport:
    """Norm of the squared integration operator against its transcendental value."""
    r = config.resolved(dim=1000)
    n = r["dim"]
    eta, nrm = volterra.v2_exact()
    rep = ExperimentReport("v2norm", _echo_params(config, r))
    rep.add("eta0", eta)
    rep.add("eta0_residual", abs(math.cosh(eta) * math.cos(eta) + 1.0))
    rep.add("norm_exact", nrm)
    rep.check("root_residual_small", abs(math.cosh(eta) * math.cos(eta) + 1.0) < 1e-10)
    errors = []
    for dim in (n // 4, n // 2, n):
        v = volterra.kernel_constant(1.0, dim)
        sigma = volterra.sigma_max(volterra.convolve(v, v).mu)
        errors.append(abs(sigma - nrm))
        rep.add(f"sigma_sq_dim_{dim}", sigma)
        rep.add(f"error_dim_{dim}", errors[-1])
    rep.check("errors_strictly_decreasing",
              all(b < a for a, b in zip(errors, errors[1:])))
    rep.check("final_error_within_1e-2", errors[-1] <= 1e-2)
    return rep


def run_littlereade(config: ExperimentConfig) -> ExperimentReport:
    """Factorial-scaled power norms drifting down towards the classical 1/2."""
    r = config.resolved(dim=1024, nmax=8)
    rep = volterra.power_norm_table(r["nmax"], r["dim"])
    rep.params = _echo_params(config, r)
    return rep


def run_notell1(config: ExperimentConfig) -> ExperimentReport:
    """The summable-blocks kernel: divergent l1 mass, finite operator norm."""
    r = config.resolved(dim=None, nmax=20)
    m = r["nmax"]
    n = r["dim"] if r["dim"] is not None else 2**m
    f = volterra.kernel_notell1(m, n)
    harmonic_sum = math.fsum(1.0 / k for k in range(1, m + 1))
    square_sum = 1.5 * math.fsum(1.0 / (k * k) for k in range(1, m + 1))
    l1 = f.l1_partial(1.0 - 2.0 ** (-m))
    sharp_sq = volterra.hs_norm(f) ** 2
    sigma = toeplitz_operator_norm(f.mu, tol=1e-9, restarts=2)
    r["dim"] = n
    rep = ExperimentReport("notell1", _echo_params(config, r))
    rep.add("l1_partial_mass", l1)
    rep.add("harmonic_sum", harmonic_sum)
    rep.add("sharp_norm_squared", sharp_sq)
    rep.add("sharp_closed_form", square_sum)
    rep.add("quarter_pi_squared", math.pi**2 / 4.0)
    rep.add("sigma_max", sigma)
    rep.check("l1_mass_exact", abs(l1 - harmonic_sum) <= 1e-12)
    rep.check("sharp_mass_exact", abs(sharp_sq - square_sum) <= 1e-12)
    if m >= 19:
        # the series tail (3/2) sum_{k>m} 1/k^2 < 0.08 only from m = 19 on
        rep.check("sharp_near_quarter_pi_squared",
                  abs(sharp_sq - math.pi**2 / 4.0) < 0.08)
    rep.check("sigma_within_half_pi", sigma <= math.pi / 2.0 + 1e-6)
    return rep


def run_inequivalence(config: ExperimentConfig) -> ExperimentReport:
    r = config.resolved(dim=None, nmax=3)
    rep = shift.inequivalence_demo(r["nmax"])
    rep.params = _echo_params(config, {"nmax": r["nmax"]})
    return rep


def run_equivalence(config: ExperimentConfig) -> ExperimentReport:
    r = config.resolved(dim=32, nmax=100, weights="harmonic")
    w = shift.parse_weight_spec(r["weights"], r["dim"])
    t = shift.build_shift(w, r["dim"])
    rep = shift.norm_equivalence_report(t, trials=r["nmax"], seed=config.seed)
    rep.params = _echo_params(config, r)
    return rep


def run_fejer(config: ExperimentConfig) -> ExperimentReport:
    """Cesaro-weighted reconstruction error against its coefficient bound."""
    r = config.resolved(dim=32, nmax=64, weights="harmonic")
    n, order = r["dim"], r["nmax"]
    w = shift.parse_weight_spec(r["weights"], n)
    t = shift.build_shift(w, n)
    grid = CircleGrid(2 * n if r["nodes"] is None else r["nodes"])
    degree = min(8, n - 1)
    s = shift.polynomial_in(t, shift.random_polynomial(t, config.seed, 0, degree))
    powers = t.powers(n - 1)
    series = gauge.fourier_coefficients(s, grid, powers)
    norms = operator_norm(np.stack(powers))
    coeff_mass = sum(abs(c) * nrm for c, nrm in zip(series, norms))
    rep = ExperimentReport("fejer", _echo_params(config, r))
    rep.add("degree", degree)
    ok = True
    for m in sorted({degree, 2 * degree, order}):
        if m < degree:
            continue
        approx = shift.polynomial_in(t, gauge.fejer_coefficients(series, m))
        err = operator_norm(s - approx)
        bound = (degree / m) * coeff_mass
        rep.add(f"error_order_{m:04d}", err)
        rep.add(f"bound_order_{m:04d}", bound)
        ok = ok and err <= bound + 1e-10
    rep.check("errors_within_coefficient_bound", ok)
    return rep


def run_neumann(config: ExperimentConfig) -> ExperimentReport:
    """Neumann-series factor certificates on random low-index polynomials."""
    r = config.resolved(dim=32, nmax=20, weights="harmonic")
    n, trials = r["dim"], r["nmax"]
    if n < 4:
        raise ValueError(f"neumann draws k up to 3, so dim must be at least 4, got {n}")
    w = shift.parse_weight_spec(r["weights"], n)
    t = shift.build_shift(w, n)
    rep = ExperimentReport("neumann", _echo_params(config, r))
    all_ok = True
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([int(config.seed), trial])
        k = int(rng.integers(1, 4))
        degree = k + int(rng.integers(1, 7))
        coeffs = np.zeros(degree, dtype=complex)
        coeffs[k - 1] = 1.0
        extra = (rng.standard_normal(degree - k)
                 + 1j * rng.standard_normal(degree - k)) / math.sqrt(2.0)
        coeffs[k:] = extra
        sub = shift.neumann_factor_check(coeffs, k, t)
        # np.maximum, not max: max(0.0, nan) is 0.0 and would hide a NaN
        worst = float(np.maximum(worst, sub.value("relative_discrepancy")))
        all_ok = all_ok and sub.passed
    rep.add("trials", trials)
    rep.add("worst_relative_discrepancy", worst)
    rep.check("all_neumann_sums_reproduce_powers", all_ok)
    return rep


def run_titchmarsh(config: ExperimentConfig) -> ExperimentReport:
    """Support arithmetic: zero divisors, band nilpotency, product-convolution
    consistency across a grid refinement ladder."""
    r = config.resolved(dim=240)
    n = r["dim"]
    if n % 60 != 0:
        raise ValueError("titchmarsh experiment needs a dim divisible by 60")
    rep = ExperimentReport("titchmarsh", _echo_params(config, r))
    ok = True
    for i in range(1, 11):
        a = i / 20.0
        f = volterra.kernel_step([(a, 1.0, 1.0)], n)
        g = volterra.kernel_step([(1.0 - a, 1.0, 1.0)], n)
        alpha, beta = volterra.titchmarsh_alpha(f, g)
        rep.add(f"alpha_plus_beta_{i:02d}", alpha + beta)
        ok = ok and alpha + beta >= 1.0 - 2.0 / n
    rep.check("support_starts_complementary", ok)
    trio_ok = True
    for alpha, power in ((0.5, 2), (0.25, 4), (1.0 / 3.0, 3)):
        f = volterra.kernel_step([(alpha, 1.0, 1.0)], n)
        hit = volterra.nilpotency_check(f, power, n)
        rep.add(f"nilpotent_alpha_{alpha:.4f}_n_{power}", 1.0 if hit else 0.0)
        trio_ok = trio_ok and hit
    rep.check("band_nilpotency_exact", trio_ok)
    errors = []
    for dim in (n // 2, n, 2 * n):
        f = volterra.kernel_monomial(-0.5, dim)
        target = volterra.kernel_constant(math.pi, dim)
        err = volterra.sigma_max(target.mu - volterra.convolve(f, f).mu, tol=1e-8)
        errors.append(err)
        rep.add(f"homomorphism_error_dim_{dim}", err)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    for i, ratio in enumerate(ratios):
        rep.add(f"homomorphism_halving_ratio_{i}", ratio)
    rep.check("homomorphism_error_halves",
              all(1.5 <= ratio <= 3.0 for ratio in ratios))
    return rep


def run_muntz(config: ExperimentConfig) -> ExperimentReport:
    r = config.resolved(dim=1000, nmax=12)
    rep = volterra.muntz_no_gauge_demo(r["nmax"], r["dim"])
    rep.params = _echo_params(config, r)
    return rep


def run_nilpotent_density(config: ExperimentConfig) -> ExperimentReport:
    """Truncating any kernel below a small cutoff yields a nilpotent neighbour."""
    r = config.resolved(dim=200, nmax=10)
    n, steps = r["dim"], r["nmax"]
    if n % steps != 0:
        raise ValueError("dim must be divisible by nmax so the cutoff is a grid point")
    delta = 1.0 / steps
    spec = config.kernel if config.kernel is not None else "const:1"
    f = volterra.parse_kernel_spec(spec, n)
    h_kernel, bound = volterra.nilpotent_approximation(f, delta)
    diff = volterra.sigma_max(f.mu - h_kernel.mu)
    rep = ExperimentReport("nilpotent-density", _echo_params(config, r))
    rep.add("cutoff", delta)
    rep.add("removed_mass_bound", bound)
    rep.add("operator_distance", diff)
    rep.add("nilpotency_index", steps)
    rep.check("distance_within_bound", diff <= bound + 1e-10)
    rep.check("truncation_is_nilpotent", volterra.nilpotency_check(h_kernel, steps, n))
    return rep


def run_unbounded_witness(config: ExperimentConfig) -> ExperimentReport:
    r = config.resolved(dim=256)
    n = r["dim"]
    rep = volterra.unbounded_witness_check([n // 4, n // 2, n])
    rep.params = _echo_params(config, r)
    return rep


def run_gauge_scan(config: ExperimentConfig) -> ExperimentReport:
    """Phase-scan isometry on a shift polynomial, plus the two standard
    obstructions: a projection's power dependence and the diagonal compact
    operator's norm asymmetry."""
    r = config.resolved(dim=16, nodes=64, weights="harmonic")
    n, m = r["dim"], r["nodes"]
    if n < 5:
        raise ValueError(f"gauge-scan checks T^1..T^4, so dim must be at least 5, got {n}")
    grid = CircleGrid(m)
    w = shift.parse_weight_spec(r["weights"], n)
    t = shift.build_shift(w, n)
    coeffs = shift.random_polynomial(t, config.seed, 0, degree=min(8, n - 1))
    s = shift.polynomial_in(t, coeffs)
    base = operator_norm(s)
    conjugates = np.stack([gauge.gauge_conjugate(s, lam) for lam in grid.nodes])
    drift = max(abs(norm - base) for norm in operator_norm(conjugates))
    rep = ExperimentReport("gauge-scan", _echo_params(config, r))
    rep.add("shift_isometry_drift", drift)
    rep.check("shift_scan_isometric", drift < 1e-9)
    flat = gauge.certify_no_gauge_norm_scan([1.0, 0.5, -1.0], t.powers(3), grid,
                                            margin=1e-7)
    rep.check("shift_scan_yields_no_witness", flat is None)
    diag = np.diag(1.0 / (np.arange(n) + 1.0)).astype(complex)
    witness = gauge.certify_no_gauge_norm_scan([1.0, -1.0], [diag, diag @ diag],
                                               grid, margin=0.5)
    rep.add("diagonal_ratio", witness.ratio if witness else 1.0)
    rep.check("diagonal_witness_found",
              witness is not None and abs(witness.ratio - 8.0) <= 1e-12)
    rng = np.random.default_rng(int(config.seed) + 1)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u /= np.linalg.norm(u)
    proj = np.outer(u, u.conj())
    dep = gauge.certify_no_gauge_linear_dependence([proj, proj @ proj])
    rep.check("projection_dependence_found",
              dep is not None and dep.kind == "linear_dependence")
    none = gauge.certify_no_gauge_linear_dependence(t.powers(4))
    rep.check("shift_powers_independent", none is None)
    return rep


def run_quasinilpotence(config: ExperimentConfig) -> ExperimentReport:
    r = config.resolved(dim=None, nmax=8, weights="harmonic")
    k_max = 64
    w = shift.parse_weight_spec(r["weights"], k_max + r["nmax"] + 1)
    rep = shift.quasinilpotence_profile(w, r["nmax"], k_max)
    rep.params = _echo_params(config, {"nmax": r["nmax"], "weights": r["weights"]})
    return rep


EXPERIMENTS = {
    "v2norm": run_v2norm,
    "littlereade": run_littlereade,
    "notell1": run_notell1,
    "inequivalence": run_inequivalence,
    "equivalence": run_equivalence,
    "fejer": run_fejer,
    "neumann": run_neumann,
    "titchmarsh": run_titchmarsh,
    "muntz": run_muntz,
    "nilpotent-density": run_nilpotent_density,
    "unbounded-witness": run_unbounded_witness,
    "gauge-scan": run_gauge_scan,
    "quasinilpotence": run_quasinilpotence,
}


def validate_config(config: ExperimentConfig):
    if config.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; "
            f"choose from {', '.join(sorted(EXPERIMENTS))}")
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
    start = time.monotonic()
    rep = EXPERIMENTS[config.experiment](config)
    rep.wall_time = time.monotonic() - start
    # the seed must appear in every serialized output, including bare CSV rows
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
