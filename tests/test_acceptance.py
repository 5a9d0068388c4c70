"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 11 checks that the discretized norms of the (1-x)^(-3/2)
convolution operator climb without bound, at the rate they provably have.
The lower-triangular Toeplitz matrix A with first column mu satisfies
|mu|_2 = |A e_0| <= sigma_N <= |mu|_1 (Young), and both column masses are
Theta(sqrt(N)), so sigma_N grows like sqrt(2N): the growth exponent over the
grid ladder {64, 128, 256} must be 1/2.  The criterion as first written
demanded more than 4x growth across that 4x grid span; sqrt(N) growth can
only double it (measured 2.001x), so that demand was refuted.  A bounded
kernel runs through the same check as a negative control and must fail it.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from opalg import gauge, numkit, shift, volterra
from opalg.cli import ExperimentConfig, run_experiment
from opalg.numkit import CircleGrid, operator_norm, svd_oracle


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}: {detail}")
    return ok


@pytest.fixture(scope="module")
def shift_corpus():
    """50 seeded random polynomials in the harmonic shift at N = 64, as
    (coefficient vectors, matrices)."""
    t = shift.build_shift(shift.harmonic_weights(64), 64)
    coeffs = [shift.random_polynomial(t, seed=2026, trial=i) for i in range(50)]
    return t, coeffs, [shift.polynomial_in(t, c) for c in coeffs]


def test_criterion_01_v2_transcendental_identity():
    start = time.monotonic()
    rep = run_experiment(ExperimentConfig("v2norm", dim=1000))
    elapsed = time.monotonic() - start
    residual = rep.value("eta0_residual")
    errors = [rep.value(f"error_dim_{n}") for n in (250, 500, 1000)]
    ok = (residual < 1e-10 and errors[-1] <= 1e-2
          and errors[2] < errors[1] < errors[0] and elapsed < 60.0)
    report_line(1, ok, f"|V^2| as eta0^-2: residual={residual:.2e}, "
                f"errors={[f'{e:.2e}' for e in errors]}, time={elapsed:.1f}s")
    assert ok


def test_criterion_02_v_norm_convergence():
    target = 2.0 / math.pi
    errors = []
    for n in (250, 500, 1000):
        v = volterra.build_vf(volterra.kernel_constant(1.0, n), n).matrix.entries
        errors.append(abs(operator_norm(v) - target))
    ok = errors[-1] <= 1e-2 and errors[2] < errors[1] < errors[0]
    report_line(2, ok, f"|V| -> 2/pi: errors={[f'{e:.2e}' for e in errors]}")
    assert ok


def test_criterion_03_littlereade_trend():
    start = time.monotonic()
    rep = volterra.littlereade(dim=1024, nmax=8)
    elapsed = time.monotonic() - start
    cs = [rep.value(f"c_{p:02d}") for p in range(1, 9)]
    decreasing = all(b < a for a, b in zip(cs, cs[1:]))
    ok = decreasing and 0.45 <= cs[7] <= 0.6 and elapsed < 120.0
    report_line(3, ok, f"n!|V^n| decreasing to c8={cs[7]:.4f}, time={elapsed:.1f}s")
    assert ok


def test_criterion_04_notell1():
    m = 20
    rep = run_experiment(ExperimentConfig("notell1", nmax=m))
    harmonic_sum = math.fsum(1.0 / k for k in range(1, m + 1))
    square_sum = 1.5 * math.fsum(1.0 / (k * k) for k in range(1, m + 1))
    l1 = rep.value("l1_partial_mass")
    sharp_sq = rep.value("sharp_norm_squared")
    sigma = rep.value("sigma_max")
    ok = (abs(l1 - harmonic_sum) <= 1e-12
          and abs(sharp_sq - square_sum) <= 1e-12
          and abs(sharp_sq - math.pi**2 / 4.0) < 0.08
          and sigma <= math.pi / 2.0 + 1e-6)
    report_line(4, ok, f"divergent-l1 kernel: l1 err={abs(l1 - harmonic_sum):.1e}, "
                f"sharp^2 err={abs(sharp_sq - square_sum):.1e}, "
                f"|pi^2/4 - sharp^2|={abs(sharp_sq - math.pi**2 / 4):.4f}, "
                f"sigma={sigma:.4f} <= pi/2")
    assert ok


def test_criterion_05_fourier_exactness(shift_corpus):
    t, coeffs, polys = shift_corpus
    grid = CircleGrid(128)
    worst = 0.0
    for c, s in zip(coeffs, polys):
        quad = gauge.fourier_coefficients(s, grid, t)
        worst = max(worst, float(np.max(np.abs(quad - c))))
    ok = worst < 1e-12
    report_line(5, ok, f"quadrature vs the coefficients of 50 polynomials: "
                f"max discrepancy={worst:.2e}")
    assert ok


def test_criterion_06_gauge_isometry_and_witnesses(shift_corpus):
    _, _, polys = shift_corpus
    grid = CircleGrid(64)
    drift = 0.0
    for s in polys:
        base = operator_norm(s)
        drift = max(drift, max(abs(operator_norm(gauge.gauge_conjugate(s, lam)) - base)
                               for lam in grid.nodes))
    rng = np.random.default_rng(6)
    u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    u /= np.linalg.norm(u)
    proj = np.outer(u, u.conj())
    dep = gauge.certify_no_gauge_linear_dependence([proj, proj @ proj])
    diag = np.diag(1.0 / (np.arange(8) + 1.0)).astype(complex)
    asym = gauge.certify_no_gauge_norm_scan([1.0, -1.0], [diag, diag @ diag],
                                            CircleGrid(64), margin=0.5)
    ratio_err = abs(asym.ratio - 8.0) if asym is not None else math.inf
    ok = (drift < 1e-9 and dep is not None and dep.kind == "linear_dependence"
          and asym is not None and ratio_err <= 1e-12)
    report_line(6, ok, f"isometry drift={drift:.2e}; projection witness="
                f"{dep is not None}; diagonal ratio err={ratio_err:.2e}")
    assert ok


def test_criterion_07_norm_equivalence_and_inequivalence():
    rep = shift.equivalence(dim=32, nmax=100, seed=2026)
    bound_ok = rep.passed
    closed_ok = True
    for n in (1, 3, 16):
        demo = shift.inequivalence(nmax=n)
        target = math.sqrt(2.0 * n * n + 1.0) / math.sqrt(3.0)
        closed_ok = closed_ok and abs(demo.value("spread_image_norm") - target) <= 1e-12
    ratio_ok = True
    for n in (4, 16, 64):
        demo = shift.inequivalence(nmax=n)
        ratio_ok = ratio_ok and demo.value("ratio") >= math.sqrt(2.0 / 3.0) * math.sqrt(n)
    ok = bound_ok and closed_ok and ratio_ok
    report_line(7, ok, f"equivalence bound max ratio={rep.value('max_ratio'):.5f} <= "
                f"{rep.value('bound_constant'):.5f}; closed forms exact={closed_ok}; "
                f"growth ratios={ratio_ok}")
    assert ok


def test_criterion_08_ideal_machinery():
    neumann = run_experiment(ExperimentConfig("neumann", dim=32, nmax=20, seed=4040))
    worst = neumann.value("worst_relative_discrepancy")
    neumann_ok = neumann.passed
    additive_ok = True
    for trial in range(50):
        rng = np.random.default_rng([5050, trial])
        sides = []
        for _ in range(2):
            low = int(rng.integers(1, 5))
            degree = low + int(rng.integers(0, 5))
            coeffs = np.zeros(degree, dtype=complex)
            coeffs[low - 1] = 2.0 + (rng.standard_normal() + 1j * rng.standard_normal()) / 2.0
            if degree > low:
                coeffs[low:] = (rng.standard_normal(degree - low)
                                + 1j * rng.standard_normal(degree - low))
            sides.append(coeffs)
        # the truncated Cauchy product at N = 32; lowest indices of at most
        # 4 + 4 stay below the truncation
        r, s = sides
        prod = numkit.cauchy(shift._series(r, 32), shift._series(s, 32))[1:]
        j0, k0 = shift.lowest_index(r), shift.lowest_index(s)
        lead = r[j0 - 1] * s[k0 - 1]
        additive_ok = (additive_ok and shift.lowest_index(prod) == j0 + k0
                       and abs(prod[j0 + k0 - 1] - lead) <= 1e-10 * abs(lead))
    ok = neumann_ok and additive_ok
    report_line(8, ok, f"neumann sums reproduce powers (worst rel err {worst:.1e}); "
                f"lowest-index additivity on 50 pairs={additive_ok}")
    assert ok


def test_criterion_09_support_arithmetic():
    n = 240
    nil_ok = all(volterra.nilpotency_check(
        volterra.kernel_step([(alpha, 1.0, 1.0)], n), power, n)
        for alpha, power in ((0.5, 2), (0.25, 4), (1.0 / 3.0, 3)))
    titch_ok = True
    for i in range(1, 11):
        a = i / 20.0
        f = volterra.kernel_step([(a, 1.0, 1.0)], n)
        g = volterra.kernel_step([(1.0 - a, 1.0, 1.0)], n)
        alpha, beta = volterra.titchmarsh_alpha(f, g)
        titch_ok = titch_ok and alpha + beta >= 1.0 - 2.0 / n
    errors = []
    for dim in (128, 256, 512):
        # certified: power iteration stops short in the residual's clustered
        # top singular values
        f = volterra.kernel_monomial(-0.5, dim)
        target = volterra.kernel_constant(math.pi, dim)
        errors.append(numkit.certified_toeplitz_norm(
            target.mu - numkit.cauchy(f.mu, f.mu))[0])
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    homo_ok = all(1.5 <= r <= 3.0 for r in ratios)
    ok = nil_ok and titch_ok and homo_ok
    report_line(9, ok, f"band nilpotency exact={nil_ok}; 10 zero-divisor pairs "
                f"complementary={titch_ok}; homomorphism halving ratios="
                f"{[f'{r:.2f}' for r in ratios]}")
    assert ok


def test_criterion_10_muntz_no_gauge():
    rep = volterra.muntz(dim=1000, nmax=12)
    eps = rep.value("sup_fit_error")
    sigma = rep.value("operator_discrepancy")
    margin = rep.value("contradiction_margin")
    ok = eps <= 0.1 and sigma <= eps + 5.0 / 1000.0 and margin > 1.0
    report_line(10, ok, f"degree-12 fit eps={eps:.4f} <= 0.1; operator gap "
                f"{sigma:.2e} <= eps + 5/N; contradiction margin={margin:.1f}")
    assert ok


def sqrt_growth_check(dims, sigmas, mus):
    """Criterion 11 on one kernel: sigma_N strictly increasing, squeezed
    between the l2 and l1 masses of the first column mu, with growth exponent
    log(sigma_last / sigma_first) / log(N_last / N_first) within 0.05 of 1/2."""
    increasing = all(b > a for a, b in zip(sigmas, sigmas[1:]))
    lower = [float(np.linalg.norm(mu)) for mu in mus]
    upper = [float(np.abs(mu).sum()) for mu in mus]
    squeezed = all(lo <= s <= up for lo, s, up in zip(lower, sigmas, upper))
    exponent = math.log(sigmas[-1] / sigmas[0]) / math.log(dims[-1] / dims[0])
    sqrt_rate = abs(exponent - 0.5) <= 0.05
    detail = (f"sigmas={[f'{s:.6f}' for s in sigmas]} strictly increasing={increasing}; "
              f"|mu|_2={[f'{x:.2f}' for x in lower]} <= sigma <= "
              f"|mu|_1={[f'{x:.2f}' for x in upper]}: {squeezed}; "
              f"exponent p={exponent:.4f}, |p - 0.5| <= 0.05: {sqrt_rate}")
    return increasing and squeezed and sqrt_rate, detail


def test_criterion_11_unbounded_witness_as_stated():
    dims = (64, 128, 256)
    rep = volterra.unbounded_witness(dim=dims[-1])
    sigmas = [rep.value(f"sigma_dim_{n}") for n in dims]
    witness_ok, witness = sqrt_growth_check(
        dims, sigmas, [volterra.kernel_singular32(n).mu for n in dims])
    # Negative control: the bounded kernel 1 has sigma_N -> 2/pi, and must fail.
    control = [volterra.kernel_constant(1.0, n) for n in dims]
    control_sigmas = [operator_norm(volterra.build_vf(f, n).matrix.entries)
                      for f, n in zip(control, dims)]
    control_ok, bounded = sqrt_growth_check(dims, control_sigmas, [f.mu for f in control])
    ok = witness_ok and not control_ok
    report_line(11, ok, f"(1-x)^(-3/2): {witness} -> {witness_ok} (must be True); "
                f"control const:1: {bounded} -> {control_ok} (must be False)")
    assert ok


def test_criterion_12_infrastructure():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 129))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, abs(operator_norm(a) - svd_oracle(a)))
    oracle_ok = worst < 1e-9

    corpus = []
    v128 = volterra.build_vf(volterra.kernel_constant(1.0, 128), 128).matrix.entries
    corpus.append(v128)
    corpus.append(v128 @ v128)
    corpus.append(volterra.build_vf(volterra.kernel_notell1(5, 128), 128).matrix.entries)
    corpus.append(volterra.build_vf(volterra.kernel_singular32(128), 128).matrix.entries)
    t = shift.build_shift(shift.harmonic_weights(64), 64)
    corpus.append(shift.polynomial_in(t, shift.random_polynomial(t, seed=12, trial=0)))
    compression_ok = True
    for a in corpus:
        n = a.shape[0]
        norms = [operator_norm(a[:m, :m]) for m in (n // 4, n // 2, n)]
        compression_ok = compression_ok and all(
            x <= y + 1e-10 for x, y in zip(norms, norms[1:]))

    args = [sys.executable, "-m", "opalg.cli", "equivalence", "--dim", "16",
            "--nmax", "10", "--seed", "99", "--format", "json"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    determinism_ok = (first.returncode == 0 and first.stdout == second.stdout
                      and len(first.stdout) > 0)

    ok = oracle_ok and compression_ok and determinism_ok
    report_line(12, ok, f"power-iteration vs Jacobi worst gap={worst:.2e} on 100 "
                f"matrices; compression monotone={compression_ok}; CLI byte-exact="
                f"{determinism_ok}")
    assert ok
