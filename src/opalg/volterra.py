"""The Volterra convolution algebra at grid discretization.

A kernel f on [0, 1] acts by causal convolution; collocating at the midpoints
x_i = (i + 1/2) h and integrating f exactly over each collocation window
turns the operator into the lower-triangular Toeplitz matrix with entries
mu_{i-j}, where

    mu_0 = integral of f over [0, h/2),
    mu_k = integral of f over [(k - 1/2) h, (k + 1/2) h)   for k >= 1.

The scheme is exact on piecewise-constant kernels and inputs (which covers
the step kernels the norm experiments need) and first-order accurate in
general.  An element is its first column mu, a product is the truncated Cauchy
product of the cell arrays (`convolve`), so support arithmetic holds bit for
bit, and a norm is `sigma_max`.  Dense matrices appear only below sigma_max's
crossover, in `nilpotency_check` (through `build_vf`, which tests also use)
and in the corner of `ideal_restriction_check`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numkit import ComplexMatrix, cauchy, find_root, operator_norm, toeplitz_operator_norm
from .report import ExperimentReport

MAX_DENSE_DIM = 4096  # memory guard of build_vf
# Largest grid sigma_max iterates on densely; dense and FFT matvecs tie at
# N = 240-288 with one BLAS thread (the measured table is in CHANGES.md).
SIGMA_MAX_DENSE_DIM = 256

MODE_EXACT = "exact-cell-integral"
MODE_MIDPOINT = "midpoint-sample"


def _window(k: int, h: float):
    """Collocation window for cell k: [max(0,(k-1/2)h), (k+1/2)h)."""
    return (max(0.0, (k - 0.5) * h), (k + 0.5) * h)


@dataclass(frozen=True)
class SampledKernel:
    """A kernel represented by exact (or midpoint-sampled) cell integrals.

    mu[k] is the signed integral over window k, abs_cells[k] the integral of
    |f|, sharp_cells[k] the integral of |f|^2 (1-t) -- the cellwise pieces of
    the squared Hilbert-Schmidt norm of the convolution operator.  When the
    kernel is piecewise constant, `pieces` holds the (start, end, value)
    description and all cell data is exact.
    """

    grid_size: int
    mode: str
    mu: np.ndarray
    abs_cells: np.ndarray
    sharp_cells: np.ndarray
    pieces: tuple | None = None

    def __post_init__(self):
        for name in ("mu", "abs_cells", "sharp_cells"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid_size,):
                raise ValueError(f"{name} must have length {self.grid_size}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite cell integrals in {name}")
            object.__setattr__(self, name, arr)

    @property
    def h(self) -> float:
        return 1.0 / self.grid_size

    @property
    def support_start(self) -> float:
        """Smallest grid point below which all cells vanish (1.0 if all do)."""
        nz = np.nonzero(self.mu)[0]
        if nz.size == 0:
            return 1.0
        return float(nz[0]) * self.h

    def l1_partial(self, x: float) -> float:
        """Mass of |f| over [0, x]; exact when pieces are available."""
        if self.pieces is not None:
            total = 0.0
            for a, b, v in self.pieces:
                total += abs(v) * max(0.0, min(b, x) - a)
            return total
        total = 0.0
        for k in range(self.grid_size):
            lo, hi = _window(k, self.h)
            if hi <= x:
                total += self.abs_cells[k]
            elif lo < x:
                total += self.abs_cells[k] * (x - lo) / (hi - lo)
        return total

    @property
    def l1_total(self) -> float:
        return float(np.sum(self.abs_cells))


def _window_edges(n: int):
    h = 1.0 / n
    k = np.arange(n)
    return np.maximum(0.0, (k - 0.5) * h), (k + 0.5) * h


def kernel_from_antiderivatives(F, F_abs, F_sharp, n: int,
                                pieces=None, mode=MODE_EXACT) -> SampledKernel:
    """Exact cells from antiderivatives of f, |f| and |f|^2 (1-t)."""
    edges_lo, edges_hi = _window_edges(n)
    mu = F(edges_hi) - F(edges_lo)
    absc = F_abs(edges_hi) - F_abs(edges_lo)
    sharp = F_sharp(edges_hi) - F_sharp(edges_lo)
    return SampledKernel(n, mode, mu, absc, sharp, pieces)


def kernel_constant(c: float, n: int) -> SampledKernel:
    pieces = ((0.0, 1.0, float(c)),)
    return kernel_step(pieces, n)


def kernel_step(pieces, n: int) -> SampledKernel:
    """Piecewise-constant kernel from disjoint (start, end, value) pieces."""
    cleaned = []
    for a, b, v in pieces:
        a, b, v = float(a), float(b), float(v)
        if not 0.0 <= a < b <= 1.0:
            raise ValueError(f"piece [{a}, {b}) is not inside [0, 1]")
        cleaned.append((a, b, v))
    cleaned.sort()
    for (_, b1, _), (a2, _, _) in zip(cleaned, cleaned[1:]):
        if b1 > a2 + 1e-15:
            raise ValueError("overlapping pieces")
    edges_lo, edges_hi = _window_edges(n)
    mu = np.zeros(n)
    absc = np.zeros(n)
    sharp = np.zeros(n)
    # The windows are sorted, so the cells whose window meets [a, b) are the
    # slice from the first window ending after a to the last one starting
    # before b.  Every overlap in it has positive length; every cell outside
    # it would only receive an exact zero.
    starts = np.searchsorted(edges_hi, [a for a, _, _ in cleaned], side="right")
    stops = np.searchsorted(edges_lo, [b for _, b, _ in cleaned], side="left")
    for (a, b, v), i, j in zip(cleaned, starts, stops):
        cells = slice(i, j)
        lo = np.maximum(edges_lo[cells], a)
        hi = np.minimum(edges_hi[cells], b)
        length = hi - lo
        mu[cells] += v * length
        absc[cells] += abs(v) * length
        # exact integral of v^2 (1 - t) over each overlap
        sharp[cells] += v * v * ((1.0 - lo) ** 2 - (1.0 - hi) ** 2) / 2.0
    return SampledKernel(n, MODE_EXACT, mu, absc, sharp, tuple(cleaned))


def kernel_power(p: int, n: int) -> SampledKernel:
    """u^p / p!, the kernel of the (p+1)-st power of plain integration."""
    if p < 0:
        raise ValueError("power must be nonnegative")
    fact = math.factorial(p)
    F = lambda u: u ** (p + 1) / ((p + 1) * fact)
    F_sharp = lambda u: (u ** (2 * p + 1) / (2 * p + 1)
                         - u ** (2 * p + 2) / (2 * p + 2)) / fact**2
    return kernel_from_antiderivatives(F, F, F_sharp, n)


def kernel_monomial(a: float, n: int) -> SampledKernel:
    """u^a for a > -1 (fractional powers allowed); exact cells in closed form."""
    if a <= -1.0:
        raise ValueError("exponent must exceed -1 for integrable cells")
    F = lambda u: u ** (a + 1.0) / (a + 1.0)
    if 2.0 * a > -1.0:
        F_sharp = lambda u: (u ** (2 * a + 1.0) / (2 * a + 1.0)
                             - u ** (2 * a + 2.0) / (2 * a + 2.0))
    else:
        # |f|^2 is not integrable at 0; leave the sharp cells empty
        F_sharp = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return kernel_from_antiderivatives(F, F, F_sharp, n)


def kernel_polynomial(coeffs, n: int) -> SampledKernel:
    """c_0 + c_1 u + ... with real coefficients; signed and squared cells exact."""
    c = np.asarray(coeffs, dtype=float)
    intc = np.concatenate([[0.0], c / (np.arange(len(c)) + 1.0)])
    sq = np.polynomial.polynomial.polymul(c, c)
    sq_weighted = np.polynomial.polynomial.polysub(sq, np.concatenate([[0.0], sq]))
    int_sq = np.concatenate([[0.0], sq_weighted / (np.arange(len(sq_weighted)) + 1.0)])
    F = lambda u: np.polynomial.polynomial.polyval(u, intc)
    F_sharp = lambda u: np.polynomial.polynomial.polyval(u, int_sq)
    kern = kernel_from_antiderivatives(F, F, F_sharp, n)
    # |f| cells are not available in closed form for sign-changing polynomials;
    # fall back to |mu| (a lower bound, exact while f keeps one sign per cell)
    return SampledKernel(n, MODE_EXACT, kern.mu, np.abs(kern.mu), kern.sharp_cells)


def kernel_notell1(m: int, n: int) -> SampledKernel:
    """The truncated series of blocks (2^j / j) on [1 - 2^(1-j), 1 - 2^(-j)).

    Each block carries l1 mass 1/j, so the partial masses grow harmonically
    while the Hilbert-Schmidt mass stays summable: the operator is bounded
    although the kernel leaves L^1 as m grows.  Requires n a power of two
    with n >= 2^m so the block boundaries are grid-aligned and all cell data
    is exact.
    """
    if m < 1:
        raise ValueError("block count must be positive")
    if n & (n - 1) or n < 2**m:
        raise ValueError(f"grid size must be a power of two >= 2^{m}")
    pieces = []
    for j in range(1, m + 1):
        pieces.append((1.0 - 2.0 ** (1 - j), 1.0 - 2.0 ** (-j), 2.0**j / j))
    return kernel_step(pieces, n)


def kernel_singular32(n: int) -> SampledKernel:
    """(1 - x)^(-3/2): the integrable-kernel witness whose operator is unbounded.

    Cells are exact via the antiderivative 2 (1-x)^(-1/2); the collocation
    windows stop at 1 - h/2, so every cell is finite at any grid size.
    """
    F = lambda u: 2.0 / np.sqrt(1.0 - u)
    F_sharp = lambda u: 1.0 / (1.0 - u)  # integral of (1-x)^(-3) (1-x)
    return kernel_from_antiderivatives(F, F, F_sharp, n)


def parse_kernel_spec(spec: str, n: int) -> SampledKernel:
    """Kernel mini-language:
    const:c | poly:c0,c1,... | powern:p | step:a,b,v;a,b,v;... |
    notell1:m | singular32
    """
    spec = spec.strip()
    if spec == "singular32":
        return kernel_singular32(n)
    if spec.startswith("const:"):
        return kernel_constant(float(spec.split(":", 1)[1]), n)
    if spec.startswith("poly:"):
        coeffs = [float(p) for p in spec.split(":", 1)[1].split(",")]
        return kernel_polynomial(coeffs, n)
    if spec.startswith("powern:"):
        return kernel_power(int(spec.split(":", 1)[1]), n)
    if spec.startswith("notell1:"):
        return kernel_notell1(int(spec.split(":", 1)[1]), n)
    if spec.startswith("step:"):
        pieces = []
        for chunk in spec.split(":", 1)[1].split(";"):
            a, b, v = chunk.split(",")
            pieces.append((float(a), float(b), float(v)))
        return kernel_step(pieces, n)
    raise ValueError(f"unknown kernel spec {spec!r}")


@dataclass(frozen=True)
class VolterraDiscretization:
    """Lower-triangular Toeplitz matrix with the kernel cells down column 0."""

    kernel: SampledKernel
    dim: int
    matrix: ComplexMatrix


def _toeplitz(mu: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column mu."""
    idx = np.subtract.outer(np.arange(len(mu)), np.arange(len(mu)))
    return np.where(idx >= 0, mu[np.maximum(idx, 0)], 0.0)


def build_vf(f: SampledKernel, n: int) -> VolterraDiscretization:
    """Materialize the convolution matrix for a kernel on the same grid."""
    if f.grid_size != n:
        raise ValueError(f"kernel lives on a grid of size {f.grid_size}, not {n}")
    if n > MAX_DENSE_DIM:
        raise ValueError(
            f"dim {n} exceeds the dense guard {MAX_DENSE_DIM}; "
            "use sigma_max on the kernel's cells")
    return VolterraDiscretization(f, n, ComplexMatrix(_toeplitz(f.mu)))


def sigma_max(mu, tol: float | None = None) -> float:
    """Largest singular value of the convolution matrix with first column mu:
    `operator_norm` up to SIGMA_MAX_DENSE_DIM cells, `toeplitz_operator_norm`
    above, both at operator_norm's defaults (tol max(1e-13, 4 eps N), 3 restarts)."""
    mu = np.asarray(mu)
    if tol is None:
        tol = max(1e-13, 4.0 * np.finfo(float).eps * len(mu))
    if len(mu) <= SIGMA_MAX_DENSE_DIM:
        return operator_norm(_toeplitz(mu), tol=tol)
    return toeplitz_operator_norm(mu, tol=tol, restarts=3)


def convolve(f: SampledKernel, g: SampledKernel) -> SampledKernel:
    """Causal convolution at cell level: the Cauchy product of the cell arrays.

    By the Toeplitz band identity, build_vf(convolve(f, g)) equals
    build_vf(f) @ build_vf(g) to rounding, so operator products and kernel
    convolutions agree exactly at scheme level.  A p-fold product is a chain
    of p - 1 calls, truncated to the grid after every factor.  The result
    approximates the true f*g cells to first order and is tagged as sampled,
    not exact.
    """
    if f.grid_size != g.grid_size:
        raise ValueError("kernels live on different grids")
    n = f.grid_size
    mu = cauchy(f.mu, g.mu)
    absc = cauchy(f.abs_cells, g.abs_cells)
    centers = np.maximum(np.arange(n), 0.25) * (1.0 / n)
    widths = np.full(n, 1.0 / n)
    widths[0] = 0.5 / n
    sharp = np.abs(mu) ** 2 / widths * (1.0 - centers)
    return SampledKernel(n, MODE_MIDPOINT, mu, absc, sharp)


def hs_norm(f: SampledKernel) -> float:
    """The Hilbert-Schmidt norm of the convolution operator: the square root
    of the integral of |f(t)|^2 (1 - t), accumulated cell by cell."""
    return math.sqrt(float(np.sum(f.sharp_cells)))


def frobenius_norm(v: VolterraDiscretization) -> float:
    mu = v.kernel.mu
    n = v.dim
    return math.sqrt(float(np.sum((n - np.arange(n)) * np.abs(mu) ** 2)))


def power_kernel_check(p: int, n: int) -> ExperimentReport:
    """Compare the (p+1)-st power of plain integration, a chain of p cell
    convolutions, against the direct discretization of its closed-form kernel
    u^p / p!; the gap must shrink when the grid is refined."""
    if p > 8:
        raise ValueError("power capped at 8")
    rep = ExperimentReport("power-kernel", {"p": p, "dim": n})
    errs = {}
    for dim in (n, 2 * n):
        power = functools.reduce(cauchy, [kernel_constant(1.0, dim).mu] * (p + 1))
        errs[dim] = sigma_max(power - kernel_power(p, dim).mu)
        rep.add(f"error_dim_{dim}", errs[dim])
    if p == 0:
        rep.check("schemes_identical", errs[n] < 1e-15)
    else:
        rep.check("error_shrinks_when_refined", errs[2 * n] < errs[n])
    return rep


def l1_norm_bound_check(f: SampledKernel, n: int) -> ExperimentReport:
    """sigma_max of the convolution matrix never exceeds the l1 cell mass."""
    if f.grid_size != n:
        raise ValueError(f"kernel lives on a grid of size {f.grid_size}, not {n}")
    bound = float(np.sum(np.abs(f.mu)))
    sigma = sigma_max(f.mu)
    rep = ExperimentReport("l1-bound", {"dim": n, "mode": f.mode})
    rep.add("sigma_max", sigma)
    rep.add("l1_cell_mass", bound)
    rep.check("sigma_within_l1_mass", sigma <= bound + 1e-10)
    return rep


def v2_exact():
    """Norm of the square of plain integration, via its transcendental equation.

    The least positive root of cosh(eta) cos(eta) + 1 = 0 (the clamped-beam
    value 1.8751...) gives the norm as eta^(-2).  The bracket is found by an
    upward scan in steps of 0.1.
    """
    f = lambda x: math.cosh(x) * math.cos(x) + 1.0
    lo = 0.1
    while f(lo) * f(lo + 0.1) > 0.0:
        lo += 0.1
        if lo > 100.0:
            raise RuntimeError("no sign change found in the scan")
    sol = find_root(f, (lo, lo + 0.1), 1e-12)
    return sol.root, sol.root ** (-2)


def power_norm_table(n_max: int, n: int) -> ExperimentReport:
    """c_p = p! * sigma_max(V^p) for p = 1..n_max at grid size n.

    The classical limit of c_p is 1/2; the table must decrease strictly
    through p = 8 and land c_8 in [0.45, 0.6].
    """
    if n_max > 12:
        raise ValueError("n_max capped at 12 (factorial growth outruns the grid)")
    if n < 512:
        raise ValueError("need at least 512 grid points for an honest trend")
    rep = ExperimentReport("power-norms", {"dim": n, "n_max": n_max})
    powers = itertools.accumulate([kernel_constant(1.0, n).mu] * n_max, cauchy)
    values = []
    for p, power in enumerate(powers, 1):
        c = math.factorial(p) * sigma_max(power)
        values.append(c)
        rep.add(f"c_{p:02d}", c)
    upto = min(8, n_max)
    rep.check("strictly_decreasing_through_8",
              all(values[i + 1] < values[i] for i in range(upto - 1)))
    if n_max >= 8:
        rep.check("c8_in_expected_band", 0.45 <= values[7] <= 0.6)
    return rep


def nilpotency_check(f: SampledKernel, p: int, n: int) -> bool:
    """True iff the p-th power of the convolution matrix is exactly zero.

    Band arithmetic guarantees this whenever p * floor(alpha * n) >= n for a
    kernel supported above alpha: the zero band widths add under products,
    with no rounding involved.
    """
    v = build_vf(f, n).matrix.entries
    power = np.linalg.matrix_power(v, p)
    return bool(np.all(power == 0.0))


def nilpotent_approximation(f: SampledKernel, delta: float):
    """Truncate f below delta, giving a nilpotent neighbour with an l1 bound.

    Returns (truncated kernel, bound) with guarantee
    sigma_max(V_f - V_h) <= bound, the mass removed below delta.
    """
    n = f.grid_size
    d = delta * n
    if abs(d - round(d)) > 1e-9:
        raise ValueError(f"delta = {delta} is not a grid point at n = {n}")
    d = int(round(d))
    if d == 0:
        return f, 0.0
    if d >= n:
        zero = SampledKernel(n, MODE_EXACT, np.zeros(n), np.zeros(n),
                             np.zeros(n), tuple() if f.pieces is not None else None)
        return zero, f.l1_partial(1.0)
    if f.pieces is not None:
        clipped = [(max(a, delta), b, v) for a, b, v in f.pieces if b > delta]
        if clipped:
            h_kernel = kernel_step(clipped, n)
        else:
            h_kernel = SampledKernel(n, MODE_EXACT, np.zeros(n), np.zeros(n),
                                     np.zeros(n), tuple())
        bound = f.l1_partial(delta)
    else:
        mu = f.mu.copy()
        absc = f.abs_cells.copy()
        sharp = f.sharp_cells.copy()
        # window d straddles delta: keep its upper half (midpoint split)
        removed = float(np.sum(absc[:d]) + 0.5 * absc[d])
        mu[:d] = 0.0
        absc[:d] = 0.0
        sharp[:d] = 0.0
        mu[d] *= 0.5
        absc[d] *= 0.5
        sharp[d] *= 0.5
        h_kernel = SampledKernel(n, f.mode, mu, absc, sharp)
        bound = removed
    diff = f.mu - h_kernel.mu
    if np.sum(np.abs(diff)) > bound + 1e-10:
        raise RuntimeError("removed mass exceeds the certified bound")
    return h_kernel, bound


def titchmarsh_alpha(f: SampledKernel, g: SampledKernel, tol: float = 1e-10):
    """From a numerically vanishing convolution, recover complementary
    support starts: alpha + beta >= 1 - 2/N on the grid."""
    n = f.grid_size
    sigma = sigma_max(convolve(f, g).mu)
    if sigma >= tol:
        raise ValueError(
            f"convolution is not numerically zero: sigma_max = {sigma}")
    alpha = f.support_start
    beta = g.support_start
    if alpha + beta < 1.0 - 2.0 / n:
        raise RuntimeError(
            f"support starts {alpha} + {beta} fall short of 1 - 2/N")
    return alpha, beta


def muntz_no_gauge_demo(degree: int, n: int, fit_points: int = 1000) -> ExperimentReport:
    """Approximate the kernel of V^2 by higher powers and measure the clash.

    Least-squares fits p(x) = sum_{j=2}^degree a_j x^j to x on a uniform
    grid (explicit QR path), so ||V^2 - sum_j j! a_j V^(j+1)|| <= sup|x - p|.
    Powers of x starting at x^2 approximate x uniformly well (Muentz-Szasz),
    yet any circle-grading would pin the coefficient of V^2 at 1 and force
    ||V^2|| <= sup|x - p|; the reported margin ||V^2|| / eps quantifies the
    contradiction.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    xs = np.linspace(0.0, 1.0, fit_points)
    basis = np.column_stack([xs**j for j in range(2, degree + 1)])
    q, r = np.linalg.qr(basis)
    rdiag = np.abs(np.diag(r))
    if rdiag.min() < 1e-13 * rdiag.max():
        raise RuntimeError(
            f"ill-conditioned monomial fit: diagonal ratio {rdiag.min() / rdiag.max()}")
    coeffs = np.linalg.solve(r, q.T @ xs)
    eps = float(np.max(np.abs(xs - basis @ coeffs)))
    powers = list(itertools.accumulate([kernel_constant(1.0, n).mu] * (degree + 1),
                                       cauchy))  # powers[j] is V^(j+1)
    combo = sum(math.factorial(j) * coeffs[j - 2] * powers[j]
                for j in range(2, degree + 1))
    sigma = sigma_max(powers[1] - combo)
    eta, v2norm = v2_exact()
    rep = ExperimentReport("muntz-no-gauge", {"degree": degree, "dim": n,
                                              "fit_points": fit_points})
    for j, a in zip(range(2, degree + 1), coeffs):
        rep.add(f"coefficient_{j:02d}", a)
    rep.add("sup_fit_error", eps)
    rep.add("operator_discrepancy", sigma)
    rep.add("operator_bound", eps + 5.0 / n)
    rep.add("v2_norm_exact", v2norm)
    rep.add("contradiction_margin", v2norm / eps)
    rep.check("operator_discrepancy_within_bound", sigma <= eps + 5.0 / n)
    rep.check("margin_exceeds_one", v2norm / eps > 1.0)
    return rep


def ideal_restriction_check(f: SampledKernel, x0: float, g: SampledKernel) -> ExperimentReport:
    """Kernels vanishing below x0 absorb products: supp(g*f) stays above x0.

    Also reports the norm of the corner compression P V_f P (P projecting on
    [0, x0]), which vanishes for members and separates non-members, and
    checks that the compression only sees the kernel below x0.
    """
    n = f.grid_size
    d = x0 * n
    if abs(d - round(d)) > 1e-9:
        raise ValueError(f"x0 = {x0} is not a grid point at n = {n}")
    d = int(round(d))
    if f.support_start < x0 - 1e-15:
        nz = int(np.nonzero(f.mu)[0][0])
        raise ValueError(
            f"membership violated: cell {nz} below x0 = {x0} is nonzero")
    conv = convolve(g, f)
    rep = ExperimentReport("ideal-restriction", {"x0": x0, "dim": n})
    rep.add("f_support_start", f.support_start)
    rep.add("product_support_start", conv.support_start)
    rep.check("product_stays_above_x0", conv.support_start >= x0 - 1e-15)
    if d > 0:
        corner = _toeplitz(f.mu)[:d, :d]
        rep.add("compression_norm", sigma_max(f.mu[:d]))
        # the compression reads only cells below x0: replacing f by its
        # truncation to [0, x0] leaves the corner bitwise unchanged
        corner_lo = _toeplitz(np.concatenate([f.mu[:d], np.zeros(n - d)]))[:d, :d]
        rep.add("compression_equality_residual",
                float(np.max(np.abs(corner - corner_lo))))
        rep.check("compression_sees_only_low_cells",
                  np.array_equal(corner, corner_lo))
    else:
        rep.add("compression_norm", 0.0)
        rep.check("trivial_projection_passes", True)
    return rep


def unbounded_witness_check(n_list) -> ExperimentReport:
    """Track sigma_max of the (1-x)^(-3/2) discretization across grid sizes.

    The kernel of the square -- the double integral of |k_f| -- is exactly 2,
    yet the image of the constant function leaves L^2, so the discretized
    norms must climb without bound as the grid resolves the singularity.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("grid sizes must increase")
    rep = ExperimentReport("unbounded-witness", {"dims": ",".join(map(str, n_list))})
    sigmas = []
    for n in n_list:
        sigma = sigma_max(kernel_singular32(n).mu)
        sigmas.append(sigma)
        rep.add(f"sigma_dim_{n}", sigma)
    rep.add("kf_double_integral", 2.0)  # closed form: 2 int (1-x)^(-1/2) - 2 dx
    rep.add("final_over_initial", sigmas[-1] / sigmas[0])
    rep.check("strictly_increasing",
              all(b > a for a, b in zip(sigmas, sigmas[1:])))
    rep.check("growth_ratio_exceeds_4", sigmas[-1] / sigmas[0] > 4.0)
    return rep
