"""The Volterra convolution algebra at grid discretization.

A kernel f on [0, 1] acts by causal convolution; collocating at the midpoints
x_i = (i + 1/2) h and integrating f exactly over each collocation window
turns the operator into the lower-triangular Toeplitz matrix with entries
mu_{i-j}, where

    mu_0 = integral of f over [0, h/2),
    mu_k = integral of f over [(k - 1/2) h, (k + 1/2) h)   for k >= 1.

The scheme is exact on piecewise-constant kernels and inputs, the step
kernels the norm experiments need; the cells inside one piece are one float
on any grid, so a piece is one constant run.  Elsewhere its order depends on
the kernel: the squared constant kernel of `v2norm` converges at order 2 (the
errors at 250, 500 and 1000 cells fall by a factor of 4 per doubling), the
u^(-1/2) self-convolution of `titchmarsh` at order 1 (halving ratios of 2).
An element is its first column mu, a product is the truncated Cauchy product
of columns (`numkit.cauchy`), so support arithmetic holds bit for bit, and a
norm is `sigma_max`, by power iteration.  `titchmarsh`'s ladder alone takes
its norms as the lower end of a bracket certified from the column
(`numkit.certified_toeplitz_norm`, one N x N buffer and no matrix, up to
N = 2370).  Dense matrices appear only below sigma_max's crossover: in
`nilpotency_check` (through `build_vf`, which tests also use) and in
sigma_max's norms.

The claim functions `v2norm`, `littlereade`, `notell1`, `titchmarsh`,
`muntz`, `nilpotent_density` and `unbounded_witness` are the `opalg`
experiments of the same names: their keyword parameters are the options each
reads, with its defaults.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numkit import (ComplexMatrix, _check_tol, cauchy, certified_toeplitz_norm,
                     find_root, operator_norm, toeplitz_operator_norm)
from .report import ExperimentReport

MAX_DENSE_DIM = 4096  # memory guard of build_vf
# Largest grid sigma_max iterates on densely; dense and FFT matvecs tie at
# N = 240-288 with one BLAS thread (the measured table is in CHANGES.md).
SIGMA_MAX_DENSE_DIM = 256


@dataclass(frozen=True)
class SampledKernel:
    """A kernel as its cells: mu[k] is the signed integral of f over
    collocation window k (exact for the kernel constructors, one float per
    step piece's whole windows, the truncated Cauchy product for products).
    A piecewise-constant kernel keeps its (start, end, value) `pieces`, which
    give its l1 and Hilbert-Schmidt masses in closed form."""

    mu: np.ndarray
    pieces: tuple | None = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise ValueError(f"mu must be a vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("non-finite cell integrals in mu")
        object.__setattr__(self, "mu", mu)

    @property
    def grid_size(self) -> int:
        return len(self.mu)

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
        """Mass of |f| over [0, x], exact from the pieces; only a
        piecewise-constant kernel has one here."""
        if self.pieces is None:
            raise ValueError("l1_partial needs a kernel with pieces")
        total = 0.0
        for a, b, v in self.pieces:
            total += abs(v) * max(0.0, min(b, x) - a)
        return total


def _window_edges(n: int):
    """Collocation windows [max(0, (k-1/2)h), (k+1/2)h) for k < n."""
    h = 1.0 / n
    k = np.arange(n)
    return np.maximum(0.0, (k - 0.5) * h), (k + 0.5) * h


def kernel_from_antiderivative(F, n: int) -> SampledKernel:
    """Exact cells from an antiderivative F of f."""
    edges_lo, edges_hi = _window_edges(n)
    return SampledKernel(F(edges_hi) - F(edges_lo))


def kernel_constant(c: float, n: int) -> SampledKernel:
    pieces = ((0.0, 1.0, float(c)),)
    return kernel_step(pieces, n)


def kernel_step(pieces, n: int) -> SampledKernel:
    """Piecewise-constant kernel from disjoint (start, end, value) pieces.

    A cell whose window lies inside a piece [a, b) gets v h, one float for
    every such cell.  The at most two cells the piece covers in part, and
    cell 0, get v (min(b, (k + 1/2) h) - max(a, (k - 1/2) h)): v h/2 on a
    whole cell 0.  A piece's cells are found by bisecting the closed-form
    window edges of `_window_edges`, the same floats; pieces add in order.
    """
    cleaned = sorted((float(a), float(b), float(v)) for a, b, v in pieces)
    for a, b, _ in cleaned:
        if not 0.0 <= a < b <= 1.0:
            raise ValueError(f"piece [{a}, {b}) is not inside [0, 1]")
    for (a1, b1, _), (a2, b2, _) in zip(cleaned, cleaned[1:]):
        if b1 > a2:
            raise ValueError(f"pieces [{a1}, {b1}) and [{a2}, {b2}) overlap")
    h = 1.0 / n
    lo = lambda k: max(0.0, (k - 0.5) * h)
    hi = lambda k: (k + 0.5) * h
    mu = np.zeros(n)
    for a, b, v in cleaned:
        # the windows of cells [i, j) meet [a, b); those of [p, q), cell 0 aside, lie in it
        i = bisect.bisect_right(range(n), a, key=hi)
        j = bisect.bisect_left(range(n), b, key=lo)
        if i == j:  # the piece starts past the last window
            continue
        p, q = max(1, i + (lo(i) < a)), j - (hi(j - 1) > b)
        for k in {i, j - 1}:
            if not p <= k < q:
                mu[k] += v * (min(b, hi(k)) - max(a, lo(k)))
        mu[p:q] += v * h
    return SampledKernel(mu, tuple(cleaned))


def kernel_power(p: int, n: int) -> SampledKernel:
    """u^p / p!, the kernel of the (p+1)-st power of plain integration."""
    if p < 0:
        raise ValueError("power must be nonnegative")
    fact = math.factorial(p)
    return kernel_from_antiderivative(lambda u: u ** (p + 1) / ((p + 1) * fact), n)


def kernel_monomial(a: float, n: int) -> SampledKernel:
    """u^a for a > -1 (fractional powers allowed); exact cells in closed form."""
    if a <= -1.0:
        raise ValueError("exponent must exceed -1 for integrable cells")
    return kernel_from_antiderivative(lambda u: u ** (a + 1.0) / (a + 1.0), n)


def kernel_polynomial(coeffs, n: int) -> SampledKernel:
    """c_0 + c_1 u + ... with real coefficients; exact cells."""
    c = np.asarray(coeffs, dtype=float)
    intc = np.concatenate([[0.0], c / (np.arange(len(c)) + 1.0)])
    return kernel_from_antiderivative(
        lambda u: np.polynomial.polynomial.polyval(u, intc), n)


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
    return kernel_from_antiderivative(lambda u: 2.0 / np.sqrt(1.0 - u), n)


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
            piece = chunk.split(",")
            if len(piece) != 3:
                raise ValueError(f"step piece {chunk!r} is not of the form a,b,v")
            pieces.append(tuple(float(x) for x in piece))
        return kernel_step(pieces, n)
    raise ValueError(f"unknown kernel spec {spec!r}")


@dataclass(frozen=True)
class VolterraDiscretization:
    """Lower-triangular Toeplitz matrix with the kernel cells down column 0."""

    matrix: ComplexMatrix


def _toeplitz(mu: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column mu, written
    diagonal by diagonal into a zeroed matrix, the only N x N array made."""
    n = len(mu)
    t = np.zeros((n, n), dtype=np.result_type(mu, 0.0))
    for k in range(n):
        t.reshape(-1)[k * n::n + 1] = mu[k]  # the k-th diagonal below the main one
    return t


def build_vf(f: SampledKernel, n: int) -> VolterraDiscretization:
    """Materialize the convolution matrix for a kernel on the same grid."""
    if f.grid_size != n:
        raise ValueError(f"kernel lives on a grid of size {f.grid_size}, not {n}")
    if n > MAX_DENSE_DIM:
        raise ValueError(
            f"dim {n} exceeds the dense guard {MAX_DENSE_DIM}; "
            "use sigma_max on the kernel's cells")
    return VolterraDiscretization(ComplexMatrix(_toeplitz(f.mu)))


def sigma_max(mu) -> float:
    """Largest singular value of the convolution matrix with first column mu:
    `operator_norm` up to SIGMA_MAX_DENSE_DIM cells and
    `toeplitz_operator_norm` above, both at tol max(1e-13, 4 eps N) with
    3 restarts."""
    mu = np.asarray(mu)
    if len(mu) > SIGMA_MAX_DENSE_DIM:
        return toeplitz_operator_norm(mu)
    return operator_norm(_toeplitz(mu))


def hs_norm(f: SampledKernel) -> float:
    """The Hilbert-Schmidt norm of the convolution operator, the root of
    the integral of |f(t)|^2 (1 - t) over the windows, which stop at
    e = (N - 1/2) h: `math.fsum` over the pieces, b' = min(b, e), of
    v^2 ((1 - a)^2 - (1 - b')^2) / 2 = v^2 (b' - a) ((1 - a) + (1 - b')) / 2,
    a product of nonnegative factors with no cancellation.  Only a
    piecewise-constant kernel has one here."""
    if f.pieces is None:
        raise ValueError("hs_norm needs a kernel with pieces")
    e = (f.grid_size - 0.5) * f.h
    return math.sqrt(math.fsum(v * v * (min(b, e) - a) * ((1.0 - a) + (1.0 - min(b, e))) / 2.0
                               for a, b, v in f.pieces if a < e))


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
    eta = find_root(f, (lo, lo + 0.1), 1e-12)
    return eta, eta ** (-2)


def v2norm(*, dim: int = 1000) -> ExperimentReport:
    """Norm of the squared integration operator against its transcendental
    value, on the grid ladder dim/4, dim/2, dim."""
    if dim < 4:
        raise ValueError(f"the ladder dim/4, dim/2, dim needs dim at least 4, got {dim}")
    eta, nrm = v2_exact()
    rep = ExperimentReport("v2norm", {"dim": dim})
    rep.add("eta0", eta)
    rep.add("eta0_residual", abs(math.cosh(eta) * math.cos(eta) + 1.0))
    rep.add("norm_exact", nrm)
    rep.check("root_residual_small", abs(math.cosh(eta) * math.cos(eta) + 1.0) < 1e-10)
    errors = []
    for n in (dim // 4, dim // 2, dim):
        v = kernel_constant(1.0, n)
        sigma = sigma_max(cauchy(v.mu, v.mu))
        errors.append(abs(sigma - nrm))
        rep.add(f"sigma_sq_dim_{n}", sigma)
        rep.add(f"error_dim_{n}", errors[-1])
    rep.check("errors_strictly_decreasing",
              all(b < a for a, b in zip(errors, errors[1:])))
    rep.check("final_error_within_1e-2", errors[-1] <= 1e-2)
    return rep


def littlereade(*, dim: int = 1024, nmax: int = 8) -> ExperimentReport:
    """c_p = p! * sigma_max(V^p) for p = 1..nmax at grid size dim.

    The classical limit of c_p is 1/2; the table must decrease strictly
    through p = 8 and land c_8 in [0.45, 0.6].
    """
    if nmax > 12:
        raise ValueError("nmax capped at 12 (factorial growth outruns the grid)")
    if dim < 512:
        raise ValueError("need at least 512 grid points for an honest trend")
    rep = ExperimentReport("power-norms", {"dim": dim, "nmax": nmax})
    powers = itertools.accumulate([kernel_constant(1.0, dim).mu] * nmax, cauchy)
    values = []
    for p, power in enumerate(powers, 1):
        c = math.factorial(p) * sigma_max(power)
        values.append(c)
        rep.add(f"c_{p:02d}", c)
    upto = min(8, nmax)
    rep.check("strictly_decreasing_through_8",
              all(values[i + 1] < values[i] for i in range(upto - 1)))
    if nmax >= 8:
        rep.check("c8_in_expected_band", 0.45 <= values[7] <= 0.6)
    return rep


def notell1(*, dim: int | None = None, nmax: int = 20) -> ExperimentReport:
    """The summable-blocks kernel with nmax blocks on a grid of dim cells
    (2^nmax by default): divergent l1 mass, finite operator norm."""
    m = nmax
    n = 2**m if dim is None else dim
    tol = 1e-9
    # from n = 2^23 on the norm cannot resolve tol: say so before the kernel takes n cells
    _check_tol(tol, n)
    f = kernel_notell1(m, n)
    harmonic_sum = math.fsum(1.0 / k for k in range(1, m + 1))
    square_sum = 1.5 * math.fsum(1.0 / (k * k) for k in range(1, m + 1))
    l1 = f.l1_partial(1.0 - 2.0 ** (-m))
    sharp_sq = hs_norm(f) ** 2
    sigma = toeplitz_operator_norm(f.mu, tol=tol, restarts=2)
    rep = ExperimentReport("notell1", {"dim": n, "nmax": m})
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
    if f.pieces is not None:
        clipped = [(max(a, delta), b, v) for a, b, v in f.pieces if b > delta]
        h_kernel = kernel_step(clipped, n)
        bound = f.l1_partial(delta)
    else:
        # window d straddles delta (none does at d = n): keep its upper half
        absc = np.abs(f.mu)
        bound = float(np.sum(absc[:d]) + 0.5 * np.sum(absc[d:d + 1]))
        mu = f.mu.copy()
        mu[:d] = 0.0
        mu[d:d + 1] *= 0.5
        h_kernel = SampledKernel(mu)
    diff = f.mu - h_kernel.mu
    if np.sum(np.abs(diff)) > bound + 1e-10:
        raise RuntimeError("removed mass exceeds the certified bound")
    return h_kernel, bound


def nilpotent_density(*, dim: int = 200, nmax: int = 10,
                      kernel: str | None = None) -> ExperimentReport:
    """Truncating a kernel (const:1 unless one is given) below the cutoff
    1/nmax yields a nilpotent neighbour of index nmax."""
    if dim % nmax != 0:
        raise ValueError("dim must be divisible by nmax so the cutoff is a grid point")
    delta = 1.0 / nmax
    f = parse_kernel_spec("const:1" if kernel is None else kernel, dim)
    h_kernel, bound = nilpotent_approximation(f, delta)
    diff = sigma_max(f.mu - h_kernel.mu)
    params = {"dim": dim, "nmax": nmax, "kernel": kernel}
    rep = ExperimentReport("nilpotent-density",
                           {k: v for k, v in params.items() if v is not None})
    rep.add("cutoff", delta)
    rep.add("removed_mass_bound", bound)
    rep.add("operator_distance", diff)
    rep.add("nilpotency_index", nmax)
    rep.check("distance_within_bound", diff <= bound + 1e-10)
    rep.check("truncation_is_nilpotent", nilpotency_check(h_kernel, nmax, dim))
    return rep


def titchmarsh_alpha(f: SampledKernel, g: SampledKernel):
    """From a numerically vanishing convolution (sigma_max below 1e-10),
    recover complementary support starts: alpha + beta >= 1 - 2/N on the grid."""
    n = f.grid_size
    sigma = sigma_max(cauchy(f.mu, g.mu))
    if sigma >= 1e-10:
        raise ValueError(
            f"convolution is not numerically zero: sigma_max = {sigma}")
    alpha = f.support_start
    beta = g.support_start
    if alpha + beta < 1.0 - 2.0 / n:
        raise RuntimeError(
            f"support starts {alpha} + {beta} fall short of 1 - 2/N")
    return alpha, beta


def titchmarsh(*, dim: int = 240) -> ExperimentReport:
    """Support arithmetic: zero divisors, band nilpotency, product-convolution
    consistency across the grid refinement ladder dim/2, dim, 2 dim.

    The ladder's rows are the norms of the homomorphism residual (the column
    of pi minus the self-convolution of u^(-1/2)), each the lower end of
    `certified_toeplitz_norm`'s bracket, within CERTIFIED_TOL = 1e-8 of the
    norm.  Its top singular values cluster (relative gap 3e-5 at N = 240,
    8e-6 at 480), where power iteration stops short by more than its
    tolerance (2.0e-5 at N = 480 at tol 1e-8).  The rungs are computed
    largest first, so that one past the certificate's resolution (N > 2370,
    a dim of 1200 or more) is refused before any other work.
    """
    if dim % 60 != 0:
        raise ValueError("titchmarsh experiment needs a dim divisible by 60")
    errors = {}
    for n in (2 * dim, dim, dim // 2):
        f = kernel_monomial(-0.5, n)
        target = kernel_constant(math.pi, n)
        errors[n] = certified_toeplitz_norm(target.mu - cauchy(f.mu, f.mu))[0]
    rep = ExperimentReport("titchmarsh", {"dim": dim})
    ok = True
    for i in range(1, 11):
        a = i / 20.0
        f = kernel_step([(a, 1.0, 1.0)], dim)
        g = kernel_step([(1.0 - a, 1.0, 1.0)], dim)
        alpha, beta = titchmarsh_alpha(f, g)
        rep.add(f"alpha_plus_beta_{i:02d}", alpha + beta)
        ok = ok and alpha + beta >= 1.0 - 2.0 / dim
    rep.check("support_starts_complementary", ok)
    trio_ok = True
    for alpha, power in ((0.5, 2), (0.25, 4), (1.0 / 3.0, 3)):
        f = kernel_step([(alpha, 1.0, 1.0)], dim)
        hit = nilpotency_check(f, power, dim)
        rep.add(f"nilpotent_alpha_{alpha:.4f}_n_{power}", 1.0 if hit else 0.0)
        trio_ok = trio_ok and hit
    rep.check("band_nilpotency_exact", trio_ok)
    for n in (dim // 2, dim, 2 * dim):
        rep.add(f"homomorphism_error_dim_{n}", errors[n])
    ratios = [errors[n] / errors[2 * n] for n in (dim // 2, dim)]
    for i, ratio in enumerate(ratios):
        rep.add(f"homomorphism_halving_ratio_{i}", ratio)
    rep.check("homomorphism_error_halves",
              all(1.5 <= ratio <= 3.0 for ratio in ratios))
    return rep


def muntz(*, dim: int = 1000, nmax: int = 12) -> ExperimentReport:
    """Approximate the kernel of V^2 by higher powers and measure the clash.

    Least-squares fits p(x) = sum_{j=2}^nmax a_j x^j to x on 1000 uniform
    points (explicit QR path), so ||V^2 - sum_j j! a_j V^(j+1)|| <= sup|x - p|.
    Powers of x starting at x^2 approximate x uniformly well (Muentz-Szasz),
    yet any circle-grading would pin the coefficient of V^2 at 1 and force
    ||V^2|| <= sup|x - p|; the reported margin ||V^2|| / eps quantifies the
    contradiction.
    """
    if nmax < 2:
        raise ValueError("nmax (the fit degree) must be at least 2")
    xs = np.linspace(0.0, 1.0, 1000)
    basis = np.column_stack([xs**j for j in range(2, nmax + 1)])
    q, r = np.linalg.qr(basis)
    rdiag = np.abs(np.diag(r))
    if rdiag.min() < 1e-13 * rdiag.max():
        raise ValueError(
            f"ill-conditioned monomial fit: diagonal ratio {rdiag.min() / rdiag.max()}")
    coeffs = np.linalg.solve(r, q.T @ xs)
    eps = float(np.max(np.abs(xs - basis @ coeffs)))
    powers = list(itertools.accumulate([kernel_constant(1.0, dim).mu] * (nmax + 1),
                                       cauchy))  # powers[j] is V^(j+1)
    combo = sum(math.factorial(j) * coeffs[j - 2] * powers[j]
                for j in range(2, nmax + 1))
    sigma = sigma_max(powers[1] - combo)
    _, v2 = v2_exact()
    rep = ExperimentReport("muntz-no-gauge", {"dim": dim, "nmax": nmax})
    for j, a in zip(range(2, nmax + 1), coeffs):
        rep.add(f"coefficient_{j:02d}", a)
    rep.add("sup_fit_error", eps)
    rep.add("operator_discrepancy", sigma)
    rep.add("operator_bound", eps + 5.0 / dim)
    rep.add("v2_norm_exact", v2)
    rep.add("contradiction_margin", v2 / eps)
    rep.check("operator_discrepancy_within_bound", sigma <= eps + 5.0 / dim)
    rep.check("margin_exceeds_one", v2 / eps > 1.0)
    return rep


def unbounded_witness(*, dim: int = 256) -> ExperimentReport:
    """Track sigma_max of the (1-x)^(-3/2) discretization on the grid ladder
    dim/4, dim/2, dim.

    The kernel of the square -- the double integral of |k_f| -- is exactly 2,
    yet the image of the constant function leaves L^2, so the discretized
    norms must climb without bound as the grid resolves the singularity.
    """
    if dim < 4:
        raise ValueError(f"the ladder dim/4, dim/2, dim needs dim at least 4, got {dim}")
    rep = ExperimentReport("unbounded-witness", {"dim": dim})
    sigmas = []
    for n in (dim // 4, dim // 2, dim):
        sigma = sigma_max(kernel_singular32(n).mu)
        sigmas.append(sigma)
        rep.add(f"sigma_dim_{n}", sigma)
    rep.add("kf_double_integral", 2.0)  # closed form: 2 int (1-x)^(-1/2) - 2 dx
    rep.add("final_over_initial", sigmas[-1] / sigmas[0])
    rep.check("strictly_increasing",
              all(b > a for a, b in zip(sigmas, sigmas[1:])))
    rep.check("growth_ratio_exceeds_4", sigmas[-1] / sigmas[0] > 4.0)
    return rep
