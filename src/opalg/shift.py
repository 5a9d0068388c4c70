"""The weighted-shift algebra at finite truncation.

The generator is the one-band lower-triangular matrix T e_n = a_n e_{n+1}
(T e_{N-1} = 0); T^k is the single band T^k[j+k, j] = a_j ... a_{j+k-1}, so
T^N = 0.  At truncation N the map sum_k c_k T^k -> (c_1, ..., c_{N-1}) is an
algebra isomorphism onto x C[x]/(x^N), so an element here is its coefficient
vector c, entry k-1 holding the coefficient of T^k.  Products are truncated
Cauchy products (`numkit.cauchy`, of `_series`), the lowest index is the
first nonzero entry, and `polynomial_in` lays an element (or a stack of
them) down as a matrix, band by band, only where a norm or a matrix
comparison needs one.  The operations here verify norm (in)equivalence
between ||S|| and ||S e_0||, quasinilpotence of the weight family, and the
ideal structure through Neumann-series factors (every nonzero element
generates the same closed ideal as the power T^k at its lowest
coefficient).  The claim functions `equivalence`, `inequivalence`, `neumann`
and `quasinilpotence` are the `opalg` experiments of those names: their
keyword parameters are the options each reads, with its defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import _EPS, _block_rows, _rescaled, cauchy, operator_norm
from .report import ExperimentReport

HARMONIC = "harmonic"
GEOMETRIC = "geometric"
ONES = "ones"
EXPLICIT = "explicit"

@dataclass(frozen=True)
class WeightSequence:
    """A materialized prefix of the shift weights plus family metadata.

    l2_mass is the l2 norm M of the *full* family (closed form for the named
    families, the prefix's norm for explicit lists, inf for ones).
    """

    family: str
    values: np.ndarray
    l2_mass: float
    monotone_decreasing: bool

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("weights must be a nonempty vector")
        zeros = np.flatnonzero(vals == 0)
        if zeros.size:
            # a geometric weight r^k rounds to exactly 0 once r^k <= 2^-1075
            raise ValueError(
                f"zero weight encountered at index {zeros[0]}: at most {zeros[0]} "
                f"{self.family} weights can be built")
        object.__setattr__(self, "values", vals)

    def materialized(self, count: int) -> np.ndarray:
        if count > self.values.size:
            raise ValueError(
                f"only {self.values.size} weights materialized, need {count}")
        return self.values[:count]


def _is_decreasing(values) -> bool:
    """|a_0| >= |a_1| >= ..., up to the rounding of the moduli.  With
    u = eps/2, a complex modulus is within one ulp, 2u relative, of the exact
    one in the normal range (a real one is exact), so |a_{k+1}| <= |a_k|
    leaves the computed m_{k+1} <= m_k (1 + 2u) / (1 - 2u) < m_k (1 + 2.01 eps),
    and fl(m_k (1 + 4 eps)) > m_k (1 + 3.4 eps) exceeds that."""
    mags = np.abs(values)
    return bool(np.all(mags[1:] <= mags[:-1] * (1.0 + 4.0 * _EPS)))


def harmonic_weights(count: int) -> WeightSequence:
    vals = 1.0 / (np.arange(count) + 1.0)
    return WeightSequence(HARMONIC, vals, math.sqrt(math.pi**2 / 6.0), True)


def geometric_weights(r: float, count: int) -> WeightSequence:
    if not 0.0 < r < 1.0:
        raise ValueError("geometric ratio must lie in (0, 1)")
    vals = r ** np.arange(count)
    return WeightSequence(GEOMETRIC, vals, math.sqrt(1.0 / (1.0 - r * r)), True)


def ones_weights(count: int) -> WeightSequence:
    return WeightSequence(ONES, np.ones(count), math.inf, True)


def explicit_weights(values) -> WeightSequence:
    """M = sqrt(sum |a_k|^2), summed on the moduli scaled by the power of two
    `numkit._rescaled` takes out of an operand: no square overflows, and
    wherever none of the unscaled ones over- or underflows, M has the bits of
    the unscaled sum's root."""
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:  # before `_rescaled`'s reductions, which have no identity
        raise ValueError("weights must be a nonempty vector")
    mags, (e,) = _rescaled(np.abs(vals)[None])
    return WeightSequence(EXPLICIT, vals, math.ldexp(math.sqrt(float(np.sum(mags**2))), e),
                          _is_decreasing(vals))


def parse_weight_spec(spec: str, count: int) -> WeightSequence:
    """Weight mini-language: list:a0,a1,... | harmonic | geometric:r | ones."""
    spec = spec.strip()
    if spec == HARMONIC:
        return harmonic_weights(count)
    if spec == ONES:
        return ones_weights(count)
    if spec.startswith("geometric:"):
        return geometric_weights(float(spec.split(":", 1)[1]), count)
    if spec.startswith("list:"):
        parts = spec.split(":", 1)[1].split(",")
        return explicit_weights([complex(p) for p in parts])
    raise ValueError(f"unknown weight spec {spec!r}")


@dataclass(frozen=True)
class ShiftTruncation:
    """N x N truncation of the weighted shift, with T^N = 0 exactly."""

    weights: WeightSequence
    dim: int

    def powers(self, d: int) -> np.ndarray:
        """T^1, ..., T^d as a (d, N, N) stack, the polynomials of the unit
        coefficient vectors; T^k is the zero matrix from k = N on."""
        return polynomial_in(self, np.eye(d))


def build_shift(weights: WeightSequence, n: int) -> ShiftTruncation:
    """Check the truncation can be laid down; ||T|| equals the largest |a_k| used."""
    if n < 2:
        raise ValueError("truncation dim must be at least 2")
    weights.materialized(n - 1)
    return ShiftTruncation(weights, n)


def _bands(t: ShiftTruncation, d: int):
    """Yield (flat cells, band) of T^k for k = 1..min(d, N - 1): the k-th
    subdiagonal (flat start k*N, step N + 1) holds band_k[j] = a_j ... a_{j+k-1}
    = band_{k-1}[j+1] * a_j, the products of the chain T^(k-1) T in its order."""
    n = t.dim
    band = a = t.weights.materialized(n - 1)
    for k in range(1, min(d, n - 1) + 1):
        yield slice(k * n, None, n + 1), band
        band = band[1:] * a[:n - k - 1]


def vector_norm_at_e0(s) -> float | list[float]:
    """||S e_0|| of one matrix or (a list) of each matrix of a stack, with the
    column scaled as `operator_norm` scales an operand (`numkit._rescaled`)."""
    s = np.asarray(s)
    cols, exponents = _rescaled(s[..., 0].reshape(-1, s.shape[-2]))
    norms = [float(np.ldexp(np.linalg.norm(col), e)) for col, e in zip(cols, exponents)]
    return norms if s.ndim == 3 else norms[0]


def polynomial_in(t: ShiftTruncation, coeffs) -> np.ndarray:
    """sum_k coeffs[..., k-1] * T^k, one band per term; terms from T^N on vanish.

    One element (coeffs of shape (d,)) is laid down as an N x N matrix, a stack
    of them (shape (..., d)) as (..., N, N), each matrix equal bit for bit to
    its element laid down alone.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros(coeffs.shape[:-1] + (t.dim, t.dim), dtype=complex)
    flat = out.reshape(coeffs.shape[:-1] + (-1,))
    for k, (cells, band) in enumerate(_bands(t, coeffs.shape[-1])):
        flat[..., cells] = coeffs[..., k, None] * band
    return out


def random_polynomial(t: ShiftTruncation, seed, trial: int, degree: int | None = None) -> np.ndarray:
    """Coefficients of a polynomial in T, i.i.d. standard complex Gaussian.

    The per-trial stream is derived deterministically from (seed, trial).
    """
    rng = np.random.default_rng([int(seed), int(trial)])
    d = t.dim - 1 if degree is None else min(degree, t.dim - 1)
    return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)


def equivalence(*, dim: int = 32, nmax: int = 100, weights: str = HARMONIC,
                seed: int = 0) -> ExperimentReport:
    """Sample nmax random polynomials in the dim x dim truncation and check
    ||S|| <= (M/|a_0|) ||S e_0||.

    Requires decreasing weights with finite squared l2 mass M^2; the bound
    constant is M/|a_0|.  The polynomials are laid down and normed as stacks,
    each as many N x N matrices as one power-iteration block holds
    (`numkit._block_rows`), so the family is never laid down whole.  Both
    norms scale out a power of two, so the ratios hold at any weight scale,
    but a p(T) with an overflowing band or a zero ||p(T) e_0|| is refused.
    """
    if nmax < 1:
        raise ValueError("nmax must be positive")
    t = build_shift(parse_weight_spec(weights, dim), dim)
    w = t.weights
    if not w.monotone_decreasing:
        raise ValueError("hypothesis violated: weights are not decreasing")
    if not math.isfinite(w.l2_mass):
        raise ValueError("hypothesis violated: squared l2 mass of the weights is infinite")
    bound = w.l2_mass / abs(complex(w.values[0]))
    rep = ExperimentReport("norm-equivalence",
                           {"dim": dim, "nmax": nmax, "weights": weights})
    rep.add("bound_constant", bound)
    ratios = []
    chunk = _block_rows(16 * dim * dim)
    for first in range(0, nmax, chunk):
        trials = range(first, min(first + chunk, nmax))
        # weights of 1e200 hold 1e400 in T^2: the overflow is named below
        with np.errstate(over="ignore", invalid="ignore"):
            family = polynomial_in(t, np.stack([random_polynomial(t, seed, k) for k in trials]))
        if not np.all(np.isfinite(family)) or 0.0 in (e0 := vector_norm_at_e0(family)):
            raise ValueError(f"p(T) at trials {trials[0]}..{trials[-1]} leaves the float range: a "
                             f"band overflows while it is laid down, or ||p(T) e_0|| is 0")
        ratios += [nrm / e0_norm for nrm, e0_norm in zip(operator_norm(family), e0)]
    for trial, ratio in enumerate(ratios):
        rep.add(f"ratio_{trial:03d}", ratio)
    worst = max(ratios)
    rep.add("max_ratio", worst)
    rep.check("all_ratios_within_bound", worst <= bound + 1e-10)
    return rep


def inequivalence(*, nmax: int = 3) -> ExperimentReport:
    """For unit weights, p_n(T) = T + ... + T^n (n = nmax) applied to the
    spread vector v_n = (e_0 + ... + e_{n-1})/sqrt(n) has norm
    sqrt(2n^2+1)/sqrt(3), while ||p_n(T) e_0|| = sqrt(n); the ratio grows like
    sqrt(2n/3), so the two norms are inequivalent.
    """
    if nmax < 1:
        raise ValueError("nmax must be positive")
    n, dim = nmax, 2 * nmax
    t = build_shift(ones_weights(dim), dim)
    p = polynomial_in(t, np.ones(n))
    v = np.zeros(dim, dtype=complex)
    v[:n] = 1.0 / math.sqrt(n)
    image_norm = float(np.linalg.norm(p @ v))
    closed_form = math.sqrt(2.0 * n * n + 1.0) / math.sqrt(3.0)
    e0_norm = vector_norm_at_e0(p)
    op_norm = operator_norm(p)
    ratio_bound = math.sqrt(2.0 / 3.0) * math.sqrt(n)
    rep = ExperimentReport("norm-inequivalence", {"nmax": nmax})
    rep.add("spread_image_norm", image_norm)
    rep.add("spread_image_closed_form", closed_form)
    rep.add("e0_image_norm", e0_norm)
    rep.add("e0_image_closed_form", math.sqrt(n))
    rep.add("operator_norm", op_norm)
    rep.add("ratio", op_norm / e0_norm)
    rep.add("ratio_lower_bound", ratio_bound)
    # With u = eps/2 and gamma_k = k u / (1 - k u) (Higham 2002, ch. 3):
    # 1/sqrt(n) is rounded twice (gamma_2); p holds zeros and ones, so each
    # entry of p @ v sums 2n nonnegative complex products with zero imaginary
    # parts, within gamma_{2n+2} of itself; `np.linalg.norm` squares and sums
    # 2n entries (gamma_{2n} under the root) and rounds the root once.  So
    # image_norm is within gamma_{4n+5} of ||p v||, and the closed form, whose
    # 2n^2 + 1 is exact below 2^53, within gamma_3.  Their gap is below
    # gamma_{4n+8} closed_form to first order; gamma_{4n+10} also covers the
    # second-order terms while (12n + 24) u <= 1.
    k = 4 * n + 10
    spread_slack = k * _EPS / 2 / (1 - k * _EPS / 2) * closed_form
    rep.check("spread_closed_form_matches", abs(image_norm - closed_form) <= spread_slack)
    # column 0 of p holds n ones: its squared sum is exactly n, and both roots round correctly
    rep.check("e0_closed_form_matches", e0_norm == math.sqrt(n))
    rep.check("ratio_exceeds_bound", op_norm / e0_norm >= ratio_bound - 1e-10)
    return rep


def quasinilpotence(*, nmax: int = 8, weights: str = HARMONIC) -> ExperimentReport:
    """beta_n = sup_{k <= 64} |a_{k+1} ... a_{k+n}|^(1/n) for n = 1..nmax.

    beta_n -> 0 characterizes quasinilpotent weighted shifts.  Requires
    decreasing weights: the sup is then reached at k = 0, so beta_n is the
    geometric mean of |a_1| ... |a_n| and the profile cannot increase; for
    unit weights it is identically 1.  Products accumulate in the log domain.
    """
    k_max = 64
    count = k_max + nmax + 1
    w = parse_weight_spec(weights, count)
    if not w.monotone_decreasing:
        raise ValueError("hypothesis violated: weights are not decreasing")
    vals = w.materialized(count)
    logs = np.log(np.abs(vals))
    cums = np.concatenate([[0.0], np.cumsum(logs)])
    betas = []
    for n in range(1, nmax + 1):
        # products a_{k+1}..a_{k+n} = exp(cums[k+n+1] - cums[k+1]), k = 0..k_max
        spans = cums[n + 1:k_max + n + 2] - cums[1:k_max + 2]
        betas.append(float(np.exp(np.max(spans) / n)))
    rep = ExperimentReport("quasinilpotence", {"nmax": nmax, "weights": weights})
    for n, beta in enumerate(betas, start=1):
        rep.add(f"beta_{n:02d}", beta)
    if w.family == ONES:
        rep.check("profile_constant_one",
                  all(abs(b - 1.0) < 1e-12 for b in betas))
    else:
        # beta_n = exp(x_n), x_n a difference of two prefix sums of the logs
        # over n.  With u = eps/2 and gamma_k = k u / (1 - k u) (Higham 2002,
        # ch. 3): a log is within 7u (|log|a_k|| + 1) of log|a_k| (a modulus
        # within one ulp, the log within two), a prefix sum of count of them
        # within gamma_{count+7} L, L the sum of |log| + 1 over the count
        # logs, and x_n within gamma_{2 count+16} L / n.  With exp within two
        # ulps (L / n > 1 absorbs them), beta_n is within
        # g_n = gamma_{2 count+24} L / n relative.  The exact profile cannot
        # increase, so beta_{n+1} stays below beta_n (1 + g_n) / (1 - g_n),
        # which is below beta_n (1 + 3 g_n) while g_n < 1/3.
        k = 2 * count + 24
        spread = k * _EPS / 2 / (1 - k * _EPS / 2) * float(np.sum(np.abs(logs) + 1.0))
        decreasing = all(betas[n] <= betas[n - 1] * (1.0 + 3.0 * spread / n)
                         for n in range(1, len(betas)))
        rep.check("profile_decreasing", decreasing)
    return rep


def lowest_index(c) -> int | None:
    """k of the first nonzero coefficient (that of T^k); None for zero."""
    nonzero = np.flatnonzero(c)
    return int(nonzero[0]) + 1 if nonzero.size else None


def _series(c, n: int) -> np.ndarray:
    """Coefficient vector c as the power series sum_k c_k x^k mod x^n."""
    c = np.asarray(c, dtype=complex)[:n - 1]
    out = np.zeros(n, dtype=complex)
    out[1:c.size + 1] = c
    return out


def neumann_factor_check(coeffs, k: int, t: ShiftTruncation) -> ExperimentReport:
    """Certify <S> = <T^k> by summing the finite Neumann series.

    S = sum_j coeffs[j-1] T^j factors as lead T^k Q, where Q has coefficients
    coeffs[k+j-1] / lead on T^j and unit constant term.  R = I - Q has no
    constant term, so it is nilpotent at truncation, and Q + Q R + Q R^2 + ...
    terminates and telescopes to I: (S / lead)(I + R + R^2 + ...) = T^k.  The
    chain runs as Cauchy products on the N - k coefficients of Q and ends in
    exact zeros; the sum is compared with T^k band by band (`_bands`), with
    no matrix laid down.
    """
    n = t.dim
    coeffs = np.asarray(coeffs, dtype=complex)[:n - 1]
    low = lowest_index(coeffs)
    if low != k:
        raise ValueError(f"lowest nonzero coefficient is {low}, not k={k}")
    lead = coeffs[k - 1]
    q = _series(coeffs[k:] / lead, n - k)
    q[0] = 1.0
    r = -q
    r[0] = 0.0
    acc, term = q.copy(), q
    for _ in range(n - k - 1):  # R^(N-k) = 0 at this length
        term = cauchy(term, r)
        acc += term
    bands = [band for _, band in _bands(t, n - 1)][k - 1:]  # T^k, T^(k+1), ...
    scale = float(np.max(np.abs(bands[0])))
    acc[0] -= 1.0  # exactly 0: the sum's T^k cancels, and each later band stands alone
    delta = float(np.max(np.abs(np.repeat(acc, [b.size for b in bands]) * np.concatenate(bands))))
    rep = ExperimentReport("neumann-factor", {"k": k, "dim": n})
    rep.add("normalization_magnitude", abs(lead))
    rep.add("target_scale", scale)
    rep.add("max_discrepancy", delta)
    rep.add("relative_discrepancy", delta / scale if scale > 0 else math.inf)
    rep.check("neumann_sum_equals_power", delta <= 1e-12 * scale)
    return rep


def neumann(*, dim: int = 32, nmax: int = 20, weights: str = HARMONIC,
            seed: int = 0) -> ExperimentReport:
    """Neumann-series factor certificates (`neumann_factor_check`) on nmax
    random polynomials with lowest index k in {1, 2, 3}."""
    if dim < 4:
        raise ValueError(f"neumann draws k up to 3, so dim must be at least 4, got {dim}")
    t = build_shift(parse_weight_spec(weights, dim), dim)
    rep = ExperimentReport("neumann", {"dim": dim, "nmax": nmax, "weights": weights})
    all_ok = True
    worst = 0.0
    for trial in range(nmax):
        rng = np.random.default_rng([int(seed), trial])
        k = int(rng.integers(1, 4))
        degree = k + int(rng.integers(1, 7))
        coeffs = np.zeros(degree, dtype=complex)
        coeffs[k - 1] = 1.0
        extra = (rng.standard_normal(degree - k)
                 + 1j * rng.standard_normal(degree - k)) / math.sqrt(2.0)
        coeffs[k:] = extra
        sub = neumann_factor_check(coeffs, k, t)
        # np.maximum, not max: max(0.0, nan) is 0.0 and would hide a NaN
        worst = float(np.maximum(worst, sub.value("relative_discrepancy")))
        all_ok = all_ok and sub.passed
    rep.add("trials", nmax)
    rep.add("worst_relative_discrepancy", worst)
    rep.check("all_neumann_sums_reproduce_powers", all_ok)
    return rep

