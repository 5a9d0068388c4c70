"""The weighted-shift algebra at finite truncation.

The generator is the one-band lower-triangular matrix T e_n = a_n e_{n+1}
(T e_{N-1} = 0), so T^N = 0 exactly and every polynomial in T is determined
by its action on e_0: the k-th coefficient sits at entry (k, 0) divided by
the weight product a_0 ... a_{k-1}.  The operations here verify norm
(in)equivalence between ||S|| and ||S e_0||, extreme points of the unit
ball, quasinilpotence of the weight family, and the ideal structure (every
nonzero element generates the same closed ideal as the power T^k at its
lowest coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauge import FourierSeries, default_threshold
from .numkit import ComplexMatrix, as_array, operator_norm
from .report import ExperimentReport

HARMONIC = "harmonic"
GEOMETRIC = "geometric"
ONES = "ones"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class WeightSequence:
    """A materialized prefix of the shift weights plus family metadata.

    l2_sum is the squared l2 mass of the *full* family (closed form for the
    named families, the prefix sum for explicit lists, inf for ones).
    """

    family: str
    values: np.ndarray
    l2_sum: float
    monotone_decreasing: bool
    ratio: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(vals == 0):
            raise ValueError("zero weight encountered")
        object.__setattr__(self, "values", vals)

    def materialized(self, count: int) -> np.ndarray:
        if count > self.values.size:
            raise ValueError(
                f"only {self.values.size} weights materialized, need {count}")
        return self.values[:count]


def _is_decreasing(values) -> bool:
    mags = np.abs(values)
    return bool(np.all(mags[:-1] >= mags[1:] - 1e-15))


def harmonic_weights(count: int) -> WeightSequence:
    vals = 1.0 / (np.arange(count) + 1.0)
    return WeightSequence(HARMONIC, vals, math.pi**2 / 6.0, True)


def geometric_weights(r: float, count: int) -> WeightSequence:
    if not 0.0 < r < 1.0:
        raise ValueError("geometric ratio must lie in (0, 1)")
    vals = r ** np.arange(count)
    return WeightSequence(GEOMETRIC, vals, 1.0 / (1.0 - r * r), True, ratio=r)


def ones_weights(count: int) -> WeightSequence:
    return WeightSequence(ONES, np.ones(count), math.inf, True)


def explicit_weights(values) -> WeightSequence:
    vals = np.asarray(values, dtype=complex)
    return WeightSequence(EXPLICIT, vals, float(np.sum(np.abs(vals) ** 2)),
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
    matrix: ComplexMatrix

    def powers(self, d: int) -> list:
        """[T^1, ..., T^d] as plain arrays."""
        t = self.matrix.entries
        out = [t]
        for _ in range(d - 1):
            out.append(out[-1] @ t)
        return out

    def weight_products(self) -> np.ndarray:
        """Products a_0...a_{k-1} for k = 1..N-1 (the e_0 column scales)."""
        return np.cumprod(self.weights.materialized(self.dim - 1))


def build_shift(weights: WeightSequence, n: int) -> ShiftTruncation:
    """Materialize the truncation; ||T|| equals the largest |a_k| used."""
    if n < 2:
        raise ValueError("truncation dim must be at least 2")
    vals = weights.materialized(n - 1)
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(1, n), np.arange(n - 1)] = vals
    return ShiftTruncation(weights, n, ComplexMatrix(m))


def vector_norm_at_e0(s) -> float:
    """||S e_0||, the Hilbert-space norm of the first column."""
    return float(np.linalg.norm(as_array(s)[:, 0]))


def column_coefficients(s, t: ShiftTruncation, threshold: float | None = None) -> FourierSeries:
    """Coefficients read off the e_0 column: coeff(k) = S[k,0] / (a_0...a_{k-1}).

    This is the band-extraction route, independent of circle quadrature, and
    exact for polynomials in T.
    """
    s = as_array(s)
    if s.shape[0] != t.dim:
        raise ValueError("operator and truncation dims differ")
    prods = t.weight_products()
    col = s[:, 0]
    coeffs = {k: complex(col[k] / prods[k - 1]) for k in range(1, t.dim)}
    tau = default_threshold(s) if threshold is None else float(threshold)
    return FourierSeries(coeffs, t.dim, tau)


def polynomial_in(t: ShiftTruncation, coeffs) -> np.ndarray:
    """sum_k coeffs[k-1] * T^k."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for c, p in zip(coeffs, t.powers(len(coeffs))):
        out += c * p
    return out


def random_polynomial(t: ShiftTruncation, seed, trial: int, degree: int | None = None) -> np.ndarray:
    """Polynomial with i.i.d. standard complex Gaussian coefficients.

    The per-trial stream is derived deterministically from (seed, trial).
    """
    rng = np.random.default_rng([int(seed), int(trial)])
    d = t.dim - 1 if degree is None else min(degree, t.dim - 1)
    coeffs = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)
    return polynomial_in(t, coeffs)


def norm_equivalence_report(t: ShiftTruncation, trials: int, seed) -> ExperimentReport:
    """Sample random polynomials and check ||S|| <= (M/|a_0|) ||S e_0||.

    Requires decreasing weights with finite squared l2 mass M^2; the bound
    constant is M/|a_0|.
    """
    w = t.weights
    if not w.monotone_decreasing:
        raise ValueError("hypothesis violated: weights are not decreasing")
    if not math.isfinite(w.l2_sum):
        raise ValueError("hypothesis violated: squared l2 mass of the weights is infinite")
    bound = math.sqrt(w.l2_sum) / abs(complex(w.values[0]))
    rep = ExperimentReport("norm-equivalence",
                           {"dim": t.dim, "trials": trials, "seed": seed,
                            "family": w.family})
    rep.add("bound_constant", bound)
    worst = 0.0
    for trial in range(trials):
        s = random_polynomial(t, seed, trial)
        ratio = operator_norm(s) / vector_norm_at_e0(s)
        rep.add(f"ratio_{trial:03d}", ratio)
        worst = max(worst, ratio)
    rep.add("max_ratio", worst)
    rep.check("all_ratios_within_bound", worst <= bound + 1e-10)
    return rep


def inequivalence_demo(n: int) -> ExperimentReport:
    """For unit weights, p_n(T) = T + ... + T^n applied to the spread vector
    v_n = (e_0 + ... + e_{n-1})/sqrt(n) has norm sqrt(2n^2+1)/sqrt(3), while
    ||p_n(T) e_0|| = sqrt(n); the ratio grows like sqrt(2n/3), so the two
    norms are inequivalent.
    """
    if n < 1:
        raise ValueError("n must be positive")
    dim = 2 * n
    t = build_shift(ones_weights(dim), dim)
    p = polynomial_in(t, np.ones(n))
    v = np.zeros(dim, dtype=complex)
    v[:n] = 1.0 / math.sqrt(n)
    image_norm = float(np.linalg.norm(p @ v))
    closed_form = math.sqrt(2.0 * n * n + 1.0) / math.sqrt(3.0)
    e0_norm = vector_norm_at_e0(p)
    op_norm = operator_norm(p)
    ratio_bound = math.sqrt(2.0 / 3.0) * math.sqrt(n)
    rep = ExperimentReport("norm-inequivalence", {"n": n, "dim": dim})
    rep.add("spread_image_norm", image_norm)
    rep.add("spread_image_closed_form", closed_form)
    rep.add("e0_image_norm", e0_norm)
    rep.add("e0_image_closed_form", math.sqrt(n))
    rep.add("operator_norm", op_norm)
    rep.add("ratio", op_norm / e0_norm)
    rep.add("ratio_lower_bound", ratio_bound)
    rep.check("spread_closed_form_matches", abs(image_norm - closed_form) < 1e-12)
    rep.check("e0_closed_form_matches", abs(e0_norm - math.sqrt(n)) < 1e-12)
    rep.check("ratio_exceeds_bound", op_norm / e0_norm >= ratio_bound - 1e-10)
    return rep


def extreme_point_check(s) -> bool:
    """Sufficient condition for extremality in the unit ball (decreasing
    weights): the operator norm and the e_0-image norm both equal 1."""
    return (abs(operator_norm(s) - 1.0) < 1e-9
            and abs(vector_norm_at_e0(s) - 1.0) < 1e-9)


def quasinilpotence_profile(weights: WeightSequence, n_max: int, k_max: int) -> ExperimentReport:
    """beta_n = sup_{k <= k_max} |a_{k+1} ... a_{k+n}|^(1/n) for n = 1..n_max.

    beta_n -> 0 characterizes quasinilpotent weighted shifts; the profile is
    expected to decrease for the harmonic and geometric families and to be
    identically 1 for unit weights.  Products accumulate in the log domain.
    """
    vals = weights.materialized(k_max + n_max + 1)
    logs = np.log(np.abs(vals))
    cums = np.concatenate([[0.0], np.cumsum(logs)])
    betas = []
    for n in range(1, n_max + 1):
        # products a_{k+1}..a_{k+n} = exp(cums[k+n+1] - cums[k+1]), k = 0..k_max
        spans = cums[n + 1:k_max + n + 2] - cums[1:k_max + 2]
        betas.append(float(np.exp(np.max(spans) / n)))
    rep = ExperimentReport("quasinilpotence",
                           {"family": weights.family, "n_max": n_max, "k_max": k_max})
    for n, beta in enumerate(betas, start=1):
        rep.add(f"beta_{n:02d}", beta)
    if weights.family in (HARMONIC, GEOMETRIC):
        decreasing = all(betas[i + 1] < betas[i] + 1e-15 for i in range(len(betas) - 1))
        rep.check("profile_decreasing", decreasing)
    elif weights.family == ONES:
        rep.check("profile_constant_one",
                  all(abs(b - 1.0) < 1e-12 for b in betas))
    return rep


def ideal_generator_index(s, t: ShiftTruncation, threshold: float | None = None) -> int:
    """Lowest k with |coeff(k)| above threshold: the ideal generated by S is
    the one generated by T^k."""
    series = column_coefficients(s, t, threshold)
    k = series.lowest_index()
    if k is None:
        raise ValueError("zero element: all coefficients below threshold")
    return k


def neumann_factor_check(s, k: int, t: ShiftTruncation) -> ExperimentReport:
    """Certify <S> = <T^k> by summing the finite Neumann series.

    With S normalized so coeff(k) = 1, write S = T^k (I - R); because R has
    no constant term it is nilpotent at truncation, so
    S + S R + S R^2 + ... terminates and telescopes to T^k exactly.
    """
    s = np.array(as_array(s), dtype=complex)
    series = column_coefficients(s, t)
    lead = series.coefficient(k)
    if abs(lead) <= series.threshold:
        raise ValueError(f"coefficient at k={k} is below threshold")
    low = series.lowest_index()
    if low != k:
        raise ValueError(f"lowest nonzero coefficient is {low}, not k={k}")
    s = s / lead
    n = t.dim
    coeffs = column_coefficients(s, t)
    # Q = sum_{j>=0} coeff(k+j) T^j has unit constant term; R = I - Q
    r = np.zeros((n, n), dtype=complex)
    powers = t.powers(max(1, n - 1 - k))
    for j in range(1, n - k):
        r -= coeffs.coefficient(k + j) * powers[j - 1]
    acc = s.copy()
    term = s.copy()
    for _ in range(n):
        term = term @ r
        if not np.any(term):
            break
        acc += term
    tk = t.powers(k)[k - 1]
    scale = float(np.max(np.abs(tk)))
    delta = float(np.max(np.abs(acc - tk)))
    rep = ExperimentReport("neumann-factor", {"k": k, "dim": n})
    rep.add("normalization_magnitude", abs(lead))
    rep.add("target_scale", scale)
    rep.add("max_discrepancy", delta)
    rep.add("relative_discrepancy", delta / scale if scale > 0 else math.inf)
    rep.check("neumann_sum_equals_power", delta <= 1e-12 * scale)
    return rep


def invariant_subspace_of_ideal(k: int, t: ShiftTruncation) -> np.ndarray:
    """Basis (as columns) of span{e_k, ..., e_{N-1}}, the invariant subspace
    matched to the closed ideal generated by T^k.

    Verifies T-invariance and that the e_0 images of T^k..T^{N-1} span it.
    """
    n = t.dim
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}]")
    basis = np.eye(n, dtype=complex)[:, k:]
    tm = t.matrix.entries
    # invariance: rows above k of T restricted to the span must vanish
    residual = float(np.max(np.abs(tm[:k, k:]))) if k > 0 else 0.0
    if residual > 1e-12:
        raise RuntimeError(f"subspace not T-invariant, residual {residual}")
    # the e_0 images of the monomial ideal basis hit every e_j, j >= k
    prods = t.weight_products()
    if np.any(prods[k - 1:] == 0):
        raise RuntimeError("weight product vanished; images do not span")
    return basis


def lowest_index_of_product(r, s, t: ShiftTruncation) -> ExperimentReport:
    """Check lowest-index additivity under multiplication.

    If R and S have lowest coefficients at j0 and k0 with j0 + k0 < N, then
    RS has lowest coefficient at j0 + k0 equal to the product of the leading
    coefficients; the algebra has no zero divisors below truncation depth.
    """
    r = as_array(r)
    s = as_array(s)
    sr = column_coefficients(r, t)
    ss = column_coefficients(s, t)
    j0 = sr.lowest_index()
    k0 = ss.lowest_index()
    if j0 is None or k0 is None:
        raise ValueError("zero factor")
    if j0 + k0 >= t.dim:
        raise ValueError(
            f"lowest indices {j0} + {k0} reach truncation dim {t.dim}; "
            "the product would be silently annihilated")
    prod = r @ s
    sp = column_coefficients(prod, t)
    low = sp.lowest_index()
    lead_expected = sr.coefficient(j0) * ss.coefficient(k0)
    lead = sp.coefficient(j0 + k0)
    rep = ExperimentReport("lowest-index-product", {"dim": t.dim})
    rep.add("j0", j0)
    rep.add("k0", k0)
    rep.add("product_lowest_index", low if low is not None else -1)
    rep.add("leading_coefficient_error",
            abs(lead - lead_expected) / abs(lead_expected))
    rep.check("index_additive", low == j0 + k0)
    rep.check("leading_coefficient_multiplicative",
              abs(lead - lead_expected) <= 1e-10 * abs(lead_expected))
    return rep
