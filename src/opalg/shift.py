"""The weighted-shift algebra at finite truncation.

The generator is the one-band lower-triangular matrix T e_n = a_n e_{n+1}
(T e_{N-1} = 0); T^k is the single band T^k[j+k, j] = a_j ... a_{j+k-1}, so
T^N = 0.  At truncation N the map sum_k c_k T^k -> (c_1, ..., c_{N-1}) is an
algebra isomorphism onto x C[x]/(x^N), so an element here is its coefficient
vector c, entry k-1 holding the coefficient of T^k.  Products are truncated
Cauchy products (`numkit.cauchy`), the lowest index is the first nonzero
entry, and `polynomial_in` lays an element down as a matrix, band by band,
only where a norm or a matrix comparison needs one.  The operations here
verify norm (in)equivalence between ||S|| and ||S e_0||, quasinilpotence of
the weight family, and the ideal structure (every nonzero element generates
the same closed ideal as the power T^k at its lowest coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import cauchy, operator_norm
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

    def powers(self, d: int) -> list:
        """[T^1, ..., T^d] as plain arrays; T^k is the zero matrix from k = N on."""
        out = [np.zeros((self.dim, self.dim), dtype=complex) for _ in range(d)]
        for p, (cells, band) in zip(out, _bands(self, d)):
            p.flat[cells] = band
        return out


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


def vector_norm_at_e0(s) -> float:
    """||S e_0||, the Hilbert-space norm of the first column."""
    return float(np.linalg.norm(np.asarray(s)[:, 0]))


def polynomial_in(t: ShiftTruncation, coeffs) -> np.ndarray:
    """sum_k coeffs[k-1] * T^k, one band per term; terms from T^N on vanish."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for c, (cells, band) in zip(coeffs, _bands(t, len(coeffs))):
        out.flat[cells] = c * band
    return out


def random_polynomial(t: ShiftTruncation, seed, trial: int, degree: int | None = None) -> np.ndarray:
    """Coefficients of a polynomial in T, i.i.d. standard complex Gaussian.

    The per-trial stream is derived deterministically from (seed, trial).
    """
    rng = np.random.default_rng([int(seed), int(trial)])
    d = t.dim - 1 if degree is None else min(degree, t.dim - 1)
    return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)


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
        s = polynomial_in(t, random_polynomial(t, seed, trial))
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


def product(r, s, n: int) -> np.ndarray:
    """Coefficients of R S at truncation n: the truncated Cauchy product."""
    return cauchy(_series(r, n), _series(s, n))[1:]


def neumann_factor_check(coeffs, k: int, t: ShiftTruncation) -> ExperimentReport:
    """Certify <S> = <T^k> by summing the finite Neumann series.

    S = sum_j coeffs[j-1] T^j factors as lead T^k Q, where Q has coefficients
    coeffs[k+j-1] / lead on T^j and unit constant term.  R = I - Q has no
    constant term, so it is nilpotent at truncation, and Q + Q R + Q R^2 + ...
    terminates and telescopes to I: (S / lead)(I + R + R^2 + ...) = T^k.  The
    chain runs as Cauchy products on the N - k coefficients of Q and ends in
    exact zeros; the sum is laid down once and compared with T^k.
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
    tk = t.powers(k)[k - 1]
    total = polynomial_in(t, np.concatenate([np.zeros(k - 1), acc]))
    delta = float(np.max(np.abs(total - tk)))
    scale = float(np.max(np.abs(tk)))
    rep = ExperimentReport("neumann-factor", {"k": k, "dim": n})
    rep.add("normalization_magnitude", abs(lead))
    rep.add("target_scale", scale)
    rep.add("max_discrepancy", delta)
    rep.add("relative_discrepancy", delta / scale if scale > 0 else math.inf)
    rep.check("neumann_sum_equals_power", delta <= 1e-12 * scale)
    return rep


def lowest_index_of_product(r, s, t: ShiftTruncation) -> ExperimentReport:
    """Check lowest-index additivity under multiplication.

    If the coefficient vectors r and s have lowest indices j0 and k0 with
    j0 + k0 < N, their truncated Cauchy product -- the coefficients of the
    operator product, as the homomorphism property tests pin -- has lowest
    index j0 + k0, with the product of the leading coefficients there; the
    algebra has no zero divisors below truncation depth.
    """
    n = t.dim
    r = np.asarray(r, dtype=complex)[:n - 1]
    s = np.asarray(s, dtype=complex)[:n - 1]
    j0 = lowest_index(r)
    k0 = lowest_index(s)
    if j0 is None or k0 is None:
        raise ValueError("zero factor")
    if j0 + k0 >= n:
        raise ValueError(
            f"lowest indices {j0} + {k0} reach truncation dim {n}; "
            "the product would be silently annihilated")
    prod = product(r, s, n)
    low = lowest_index(prod)
    lead_expected = r[j0 - 1] * s[k0 - 1]
    lead = prod[j0 + k0 - 1]
    rep = ExperimentReport("lowest-index-product", {"dim": n})
    rep.add("j0", j0)
    rep.add("k0", k0)
    rep.add("product_lowest_index", low if low is not None else -1)
    rep.add("leading_coefficient_error",
            abs(lead - lead_expected) / abs(lead_expected))
    rep.check("index_additive", low == j0 + k0)
    rep.check("leading_coefficient_multiplicative",
              abs(lead - lead_expected) <= 1e-10 * abs(lead_expected))
    return rep
