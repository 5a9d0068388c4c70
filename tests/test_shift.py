"""Tests for the weighted-shift algebra module."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg import shift
from opalg.cli import main
from opalg.numkit import cauchy, operator_norm
from opalg.report import ExperimentReport
from opalg.shift import (
    HARMONIC,
    build_shift,
    explicit_weights,
    geometric_weights,
    harmonic_weights,
    inequivalence,
    _series,
    lowest_index,
    equivalence,
    neumann_factor_check,
    ones_weights,
    parse_weight_spec,
    polynomial_in,
    quasinilpotence,
    random_polynomial,
    vector_norm_at_e0,
)


class TestWeightSequences:
    def test_harmonic(self):
        w = harmonic_weights(4)
        assert np.allclose(w.values, [1.0, 0.5, 1.0 / 3.0, 0.25])
        assert w.l2_mass**2 == pytest.approx(math.pi**2 / 6.0)
        assert w.monotone_decreasing

    def test_geometric(self):
        w = geometric_weights(0.5, 4)
        assert np.allclose(w.values, [1.0, 0.5, 0.25, 0.125])
        assert w.l2_mass**2 == pytest.approx(4.0 / 3.0)

    def test_ones_infinite_mass(self):
        assert math.isinf(ones_weights(3).l2_mass)

    def test_decreasing_up_to_the_rounding_of_moduli(self):
        # |exp(0.3i)| rounds to 1 - eps/2 and |exp(1.1i)| to 1: unit phases
        # count as decreasing, while a relative increase of 2e-15 does not,
        # whatever the scale
        assert explicit_weights(np.exp(1j * np.array([0.3, 1.1, 2.5]))).monotone_decreasing
        for scale in (1e-20, 1.0, 1e20):
            assert not explicit_weights([scale, scale * (1.0 + 2e-15)]).monotone_decreasing

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            explicit_weights([1.0, 0.0, 2.0])

    def test_empty_weights_rejected_by_name(self):
        # refused before the mass's max and min reductions, which have no identity
        with pytest.raises(ValueError, match="^weights must be a nonempty vector$"):
            explicit_weights([])

    def test_geometric_half_cap_named(self):
        # 0.5^k rounds to exactly 0 from k = 1075 on (2^-1075 is half the
        # smallest subnormal), so 1075 weights are the most that can be built
        assert parse_weight_spec("geometric:0.5", 1075).values[-1] != 0.0
        with pytest.raises(ValueError, match="index 1075: at most 1075 geometric weights"):
            parse_weight_spec("geometric:0.5", 1076)

    def test_spec_language(self):
        assert parse_weight_spec("harmonic", 4).family == "harmonic"
        assert parse_weight_spec("ones", 4).family == "ones"
        w = parse_weight_spec("list:1,0.5,0.25", 3)
        assert np.allclose(w.values, [1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            parse_weight_spec("nope", 4)


class TestBuildShift:
    def test_unit_weights(self):
        t = build_shift(ones_weights(3), 3)
        m = t.powers(1)[0]
        assert m[1, 0] == 1.0 and m[2, 1] == 1.0
        assert np.count_nonzero(m) == 2
        assert operator_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_subdiagonal(self):
        t = build_shift(harmonic_weights(4), 4)
        sub = np.diag(t.powers(1)[0], -1)
        assert np.allclose(sub, [1.0, 0.5, 1.0 / 3.0])

    def test_geometric_subdiagonal(self):
        t = build_shift(geometric_weights(0.5, 4), 4)
        sub = np.diag(t.powers(1)[0], -1)
        assert np.allclose(sub, [1.0, 0.5, 0.25])

    def test_nilpotency_exact(self):
        t = build_shift(harmonic_weights(6), 6)
        powers = t.powers(8)
        assert np.any(powers[4])
        assert all(np.all(p == 0) for p in powers[5:])

    def test_short_weight_list_rejected(self):
        with pytest.raises(ValueError):
            build_shift(explicit_weights([1.0]), 4)


def _polar(modulus, phase):
    return st.builds(lambda r, theta: r * complex(math.cos(theta), math.sin(theta)),
                     modulus, phase)


@st.composite
def shift_inputs(draw, min_dim=2):
    """(dim, family, weights) over the three named weight families and two
    kinds of `list:` weights, complex ("list") and signed real ("signed")."""
    n = draw(st.integers(min_dim, 64))
    family = draw(st.sampled_from(["harmonic", "geometric", "ones", "list", "signed"]))
    if family == "harmonic":
        w = harmonic_weights(n)
    elif family == "geometric":
        w = geometric_weights(draw(st.floats(0.05, 0.95)), n)
    elif family == "ones":
        w = ones_weights(n)
    elif family == "signed":
        vals = draw(st.lists(st.builds(lambda r, sign: sign * r, st.floats(0.5, 2.0),
                                       st.sampled_from([1.0, -1.0])),
                             min_size=n - 1, max_size=n - 1))
        w = parse_weight_spec("list:" + ",".join(repr(v) for v in vals), n)
    else:
        # genuinely complex weights of modulus in [1/2, 2], through the spec
        vals = draw(st.lists(_polar(st.floats(0.5, 2.0), st.floats(-math.pi, math.pi)),
                             min_size=n - 1, max_size=n - 1))
        w = parse_weight_spec("list:" + ",".join(repr(v) for v in vals), n)
    return n, family, w


LEAD = _polar(st.floats(1e-3, 1e3), st.floats(-math.pi, math.pi))
COEFF = st.one_of(st.just(0j), LEAD)


@st.composite
def band_inputs(draw, vectors=1):
    """(dim, family, weights, coefficient vectors), each of length up to 2 * dim."""
    n, family, w = draw(shift_inputs())
    return (n, family, w,
            *(draw(st.lists(COEFF, min_size=1, max_size=2 * n)) for _ in range(vectors)))


@st.composite
def factor_pairs(draw):
    """(dim, weights, r, s): r and s have lowest indices j0, k0 with j0 + k0 < dim."""
    n, _, w = draw(shift_inputs(min_dim=3))
    j0 = draw(st.integers(1, n - 2))
    k0 = draw(st.integers(1, n - 1 - j0))
    return (n, w, *([0j] * (low - 1) + [draw(LEAD)] + draw(st.lists(COEFF, max_size=n))
                    for low in (j0, k0)))


def product(r, s, n):
    """Coefficients of R S at truncation n: the truncated Cauchy product of
    the coefficient vectors as power series, the arithmetic of
    `neumann_factor_check`'s chain."""
    return cauchy(_series(r, n), _series(s, n))[1:]


def rounding_bound(n, a, b):
    """(gamma, slack) for comparing the product of the polynomials a and b in
    the N = n truncation along two routes, the dense matrix product and
    `polynomial_in` of `product(a, b, n)`.

    With weights w, entry (j+m, j) of both is exactly
    e = (a * b)_m w_j ... w_{j+m-1}, with (a * b)_m = sum_{p+q=m} a_p b_q: the
    matrix product sums a_p T^p[j+m, j+q] b_q T^q[j+q, j] over q, and the two
    bands multiply into the band of T^m.  Each route forms a term of that sum with at most N
    complex multiplications (the band products, the coefficients and the
    pairing) and then sums at most N terms, that is at most 2N real products
    per component in whatever order BLAS or `np.convolve` chooses.  With
    u = eps / 2, a computed complex product is within sqrt(5) u of the exact
    one, relatively (Brent, Percival and Zimmermann 2007), and such a sum errs
    by at most gamma_2N |x|.|y| per component, gamma_k = k u / (1 - k u), so
    sqrt(2) gamma_2N in modulus (Higham 2002, sections 3.1 and 3.6).  Each
    route is therefore within gamma = (1 + sqrt(5) u)^N (1 + sqrt(2) gamma_2N)
    - 1 of e, relative to the majorant: the same sum with every term replaced
    by its modulus, which is `polynomial_in` of the Cauchy product of |a| and
    |b| on the weights |w_j|.  That majorant is itself computed, from
    nonnegative terms with at most 2N roundings, so the routes differ by at
    most 2 gamma / (1 - gamma) times it.

    Below the normal range a rounding errs by up to eta = 2^-1074 absolutely
    instead.  Of the drawn families only geometric weights get there, and
    there every later factor of a term is a weight of modulus at most 1 or a
    single coefficient, so each of a term's at most 2N + 3 roundings adds at
    most 2 (1 + max|a|)(1 + max|b|) eta; with N terms per entry and two
    routes the slack is 4 N (2N + 3)(1 + max|a|)(1 + max|b|) eta.
    """
    u = np.finfo(float).eps / 2.0
    gamma_2n = 2 * n * u / (1.0 - 2 * n * u)
    gamma = (1.0 + math.sqrt(5.0) * u) ** n * (1.0 + math.sqrt(2.0) * gamma_2n) - 1.0
    amax = max(np.abs(a), default=0.0)
    bmax = max(np.abs(b), default=0.0)
    eta = np.finfo(float).smallest_subnormal
    return gamma, 4 * n * (2 * n + 3) * (1.0 + amax) * (1.0 + bmax) * eta


class TestBandLayout:
    @settings(deadline=None, derandomize=True)
    @given(band_inputs())
    def test_bands_match_dense_matrix_chain(self, inputs):
        n, family, w, coeffs = inputs
        t = build_shift(w, n)
        d = len(coeffs)
        shift = np.diag(w.values[:n - 1], -1)
        chain = [shift]
        for _ in range(d - 1):
            chain.append(chain[-1] @ shift)
        dense = np.zeros((n, n), dtype=complex)
        for c, p in zip(coeffs, chain):
            dense += c * p
        powers = t.powers(d)
        poly = polynomial_in(t, coeffs)
        assert all(not np.any(p) for p in powers[n - 1:])
        if family != "list":
            # real weights: the same products in the same order, exact zeros
            # (of either sign) elsewhere, so the two routes agree bit for bit
            assert all(np.array_equal(p, q) for p, q in zip(powers, chain))
            assert np.array_equal(poly, dense)
            return
        # Complex weights.  Entry (j+k, j) of T^k is the product e of the k
        # weights a_j..a_{j+k-1}; each route forms it by k - 1 complex
        # multiplications (numpy's here, zgemm's in the chain, where every
        # other term of the dot product is an exact zero) and a polynomial
        # entry by one more, with the coefficient.  A computed complex
        # product is within sqrt(5) u of the exact one, relatively, with
        # u = eps / 2 (Brent, Percival and Zimmermann 2007; an FMA-based
        # product is within 2 u), so after m multiplications each route is
        # within gamma_m = (1 + sqrt(5) u)^m - 1 of e and the routes differ by
        # at most 2 gamma_m |e| <= 2 gamma_m / (1 - gamma_m) |y|, y the chain's
        # entry.  Off the bands both routes hold exact zeros.
        u = np.finfo(float).eps / 2.0
        k = np.subtract.outer(np.arange(n), np.arange(n))
        for got, want, m in [(p, q, k - 1) for p, q in zip(powers, chain)] + [(poly, dense, k)]:
            gamma = (1.0 + math.sqrt(5.0) * u) ** np.maximum(m, 0) - 1.0
            assert np.all(np.abs(got - want) <= 2.0 * gamma / (1.0 - gamma) * np.abs(want))


@st.composite
def coefficient_stacks(draw):
    """(dim, family, weights, an (m, d) coefficient stack), d up to 2 * dim."""
    n, family, w = draw(shift_inputs())
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2 * n))
    return n, family, w, np.array(draw(st.lists(st.lists(COEFF, min_size=d, max_size=d),
                                                min_size=m, max_size=m)))


class TestPolynomialStack:
    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(coefficient_stacks())
    def test_stack_equals_rows_laid_down_alone(self, inputs):
        n, _, w, coeffs = inputs
        t = build_shift(w, n)
        got = polynomial_in(t, coeffs)
        assert got.shape == (len(coeffs), n, n)
        assert np.array_equal(got, np.stack([polynomial_in(t, c) for c in coeffs]))
        # any leading shape: a (1, m, d) stack lays down the same matrices
        assert np.array_equal(polynomial_in(t, coeffs[None]), got[None])

    def test_both_sides_of_the_truncation(self):
        t = build_shift(harmonic_weights(6), 6)
        for d in (3, 5, 9):  # below, at and past N - 1
            coeffs = np.arange(2 * d).reshape(2, d) + 1j
            assert np.array_equal(polynomial_in(t, coeffs),
                                  np.stack([polynomial_in(t, c) for c in coeffs]))


class TestVectorNorm:
    def test_shift_itself(self):
        t = build_shift(harmonic_weights(4), 4)
        assert vector_norm_at_e0(t.powers(1)[0]) == pytest.approx(1.0)

    def test_square(self):
        t = build_shift(harmonic_weights(4), 4)
        assert vector_norm_at_e0(t.powers(2)[1]) == pytest.approx(0.5)

    def test_zero(self):
        assert vector_norm_at_e0(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("k", [-900, -700, 0, 700, 900])
    def test_stack_and_any_scale(self, k):
        # each column's squares once underflowed from about 1e-160 on (the
        # norm read 0.0 at entries of 1e-200); it now scales out a power of
        # two, and a stack gives each matrix's norm alone
        t = build_shift(harmonic_weights(8), 8)
        family = polynomial_in(t, np.stack([random_polynomial(t, 3, trial) for trial in range(4)]))
        alone = [vector_norm_at_e0(s) for s in family]
        assert vector_norm_at_e0(family) == alone
        assert vector_norm_at_e0(2.0**k * family) == [math.ldexp(nrm, k) for nrm in alone]


class TestNormEquivalence:
    def test_harmonic_bound(self):
        rep = equivalence(dim=16, nmax=20, seed=7)
        assert rep.passed
        assert rep.value("bound_constant") == pytest.approx(math.pi / math.sqrt(6.0))
        assert rep.value("max_ratio") <= rep.value("bound_constant") + 1e-10

    def test_monomial_ratio_is_one(self):
        t = build_shift(harmonic_weights(12), 12)
        for n in (1, 3, 7):
            tn = t.powers(n)[n - 1]
            ratio = operator_norm(tn) / vector_norm_at_e0(tn)
            assert ratio == pytest.approx(1.0, abs=1e-11)

    def test_geometric_bound_constant(self):
        rep = equivalence(dim=12, nmax=10, weights="geometric:0.5", seed=3)
        assert rep.passed
        assert rep.value("bound_constant") == pytest.approx(2.0 / math.sqrt(3.0))

    def test_ones_refused(self):
        with pytest.raises(ValueError, match="infinite"):
            equivalence(dim=8, nmax=2, weights="ones", seed=1)

    @settings(deadline=None, derandomize=True, max_examples=50)
    @given(st.lists(st.floats(1e-100, 1e100), min_size=1, max_size=40), st.booleans())
    def test_explicit_mass_has_the_unscaled_root_bits(self, mags, signed):
        # scaling by a power of two changes no bit where no square over- or underflows
        vals = np.array(mags) * (np.where(np.arange(len(mags)) % 2, -1.0, 1.0) if signed else 1.0)
        assert explicit_weights(vals).l2_mass == math.sqrt(float(np.sum(np.abs(vals) ** 2)))

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_explicit_mass_at_extreme_scales(self, scale, capsys):
        # M = sqrt(sum |a_k|^2) no longer overflows (or underflows): the bound
        # constant M/|a_0| of equal weights is list:1,1,1's, sqrt(3), within
        # an ulp or two at any scale
        w = parse_weight_spec("list:" + ",".join([scale] * 3), 3)
        assert w.l2_mass / abs(complex(w.values[0])) == pytest.approx(math.sqrt(3.0),
                                                                      rel=4e-16)
        argv = ["equivalence", "--dim", "4", "--nmax", "3", "--weights",
                "list:" + ",".join([scale] * 3)]
        if scale == "1e-200":
            # T^2 and T^3 underflow to zero, below the rounding of p(T) = c_1 T + ...,
            # and both norms scale out a power of two: every ratio is 1
            assert main(argv) == 0
            return
        # p(T) holds a_0 a_1 = 1e400 at 1e200, past the float range: the
        # command names the overflow, and numpy warns of none
        assert main(argv) == 2
        assert ("leaves the float range: a band overflows while it is laid down"
                in capsys.readouterr().err)

    def test_equivalence_e0_norm_of_zero_named(self, capsys):
        # at the smallest subnormal weight, c_1 a_0 rounds to 0 when both
        # parts of c_1 lie below 1/2, as at two of seed 0's trials: the ratio
        # ||p(T)|| / ||p(T) e_0|| is undefined (it once raised a ZeroDivisionError)
        assert main(["equivalence", "--dim", "4", "--nmax", "3", "--weights",
                     "list:5e-324,5e-324,5e-324"]) == 2
        assert "or ||p(T) e_0|| is 0" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["1e60", "1e100"])
    def test_equivalence_norm_overflow_named(self, scale):
        # ||p(T)|| is about a^3, past 2^200, where power iteration's squares
        # once overflowed (and a refusal above 2^250 stood in for it): the
        # norm now scales out a power of two, and p(T) = c_3 a^3 S^3 + ...,
        # S the unit shift, attains its norm at e_0 up to rounding
        rep = equivalence(dim=4, nmax=3, weights="list:" + ",".join([scale] * 3), seed=0)
        assert rep.passed
        for trial in range(3):
            assert rep.value(f"ratio_{trial:03d}") == pytest.approx(1.0, abs=1e-12)

    def test_geometric_half_powers_norm_to_their_band_maxima(self):
        # T^k is one band, so ||T^k|| is its largest modulus, 2^-(k(k-1)/2)
        # here.  Below about 1e-77 power iteration once read 0.1998 of it
        # (T^24..T^33) and 0.0 from T^34 on; T^47 underflows to zero
        t = build_shift(geometric_weights(0.5, 48), 48)
        maxima = [float(np.max(np.abs(band))) for _, band in shift._bands(t, 47)]
        assert maxima[45] > 0.0 == maxima[46]
        for k, (nrm, top) in enumerate(zip(operator_norm(t.powers(47)), maxima), start=1):
            assert abs(nrm - top) <= 4e-16 * top, k

    def test_increasing_weights_refused(self):
        with pytest.raises(ValueError, match="decreasing"):
            equivalence(dim=4, nmax=2, weights="list:1,2,3", seed=1)

    def test_small_increasing_weights_refused(self):
        # an absolute 1e-15 slack let these through at this scale
        with pytest.raises(ValueError, match="decreasing"):
            equivalence(dim=4, nmax=2, weights="list:1e-20,2e-20,3e-20", seed=1)


def sequential_equivalence(*, dim=32, nmax=100, weights=HARMONIC, seed=0):
    """`equivalence` as it was before it normed its family in stacks: one
    polynomial laid down and normed per trial."""
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
    worst = 0.0
    for trial in range(nmax):
        s = polynomial_in(t, random_polynomial(t, seed, trial))
        ratio = operator_norm(s) / vector_norm_at_e0(s)
        rep.add(f"ratio_{trial:03d}", ratio)
        worst = max(worst, ratio)
    rep.add("max_ratio", worst)
    rep.check("all_ratios_within_bound", worst <= bound + 1e-10)
    return rep


class TestStackedEquivalence:
    @pytest.mark.parametrize("config", [
        {"dim": 32, "nmax": 100},          # the default: six full chunks of 16 and one of 4
        {"dim": 8, "nmax": 37},            # one chunk
        {"dim": 128, "nmax": 5},           # one polynomial per chunk
        {"weights": "geometric:0.5", "seed": 7},
    ])
    def test_report_bytes_match_the_sequential_loop(self, config):
        got, want = equivalence(**config), sequential_equivalence(**config)
        assert got.to_csv_bytes() == want.to_csv_bytes()
        assert got.to_json_bytes() == want.to_json_bytes()

    def test_family_is_never_materialized_whole(self):
        equivalence(dim=128, nmax=8)
        tracemalloc.start()
        try:
            equivalence(dim=128, nmax=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # At N = 128 a chunk is one polynomial: its matrix, the norm's
        # adjoint and the conjugate the adjoint is copied from are live at
        # once.  The eight matrices of the whole family do not fit.
        assert peak <= 4 * 16 * 128 * 128

    @pytest.mark.parametrize("nmax", [0, -1])
    def test_nonpositive_nmax_refused(self, nmax):
        with pytest.raises(ValueError, match="nmax must be positive"):
            equivalence(nmax=nmax)


class TestInequivalence:
    def test_n3_closed_form(self):
        rep = inequivalence(nmax=3)
        assert rep.passed
        assert rep.value("spread_image_norm") == pytest.approx(
            math.sqrt(19.0) / math.sqrt(3.0), abs=1e-12)

    def test_n1(self):
        rep = inequivalence(nmax=1)
        assert rep.passed
        assert rep.value("spread_image_norm") == pytest.approx(1.0, abs=1e-12)

    def test_n16_ratio_bound(self):
        rep = inequivalence(nmax=16)
        assert rep.passed
        assert rep.value("ratio") >= math.sqrt(2.0 / 3.0) * 4.0

    def test_e0_norm_is_the_rounded_root_of_n(self):
        # column 0 of p_n(T) holds n ones: its squared sum is exactly n, so
        # the flag compares ||p_n(T) e_0|| with sqrt(n) for equality
        for n in range(1, 257):
            p = polynomial_in(build_shift(ones_weights(2 * n), 2 * n), np.ones(n))
            assert vector_norm_at_e0(p) == math.sqrt(n)
        for n in (1, 2, 7, 64):
            assert dict(inequivalence(nmax=n).flags)["e0_closed_form_matches"]

    @pytest.mark.parametrize("perturbation", [0.0, 1e-12])
    def test_spread_slack_is_relative(self, perturbation, monkeypatch):
        # at n = 500 the spread image lands 1.5e-12 (3.6e-15 relative) from
        # its closed form; a closed form 1e-12 relative off must still fail
        n = 500
        sqrt = math.sqrt
        monkeypatch.setattr(math, "sqrt", lambda x: sqrt(x) * (
            1.0 + perturbation if x == 2.0 * n * n + 1.0 else 1.0))
        flags = dict(inequivalence(nmax=n).flags)
        assert flags.pop("spread_closed_form_matches") == (perturbation == 0.0)
        assert all(flags.values())


class TestQuasinilpotence:
    def test_geometric_closed_form(self):
        rep = quasinilpotence(nmax=4, weights="geometric:0.5")
        assert rep.passed
        # sup over k is at k = 0: (r^(1+2+...+n))^(1/n) = r^((n+1)/2)
        assert rep.value("beta_03") == pytest.approx(0.25, abs=1e-14)

    def test_ones_constant(self):
        rep = quasinilpotence(nmax=5, weights="ones")
        assert rep.passed
        assert rep.value("beta_05") == pytest.approx(1.0, abs=1e-14)

    def test_harmonic_decreasing(self):
        rep = quasinilpotence(nmax=4, weights="harmonic")
        assert rep.passed
        assert rep.value("beta_04") < rep.value("beta_01")

    def test_decreasing_list_checked(self):
        # weights 1/(k+2): the sup sits at k = 0, so beta_n is the geometric
        # mean of 1/3, ..., 1/(n+2), and the profile gets its flag
        spec = "list:" + ",".join(repr(1.0 / (k + 2)) for k in range(80))
        rep = quasinilpotence(weights=spec)
        assert rep.flags == [("profile_decreasing", True)]
        assert rep.value("beta_02") == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-14)

    def test_small_increasing_profile_flagged(self, monkeypatch):
        # weights 1e-18 (k + 1), let past the hypothesis check: beta_02
        # exceeds beta_01 by 7.5e-3 relative but only 5e-19 absolutely, which
        # an absolute 1e-15 slack passed
        monkeypatch.setattr(shift, "_is_decreasing", lambda values: True)
        spec = "list:" + ",".join(repr(1e-18 * (k + 1)) for k in range(80))
        rep = quasinilpotence(weights=spec)
        assert rep.value("beta_02") > rep.value("beta_01")
        assert rep.flags == [("profile_decreasing", False)]

    def test_constant_list_profile_passes(self):
        # equal weights give an exactly constant profile, which does not increase
        rep = quasinilpotence(weights="list:" + ",".join(["0.3"] * 80))
        assert rep.flags == [("profile_decreasing", True)]


class TestNeumannFactor:
    def test_telescoping_pair(self):
        t = build_shift(harmonic_weights(8), 8)
        rep = neumann_factor_check([0.0, 1.0, 1.0], 2, t)
        assert rep.passed

    def test_pure_power(self):
        t = build_shift(harmonic_weights(8), 8)
        rep = neumann_factor_check([0.0, 1.0], 2, t)
        assert rep.passed
        assert rep.value("max_discrepancy") == 0.0

    def test_three_term_polynomial(self):
        t = build_shift(harmonic_weights(32), 32)
        rep = neumann_factor_check([0.0, 0.0, 1.0, -2.0, 0.0, 1.0], 3, t)
        assert rep.passed
        assert rep.value("relative_discrepancy") <= 1e-12

    def test_wrong_lowest_index_rejected(self):
        t = build_shift(harmonic_weights(8), 8)
        with pytest.raises(ValueError):
            neumann_factor_check([1.0], 2, t)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_geometric_half_at_64(self, k):
        # the weight products 2^(-j(j-1)/2) underflow from T^47 on, so a
        # coefficient read back from the matrix would divide by zero
        t = build_shift(geometric_weights(0.5, 64), 64)
        rng = np.random.default_rng(k)
        coeffs = rng.standard_normal(63) + 1j * rng.standard_normal(63)
        coeffs[:k - 1] = 0.0
        rep = neumann_factor_check(coeffs, k, t)
        assert rep.passed
        assert rep.value("relative_discrepancy") <= 1e-12


def laid_down_neumann(coeffs, k, t):
    """(max_discrepancy, target_scale) of `neumann_factor_check` with the
    Neumann sum and T^k laid down as matrices and compared entry by entry."""
    n = t.dim
    coeffs = np.asarray(coeffs, dtype=complex)[:n - 1]
    q = _series(coeffs[k:] / coeffs[k - 1], n - k)
    q[0] = 1.0
    r = -q
    r[0] = 0.0
    acc, term = q.copy(), q
    for _ in range(n - k - 1):
        term = cauchy(term, r)
        acc += term
    tk = t.powers(k)[k - 1]
    total = polynomial_in(t, np.concatenate([np.zeros(k - 1), acc]))
    return float(np.max(np.abs(total - tk))), float(np.max(np.abs(tk)))


class TestNeumannBands:
    @pytest.mark.parametrize("weights", ["harmonic", "geometric:0.5", "geometric:0.9", "ones"])
    @pytest.mark.parametrize("n", [4, 9, 33, 64])
    def test_same_bits_as_the_laid_down_sum(self, weights, n):
        # the sum's T^k cancels exactly and every later band is its own
        # discrepancy, so reading them from the bands moves no bit
        t = build_shift(parse_weight_spec(weights, n), n)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 4))
            coeffs = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            coeffs[:k - 1] = 0.0
            rep = neumann_factor_check(coeffs, k, t)
            assert (rep.value("max_discrepancy"), rep.value("target_scale")) == \
                laid_down_neumann(coeffs, k, t)

    def test_lays_down_no_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a matrix was laid down")

        monkeypatch.setattr(shift, "polynomial_in", forbidden)
        monkeypatch.setattr(shift.ShiftTruncation, "powers", forbidden)
        t = build_shift(harmonic_weights(16), 16)
        assert neumann_factor_check([0.0, 1.0, 0.5, -0.25], 2, t).passed


class TestLowestIndexOfProduct:
    """Lowest indices add under products below the truncation depth, with the
    product of the leading coefficients there: no zero divisors."""

    def test_monomials(self):
        assert lowest_index(product([1.0], [1.0], 32)) == 2

    def test_polynomials(self):
        t32 = build_shift(harmonic_weights(32), 32)
        r, s = [2.0, 0.0, 1.0], [0.0, 5.0]
        coeffs = product(r, s, 32)
        assert lowest_index(coeffs) == 3
        assert coeffs[2] == 10.0
        # the coefficient of T^3 in the operator product, read off its e_0 column
        prods = np.cumprod(t32.weights.materialized(31))
        prod = polynomial_in(t32, r) @ polynomial_in(t32, s)
        assert prod[3, 0] / prods[2] == pytest.approx(10.0, abs=1e-10)

    def test_truncation_guard(self):
        # lowest indices 4 + 5 reach the truncation dim 8, where T^9 = 0: the
        # product vanishes, so additivity holds only below the truncation
        assert lowest_index(product([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0], 8)) is None


class TestShiftInvariants:
    def test_norm_attained_at_e0_for_decreasing_weights(self):
        for w in (harmonic_weights(12), geometric_weights(0.5, 12)):
            t = build_shift(w, 12)
            prods = np.cumprod(w.materialized(11))
            for n in range(1, 12):
                tn = t.powers(n)[n - 1]
                expected = abs(prods[n - 1])
                assert abs(operator_norm(tn) - expected) < 1e-12
                assert abs(vector_norm_at_e0(tn) - expected) < 1e-12

    def test_two_sided_equivalence_bound(self):
        t = build_shift(harmonic_weights(16), 16)
        bound = math.pi / math.sqrt(6.0)
        for trial in range(5):
            s = polynomial_in(t, random_polynomial(t, seed=11, trial=trial))
            e0 = vector_norm_at_e0(s)
            op = operator_norm(s)
            assert e0 <= op + 1e-10
            assert op <= bound * e0 + 1e-10

    def test_summability_identity(self):
        # the e_0 image norm of sum c_k T^k is the weighted l2 mass of the c_k
        t = build_shift(harmonic_weights(12), 12)
        rng = np.random.default_rng(17)
        c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        s = polynomial_in(t, c)
        prods = np.cumprod(t.weights.materialized(11))
        expected = math.sqrt(float(np.sum(np.abs(c) ** 2 * np.abs(prods) ** 2)))
        assert vector_norm_at_e0(s) == pytest.approx(expected, abs=1e-12)


class TestCoefficientAlgebra:
    """Shift elements as coefficient vectors, tied to the operators they stand for."""

    @settings(deadline=None, derandomize=True)
    @given(band_inputs(vectors=2))
    def test_cauchy_product_is_operator_product(self, inputs):
        n, _, w, a, b = inputs
        t = build_shift(w, n)
        got = polynomial_in(t, product(a, b, n))
        want = polynomial_in(t, a) @ polynomial_in(t, b)
        majorant = polynomial_in(build_shift(explicit_weights(np.abs(w.values[:n - 1])), n),
                                 product(np.abs(a), np.abs(b), n)).real
        gamma, slack = rounding_bound(n, a, b)
        assert np.all(np.abs(got - want) <= 2.0 * gamma / (1.0 - gamma) * majorant + slack)

    @settings(deadline=None, derandomize=True)
    @given(factor_pairs())
    def test_lowest_index_adds_as_in_the_operator_product(self, inputs):
        n, w, r, s = inputs
        t = build_shift(w, n)
        coeffs = product(r, s, n)
        m = lowest_index(coeffs)
        assert m == lowest_index(r) + lowest_index(s)
        lead = r[lowest_index(r) - 1] * s[lowest_index(s) - 1]
        assert abs(coeffs[m - 1] - lead) <= 1e-10 * abs(lead)
        op = polynomial_in(t, r) @ polynomial_in(t, s)
        # below band m every term of an entry has a zero factor: exact zeros
        assert not np.any(np.triu(op, 1 - m))
        # band m holds the single term lead_r lead_s T^m; with the bound of
        # the homomorphism test it is nonzero wherever that term exceeds the
        # underflow slack twice over, so m is the operator's lowest band
        expected = lead * np.diagonal(t.powers(m)[m - 1], -m)
        band = np.diagonal(op, -m)
        gamma, slack = rounding_bound(n, r, s)
        assert np.all(np.abs(band - expected) <= 2.0 * gamma / (1.0 - gamma) * np.abs(expected)
                      + slack)
        assert np.all(band[np.abs(expected) > 2.0 * slack] != 0)
