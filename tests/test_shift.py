"""Tests for the weighted-shift algebra module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.numkit import operator_norm
from opalg.shift import (
    build_shift,
    column_coefficients,
    explicit_weights,
    extreme_point_check,
    geometric_weights,
    harmonic_weights,
    ideal_generator_index,
    inequivalence_demo,
    invariant_subspace_of_ideal,
    lowest_index_of_product,
    neumann_factor_check,
    norm_equivalence_report,
    ones_weights,
    parse_weight_spec,
    polynomial_in,
    quasinilpotence_profile,
    random_polynomial,
    vector_norm_at_e0,
)


class TestWeightSequences:
    def test_harmonic(self):
        w = harmonic_weights(4)
        assert np.allclose(w.values, [1.0, 0.5, 1.0 / 3.0, 0.25])
        assert w.l2_sum == pytest.approx(math.pi**2 / 6.0)
        assert w.monotone_decreasing

    def test_geometric(self):
        w = geometric_weights(0.5, 4)
        assert np.allclose(w.values, [1.0, 0.5, 0.25, 0.125])
        assert w.l2_sum == pytest.approx(4.0 / 3.0)

    def test_ones_infinite_mass(self):
        assert math.isinf(ones_weights(3).l2_sum)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            explicit_weights([1.0, 0.0, 2.0])

    def test_spec_language(self):
        assert parse_weight_spec("harmonic", 4).family == "harmonic"
        assert parse_weight_spec("geometric:0.5", 4).ratio == 0.5
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
def band_inputs(draw):
    """(dim, family, weights, coefficient vector), len(coeffs) up to 2 * dim."""
    n = draw(st.integers(2, 64))
    family = draw(st.sampled_from(["harmonic", "geometric", "ones", "list"]))
    if family == "harmonic":
        w = harmonic_weights(n)
    elif family == "geometric":
        w = geometric_weights(draw(st.floats(0.05, 0.95)), n)
    elif family == "ones":
        w = ones_weights(n)
    else:
        # genuinely complex weights of modulus in [1/2, 2], through the spec
        vals = draw(st.lists(_polar(st.floats(0.5, 2.0), st.floats(-math.pi, math.pi)),
                             min_size=n - 1, max_size=n - 1))
        w = parse_weight_spec("list:" + ",".join(repr(v) for v in vals), n)
    coeff = st.one_of(st.just(0j), _polar(st.floats(1e-3, 1e3), st.floats(-math.pi, math.pi)))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=2 * n))
    return n, family, w, coeffs


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
            # elsewhere, so the two routes agree bit for bit
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


class TestVectorNorm:
    def test_shift_itself(self):
        t = build_shift(harmonic_weights(4), 4)
        assert vector_norm_at_e0(t.powers(1)[0]) == pytest.approx(1.0)

    def test_square(self):
        t = build_shift(harmonic_weights(4), 4)
        assert vector_norm_at_e0(t.powers(2)[1]) == pytest.approx(0.5)

    def test_zero(self):
        assert vector_norm_at_e0(np.zeros((3, 3))) == 0.0


class TestNormEquivalence:
    def test_harmonic_bound(self):
        t = build_shift(harmonic_weights(16), 16)
        rep = norm_equivalence_report(t, trials=20, seed=7)
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
        t = build_shift(geometric_weights(0.5, 12), 12)
        rep = norm_equivalence_report(t, trials=10, seed=3)
        assert rep.passed
        assert rep.value("bound_constant") == pytest.approx(2.0 / math.sqrt(3.0))

    def test_ones_refused(self):
        t = build_shift(ones_weights(8), 8)
        with pytest.raises(ValueError, match="infinite"):
            norm_equivalence_report(t, trials=2, seed=1)

    def test_increasing_weights_refused(self):
        t = build_shift(explicit_weights([1.0, 2.0, 3.0]), 4)
        with pytest.raises(ValueError, match="decreasing"):
            norm_equivalence_report(t, trials=2, seed=1)


class TestInequivalence:
    def test_n3_closed_form(self):
        rep = inequivalence_demo(3)
        assert rep.passed
        assert rep.value("spread_image_norm") == pytest.approx(
            math.sqrt(19.0) / math.sqrt(3.0), abs=1e-12)

    def test_n1(self):
        rep = inequivalence_demo(1)
        assert rep.passed
        assert rep.value("spread_image_norm") == pytest.approx(1.0, abs=1e-12)

    def test_n16_ratio_bound(self):
        rep = inequivalence_demo(16)
        assert rep.passed
        assert rep.value("ratio") >= math.sqrt(2.0 / 3.0) * 4.0


class TestExtremePoints:
    def test_normalized_powers_are_extreme(self):
        t = build_shift(harmonic_weights(8), 8)
        for n in (1, 2):
            tn = t.powers(n)[n - 1]
            assert extreme_point_check(tn / operator_norm(tn))

    def test_interior_point_is_not(self):
        t = build_shift(harmonic_weights(8), 8)
        assert not extreme_point_check(0.5 * t.powers(1)[0] / operator_norm(t.powers(1)[0]))


class TestQuasinilpotence:
    def test_geometric_closed_form(self):
        w = geometric_weights(0.5, 80)
        rep = quasinilpotence_profile(w, n_max=4, k_max=64)
        assert rep.passed
        # sup over k is at k = 0: (r^(1+2+...+n))^(1/n) = r^((n+1)/2)
        assert rep.value("beta_03") == pytest.approx(0.25, abs=1e-14)

    def test_ones_constant(self):
        rep = quasinilpotence_profile(ones_weights(80), n_max=5, k_max=64)
        assert rep.passed
        assert rep.value("beta_05") == pytest.approx(1.0, abs=1e-14)

    def test_harmonic_decreasing(self):
        rep = quasinilpotence_profile(harmonic_weights(80), n_max=4, k_max=64)
        assert rep.passed
        assert rep.value("beta_04") < rep.value("beta_01")


class TestIdealGeneratorIndex:
    @pytest.fixture
    def t8(self):
        return build_shift(harmonic_weights(8), 8)

    def test_lowest_monomial(self, t8):
        powers = t8.powers(5)
        s = powers[2] + 7.0 * powers[4]
        assert ideal_generator_index(s, t8) == 3

    def test_shift_itself(self, t8):
        assert ideal_generator_index(t8.powers(1)[0], t8) == 1

    def test_threshold_semantics(self, t8):
        powers = t8.powers(2)
        s = 1e-15 * powers[0] + powers[1]
        assert ideal_generator_index(s, t8) == 2

    def test_zero_element(self, t8):
        with pytest.raises(ValueError, match="zero element"):
            ideal_generator_index(np.zeros((8, 8)), t8)


class TestNeumannFactor:
    def test_telescoping_pair(self):
        t = build_shift(harmonic_weights(8), 8)
        powers = t.powers(3)
        rep = neumann_factor_check(powers[1] + powers[2], 2, t)
        assert rep.passed

    def test_pure_power(self):
        t = build_shift(harmonic_weights(8), 8)
        rep = neumann_factor_check(t.powers(2)[1], 2, t)
        assert rep.passed
        assert rep.value("max_discrepancy") == 0.0

    def test_three_term_polynomial(self):
        t = build_shift(harmonic_weights(32), 32)
        powers = t.powers(6)
        s = powers[2] - 2.0 * powers[3] + powers[5]
        rep = neumann_factor_check(s, 3, t)
        assert rep.passed
        assert rep.value("relative_discrepancy") <= 1e-12

    def test_wrong_lowest_index_rejected(self):
        t = build_shift(harmonic_weights(8), 8)
        with pytest.raises(ValueError):
            neumann_factor_check(t.powers(1)[0], 2, t)


class TestInvariantSubspace:
    def test_dimensions(self):
        t = build_shift(harmonic_weights(8), 8)
        assert invariant_subspace_of_ideal(1, t).shape == (8, 7)
        assert invariant_subspace_of_ideal(7, t).shape == (8, 1)
        assert invariant_subspace_of_ideal(2, t).shape == (8, 6)

    def test_out_of_range(self):
        t = build_shift(harmonic_weights(8), 8)
        with pytest.raises(ValueError):
            invariant_subspace_of_ideal(8, t)
        with pytest.raises(ValueError):
            invariant_subspace_of_ideal(0, t)


class TestLowestIndexOfProduct:
    @pytest.fixture
    def t32(self):
        return build_shift(harmonic_weights(32), 32)

    def test_monomials(self, t32):
        t = t32.powers(1)[0]
        rep = lowest_index_of_product(t, t, t32)
        assert rep.passed
        assert rep.value("product_lowest_index") == 2

    def test_polynomials(self, t32):
        powers = t32.powers(3)
        r = 2.0 * powers[0] + powers[2]
        s = 5.0 * powers[1]
        rep = lowest_index_of_product(r, s, t32)
        assert rep.passed
        assert rep.value("product_lowest_index") == 3
        prod_series = column_coefficients(r @ s, t32)
        assert prod_series.coefficient(3) == pytest.approx(10.0, abs=1e-10)

    def test_truncation_guard(self):
        t = build_shift(harmonic_weights(8), 8)
        powers = t.powers(5)
        with pytest.raises(ValueError, match="truncation"):
            lowest_index_of_product(powers[3], powers[4], t)


class TestShiftInvariants:
    def test_norm_attained_at_e0_for_decreasing_weights(self):
        for w in (harmonic_weights(12), geometric_weights(0.5, 12)):
            t = build_shift(w, 12)
            prods = t.weight_products()
            for n in range(1, 12):
                tn = t.powers(n)[n - 1]
                expected = abs(prods[n - 1])
                assert abs(operator_norm(tn) - expected) < 1e-12
                assert abs(vector_norm_at_e0(tn) - expected) < 1e-12

    def test_two_sided_equivalence_bound(self):
        t = build_shift(harmonic_weights(16), 16)
        bound = math.pi / math.sqrt(6.0)
        for trial in range(5):
            s = random_polynomial(t, seed=11, trial=trial)
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
        prods = t.weight_products()
        expected = math.sqrt(float(np.sum(np.abs(c) ** 2 * np.abs(prods) ** 2)))
        assert vector_norm_at_e0(s) == pytest.approx(expected, abs=1e-12)
