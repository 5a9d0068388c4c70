"""Tests for the gauge-action machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.gauge import (
    certify_no_gauge_linear_dependence,
    certify_no_gauge_norm_scan,
    fejer,
    fejer_coefficients,
    fourier_coefficients,
    gauge_conjugate,
)
from opalg.numkit import CircleGrid, operator_norm
from opalg.shift import (
    build_shift,
    harmonic_weights,
    lowest_index,
    parse_weight_spec,
    polynomial_in,
    random_polynomial,
)


@pytest.fixture
def harmonic8():
    return build_shift(harmonic_weights(8), 8)


class TestGaugeConjugate:
    def test_shift_scales_linearly(self, harmonic8):
        t = harmonic8.powers(1)[0]
        out = gauge_conjugate(t, 1j)
        assert np.max(np.abs(out - 1j * t)) < 1e-14

    def test_identity_fixed(self):
        out = gauge_conjugate(np.eye(5), np.exp(0.7j))
        assert np.max(np.abs(out - np.eye(5))) < 1e-14

    def test_even_band_fixed_at_minus_one(self, harmonic8):
        t2 = harmonic8.powers(2)[1]
        out = gauge_conjugate(t2, -1.0)
        assert np.max(np.abs(out - t2)) < 1e-14

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError):
            gauge_conjugate(np.eye(3), 1.1)


class TestFourierCoefficients:
    def test_monomial(self, harmonic8):
        t = harmonic8.powers(1)[0]
        series = fourier_coefficients(t, CircleGrid(16), harmonic8)
        assert series[0] == pytest.approx(1.0, abs=1e-12)
        for k in range(2, 8):
            assert abs(series[k - 1]) < 1e-12
        assert lowest_index(series) == 1

    def test_linearity(self, harmonic8):
        powers = harmonic8.powers(7)
        s = 3.0 * powers[0] + 5.0 * powers[1]
        series = fourier_coefficients(s, CircleGrid(16), harmonic8)
        assert series[0] == pytest.approx(3.0, abs=1e-12)
        assert series[1] == pytest.approx(5.0, abs=1e-12)

    def test_square_on_harmonic_weights(self, harmonic8):
        # T^2 e_0 = a_0 a_1 e_2 = (1/2) e_2, and the extracted coefficient is 1
        t2 = harmonic8.powers(2)[1]
        assert t2[2, 0] == pytest.approx(0.5, abs=1e-15)
        series = fourier_coefficients(t2, CircleGrid(16), harmonic8)
        assert series[1] == pytest.approx(1.0, abs=1e-12)

    # geometric:0.5 gives ||T^k|| = 2^-(k(k-1)/2): T^45 reads 2^-990, T^46 the
    # subnormal 2^-1035 = 2.7e-312, and T^47 underflows to 0.0
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanished_power_rejected(self):
        # the subnormal T^46 divides out; the zero T^47 cannot
        with pytest.raises(ValueError, match=r"T\^47 at truncation dim 48 is zero"):
            fejer(weights="geometric:0.5", dim=48)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_power_rejected(self):
        # dividing by 2.7e-312 once overflowed to inf and NaN, and such a
        # divisor was refused.  The integral and the divisor are now scaled
        # by one power of two, so T^46's exact-zero integral gives c_46 = 0
        assert fejer(weights="geometric:0.5", dim=47).passed
        t = build_shift(parse_weight_spec("geometric:0.5", 47), 47)
        s = polynomial_in(t, random_polynomial(t, 0, 0, 8))
        series = fourier_coefficients(s, CircleGrid(94), t)
        assert np.all(series[8:] == 0.0)
        # and a coefficient on the subnormal band itself is read back to the
        # 39 bits a 2^-1035 entry keeps
        c = np.zeros(46, dtype=complex)
        c[45] = 0.75 - 0.5j
        series = fourier_coefficients(polynomial_in(t, c), CircleGrid(94), t)
        assert series[45] == pytest.approx(c[45], rel=1e-9)
        assert np.all(series[:45] == 0.0)

    def test_small_grid_rejected(self, harmonic8):
        with pytest.raises(ValueError):
            fourier_coefficients(harmonic8.powers(1)[0], CircleGrid(8), harmonic8)

    def test_mismatched_truncation_rejected(self, harmonic8):
        # the divisor cells are those of t's bands, so S must be t's size
        s = build_shift(harmonic_weights(9), 9).powers(1)[0]
        with pytest.raises(ValueError, match="need an 8 x 8 matrix"):
            fourier_coefficients(s, CircleGrid(18), harmonic8)

    def test_agrees_with_column_extraction(self, harmonic8):
        # the quadrature recovers the coefficients the polynomial was built from
        col = random_polynomial(harmonic8, seed=42, trial=0)
        s = polynomial_in(harmonic8, col)
        quad = fourier_coefficients(s, CircleGrid(16), harmonic8)
        for k in range(1, 8):
            assert abs(quad[k - 1] - col[k - 1]) < 1e-12


class TestFejerMemory:
    def test_default_run_holds_each_conjugate_once(self):
        fejer()  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            fejer()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # defaults: N = 32, M = 64 nodes.  Live at the peak: the (M, N, N)
        # conjugates, the (31, N, N) quadratures, and small arrays.  A stack of
        # the powers T^1..T^31, a list of the conjugates next to their stack, or
        # a second quadrature array for the 1/M scaling adds 0.5 MB or 1 MB.
        conjugates = 64 * 32 * 32 * 16
        stack = 31 * 32 * 32 * 16
        assert peak <= conjugates + stack + 128 * 1024


class TestFejerSum:
    def test_single_term_n2(self, harmonic8):
        t = harmonic8.powers(1)[0]
        out = polynomial_in(harmonic8, fejer_coefficients([1.0], 2))
        assert np.max(np.abs(out - 0.5 * t)) < 1e-14

    def test_single_term_large_n(self):
        t = build_shift(harmonic_weights(8), 8)
        out = polynomial_in(t, fejer_coefficients([1.0], 1000))
        # weight (1000-1)/1000 = 0.999 on T^1 -- higher powers never touched
        assert np.max(np.abs(out - 0.999 * t.powers(1)[0])) < 1e-14

    def test_two_terms(self, harmonic8):
        powers = harmonic8.powers(4)
        out = polynomial_in(harmonic8, fejer_coefficients([3.0, 5.0], 4))
        expected = (3.0 / 4.0) * 3.0 * powers[0] + (2.0 / 4.0) * 5.0 * powers[1]
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fejer_coefficients([1.0], 0)

    def test_error_bound(self, harmonic8):
        # || S - Fejer sum of S at order n || <= (d/n) sum_j |coeff(j)| ||T^j||
        powers = harmonic8.powers(7)
        for trial in range(5):
            s = polynomial_in(harmonic8, random_polynomial(harmonic8, seed=13, trial=trial))
            series = fourier_coefficients(s, CircleGrid(16), harmonic8)
            d = len(series)
            for n in (7, 14, 70):
                approx = polynomial_in(harmonic8, fejer_coefficients(series, n))
                bound = (d / n) * sum(abs(series[j - 1]) * operator_norm(powers[j - 1])
                                      for j in range(1, 8))
                assert operator_norm(s - approx) <= bound + 1e-10


class TestLinearDependenceCertificate:
    def test_projection_yields_witness(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u /= np.linalg.norm(u)
        p = np.outer(u, u.conj())
        witness = certify_no_gauge_linear_dependence([p, p @ p])
        assert witness is not None
        assert witness.kind == "linear_dependence"
        assert witness.top_index == 2
        assert witness.dependence_norm <= 1e-10 * witness.top_power_norm + 1e-12
        assert witness.top_power_norm > 1e-10

    def test_nilpotent_yields_none(self):
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0
        assert certify_no_gauge_linear_dependence([e12, e12 @ e12]) is None

    def test_independent_powers_yield_none(self):
        t = build_shift(harmonic_weights(8), 8)
        assert certify_no_gauge_linear_dependence(t.powers(4)) is None


class TestNormScanCertificate:
    def test_diagonal_compact_operator(self):
        n = 8
        t = np.diag(1.0 / (np.arange(n) + 1.0)).astype(complex)
        powers = [t, t @ t]
        witness = certify_no_gauge_norm_scan([1.0, -1.0], powers, CircleGrid(64),
                                             margin=0.5)
        assert witness is not None
        assert witness.kind == "norm_asymmetry"
        assert witness.base_norm == pytest.approx(0.25, abs=1e-12)
        assert witness.ratio == pytest.approx(8.0, abs=1e-12)
        assert witness.phase == pytest.approx(-1.0, abs=1e-12)

    def test_shift_scan_is_flat(self):
        t = build_shift(harmonic_weights(8), 8)
        witness = certify_no_gauge_norm_scan([1.0, 0.5, -2.0], t.powers(3),
                                             CircleGrid(16), margin=1e-8)
        assert witness is None

    def test_single_mode_is_flat(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        witness = certify_no_gauge_norm_scan([2.0], [a], CircleGrid(8), margin=1e-9)
        assert witness is None

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            certify_no_gauge_norm_scan([0.0], [np.eye(2)], CircleGrid(4), 0.1)


class TestGaugeInvariants:
    def test_isometry_on_shift_polynomials(self):
        t = build_shift(harmonic_weights(16), 16)
        grid = CircleGrid(32)
        for trial in range(3):
            s = polynomial_in(t, random_polynomial(t, seed=21, trial=trial))
            base = operator_norm(s)
            for lam in grid.nodes[::4]:
                assert abs(operator_norm(gauge_conjugate(s, lam)) - base) < 1e-9

    def test_zero_series_forces_zero_operator(self):
        # uniqueness at truncation: all coefficients tiny => the operator is tiny
        t = build_shift(harmonic_weights(8), 8)
        powers = t.powers(7)
        s = sum(1e-14 * p for p in powers)
        series = fourier_coefficients(s, CircleGrid(16), t)
        assert all(abs(series[k - 1]) < 1e-12 for k in range(1, 8))
        total = sum(operator_norm(p) for p in powers)
        assert operator_norm(s) < 1e-9 * total

    def test_partial_sums_reconstruct(self):
        t = build_shift(harmonic_weights(12), 12)
        powers = t.powers(11)
        for trial in range(3):
            s = polynomial_in(t, random_polynomial(t, seed=33, trial=trial))
            series = fourier_coefficients(s, CircleGrid(24), t)
            recon = sum(series[k - 1] * powers[k - 1] for k in range(1, 12))
            assert operator_norm(s - recon) < 1e-10

    @settings(deadline=None, derandomize=True)
    @given(st.integers(2, 48),
           st.sampled_from(["harmonic", "geometric:0.5", "geometric:0.9", "ones"]),
           st.integers(0, 2**32 - 1), st.floats(-math.pi, math.pi))
    def test_isometry_property(self, n, spec, seed, theta):
        # D S D* with D = diag(lam^j) unitary has the norm of S.  The computed
        # conjugate differs from the exact one entrywise by the rounding of
        # lam^j (binary powering, under 2 log2(N) complex products) and of two
        # products per entry, so by at most 4 (log2(N) + 1) sqrt(5) u |S|,
        # whose norm is at most ||S||_F; LAPACK's largest singular value is
        # backward stable, within a small multiple of N u ||S||_F of each
        # side's.  8 N eps ||S||_F covers both with room.
        t = build_shift(parse_weight_spec(spec, n), n)
        s = polynomial_in(t, random_polynomial(t, seed, 0))
        lam = complex(math.cos(theta), math.sin(theta))
        base = np.linalg.norm(s, 2)
        drift = abs(np.linalg.norm(gauge_conjugate(s, lam), 2) - base)
        assert drift <= 8 * n * np.finfo(float).eps * np.linalg.norm(s)
