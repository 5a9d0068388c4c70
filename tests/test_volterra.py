"""Tests for the Volterra convolution-algebra module."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opalg import volterra
from opalg.numkit import operator_norm, toeplitz_operator_norm
from opalg.volterra import (
    MODE_EXACT,
    SIGMA_MAX_DENSE_DIM,
    SampledKernel,
    _window_edges,
    build_vf,
    convolve,
    frobenius_norm,
    hs_norm,
    ideal_restriction_check,
    kernel_constant,
    kernel_from_antiderivatives,
    kernel_monomial,
    kernel_notell1,
    kernel_polynomial,
    kernel_power,
    kernel_singular32,
    kernel_step,
    l1_norm_bound_check,
    muntz_no_gauge_demo,
    nilpotency_check,
    nilpotent_approximation,
    parse_kernel_spec,
    power_kernel_check,
    power_norm_table,
    sigma_max,
    titchmarsh_alpha,
    unbounded_witness_check,
    v2_exact,
)


def kernel_step_reference(pieces, n):
    """kernel_step's cell data with every piece swept over all n cells."""
    edges_lo, edges_hi = _window_edges(n)
    mu, absc, sharp = np.zeros(n), np.zeros(n), np.zeros(n)
    for a, b, v in sorted(pieces):
        lo = np.maximum(edges_lo, a)
        hi = np.minimum(edges_hi, b)
        length = np.maximum(0.0, hi - lo)
        mu += v * length
        absc += abs(v) * length
        sharp += np.where(length > 0.0,
                          v * v * ((1.0 - lo) ** 2 - (1.0 - hi) ** 2) / 2.0, 0.0)
    return mu, absc, sharp


@st.composite
def step_pieces(draw, n):
    """1-6 disjoint pieces for a grid of size n.

    Piece ends are grid-aligned (multiples of h/2, so window edges and cell
    centres), arbitrary, or a sub-cell distance after another end; adjacent
    kept intervals give touching pieces.
    """
    h = 1.0 / n
    aligned = st.integers(0, 2 * n).map(lambda i: i / (2 * n))
    cuts = draw(st.lists(st.one_of(aligned, st.floats(0.0, 1.0)), min_size=1, max_size=7))
    for c in draw(st.lists(st.sampled_from(cuts), max_size=3)):
        cuts.append(min(1.0, c + draw(st.floats(0.0, 1.0, exclude_min=True)) * h))
    cuts = sorted(set(cuts))
    assume(len(cuts) >= 2)
    intervals = list(zip(cuts, cuts[1:]))
    kept = draw(st.lists(st.sampled_from(intervals), min_size=1, max_size=6, unique=True))
    values = draw(st.lists(st.floats(-8.0, 8.0), min_size=len(kept), max_size=len(kept)))
    return [(a, b, v) for (a, b), v in zip(kept, values)]


@st.composite
def step_inputs(draw, max_n=512):
    """A grid size n in [1, max_n] and pieces from `step_pieces`."""
    n = draw(st.integers(1, max_n))
    return n, draw(step_pieces(n))


class TestKernelStep:
    @settings(deadline=None, derandomize=True)
    @given(step_inputs())
    def test_matches_all_cells_reference(self, inputs):
        n, pieces = inputs
        f = kernel_step(pieces, n)
        for got, want in zip((f.mu, f.abs_cells, f.sharp_cells),
                             kernel_step_reference(pieces, n)):
            assert np.array_equal(got, want)


class TestBuildVf:
    def test_constant_kernel_smallest_grid(self):
        v = build_vf(kernel_constant(1.0, 2), 2).matrix.entries
        assert np.allclose(v, [[0.25, 0.0], [0.5, 0.25]], atol=0)

    def test_square_power_kernel_agreement(self):
        n = 64
        h = 1.0 / n
        v = build_vf(kernel_constant(1.0, n), n).matrix.entries
        target = build_vf(kernel_power(1, n), n).matrix.entries
        assert np.max(np.abs(v @ v - target)) <= 2.0 * h * h

    def test_support_band(self):
        f = kernel_step([(0.5, 1.0, 1.0)], 100)
        v = build_vf(f, 100).matrix.entries
        assert np.all(v[:, 0][:50] == 0.0)
        assert v[50, 0] != 0.0
        assert f.support_start == pytest.approx(0.5)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            build_vf(kernel_constant(1.0, 8), 16)

    def test_nonfinite_cells_rejected(self):
        with pytest.raises(ValueError):
            SampledKernel(4, MODE_EXACT, np.array([0.0, np.inf, 0.0, 0.0]),
                          np.zeros(4), np.zeros(4))

    @settings(deadline=None, derandomize=True)
    @given(step_inputs(max_n=64))
    def test_entries_are_lower_triangular_toeplitz(self, inputs):
        n, pieces = inputs
        f = kernel_step(pieces, n)
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1):
                want[i, j] = f.mu[i - j]
        assert np.array_equal(build_vf(f, n).matrix.entries, want)

    @settings(deadline=None, derandomize=True)
    @given(st.data())
    def test_product_matches_convolution(self, data):
        n, pieces = data.draw(step_inputs(max_n=64))
        f = kernel_step(pieces, n)
        g = kernel_step(data.draw(step_pieces(n)), n)
        lhs = build_vf(convolve(f, g), n).matrix.entries
        rhs = build_vf(f, n).matrix.entries @ build_vf(g, n).matrix.entries
        # two summation orders of length-n dot products differ by at most
        # 2 gamma_n sum_k |f_k g_k| <= n eps |f|_1 |g|_1, with slack 2
        eps = np.finfo(float).eps
        bound = 2.0 * n * eps * f.l1_total * g.l1_total
        assert np.max(np.abs(lhs - rhs)) <= bound
        # A p-fold chain, truncated after every factor, against matrix_power.
        # Each side makes at most p - 1 products (matrix_power's binary
        # powering makes fewer for p >= 4).  A computed product of factors
        # with max-row-sum norms a, b is within gamma_n a b of the exact one,
        # and |V_f|_inf = |mu|_1, so by induction over the products each side
        # is within ((1 + gamma_n)^(p-1) - 1) |mu|_1^p of V_f^p; at p = 2 the
        # two sides differ by 2 gamma_n |mu|_1^2, the bound above.
        p = data.draw(st.integers(2, 6))
        chain = functools.reduce(convolve, [f] * p)
        power = np.linalg.matrix_power(build_vf(f, n).matrix.entries, p)
        gamma = n * eps / (1.0 - n * eps)
        bound = 2.0 * ((1.0 + gamma) ** (p - 1) - 1.0) * np.sum(np.abs(f.mu)) ** p
        assert np.max(np.abs(build_vf(chain, n).matrix.entries - power)) <= bound


class TestPowerKernelCheck:
    def test_zeroth_power_is_identity_of_schemes(self):
        rep = power_kernel_check(0, 32)
        assert rep.passed
        assert rep.value("error_dim_32") < 1e-15

    @pytest.mark.parametrize("p", [1, 3])
    def test_error_shrinks(self, p):
        rep = power_kernel_check(p, 64)
        assert rep.passed
        assert rep.value("error_dim_128") < rep.value("error_dim_64")

    def test_power_cap(self):
        with pytest.raises(ValueError):
            power_kernel_check(9, 32)


class TestL1Bound:
    @pytest.mark.parametrize("kernel_n, n", [(64, 32), (8192, 5000)])
    def test_grid_mismatch_rejected_at_every_size(self, kernel_n, n):
        # the 8192-grid kernel is above the dense size too
        with pytest.raises(ValueError, match="grid of size"):
            l1_norm_bound_check(kernel_constant(1.0, kernel_n), n)

    def test_constant(self):
        rep = l1_norm_bound_check(kernel_constant(1.0, 256), 256)
        assert rep.passed
        assert rep.value("sigma_max") == pytest.approx(2.0 / math.pi, abs=2e-5)
        assert rep.value("l1_cell_mass") <= 1.0

    def test_linear_kernel(self):
        rep = l1_norm_bound_check(kernel_power(1, 256), 256)
        assert rep.passed
        assert rep.value("sigma_max") == pytest.approx(0.28441, abs=1e-4)
        assert rep.value("l1_cell_mass") <= 0.5

    def test_half_indicator(self):
        rep = l1_norm_bound_check(kernel_step([(0.5, 1.0, 1.0)], 128), 128)
        assert rep.passed
        assert rep.value("sigma_max") <= 0.5

    @settings(deadline=None, derandomize=True)
    @given(st.integers(1, 2 * SIGMA_MAX_DENSE_DIM), st.booleans(), st.integers(0, 2**32 - 1))
    def test_sigma_max_within_l1_mass(self, n, spike, seed):
        # ||T|| <= ||mu||_1 on both sides of the dense crossover.  Nonnegative
        # columns come close to the bound and a spike c e_k (T = c S^k) meets
        # it, so rounding above it shows; above the crossover three restarts
        # reuse the rfft/irfft buffers of one call.
        rng = np.random.default_rng(seed)
        mu = np.zeros(n)
        if spike:
            mu[rng.integers(n)] = rng.standard_normal()
        else:
            mu[:] = np.abs(rng.standard_normal(n))
        tol = max(1e-13, 4.0 * np.finfo(float).eps * n)
        assert sigma_max(mu) <= np.abs(mu).sum() * (1.0 + tol)


class TestHsNorm:
    def test_constant(self):
        f = kernel_constant(1.0, 512)
        # cell windows stop at 1 - h/2, hence the exact value 1/2 - h^2/8
        assert hs_norm(f) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_zero(self):
        assert hs_norm(kernel_step([(0.0, 1.0, 0.0)], 8)) == 0.0

    def test_matches_frobenius_within_h(self):
        for n in (64, 128):
            f = kernel_constant(1.0, n)
            v = build_vf(f, n)
            assert abs(hs_norm(f) - frobenius_norm(v)) <= 1.0 / n

    def test_notell1_closed_form(self):
        m = 5
        f = kernel_notell1(m, 64)
        expected = 1.5 * math.fsum(1.0 / k**2 for k in range(1, m + 1))
        assert hs_norm(f) ** 2 == pytest.approx(expected, abs=1e-13)


class TestNotell1:
    def test_single_block(self):
        f = kernel_notell1(1, 4)
        assert f.pieces == ((0.0, 0.5, 2.0),)
        assert f.l1_total == pytest.approx(1.0, abs=1e-15)

    def test_harmonic_partial_masses(self):
        f = kernel_notell1(3, 16)
        assert f.l1_partial(1.0 - 2.0**-3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0,
                                                            abs=1e-14)

    def test_misaligned_grid_rejected(self):
        with pytest.raises(ValueError):
            kernel_notell1(4, 8)
        with pytest.raises(ValueError):
            kernel_notell1(3, 24)

    def test_sharp_mass_approaches_quarter_pi_squared(self):
        f = kernel_notell1(10, 1024)
        assert abs(hs_norm(f) ** 2 - math.pi**2 / 4.0) < 0.15


class TestV2Exact:
    def test_root_and_norm(self):
        eta, nrm = v2_exact()
        assert eta == pytest.approx(1.8751, abs=5e-5)
        assert abs(math.cosh(eta) * math.cos(eta) + 1.0) < 1e-10
        assert nrm == pytest.approx(eta**-2)

    def test_scan_bracket_sanity(self):
        assert math.cosh(1.0) * math.cos(1.0) + 1.0 > 0.0
        assert math.cosh(2.0) * math.cos(2.0) + 1.0 < 0.0

    def test_discretization_approaches_exact(self):
        _, nrm = v2_exact()
        v = build_vf(kernel_constant(1.0, 256), 256).matrix.entries
        assert operator_norm(v @ v) == pytest.approx(nrm, abs=1e-4)


class TestPowerNormTable:
    def test_small_table(self):
        rep = power_norm_table(4, 512)
        assert rep.passed
        assert rep.value("c_01") == pytest.approx(2.0 / math.pi, abs=1e-4)
        _, nrm = v2_exact()
        assert rep.value("c_02") == pytest.approx(2.0 * nrm, abs=1e-4)

    def test_guards(self):
        with pytest.raises(ValueError):
            power_norm_table(13, 512)
        with pytest.raises(ValueError):
            power_norm_table(4, 128)


class TestConvolve:
    def test_constant_pair_gives_linear_kernel(self):
        n = 128
        conv = convolve(kernel_constant(1.0, n), kernel_constant(1.0, n))
        target = kernel_power(1, n)
        # cells match the u-kernel exactly away from the first window
        assert np.max(np.abs(conv.mu[1:] - target.mu[1:])) < 1e-15
        assert abs(conv.mu[0] - target.mu[0]) <= 0.25 / n**2

    def test_matrix_product_identity(self):
        n = 64
        f = kernel_polynomial([1.0, -0.5], n)
        g = kernel_step([(0.25, 0.75, 2.0)], n)
        lhs = build_vf(convolve(f, g), n).matrix.entries
        rhs = build_vf(f, n).matrix.entries @ build_vf(g, n).matrix.entries
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_support_addition(self):
        n = 200
        f = kernel_step([(0.3, 1.0, 1.0)], n)
        g = kernel_step([(0.2, 1.0, 1.0)], n)
        conv = convolve(f, g)
        assert abs(conv.support_start - 0.5) <= 1.0 / n

    def test_complementary_supports_annihilate(self):
        n = 100
        f = kernel_step([(0.6, 1.0, 3.0)], n)
        g = kernel_step([(0.4, 1.0, -2.0)], n)
        conv = convolve(f, g)
        assert np.all(conv.mu == 0.0)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            convolve(kernel_constant(1.0, 8), kernel_constant(1.0, 16))


class TestNilpotency:
    def test_half_support_squares_to_zero(self):
        n = 128
        f = kernel_step([(0.5, 1.0, 1.0)], n)
        assert nilpotency_check(f, 2, n)

    def test_quarter_support_cubed_is_not_zero(self):
        n = 128
        f = kernel_step([(0.25, 1.0, 1.0)], n)
        assert not nilpotency_check(f, 3, n)
        assert nilpotency_check(f, 4, n)

    def test_full_support_never_nilpotent(self):
        n = 32
        f = kernel_constant(1.0, n)
        for p in (2, 8, 31):
            assert not nilpotency_check(f, p, n)

    def test_third_support(self):
        n = 120
        f = kernel_step([(1.0 / 3.0, 1.0, 1.0)], n)
        assert nilpotency_check(f, 3, n)


class TestNilpotentApproximation:
    def test_constant_kernel(self):
        n = 200
        f = kernel_constant(1.0, n)
        h_kernel, bound = nilpotent_approximation(f, 0.1)
        assert bound == pytest.approx(0.1, abs=1e-14)
        assert nilpotency_check(h_kernel, 10, n)
        diff = operator_norm(build_vf(f, n).matrix.entries
                             - build_vf(h_kernel, n).matrix.entries)
        assert diff <= bound + 1e-10

    def test_notell1_first_block(self):
        f = kernel_notell1(4, 64)
        _, bound = nilpotent_approximation(f, 0.5)
        assert bound == pytest.approx(1.0, abs=1e-14)

    def test_zero_cutoff(self):
        f = kernel_constant(1.0, 16)
        h_kernel, bound = nilpotent_approximation(f, 0.0)
        assert bound == 0.0
        assert np.array_equal(h_kernel.mu, f.mu)

    def test_sampled_kernel_path(self):
        n = 100
        # cos(3u) to second order; a kernel without pieces takes the cell path
        f = kernel_polynomial([1.0, 0.0, -4.5], n)
        assert f.pieces is None
        h_kernel, bound = nilpotent_approximation(f, 0.2)
        diff = operator_norm(build_vf(f, n).matrix.entries
                             - build_vf(h_kernel, n).matrix.entries)
        assert diff <= bound + 1e-10

    def test_off_grid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            nilpotent_approximation(kernel_constant(1.0, 16), 0.13)


class TestTitchmarsh:
    def test_complementary_pair(self):
        n = 200
        f = kernel_step([(0.6, 1.0, 1.0)], n)
        g = kernel_step([(0.4, 1.0, 2.0)], n)
        alpha, beta = titchmarsh_alpha(f, g)
        assert alpha + beta >= 1.0 - 2.0 / n
        assert alpha == pytest.approx(0.6)
        assert beta == pytest.approx(0.4)

    def test_oversized_supports(self):
        n = 100
        f = kernel_step([(0.8, 1.0, 1.0)], n)
        g = kernel_step([(0.3, 1.0, 1.0)], n)
        alpha, beta = titchmarsh_alpha(f, g)
        assert alpha + beta == pytest.approx(1.1)

    def test_nonzero_product_rejected(self):
        n = 100
        f = kernel_step([(0.3, 1.0, 1.0)], n)
        with pytest.raises(ValueError, match="not numerically zero"):
            titchmarsh_alpha(f, f)


class TestMuntzDemo:
    def test_degree_two_hits_equioscillation_floor(self):
        rep = muntz_no_gauge_demo(2, 200)
        # no single multiple of x^2 beats the equioscillation value
        assert rep.value("sup_fit_error") >= (1.0 + math.sqrt(2.0)) / 2.0 - 1.0

    def test_degree_twelve(self):
        rep = muntz_no_gauge_demo(12, 500)
        assert rep.passed
        assert rep.value("sup_fit_error") <= 0.1
        assert rep.value("contradiction_margin") > 1.0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            muntz_no_gauge_demo(1, 100)


class TestIdealRestriction:
    def test_member_kernel_absorbs(self):
        n = 100
        f = kernel_step([(0.5, 1.0, 1.0)], n)
        g = kernel_constant(1.0, n)
        rep = ideal_restriction_check(f, 0.5, g)
        assert rep.passed
        assert rep.value("product_support_start") >= 0.5
        assert rep.value("compression_norm") == 0.0

    def test_two_members_annihilate(self):
        n = 100
        f = kernel_step([(0.5, 1.0, 1.0)], n)
        g = kernel_step([(0.5, 1.0, -1.0)], n)
        conv = convolve(g, f)
        assert np.all(conv.mu == 0.0)

    def test_trivial_ideal(self):
        n = 64
        rep = ideal_restriction_check(kernel_constant(1.0, n), 0.0,
                                      kernel_constant(1.0, n))
        assert rep.passed

    def test_nonmember_rejected(self):
        n = 100
        with pytest.raises(ValueError, match="membership"):
            ideal_restriction_check(kernel_constant(1.0, n), 0.5,
                                    kernel_constant(1.0, n))


class TestUnboundedWitness:
    def test_double_integral_closed_form(self):
        # int_0^1 int_0^x (1-t)^(-3/2) dt dx = int_0^1 (2(1-x)^(-1/2) - 2) dx = 2
        rep = unbounded_witness_check([32, 64])
        assert rep.value("kf_double_integral") == 2.0

    def test_strictly_increasing(self):
        rep = unbounded_witness_check([64, 128, 256])
        assert rep.value("sigma_dim_256") > rep.value("sigma_dim_128") > rep.value("sigma_dim_64")
        assert ("strictly_increasing", True) in rep.flags

    def test_sqrt_growth_rate(self):
        # sigma tracks sqrt(2N): doubling the grid scales sigma by sqrt(2)
        rep = unbounded_witness_check([64, 256])
        ratio = rep.value("sigma_dim_256") / rep.value("sigma_dim_64")
        assert ratio == pytest.approx(2.0, abs=0.01)

    def test_decreasing_dims_rejected(self):
        with pytest.raises(ValueError):
            unbounded_witness_check([128, 64])


class TestKernelSpecLanguage:
    def test_round_trip_constants(self):
        f = parse_kernel_spec("const:2.5", 16)
        assert f.l1_total == pytest.approx(2.5 * (1.0 - 1.0 / 32.0))

    def test_power(self):
        f = parse_kernel_spec("powern:2", 16)
        g = kernel_power(2, 16)
        assert np.array_equal(f.mu, g.mu)

    def test_step_and_notell1_and_singular(self):
        assert parse_kernel_spec("step:0.5,1,1", 16).support_start == 0.5
        assert parse_kernel_spec("notell1:2", 16).pieces is not None
        assert parse_kernel_spec("singular32", 16).mu[-1] > 0

    def test_poly(self):
        f = parse_kernel_spec("poly:1,1", 32)
        g = kernel_polynomial([1.0, 1.0], 32)
        assert np.array_equal(f.mu, g.mu)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_kernel_spec("gauss:1", 8)


def homomorphism_residual(n):
    """pi minus the self-convolution of u^(-1/2): titchmarsh's ladder column,
    with its dense matrix built entrywise from the two kernels' matrices."""
    f = kernel_monomial(-0.5, n)
    target = kernel_constant(math.pi, n)
    prod = convolve(f, f)
    dense = build_vf(target, n).matrix.entries - build_vf(prod, n).matrix.entries
    return target.mu - prod.mu, dense


def column_and_matrix(f):
    return f.mu, build_vf(f, f.grid_size).matrix.entries


class TestSigmaMax:
    # name -> (grid size -> (first column, dense matrix), tol)
    COLUMNS = {
        "const": (lambda n: column_and_matrix(kernel_constant(1.0, n)), None),
        "singular32": (lambda n: column_and_matrix(kernel_singular32(n)), None),
        "homomorphism": (homomorphism_residual, 1e-8),
    }

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("n", [64, SIGMA_MAX_DENSE_DIM, SIGMA_MAX_DENSE_DIM + 1, 480])
    def test_branch_matches_dense_power_iteration(self, monkeypatch, n, column):
        build, tol = self.COLUMNS[column]
        mu, dense = build(n)
        want = operator_norm(dense, tol=tol)

        def forbidden(*args, **kwargs):
            raise AssertionError("wrong sigma_max branch")

        dense_branch = n <= SIGMA_MAX_DENSE_DIM
        monkeypatch.setattr(volterra, "toeplitz_operator_norm" if dense_branch
                            else "operator_norm", forbidden)
        got = sigma_max(mu, tol=tol)
        assert abs(got - want) <= 1e-12 * want


class TestSchemeInvariants:
    def test_linearity_is_exact(self):
        # the matrix of a cell-wise linear combination IS the linear
        # combination of the matrices, bit for bit
        n = 64
        f = kernel_polynomial([1.0, 2.0], n)
        g = kernel_step([(0.25, 1.0, 1.5)], n)
        combo = 2.5 * f.mu + g.mu
        idx = np.arange(n)[:, None] - np.arange(n)[None, :]
        direct = np.where(idx >= 0, combo[np.clip(idx, 0, n - 1)], 0.0)
        expected = (2.5 * build_vf(f, n).matrix.entries
                    + build_vf(g, n).matrix.entries)
        assert np.array_equal(direct, expected)

    def test_l1_domination_on_step_corpus(self):
        rng = np.random.default_rng(99)
        n = 64
        for _ in range(20):
            edges = np.sort(rng.choice(np.arange(1, n), size=4, replace=False)) / n
            vals = rng.standard_normal(2) * 3.0
            f = kernel_step([(edges[0], edges[1], vals[0]),
                             (edges[2], edges[3], vals[1])], n)
            sigma = operator_norm(build_vf(f, n).matrix)
            assert sigma <= np.sum(np.abs(f.mu)) + 1e-10
            if np.any(f.mu != 0.0):
                assert sigma > 0.0

    def test_compression_monotone(self):
        n = 256
        f = kernel_singular32(n)
        v = build_vf(f, n).matrix.entries
        norms = [operator_norm(v[:m, :m]) for m in (64, 128, 192, 256)]
        for a, b in zip(norms, norms[1:]):
            assert a <= b + 1e-10

    def test_toeplitz_norm_matches_dense(self):
        n = 128
        f = kernel_notell1(4, n)
        dense = operator_norm(build_vf(f, n).matrix)
        fast = toeplitz_operator_norm(f.mu, tol=1e-12, restarts=2)
        assert abs(dense - fast) < 1e-9
