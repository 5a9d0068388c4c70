"""Tests for the Volterra convolution-algebra module."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opalg import cli, numkit, volterra
from opalg.numkit import (CERTIFIED_TOL, cauchy, certified_toeplitz_norm, operator_norm,
                          toeplitz_operator_norm)
from opalg.volterra import (
    SIGMA_MAX_DENSE_DIM,
    SampledKernel,
    _toeplitz,
    _window_edges,
    build_vf,
    hs_norm,
    kernel_constant,
    kernel_monomial,
    kernel_notell1,
    kernel_polynomial,
    kernel_power,
    kernel_singular32,
    kernel_step,
    littlereade,
    muntz,
    nilpotency_check,
    nilpotent_approximation,
    parse_kernel_spec,
    sigma_max,
    titchmarsh,
    titchmarsh_alpha,
    unbounded_witness,
    v2_exact,
)


def window_overlap_cells(pieces, n):
    """v times the length of [a, b) within each window, every piece swept
    over all n cells and added in sorted order."""
    edges_lo, edges_hi = _window_edges(n)
    mu = np.zeros(n)
    for a, b, v in sorted(pieces):
        mu += v * np.maximum(0.0, np.minimum(edges_hi, b) - np.maximum(edges_lo, a))
    return mu


def kernel_step_reference(pieces, n):
    """kernel_step's cells with every piece swept over all n cells: v h on a
    window inside [a, b) (v h/2 on cell 0's), the window overlap elsewhere."""
    edges_lo, edges_hi = _window_edges(n)
    h = 1.0 / n
    whole = np.where(np.arange(n) == 0, h / 2.0, h)
    mu = np.zeros(n)
    for a, b, v in sorted(pieces):
        inside = (edges_lo >= a) & (edges_hi <= b)
        mu += np.where(inside, v * whole, window_overlap_cells([(a, b, v)], n))
    return mu


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


@st.composite
def edge_pieces(draw):
    """A grid size n (powers of two and others, 1 to 4096) and 1-6 sorted,
    disjoint pieces whose ends lie on window edges (k +- 1/2) h, one float
    beside them, anywhere, or inside one window, with 0 and 1 among the
    candidates."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 1000, 1024, 2**12, 4095]),
                       st.integers(1, 4096)))
    h = 1.0 / n
    edge = st.integers(0, n).map(lambda k: (k - 0.5) * h if k else 0.0)
    beside = st.tuples(edge, st.sampled_from([0.0, 1.0])).map(lambda e: np.nextafter(*e))
    inside = st.tuples(st.integers(0, n - 1), st.floats(0.0, 1.0)).map(
        lambda kf: (kf[0] + kf[1]) * h)
    point = st.one_of(edge, beside, inside, st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    cuts = sorted({min(1.0, max(0.0, float(c)))
                   for c in draw(st.lists(point, min_size=2, max_size=12))})
    assume(len(cuts) >= 2)
    intervals = list(zip(cuts, cuts[1:]))
    kept = sorted(draw(st.lists(st.sampled_from(intervals), min_size=1, max_size=6,
                                unique=True)))
    return n, [(a, b, float(i)) for i, (a, b) in enumerate(kept)]


class TestKernelStep:
    @settings(deadline=None, derandomize=True)
    @given(step_inputs())
    def test_matches_all_cells_reference(self, inputs):
        n, pieces = inputs
        assert np.array_equal(kernel_step(pieces, n).mu, kernel_step_reference(pieces, n))

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(edge_pieces())
    def test_matches_all_cells_reference_over_window_edges(self, inputs):
        n, pieces = inputs
        assert np.array_equal(kernel_step(pieces, n).mu, kernel_step_reference(pieces, n))

    def test_cells_inside_a_piece_are_one_float(self):
        # per-cell edges (k +- 1/2) h gave 12 distinct values here, and 37 jumps
        # below; a 1000-cell norm's FFT length is 2048
        mu = kernel_constant(1.0, 1000).mu
        assert set(mu.tolist()) == {0.5 / 1000, 1.0 / 1000}
        assert numkit._runs(mu, 2048) == ([0, 1], [0.5 / 1000, 0.5 / 1000])
        mu = kernel_step([(0.0, 0.5, 1.0)], 200).mu
        assert np.count_nonzero(np.diff(mu, prepend=0)) == 4

    def test_whole_interval_and_one_window(self):
        n = 1000
        # the last window stops at 1 - h/2, inside [0, 1): a whole window
        assert kernel_step([(0.0, 1.0, 1.0)], n).mu[-1] == 1.0 / n
        # a piece inside window 7 meets that window alone
        mu = kernel_step([(7.1 / n, 7.3 / n, 1.0)], n).mu
        assert np.flatnonzero(mu).tolist() == [7] and mu[7] == 7.3 / n - 7.1 / n

    @pytest.mark.parametrize("m, n", [(1, 2), (3, 8), (5, 1024), (12, 4096), (16, 2**16)])
    def test_notell1_cells_are_the_window_overlaps(self, m, n):
        # grid-aligned pieces on a power-of-two grid: v h is each whole
        # window's overlap, bit for bit
        f = kernel_notell1(m, n)
        assert f.mu.tobytes() == window_overlap_cells(f.pieces, n).tobytes()

    @pytest.mark.parametrize("pieces", [[(0.0, 0.5, 1.0), (0.49999999999999994, 1.0, 1.0)],
                                        [(0.2, 0.6, 1.0), (0.3, 0.4, 2.0)]])
    def test_overlapping_pieces_rejected(self, pieces):
        with pytest.raises(ValueError, match="overlap"):
            kernel_step(pieces, 200)


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
            SampledKernel(np.array([0.0, np.inf, 0.0, 0.0]))

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

    @pytest.mark.parametrize("dtype", [float, complex, np.float32, int])
    def test_toeplitz_holds_one_matrix(self, dtype):
        # the bytes of the index-matrix formula it replaced, at a tracemalloc
        # peak of one N x N array (that formula peaked at 3.1 of them)
        n = 480
        rng = np.random.default_rng(8)
        mu = 100.0 * rng.standard_normal(n)
        mu[::7] = -0.0
        mu = (mu + 1j * mu[::-1] if dtype is complex else mu).astype(dtype)
        idx = np.subtract.outer(np.arange(n), np.arange(n))
        want = np.where(idx >= 0, mu[np.maximum(idx, 0)], 0.0)
        tracemalloc.start()
        try:
            got = volterra._toeplitz(mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.nbytes <= peak <= 1.01 * got.nbytes

    @settings(deadline=None, derandomize=True)
    @given(st.data())
    def test_product_matches_convolution(self, data):
        n, pieces = data.draw(step_inputs(max_n=64))
        f = kernel_step(pieces, n)
        g = kernel_step(data.draw(step_pieces(n)), n)
        lhs = build_vf(SampledKernel(cauchy(f.mu, g.mu)), n).matrix.entries
        rhs = build_vf(f, n).matrix.entries @ build_vf(g, n).matrix.entries
        # two summation orders of length-n dot products differ by at most
        # 2 gamma_n sum_k |f_k g_k| <= n eps |f|_1 |g|_1, with slack 2
        eps = np.finfo(float).eps
        bound = 2.0 * n * eps * np.abs(f.mu).sum() * np.abs(g.mu).sum()
        assert np.max(np.abs(lhs - rhs)) <= bound
        # A p-fold chain, truncated after every factor, against matrix_power.
        # Each side makes at most p - 1 products (matrix_power's binary
        # powering makes fewer for p >= 4).  A computed product of factors
        # with max-row-sum norms a, b is within gamma_n a b of the exact one,
        # and |V_f|_inf = |mu|_1, so by induction over the products each side
        # is within ((1 + gamma_n)^(p-1) - 1) |mu|_1^p of V_f^p; at p = 2 the
        # two sides differ by 2 gamma_n |mu|_1^2, the bound above.
        p = data.draw(st.integers(2, 6))
        chain = SampledKernel(functools.reduce(cauchy, [f.mu] * p))
        power = np.linalg.matrix_power(build_vf(f, n).matrix.entries, p)
        gamma = n * eps / (1.0 - n * eps)
        bound = 2.0 * ((1.0 + gamma) ** (p - 1) - 1.0) * np.sum(np.abs(f.mu)) ** p
        assert np.max(np.abs(build_vf(chain, n).matrix.entries - power)) <= bound


class TestPowerKernelCheck:
    """The (p+1)-st power of plain integration, a chain of p cell
    convolutions, against the cells of its closed-form kernel u^p / p!."""

    @staticmethod
    def error(p, n):
        chain = functools.reduce(cauchy, [kernel_constant(1.0, n).mu] * (p + 1))
        return sigma_max(chain - kernel_power(p, n).mu)

    def test_zeroth_power_is_identity_of_schemes(self):
        assert self.error(0, 32) < 1e-15

    @pytest.mark.parametrize("p", [1, 3])
    def test_error_shrinks(self, p):
        assert self.error(p, 128) < self.error(p, 64)


class TestL1Bound:
    def test_constant(self):
        mu = kernel_constant(1.0, 256).mu
        sigma = sigma_max(mu)
        assert sigma <= np.abs(mu).sum() + 1e-10
        assert sigma == pytest.approx(2.0 / math.pi, abs=2e-5)
        assert np.abs(mu).sum() <= 1.0

    def test_linear_kernel(self):
        mu = kernel_power(1, 256).mu
        sigma = sigma_max(mu)
        assert sigma <= np.abs(mu).sum() + 1e-10
        assert sigma == pytest.approx(0.28441, abs=1e-4)
        assert np.abs(mu).sum() <= 0.5

    def test_half_indicator(self):
        mu = kernel_step([(0.5, 1.0, 1.0)], 128).mu
        sigma = sigma_max(mu)
        assert sigma <= np.abs(mu).sum() + 1e-10
        assert sigma <= 0.5

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

    def test_kernel_without_pieces_rejected(self):
        with pytest.raises(ValueError, match="pieces"):
            hs_norm(kernel_power(1, 16))

    def test_matches_frobenius_within_h(self):
        for n in (64, 128):
            f = kernel_constant(1.0, n)
            frobenius = np.linalg.norm(build_vf(f, n).matrix.entries)
            assert abs(hs_norm(f) - frobenius) <= 1.0 / n

    @settings(deadline=None, derandomize=True)
    @given(st.one_of(step_inputs(), edge_pieces()))
    def test_matches_exact_mass(self, inputs):
        # Each term v^2 (b' - a) ((1 - a) + (1 - b')) / 2 is a product of
        # nonnegative floats.  With fl(x op y) = (x op y)(1 + d), |d| <= u =
        # 2^-53, and no underflow: v*v and b' - a round once each; the sum of
        # the nonnegative 1 - a and 1 - b' rounds at most three times, so it
        # lies within a factor (1 + u)^2 of exact; the two products round
        # once each and halving is exact.  A term is its exact value times
        # (1 + t) with |t| <= gamma_6 (gamma_k = k u / (1 - k u); Higham
        # 2002, Lemma 3.1), fsum rounds the sum of nonnegative terms once and
        # sqrt once more: |hs^2 / S - 1| <= (1 + gamma_7)(1 + u)^2 - 1 <= gamma_9,
        # S the exact mass over windows that stop at e = fl((N - 1/2) h).
        n, pieces = inputs
        f = kernel_step(pieces, n)
        e = Fraction((n - 0.5) * f.h)
        terms = [Fraction(v) ** 2 * (min(Fraction(b), e) - Fraction(a))
                 * ((1 - Fraction(a)) + (1 - min(Fraction(b), e))) / 2
                 for a, b, v in f.pieces if Fraction(a) < e]
        # a term of at least 2^-1000 keeps every product and the halving normal
        assume(all(t == 0 or t >= Fraction(2) ** -1000 for t in terms))
        exact = sum(terms, Fraction(0))
        u = Fraction(1, 2**53)
        gamma_9 = 9 * u / (1 - 9 * u)
        assert abs(Fraction(hs_norm(f)) ** 2 - exact) <= gamma_9 * exact

    def test_notell1_closed_form(self):
        m = 5
        f = kernel_notell1(m, 64)
        expected = 1.5 * math.fsum(1.0 / k**2 for k in range(1, m + 1))
        assert hs_norm(f) ** 2 == pytest.approx(expected, abs=1e-13)


class TestNotell1:
    def test_single_block(self):
        f = kernel_notell1(1, 4)
        assert f.pieces == ((0.0, 0.5, 2.0),)
        assert np.abs(f.mu).sum() == pytest.approx(1.0, abs=1e-15)

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

    def test_kernel_and_hs_norm_hold_no_full_grid_edges(self):
        # kernel_notell1 holds the cells, one grid array of 8n bytes, and
        # SampledKernel's finiteness mask of n bytes; hs_norm sums over the
        # pieces and allocates no array
        n = 2**16
        kernel_notell1(16, n)
        tracemalloc.start()
        try:
            f = kernel_notell1(16, n)
            kernel_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            hs_norm(f)
            hs_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.0 * 8 * n <= kernel_peak <= 1.25 * 8 * n
        assert hs_peak < 64 * 1024


class TestV2Exact:
    def test_root_and_norm(self):
        eta, nrm = v2_exact()
        assert eta == pytest.approx(1.8751, abs=5e-5)
        assert abs(math.cosh(eta) * math.cos(eta) + 1.0) < 1e-10
        assert nrm == pytest.approx(eta**-2)

    def test_bits_pinned(self):
        # v2norm and muntz report these bits; a change to find_root must not move them
        assert v2_exact() == (1.8751040687120624, 0.2844128718549247)

    def test_scan_bracket_sanity(self):
        assert math.cosh(1.0) * math.cos(1.0) + 1.0 > 0.0
        assert math.cosh(2.0) * math.cos(2.0) + 1.0 < 0.0

    def test_discretization_approaches_exact(self):
        _, nrm = v2_exact()
        v = build_vf(kernel_constant(1.0, 256), 256).matrix.entries
        assert operator_norm(v @ v) == pytest.approx(nrm, abs=1e-4)


class TestPowerNormTable:
    def test_small_table(self):
        rep = littlereade(dim=512, nmax=4)
        assert rep.passed
        assert rep.value("c_01") == pytest.approx(2.0 / math.pi, abs=1e-4)
        _, nrm = v2_exact()
        assert rep.value("c_02") == pytest.approx(2.0 * nrm, abs=1e-4)

    def test_guards(self):
        with pytest.raises(ValueError):
            littlereade(dim=512, nmax=13)
        with pytest.raises(ValueError):
            littlereade(dim=128, nmax=4)


class TestConvolve:
    """A product of kernels is the Cauchy product of their cell columns."""

    def test_constant_pair_gives_linear_kernel(self):
        n = 128
        mu = kernel_constant(1.0, n).mu
        conv = cauchy(mu, mu)
        target = kernel_power(1, n)
        # cells match the u-kernel exactly away from the first window
        assert np.max(np.abs(conv[1:] - target.mu[1:])) < 1e-15
        assert abs(conv[0] - target.mu[0]) <= 0.25 / n**2

    def test_matrix_product_identity(self):
        n = 64
        f = kernel_polynomial([1.0, -0.5], n)
        g = kernel_step([(0.25, 0.75, 2.0)], n)
        lhs = build_vf(SampledKernel(cauchy(f.mu, g.mu)), n).matrix.entries
        rhs = build_vf(f, n).matrix.entries @ build_vf(g, n).matrix.entries
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_support_addition(self):
        n = 200
        f = kernel_step([(0.3, 1.0, 1.0)], n)
        g = kernel_step([(0.2, 1.0, 1.0)], n)
        conv = SampledKernel(cauchy(f.mu, g.mu))
        assert abs(conv.support_start - 0.5) <= 1.0 / n

    def test_complementary_supports_annihilate(self):
        n = 100
        f = kernel_step([(0.6, 1.0, 3.0)], n)
        g = kernel_step([(0.4, 1.0, -2.0)], n)
        assert np.all(cauchy(f.mu, g.mu) == 0.0)


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

    def test_step_kernel_below_cutoff_truncates_to_zero(self):
        f = kernel_step([(0.0, 0.25, 1.0)], 8)
        h_kernel, bound = nilpotent_approximation(f, 0.5)
        assert h_kernel.pieces == ()
        assert np.all(h_kernel.mu == 0.0)
        assert bound == 0.25

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

    # constructors without pieces: their l1 mass comes from the cells
    CELL_KERNELS = {
        "powern": lambda n: kernel_power(2, n),
        "singular32": kernel_singular32,
        "monomial": lambda n: kernel_monomial(-0.5, n),
        "poly": lambda n: kernel_polynomial([1.0, 0.0, -4.5], n),
    }

    @pytest.mark.parametrize("name", sorted(CELL_KERNELS))
    @pytest.mark.parametrize("n, delta", [(200, 0.1), (40, 0.25), (40, 1.0)])
    def test_cell_path_bound_is_removed_column_mass(self, name, n, delta):
        f = self.CELL_KERNELS[name](n)
        assert f.pieces is None
        h_kernel, bound = nilpotent_approximation(f, delta)
        d = round(delta * n)
        absc = np.abs(f.mu)
        if d < n:
            # the window straddling delta keeps its upper half
            assert bound == float(np.sum(absc[:d]) + 0.5 * absc[d])
            assert np.array_equal(h_kernel.mu[d + 1:], f.mu[d + 1:])
            assert h_kernel.mu[d] == 0.5 * f.mu[d]
        else:
            # nothing is kept: the bound is the whole column's mass
            assert bound == pytest.approx(absc.sum(), rel=1e-14)
        assert np.all(h_kernel.mu[:d] == 0.0)
        assert nilpotency_check(h_kernel, round(1.0 / delta), n)
        diff = operator_norm(build_vf(f, n).matrix.entries
                             - build_vf(h_kernel, n).matrix.entries)
        assert diff <= bound + 1e-10


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

    def test_dense_ladder_rungs_match_lapack(self):
        # the default ladder's three rungs, where power iteration at tol 1e-8
        # stopped 7.9e-6, 2.0e-5 and 2.0e-5 short in the residual's clustered
        # top singular values, are certified and land on LAPACK's norm
        rep = titchmarsh()
        for n in (120, 240, 480):
            _, dense = homomorphism_residual(n)
            sigma = np.linalg.svd(dense, compute_uv=False)[0]
            assert abs(rep.value(f"homomorphism_error_dim_{n}") - sigma) <= 1e-12 * sigma

    def test_rung_of_1200_cells_lands_on_lapack(self):
        # power iteration at tol 1e-8 stops 2.6e-5 short of this norm, in the
        # residual's clustered top singular values; the certificate does not
        rep = titchmarsh(dim=600)
        _, dense = homomorphism_residual(1200)
        sigma = np.linalg.svd(dense, compute_uv=False)[0]
        got = rep.value("homomorphism_error_dim_1200")
        assert abs(got - sigma) <= CERTIFIED_TOL * sigma

    def test_rung_past_certificate_resolution_refused_first(self, monkeypatch, capsys):
        # 2 dim = 2400 cells exceed the certificate's N = 2370; the refusal
        # comes before the support checks run
        def forbidden(*args, **kwargs):
            raise AssertionError("titchmarsh ran its checks before its rungs")

        monkeypatch.setattr(volterra, "titchmarsh_alpha", forbidden)
        monkeypatch.setattr(volterra, "nilpotency_check", forbidden)
        assert cli.main(["titchmarsh", "--dim", "1200"]) == 2
        assert "N=2400: the certificate's resolution" in capsys.readouterr().err


class TestMuntzDemo:
    def test_degree_two_hits_equioscillation_floor(self):
        rep = muntz(dim=200, nmax=2)
        # no single multiple of x^2 beats the equioscillation value
        assert rep.value("sup_fit_error") >= (1.0 + math.sqrt(2.0)) / 2.0 - 1.0

    def test_degree_twelve(self):
        rep = muntz(dim=500, nmax=12)
        assert rep.passed
        assert rep.value("sup_fit_error") <= 0.1
        assert rep.value("contradiction_margin") > 1.0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            muntz(dim=100, nmax=1)


class TestIdealRestriction:
    """The kernels vanishing below x0 form an ideal: products with a member
    stay above x0.  The corner compression P V_f P, P projecting on [0, x0],
    reads only the cells below x0, so it vanishes for members and separates
    non-members."""

    def test_member_kernel_absorbs(self):
        n, d = 100, 50  # x0 = 0.5
        f = kernel_step([(0.5, 1.0, 1.0)], n)
        g = kernel_constant(1.0, n)
        assert f.support_start >= 0.5
        assert SampledKernel(cauchy(g.mu, f.mu)).support_start >= 0.5
        assert sigma_max(f.mu[:d]) == 0.0
        # the corner of V_f is the matrix of f's cells below x0 alone
        assert np.array_equal(_toeplitz(f.mu)[:d, :d], _toeplitz(f.mu[:d]))

    def test_two_members_annihilate(self):
        n = 100
        f = kernel_step([(0.5, 1.0, 1.0)], n)
        g = kernel_step([(0.5, 1.0, -1.0)], n)
        assert np.all(cauchy(g.mu, f.mu) == 0.0)

    def test_trivial_ideal(self):
        # x0 = 0 is the whole algebra: a product of kernels supported from 0
        # is supported from 0 (support starts add, as Titchmarsh's theorem says)
        f = kernel_constant(1.0, 64)
        assert SampledKernel(cauchy(f.mu, f.mu)).support_start == 0.0

    def test_nonmember_rejected(self):
        n, d = 100, 50  # x0 = 0.5
        f = kernel_constant(1.0, n)
        assert f.support_start < 0.5
        assert sigma_max(f.mu[:d]) > 0.0


class TestUnboundedWitness:
    def test_double_integral_closed_form(self):
        # int_0^1 int_0^x (1-t)^(-3/2) dt dx = int_0^1 (2(1-x)^(-1/2) - 2) dx = 2
        rep = unbounded_witness(dim=128)
        assert rep.value("kf_double_integral") == 2.0

    def test_strictly_increasing(self):
        rep = unbounded_witness(dim=256)
        assert rep.value("sigma_dim_256") > rep.value("sigma_dim_128") > rep.value("sigma_dim_64")
        assert ("strictly_increasing", True) in rep.flags

    def test_sqrt_growth_rate(self):
        # sigma tracks sqrt(2N): doubling the grid scales sigma by sqrt(2)
        rep = unbounded_witness(dim=256)
        ratio = rep.value("sigma_dim_256") / rep.value("sigma_dim_64")
        assert ratio == pytest.approx(2.0, abs=0.01)

    def test_dim_below_four_rejected(self):
        # the ladder's first grid, dim // 4 cells, would be empty
        for dim in (2, 3):
            with pytest.raises(ValueError, match="at least 4"):
                unbounded_witness(dim=dim)


class TestKernelSpecLanguage:
    def test_round_trip_constants(self):
        f = parse_kernel_spec("const:2.5", 16)
        assert np.abs(f.mu).sum() == pytest.approx(2.5 * (1.0 - 1.0 / 32.0))

    def test_power(self):
        f = parse_kernel_spec("powern:2", 16)
        g = kernel_power(2, 16)
        assert np.array_equal(f.mu, g.mu)

    def test_step_and_notell1_and_singular(self):
        assert parse_kernel_spec("step:0.5,1,1", 16).support_start == 0.5
        assert parse_kernel_spec("notell1:2", 16).pieces is not None
        assert parse_kernel_spec("singular32", 16).mu[-1] > 0

    def test_malformed_step_piece_named(self):
        with pytest.raises(ValueError, match=r"step piece '0,0.5' is not of the form a,b,v"):
            parse_kernel_spec("step:0.5,1,1;0,0.5", 16)

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
    prod = SampledKernel(cauchy(f.mu, f.mu))
    dense = build_vf(target, n).matrix.entries - build_vf(prod, n).matrix.entries
    return target.mu - prod.mu, dense


def column_and_matrix(f):
    return f.mu, build_vf(f, f.grid_size).matrix.entries


class TestSigmaMax:
    # name -> grid size -> (first column, dense matrix)
    COLUMNS = {
        "const": lambda n: column_and_matrix(kernel_constant(1.0, n)),
        "singular32": lambda n: column_and_matrix(kernel_singular32(n)),
    }

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("n", [64, SIGMA_MAX_DENSE_DIM, SIGMA_MAX_DENSE_DIM + 1, 480])
    def test_branch_matches_dense_power_iteration(self, monkeypatch, n, column):
        mu, dense = self.COLUMNS[column](n)
        want = operator_norm(dense)

        def forbidden(*args, **kwargs):
            raise AssertionError("wrong sigma_max branch")

        wrong = "toeplitz_operator_norm" if n <= SIGMA_MAX_DENSE_DIM else "operator_norm"
        monkeypatch.setattr(volterra, wrong, forbidden)
        assert abs(sigma_max(mu) - want) <= 1e-12 * want

    def test_certified_rung_holds_one_matrix(self):
        # the Gram matrix and its factor share one N x N buffer; a second
        # N x N array (the dense matrix, a LAPACK working copy) would double it
        mu, _ = homomorphism_residual(480)
        certified_toeplitz_norm(mu)  # warm the FFT plan cache of the start
        tracemalloc.start()
        try:
            certified_toeplitz_norm(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = mu.itemsize * 480 * 480
        assert buffer <= peak <= 1.05 * buffer


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
            sigma = operator_norm(build_vf(f, n).matrix.entries)
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
        dense = operator_norm(build_vf(f, n).matrix.entries)
        fast = toeplitz_operator_norm(f.mu, tol=1e-12, restarts=2)
        assert abs(dense - fast) < 1e-9
