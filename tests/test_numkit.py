"""Unit tests for the foundation numerics."""

import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opalg import numkit
from opalg.numkit import (
    BLOCK_BYTES,
    ComplexMatrix,
    ConvergenceError,
    _cholesky_in_place,
    _gram_from_column,
    _round_robin,
    _row_norms,
    certified_toeplitz_norm,
    find_root,
    jacobi_svd,
    operator_norm,
    svd_oracle,
    toeplitz_operator_norm,
)
from opalg.volterra import (_toeplitz, kernel_constant, kernel_monomial, kernel_notell1,
                            parse_kernel_spec)


def volterra_matrix(n):
    """Midpoint discretization of integration from 0, used as a workhorse here."""
    h = 1.0 / n
    idx = np.arange(n)[:, None] - np.arange(n)[None, :]
    first = np.full(n, h)
    first[0] = h / 2.0
    return np.where(idx >= 0, first[np.clip(idx, 0, n - 1)], 0.0)


def seed_411_matrix():
    """The n = 115 complex Gaussian matrix drawn from default_rng([411, 6, 4]).

    Its top two singular values differ by only 0.0199.
    """
    rng = np.random.default_rng([411, 6, 4])
    return rng.standard_normal((115, 115)) + 1j * rng.standard_normal((115, 115))


def _norm(x):
    """The sequential oracle's vector norm: `np.linalg.norm`'s 1-D formula on
    pieces of at most 8192 entries, their squares added in order."""
    x = x.ravel(order="K")
    squares = 0.0
    for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
        for lo in range(0, x.size, 8192):
            squares += part[lo:lo + 8192].dot(part[lo:lo + 8192])
    return math.sqrt(squares)


def sequential_power_iterate(matvec, rmatvec, n, complex_start, tol, restarts,
                             max_iter, label):
    """The one-vector power-iteration loop the block core replaced, kept
    verbatim as the reference its results must equal bit for bit."""
    best = 0.0
    for restart in range(1, restarts + 1):
        rng = np.random.default_rng(restart)
        v = rng.standard_normal(n)
        if complex_start:
            v = v + 1j * rng.standard_normal(n)
        v = v / _norm(v)
        sigma = 0.0
        settled = 0
        for _ in range(max_iter):
            w = matvec(v)
            s = _norm(w)
            if s == 0.0:
                sigma = 0.0
                break
            z = rmatvec(w)
            nz = _norm(z)
            if nz == 0.0:
                sigma = s
                break
            v = z / nz
            if abs(s - sigma) <= tol * s:
                settled += 1
            else:
                settled = 0
            sigma = s
            if settled >= 3:
                break
        else:
            raise ConvergenceError(
                f"{label} did not settle within {max_iter} iterations", sigma)
        best = max(best, sigma)
    return best


def sequential_operator_norm(a, tol=None, restarts=3, max_iter=100_000):
    n = a.shape[0]
    if tol is None:
        tol = max(1e-13, 4.0 * np.finfo(float).eps * n)
    adj = a.conj().T.copy()
    return sequential_power_iterate(lambda v: a @ v, lambda w: adj @ w, n,
                                    np.iscomplexobj(a), tol, restarts, max_iter,
                                    "power iteration")


def fft_length(n):
    length = 1
    while length < 2 * n:
        length *= 2
    return length


def run_prefix_sums(x):
    """Two-level prefix sums of one vector, written out block by block: every
    block is summed in order, then the running sum of the totals of the
    blocks before it is added to it."""
    s = x.copy()
    width = math.isqrt(s.size)
    blocks = [s[lo:lo + width] for lo in range(0, s.size, width)]
    for block in blocks:
        np.cumsum(block, out=block)
    running = np.cumsum([block[-1] for block in blocks[:-1]])
    for block, offset in zip(blocks[1:], running):
        block += offset
    return s


def run_product(col, v, adjoint=False):
    """The run product of `toeplitz_operator_norm` on one vector, with fresh
    arrays: A v = sum_r d_r S[i - s_r], A* w = sum_r conj(d_r) R[j + s_r]."""
    n = col.size
    starts, jumps = numkit._runs(col, fft_length(n))
    y = np.zeros(n, dtype=col.dtype)
    if adjoint:
        r = run_prefix_sums(v[::-1])[::-1]
        for start, d in zip(starts, np.conj(jumps).tolist()):
            y[:n - start] += r[start:] * d
    else:
        s = run_prefix_sums(v)
        for start, d in zip(starts, jumps):
            y[start:] += s[:n - start] * d
    return y


def sequential_toeplitz_operator_norm(col, tol=None, restarts=3, max_iter=100_000):
    """One vector at a time; run products where `numkit._runs` takes them,
    FFT products otherwise."""
    n = col.size
    if tol is None:
        tol = max(1e-13, 4.0 * np.finfo(float).eps * n)
    length = fft_length(n)
    is_complex = np.iscomplexobj(col)
    if numkit._runs(col, length) is not None:
        return sequential_power_iterate(lambda v: run_product(col, v),
                                        lambda w: run_product(col, w, adjoint=True), n,
                                        is_complex, tol, restarts, max_iter,
                                        "Toeplitz power iteration")
    forward, inverse = ((np.fft.fft, np.fft.ifft) if is_complex
                        else (np.fft.rfft, np.fft.irfft))
    chat = forward(col, length)
    chat_conj = np.conj(chat)
    spec = np.empty_like(chat)
    signal = np.empty(length, dtype=col.dtype)

    def product(factor, v):
        forward(v, length, out=spec)
        np.multiply(factor, spec, out=spec)
        inverse(spec, length, out=signal)
        return signal[:n]

    return sequential_power_iterate(lambda v: product(chat, v),
                                    lambda w: product(chat_conj, w), n, is_complex,
                                    tol, restarts, max_iter, "Toeplitz power iteration")


def outcome(thunk):
    """A thunk's norms, or the message and last iterate of its ConvergenceError."""
    try:
        return thunk()
    except ConvergenceError as err:
        return str(err), err.last_value


def member(rng, kind, n, is_complex, column=False):
    """A random matrix, or Toeplitz first column, of the kind drawn: "zero"
    takes the s = 0 exit and "rank1" settles at once; "tiny" entries (1e-160)
    leave ||A v|| > 0 but underflow every square of A*A v, the ||z|| = 0 exit."""
    shape = n if column else (n, n)
    x = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if is_complex else 0.0)
    if kind == "zero":
        return np.zeros_like(x)
    if kind == "tiny":
        return 1e-160 * x
    if kind == "rank1":
        # a column's corner entry alone is a rank-one Toeplitz matrix
        return np.where(np.arange(n) == n - 1, x, 0.0) if column else np.outer(x[:, 0], x[0])
    return x


kinds = st.sampled_from(["gauss", "zero", "rank1", "tiny"])


def fft_column(n):
    """The cells of u on a grid of n, all distinct: an FFT-path column."""
    col = kernel_monomial(1.0, n).mu
    assert numkit._runs(col, fft_length(n)) is None
    return col


@st.composite
def svd_inputs(draw):
    """Complex m x n matrices, m, n in [1, 24], some with zero or repeated columns."""
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    column = st.integers(0, n - 1)
    for j in draw(st.lists(column, max_size=3)):
        a[:, j] = 0.0
    for src, dst in draw(st.lists(st.tuples(column, column), max_size=3)):
        a[:, dst] = a[:, src]
    return a


class TestComplexMatrix:
    def test_dense_accepts_anything_square(self):
        m = ComplexMatrix(np.ones((3, 3)))
        assert m.entries.shape == (3, 3)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ComplexMatrix(np.ones((2, 3)))


@st.composite
def norm_inputs(draw):
    """Blocks of 1..8 real or complex rows of length 1..4096 with entries
    spread over twenty decades, as fresh arrays or as the views power
    iteration meets: the real part of a complex array, a stride-2 view and a
    buffer prefix (rows of `buf[:, :n]`)."""
    rows = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample():
        shape = (rows, 2 * n)
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-10.0, 10.0, shape)

    buf = sample() + 1j * sample() if draw(st.booleans()) else sample()
    view = draw(st.sampled_from(["copy", "real", "step", "prefix"]))
    if view == "copy":
        return buf[:, :n].copy()
    if view == "real":
        return np.asarray(buf, dtype=complex).real[:, :n]
    if view == "step":
        return buf[:, ::2]
    return buf[:, :n]


class TestNorm:
    @settings(deadline=None, derandomize=True)
    @given(norm_inputs())
    def test_same_bits_as_linalg_norm(self, x):
        assert _row_norms(x) == [float(np.linalg.norm(row)) for row in x]

    def test_long_rows_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot product of more than 10,000 entries across its
        # threads, in an order that depends on their count
        script = ("import numpy as np; from opalg.numkit import _row_norms; "
                  "rng = np.random.default_rng(5); x = rng.standard_normal((8, 2**16)); "
                  "print(_row_norms(x), _row_norms(x + 1j * rng.standard_normal(x.shape)))")
        out = [subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
        assert out[0] == out[1] and len(out[0]) > 0


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_nilpotent_jordan_cell(self):
        a = np.zeros((2, 2))
        a[1, 0] = 1.0
        assert operator_norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((5, 5))) == 0.0

    def test_volterra_against_oracle(self):
        a = volterra_matrix(64)
        assert abs(operator_norm(a) - svd_oracle(a)) < 1e-9

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        alpha = 2.5 - 1.3j
        na = operator_norm(a)
        assert operator_norm(alpha * a) / abs(alpha) == pytest.approx(na, rel=1e-10)

    def test_column_lower_bound(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        na = operator_norm(a)
        for j in range(10):
            assert np.linalg.norm(a[:, j]) <= na + 1e-12

    def test_compression_monotonicity(self):
        a = volterra_matrix(96)
        norms = [operator_norm(a[:n, :n]) for n in (24, 48, 96)]
        assert norms[0] <= norms[1] + 1e-10
        assert norms[1] <= norms[2] + 1e-10

    def test_rejects_nonfinite(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(ValueError):
            operator_norm(a)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (1, 2, 2, 2)])
    def test_rejects_shapes_other_than_square_or_stack(self, shape):
        with pytest.raises(ValueError, match="square"):
            operator_norm(np.ones(shape))

    def test_rejects_tiny_tol(self):
        with pytest.raises(ValueError):
            operator_norm(np.eye(64), tol=1e-16)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(st.integers(1, 64), st.integers(1, 8), st.integers(1, 4), st.booleans(),
           st.lists(kinds, min_size=8, max_size=8), st.sampled_from([None, 1e-9]),
           st.integers(0, 2**32 - 1))
    def test_block_equals_sequential_oracle(self, n, m, restarts, is_complex,
                                            member_kinds, tol, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([member(rng, kind, n, is_complex) for kind in member_kinds[:m]])
        kw = {"tol": tol, "restarts": restarts}
        assert operator_norm(stack, **kw) == [sequential_operator_norm(a, **kw) for a in stack]
        assert operator_norm(stack[0], **kw) == sequential_operator_norm(stack[0], **kw)
        # at two steps Gaussian members fail; the first failing row names the estimate
        assert outcome(lambda: operator_norm(stack, max_iter=2, **kw)) == outcome(
            lambda: [sequential_operator_norm(a, max_iter=2, **kw) for a in stack])

    def test_one_matrix_allocates_only_its_adjoint(self):
        a = volterra_matrix(240)
        operator_norm(a)
        tracemalloc.start()
        try:
            operator_norm(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Live at once: the adjoint copy (a.nbytes; `a.conj()` of a real matrix
        # is a itself, and every row of the block reads stride-0 views of a and
        # of the adjoint), and a few iterates of 3 rows x 8n bytes, 0.025
        # a.nbytes each.  A second n x n array does not fit.
        assert peak <= 1.25 * a.nbytes

    def test_stack_of_one_blocks_like_one_matrix(self, monkeypatch):
        # A 128 x 128 complex matrix is BLOCK_BYTES, so charged a matrix per
        # row its three restarts would run one block each; it has no gather
        # to pay for, and a row costs its 16N-byte iterate, as for one matrix.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        matmul, widths = np.matmul, []

        def spy(x, y):
            widths.append(y.shape[0])
            return matmul(x, y)

        monkeypatch.setattr(np, "matmul", spy)
        alone = operator_norm(a)
        alone_widths, widths[:] = widths[:], []
        assert operator_norm(a[None]) == [alone]
        assert widths == alone_widths and widths[0] == 3

    def test_stack_allocates_adjoint_and_two_gathers(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((64, 16, 16)) + 1j * rng.standard_normal((64, 16, 16))
        operator_norm(stack)
        tracemalloc.start()
        try:
            operator_norm(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A row costs its matrix's 4 KiB, so a block holds 64 of the 192 rows.
        # Live at once: the adjoint stack (stack.nbytes), the block's gathered
        # matrices and adjoints (BLOCK_BYTES each; the previous block's are
        # released before they are gathered), and block iterates of 64 rows x
        # 16n bytes: the current one, A v, A* w, the next one and the buffer of
        # the broadcast division, five at once, with three more for bookkeeping.
        iterate = 64 * 16 * 16
        assert peak <= stack.nbytes + 2 * BLOCK_BYTES + 8 * iterate

    @pytest.mark.xfail(strict=True, reason=(
        "operator_norm's relative-change stopping rule halts 1.1e-9 short of "
        "the top singular value when the top gap is small (0.0199 here); "
        "the Jacobi oracle matches LAPACK to 2e-14 on this matrix"))
    def test_small_gap_seed_411_against_oracle(self):
        a = seed_411_matrix()
        assert abs(operator_norm(a) - svd_oracle(a)) < 1e-9


def titchmarsh_residual(n):
    """The dense homomorphism residual of `volterra.titchmarsh`'s ladder: pi
    minus the self-convolution of u^(-1/2), whose top singular values cluster."""
    f = kernel_monomial(-0.5, n)
    return _toeplitz(kernel_constant(math.pi, n).mu - numkit.cauchy(f.mu, f.mu))


def certified_corpus():
    """Seeded real and complex matrices of assorted sizes, with seed 411's."""
    rng = np.random.default_rng(2026)
    mats = [seed_411_matrix(), volterra_matrix(64)]
    for n in (1, 2, 3, 8, 33, 90, 128):
        mats.append(rng.standard_normal((n, n)))
        mats.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return mats


def lapack_norm(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def gram_cases():
    """(matrix, from_column) pairs for the certificate's mutation tests: the
    corpus through one dense product A*A (the shift holds for any summation
    order), and the three default `titchmarsh` residuals and a complex
    Toeplitz matrix through that product and through `_gram_from_column`."""
    toeplitz = [titchmarsh_residual(n) for n in (120, 240, 480)]
    rng = np.random.default_rng(9)
    toeplitz.append(_toeplitz(rng.standard_normal(90) + 1j * rng.standard_normal(90)))
    return ([(a, False) for a in certified_corpus()]
            + [(a, from_column) for a in toeplitz for from_column in (False, True)])


class TestCertifiedNorm:
    @pytest.mark.parametrize("n", [120, 240, 256, 480])
    def test_titchmarsh_rungs_bracket_lapack(self, n):
        # N = 256 is where default-tol power iteration hits its cap
        a = titchmarsh_residual(n)
        sigma = lapack_norm(a)
        lower, upper = certified_toeplitz_norm(a[:, 0])
        assert upper <= lower * (1.0 + 1e-8)
        assert upper >= sigma
        assert lower <= sigma * (1.0 + 1e-14)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_toeplitz_columns_bracket_lapack(self, monkeypatch, tol):
        monkeypatch.setattr(numkit, "CERTIFIED_TOL", tol)
        rng = np.random.default_rng(2027)
        for n in (1, 2, 3, 8, 33, 90, 128):
            for col in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                lower, upper = certified_toeplitz_norm(col)
                sigma = lapack_norm(_toeplitz(col))
                assert upper <= lower * (1.0 + tol)
                assert upper >= sigma
                assert lower <= sigma * (1.0 + 1e-14)

    @staticmethod
    def certifies(a, t, from_column):
        """The certificate the bracket tries at t, on a fresh buffer holding
        G = fl(A*A) from one product or from A's first column."""
        if from_column:
            buffer = np.empty_like(a)
            gram_diagonal = np.empty(a.shape[0])
            _gram_from_column(a[:, 0], buffer, gram_diagonal)
        else:
            buffer = a.conj().T @ a
            gram_diagonal = buffer.diagonal().real.copy()
        return _cholesky_in_place(buffer, gram_diagonal, t)

    def test_shift_below_the_norm_is_never_certified(self):
        # and a shift well above it is, so the check is not vacuous
        for a, from_column in gram_cases():
            sigma = lapack_norm(a)
            assert not self.certifies(a, sigma * (1.0 - 1e-12), from_column)
            assert self.certifies(a, sigma * (1.0 + 1e-8), from_column)

    def test_shift_is_the_derived_one(self):
        # with k = (N + 2)^2 eps, Cholesky of (t^2 (1 - k)) I - A*A must fail at
        # t = sigma (1 + k/4), where t^2 (1 - k) ~ sigma^2 (1 - k/2), and succeed
        # at t = sigma (1 + 3k/4), where it is ~ sigma^2 (1 + k/2): an unshifted
        # or a doubled shift fails one of the two
        for a, from_column in gram_cases():
            sigma = lapack_norm(a)
            k = (a.shape[0] + 2) ** 2 * np.finfo(float).eps
            assert not self.certifies(a, sigma * (1.0 + k / 4.0), from_column)
            assert self.certifies(a, sigma * (1.0 + 0.75 * k), from_column)

    def test_factor_is_cholesky_and_gram_stays(self):
        # the lower triangle takes L with L L* = B(t), the upper keeps G
        rng = np.random.default_rng(3)
        a = _toeplitz(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        buffer = np.empty_like(a)
        gram_diagonal = np.empty(40)
        _gram_from_column(a[:, 0], buffer, gram_diagonal)
        upper = np.triu(buffer, 1)
        t = 1.5 * lapack_norm(a)
        assert _cholesky_in_place(buffer, gram_diagonal, t)
        np.testing.assert_array_equal(np.triu(buffer, 1), upper)
        factor = np.tril(buffer)
        s = t * t * (1.0 - 42**2 * np.finfo(float).eps)
        want = s * np.eye(40) - a.conj().T @ a
        np.testing.assert_allclose(factor @ factor.conj().T, want, rtol=0, atol=1e-12 * t * t)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(st.integers(1, 64), st.booleans(),
           st.lists(st.floats(-1e6, 1e6).map(lambda v: v if abs(v) > 1e-100 else 0.0),
                    min_size=128, max_size=128))
    def test_column_gram_within_derived_bound(self, n, is_complex, values):
        # |G - A*A| <= g |A|*|A| entrywise, the hypothesis of the certificate:
        # g = gamma_N for real columns and gamma_{N+2} for complex ones, whose
        # products add sqrt(2) gamma_2; A*A and |A|*|A| in long double, whose
        # own rounding is added to the bound
        col = np.array(values[:n])
        if is_complex:
            col = col + 1j * np.array(values[64:64 + n])
        buffer = np.empty((n, n), dtype=col.dtype)
        gram_diagonal = np.empty(n)
        _gram_from_column(col, buffer, gram_diagonal)
        gram = np.triu(buffer, 1) + np.diag(gram_diagonal)
        exact = _toeplitz(col).astype(np.clongdouble if is_complex else np.longdouble)
        want = exact.conj().T @ exact
        scale = abs(exact).T @ abs(exact)
        k = n + 2 if is_complex else n
        u = np.finfo(float).eps / 2
        u_ld = float(np.finfo(np.longdouble).eps) / 2
        bound = (k * u / (1 - k * u) + (n + 2) * u_ld / (1 - (n + 2) * u_ld)) * scale
        assert np.all(np.triu(abs(gram - want)) <= np.triu(bound))

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_matrix(self, n, dtype):
        assert certified_toeplitz_norm(np.zeros(n, dtype=dtype)) == (0.0, 0.0)

    def test_tol_below_resolution_rejected(self, monkeypatch):
        # the shift (N + 2)^2 eps t^2 cannot resolve a tol below 8 (N + 2)^2 eps
        col = titchmarsh_residual(120)[:, 0]
        resolution = 8.0 * 122**2 * np.finfo(float).eps
        monkeypatch.setattr(numkit, "CERTIFIED_TOL", 0.9 * resolution)
        with pytest.raises(ValueError, match="resolution"):
            certified_toeplitz_norm(col)
        monkeypatch.setattr(numkit, "CERTIFIED_TOL", resolution)
        lower, upper = certified_toeplitz_norm(col)
        assert upper <= lower * (1.0 + resolution)

    def test_largest_resolved_dim(self):
        # 8 (N + 2)^2 eps <= CERTIFIED_TOL = 1e-8 holds up to N = 2370; a zero
        # column passes the size check and returns before any N x N buffer
        assert certified_toeplitz_norm(np.zeros(2370)) == (0.0, 0.0)
        with pytest.raises(ValueError, match="resolution"):
            certified_toeplitz_norm(np.zeros(2371))

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64, np.int8, bool])
    def test_narrow_dtypes_are_certified_in_double(self, dtype):
        # single precision would round the Gram matrix and the shift far above
        # the shift's size, and an integer buffer cannot take it at all; the
        # values of all these dtypes are exact in float64 or complex128
        rng = np.random.default_rng(5)
        col = rng.integers(-3, 4, 40).astype(dtype)
        if np.iscomplexobj(col):
            col += 1j * rng.standard_normal(40).astype(dtype)
        sigma = lapack_norm(_toeplitz(col.astype(complex)))
        lower, upper = certified_toeplitz_norm(col)
        assert upper <= lower * (1.0 + numkit.CERTIFIED_TOL)
        assert upper >= sigma
        assert lower <= sigma * (1.0 + 1e-14)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numkit, "INVERSE_ITERATION_CAP", 2)
        sigma = lapack_norm(titchmarsh_residual(120))
        with pytest.raises(ConvergenceError) as info:
            certified_toeplitz_norm(titchmarsh_residual(120)[:, 0])
        assert 0.0 < info.value.last_value <= sigma

    def test_titchmarsh_rungs_take_the_pinned_steps(self, monkeypatch):
        # after a failed attempt B is factored at `upper` again, so the
        # inverse step solves with B(upper), not with the failed attempt's
        # partial factor: the rungs take 10, 10 and 8 substitutions and 15, 16
        # and 12 factorizations; stepping with the partial factor takes 13, 14
        # and 12 substitutions and 14, 15 and 13 factorizations
        counts = {}

        def counted(name):
            original = getattr(numkit, name)

            def call(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(numkit, name, call)

        counted("_substitute")
        counted("_cholesky_in_place")
        steps = []
        for n in (120, 240, 480):
            counts.update(_substitute=0, _cholesky_in_place=0)
            certified_toeplitz_norm(titchmarsh_residual(n)[:, 0])
            steps.append((counts["_substitute"], counts["_cholesky_in_place"]))
        assert steps == [(10, 15), (10, 16), (8, 12)]

    def test_column_entry_point_checks_its_input(self):
        assert certified_toeplitz_norm(np.zeros(7, dtype=complex)) == (0.0, 0.0)
        lower, upper = certified_toeplitz_norm(np.arange(1, 41, dtype=np.int8))
        sigma = lapack_norm(_toeplitz(np.arange(1.0, 41.0)))
        assert lower <= sigma * (1.0 + 1e-14) and upper >= sigma
        with pytest.raises(ValueError, match="nonempty vector"):
            certified_toeplitz_norm(np.ones((2, 2)))
        with pytest.raises(ValueError, match="nonempty vector"):
            certified_toeplitz_norm([])
        with pytest.raises(ValueError, match="NaN"):
            certified_toeplitz_norm([1.0, np.inf])
        with pytest.raises(ValueError, match="float64 or complex128"):
            certified_toeplitz_norm(np.ones(3, dtype=np.longdouble))
        with pytest.raises(ValueError, match="resolution"):
            certified_toeplitz_norm(np.zeros(2371))

    def test_rejects_non_square_non_finite_and_wide_dtypes(self):
        # the column stands for a square Toeplitz matrix; a matrix is no column
        with pytest.raises(ValueError, match="nonempty vector"):
            certified_toeplitz_norm(np.ones((2, 3)))
        with pytest.raises(ValueError, match="NaN"):
            certified_toeplitz_norm(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="float64 or complex128"):
            certified_toeplitz_norm(np.ones(2, dtype=np.longdouble))
        with pytest.raises(ValueError, match="float64 or complex128"):
            certified_toeplitz_norm(np.ones(2, dtype=object))

    def test_certified_path_makes_no_lapack_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK factorization in the certified path")

        a = titchmarsh_residual(120)
        sigma = lapack_norm(a)
        for name in ("cholesky", "solve", "svd", "eigh", "qr"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        lower, upper = certified_toeplitz_norm(a[:, 0])
        assert lower <= sigma * (1.0 + 1e-14) and upper >= sigma


class TestJacobiSvd:
    def test_zero_matrix(self):
        assert svd_oracle(np.zeros((4, 4))) == 0.0

    def test_unitary_diagonal(self):
        lam = np.exp(1j * np.array([0.3, 1.2, -2.0]))
        assert svd_oracle(np.diag(lam)) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_power_iteration(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        assert abs(operator_norm(a) - svd_oracle(a)) < 1e-9

    def test_full_spectrum_against_lapack(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        sigmas, v = jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sigmas, ref, atol=1e-12)
        # right singular vectors: columns of A@v must be orthogonal
        b = a @ v
        gram = b.conj().T @ b
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-10

    def test_rectangular_tall(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
        sigmas, _ = jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sigmas, ref, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            svd_oracle(np.eye(513))

    def test_cost_guard_rejects_before_copying(self):
        # A 200_000 x 64 view of one zero; a complex copy would take 205 MB.
        big = np.broadcast_to(np.zeros(1), (200_000, 64))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cost guard"):
                jacobi_svd(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_sweep_cap_raises_convergence_error(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with pytest.raises(ConvergenceError) as caught:
            jacobi_svd(a, max_sweeps=1)
        assert math.isfinite(caught.value.last_value)
        assert caught.value.last_value > 0.0

    def test_uses_no_lapack_factorisation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called a LAPACK factorisation")

        for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky",
                     "lstsq", "solve", "inv", "pinv", "det", "matrix_rank"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
        jacobi_svd(a)
        jacobi_svd(a, vectors=False)
        svd_oracle(a)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_oracle_of_matrix_without_entries_is_zero(self, shape):
        assert svd_oracle(np.zeros(shape)) == 0.0

    def test_oracle_goes_through_module_level_jacobi_svd(self, monkeypatch):
        # the benchmark's span tracer counts calls through this name
        calls, original = [], numkit.jacobi_svd

        def recorder(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(numkit, "jacobi_svd", recorder)
        a = seed_411_matrix()[:20, :20]
        assert svd_oracle(a) == float(original(a, vectors=False)[0][0])
        assert calls == [{"vectors": False}]

    def test_oracle_allocates_no_vectors(self):
        a = seed_411_matrix()
        _round_robin(a.shape[1])  # the schedule is cached across calls
        tracemalloc.start()
        try:
            svd_oracle(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Live at once: the rotated copy of A's columns, a round's gather of
        # the paired columns and its rotated product, each about a.nbytes
        # (16n^2).  Carrying V as well doubles all three: the [A^T | I] block
        # alone is 2 a.nbytes, and with its gather and product 6 a.nbytes.
        assert peak < 3.25 * a.nbytes

    def test_seed_411_matches_lapack(self):
        a = seed_411_matrix()
        ref = np.linalg.svd(a, compute_uv=False)
        assert abs(svd_oracle(a) - ref[0]) < 1e-12 * ref[0]

    @pytest.mark.parametrize("n", range(2, 18))
    def test_round_robin_schedule(self, n):
        rounds = _round_robin(n)
        assert len(rounds) == n - 1 + n % 2
        seen = []
        for pq in rounds:
            assert not pq.flags.writeable
            assert np.all(pq[:, 0] < pq[:, 1])
            assert len(set(pq.ravel().tolist())) == pq.size  # pairs are disjoint
            seen.extend(map(tuple, pq.tolist()))
        assert sorted(seen) == list(itertools.combinations(range(n), 2))

    @settings(deadline=None, derandomize=True)
    @given(svd_inputs())
    def test_properties_against_lapack(self, a):
        n = a.shape[1]
        sigmas, v = jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        bound = 1e-12 * max(1.0, ref[0])
        assert sigmas.shape == (n,) and v.shape == (n, n)
        assert np.max(np.abs(sigmas[:len(ref)] - ref)) <= bound
        assert np.all(sigmas[len(ref):] <= bound)  # the n - min(m, n) extra values
        assert np.all(np.diff(sigmas) <= 0.0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
        b = a @ v
        gram = b.conj().T @ b
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= bound * max(1.0, ref[0])
        values, none = jacobi_svd(a, vectors=False)
        assert none is None
        assert np.max(np.abs(values - sigmas)) <= 1e-13 * max(1.0, sigmas[0])
        assert np.max(np.abs(values[:len(ref)] - ref)) <= bound
        assert np.all(values[len(ref):] <= bound)


class TestFindRoot:
    def test_cosine(self):
        root = find_root(math.cos, (1.0, 2.0), 1e-12)
        assert root == pytest.approx(math.pi / 2, abs=1e-12)

    def test_beam_equation(self):
        # least positive root of cosh(x)cos(x) + 1, the classic clamped-beam value
        f = lambda x: math.cosh(x) * math.cos(x) + 1.0
        root = find_root(f, (1.0, 3.0), 1e-12)
        assert root == pytest.approx(1.8751, abs=5e-5)
        assert abs(f(root)) < 1e-10
        assert 1.0 < root < 3.0

    def test_linear(self):
        assert find_root(lambda x: x, (-1.0, 1.0), 1e-12) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            find_root(lambda x: 1.0 + x * x, (0.0, 1.0), 1e-10)

    def test_tol_guard(self):
        with pytest.raises(ValueError):
            find_root(math.cos, (1.0, 2.0), 1e-18)

    def test_residual_scaled_bound(self):
        # |f(root)| <= 10*tol*max(1, |f'|) on the suite's bracketing problems
        problems = [
            (math.cos, (1.0, 2.0), 1.0),
            (lambda x: math.cosh(x) * math.cos(x) + 1.0, (1.0, 3.0), 5.0),
            (lambda x: x**3 - 2.0, (1.0, 2.0), 4.0),
        ]
        tol = 1e-12
        for f, bracket, slope in problems:
            assert abs(f(find_root(f, bracket, tol))) <= 10.0 * tol * max(1.0, slope)


class TestToeplitzNorm:
    def test_matches_dense(self):
        n = 64
        h = 1.0 / n
        col = np.full(n, h)
        col[0] = h / 2
        dense = volterra_matrix(n)
        assert toeplitz_operator_norm(col, tol=1e-12, restarts=2) == pytest.approx(
            operator_norm(dense), abs=1e-10)

    def test_matches_dense_complex(self):
        rng = np.random.default_rng(13)
        col = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        idx = np.arange(48)[:, None] - np.arange(48)[None, :]
        dense = np.where(idx >= 0, col[np.clip(idx, 0, 47)], 0.0)
        assert toeplitz_operator_norm(col, tol=1e-12, restarts=2) == pytest.approx(
            operator_norm(dense), abs=1e-9)

    def test_zero_column(self):
        assert toeplitz_operator_norm(np.zeros(8)) == 0.0

    @pytest.mark.parametrize("norm", [
        lambda **kw: operator_norm(np.tril(np.ones((8, 8))), **kw),
        lambda **kw: toeplitz_operator_norm(np.ones(8), **kw),
    ], ids=["dense", "toeplitz"])
    @pytest.mark.parametrize("bad", [{"restarts": 0}, {"restarts": -1}, {"tol": 1e-16},
                                     {"tol": float("nan")}, {"max_iter": 0}],
                             ids=["restarts0", "restarts-1", "tol-below-eps-n",
                                  "tol-nan", "max-iter-0"])
    def test_both_entry_points_reject_bad_iteration_args(self, norm, bad):
        with pytest.raises(ValueError):
            norm(**bad)

    @pytest.mark.parametrize("norm", [
        lambda: operator_norm(np.tril(np.full((8, 8), 1e300)), max_iter=1),
        lambda: toeplitz_operator_norm(np.full(8, 1e300), max_iter=1),
        lambda: toeplitz_operator_norm(1e300 * fft_column(64), max_iter=1),
    ], ids=["dense", "toeplitz-runs", "toeplitz-fft"])
    def test_both_entry_points_refuse_an_overflow_at_once(self, norm):
        # ||A* A v|| is about 1e600 at the first step; with a cap of one step
        # the refusal is not a ConvergenceError after NaN steps
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                norm()

    @pytest.mark.parametrize("col", [np.random.default_rng(5).standard_normal(40),
                                     np.arange(1, 9)], ids=["float", "int"])
    def test_real_column_uses_real_transforms(self, col, monkeypatch):
        expected = toeplitz_operator_norm(col.astype(float))

        def forbidden(*args, **kwargs):
            raise AssertionError("complex FFT called")

        monkeypatch.setattr(np.fft, "fft", forbidden)
        monkeypatch.setattr(np.fft, "ifft", forbidden)
        assert toeplitz_operator_norm(col) == expected
        with pytest.raises(AssertionError, match="complex FFT"):
            toeplitz_operator_norm(col.astype(complex))

    def test_real_column_matches_complex_twin(self):
        tol = 1e-10
        rng = np.random.default_rng(21)
        col = rng.standard_normal(200)
        assert toeplitz_operator_norm(col, tol=tol, restarts=2) == pytest.approx(
            toeplitz_operator_norm(col.astype(complex), tol=tol, restarts=2), rel=tol)

    @pytest.mark.parametrize("col", [volterra_matrix(64)[:, 0],
                                     kernel_notell1(4, 128).mu],
                             ids=["volterra64", "notell1-4-128"])
    def test_real_column_starts_like_dense(self, col):
        n = col.size
        idx = np.arange(n)[:, None] - np.arange(n)[None, :]
        dense = np.where(idx >= 0, col[np.clip(idx, 0, n - 1)], 0.0)
        assert toeplitz_operator_norm(col, tol=1e-12, restarts=3) == pytest.approx(
            operator_norm(dense, tol=1e-12, restarts=3), abs=1e-12)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(st.integers(1, 512), st.booleans(), st.integers(0, 2**32 - 1))
    def test_complex_column_within_l1_mass(self, n, spike, seed):
        # ||T|| <= ||mu||_1, with equality for a single spike c e_k (T = c S^k);
        # three restarts reuse the fft/ifft buffers of one call
        rng = np.random.default_rng(seed)
        col = np.zeros(n, dtype=complex)
        if spike:
            col[rng.integers(n)] = rng.standard_normal() + 1j * rng.standard_normal()
        else:
            col[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tol = 1e-10
        sigma = toeplitz_operator_norm(col, tol=tol, restarts=3)
        assert sigma <= np.abs(col).sum() * (1.0 + tol)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(st.integers(1, 64), st.integers(1, 4), st.booleans(), kinds,
           st.sampled_from([1e-10, 1e-13]), st.integers(0, 2**32 - 1))
    def test_block_equals_sequential_oracle(self, n, restarts, is_complex, kind, tol, seed):
        col = member(np.random.default_rng(seed), kind, n, is_complex, column=True)
        kw = {"tol": tol, "restarts": restarts}
        assert toeplitz_operator_norm(col, **kw) == sequential_toeplitz_operator_norm(col, **kw)
        assert outcome(lambda: toeplitz_operator_norm(col, max_iter=2, **kw)) == outcome(
            lambda: sequential_toeplitz_operator_norm(col, max_iter=2, **kw))

    @pytest.mark.parametrize("n", [2**14, 2**15])
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_single_row_blocks_equal_sequential_oracle(self, n, is_complex):
        # from N = 2^14 on a block is one FFT row; a linear phase makes a
        # unitarily similar complex column
        col = fft_column(n)
        if is_complex:
            col = col * np.exp(0.5j * np.arange(n))
        kw = {"tol": 1e-10, "restarts": 2}
        assert toeplitz_operator_norm(col, **kw) == sequential_toeplitz_operator_norm(col, **kw)
        assert outcome(lambda: toeplitz_operator_norm(col, max_iter=2, **kw)) == outcome(
            lambda: sequential_toeplitz_operator_norm(col, max_iter=2, **kw))

    def test_power_step_allocates_nothing(self):
        mu = fft_column(2**15)
        n = mu.size
        # fill the transform plan cache, which outlives the call
        toeplitz_operator_norm(mu, tol=1e-9, restarts=2)
        tracemalloc.start()
        try:
            toeplitz_operator_norm(mu, tol=1e-9, restarts=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The FFT length is 2n.  Live at once: the column spectrum and the
        # spectrum buffer (n + 1 complex, about 16n bytes each), the signal
        # buffer (2n floats, 16n bytes) and one unit iterate (8n bytes): 56n
        # bytes.  Half an iterate of slack covers the small transients; one
        # more 8n array per step does not fit.
        assert 56 * n <= peak <= 56 * n + 4 * n

    @pytest.mark.parametrize("kind, n, is_complex, restarts", [
        ("notell1", 1024, False, 3), ("notell1", 2**14, False, 2), ("notell1", 2**14, True, 2),
        ("notell1", 2**15, False, 2), ("steps", 317**2, False, 2), ("steps", 10**5, True, 2),
        ("zero-led", 10**5, False, 2), ("zero-led", 10**5, True, 2)],
        ids=["real-1024-block", "real-16384", "complex-16384", "real-32768-partial-block",
             "steps-100489-chunks", "complex-steps-100000-partial-block-chunks",
             "zero-led-100000", "complex-zero-led-100000"])
    def test_run_blocks_equal_one_vector_oracle(self, kind, n, is_complex, restarts):
        # notell1's column has a few dozen runs; a complex multiple keeps them.
        # 2^14 and 317^2 are perfect squares, cut into whole prefix-sum blocks;
        # 2^15 and 10^5 are not, and their last block is partial.  The steps
        # column spans four output chunks, with runs starting off the chunk
        # edges, one just before an edge.  The zero-led column's first run
        # starts past a whole chunk: no run reaches the first forward chunk
        # nor the adjoint's chunks past n - 40000, which a product writes into
        # the iterate as zeros, and the chunks the first run enters part way
        # are zero on the part it misses
        starts = [0, 12345, 32767, 65539, 98000]
        if kind == "notell1":
            col = kernel_notell1(10, n).mu
        elif kind == "steps":
            col = np.repeat([1.0, -0.5, 2.0, 0.25, -1.5], np.diff(starts + [n]))
        else:
            starts = [40000, 65539, 98000]
            col = np.repeat([0.0, 1.0, -0.5, 2.0], np.diff([0] + starts + [n]))
            assert starts[0] > numkit._RUN_CHUNK and n - starts[0] < 2 * numkit._RUN_CHUNK
        if kind != "notell1":
            assert n > 3 * numkit._RUN_CHUNK
        col = col * ((0.6 + 0.8j) if is_complex else 1.0)
        runs = numkit._runs(col, fft_length(n))
        assert runs is not None and (kind == "notell1" or runs[0] == starts)
        kw = {"tol": 1e-10, "restarts": restarts}
        assert toeplitz_operator_norm(col, **kw) == sequential_toeplitz_operator_norm(col, **kw)
        assert outcome(lambda: toeplitz_operator_norm(col, max_iter=2, **kw)) == outcome(
            lambda: sequential_toeplitz_operator_norm(col, max_iter=2, **kw))

    @pytest.mark.parametrize("product", ["run", "fft"])
    def test_products_stay_on_the_calling_thread(self, product, monkeypatch):
        n = 2**14
        col = kernel_notell1(12, n).mu if product == "run" else fft_column(n)
        threads = []
        core = numkit._power_iterate

        def recording(*args):
            threads.append(threading.current_thread())
            return core(*args)

        monkeypatch.setattr(numkit, "_power_iterate", recording)
        toeplitz_operator_norm(col, tol=1e-10)
        assert threads == [threading.current_thread()]

    def test_run_power_step_allocates_nothing(self):
        mu = kernel_notell1(12, 2**15).mu
        n = mu.size
        toeplitz_operator_norm(mu, tol=1e-9, restarts=2)
        tracemalloc.start()
        try:
            toeplitz_operator_norm(mu, tol=1e-9, restarts=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A block is one row.  Live at once: the padded sums (blocks of
        # isqrt(n) entries), the block totals, the term buffer of one output
        # chunk (8n bytes here) and one unit iterate (8n bytes), which the
        # products write into.  `np.diff` before them holds 16n bytes.  Half
        # an iterate of slack covers the small transients; an output buffer
        # beside the iterate, or one more 8n array per step, does not fit.
        width = math.isqrt(n)
        blocks = -(-n // width)
        assert n == numkit._RUN_CHUNK
        live = 8 * blocks * width + 8 * (blocks - 1) + 8 * n + 8 * numkit._RUN_CHUNK
        assert live <= peak <= live + 4 * n

    @pytest.mark.parametrize("nmax", [16, 17], ids=["whole-blocks", "partial-last-block"])
    def test_run_prefix_sums_read_the_iterate_in_place(self, nmax):
        # 2^16 = 256^2 cuts into whole blocks, 2^17 into 362 blocks of 362 and
        # a partial one; either way the prefix sums read the iterate (and, for
        # the adjoint, its reversed view) without a copy
        mu = kernel_notell1(12, 2**nmax).mu
        n = mu.size
        toeplitz_operator_norm(mu, tol=1e-9, restarts=2)
        tracemalloc.start()
        try:
            toeplitz_operator_norm(mu, tol=1e-9, restarts=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A block is one row.  Live at once: the padded sums and one unit
        # iterate (about 8n bytes each), which the products write into, the
        # block totals and the term buffer of one output chunk (at most 4n
        # bytes here).  `np.diff` before them holds 16n bytes.  Half an
        # iterate of slack covers the small transients, the 64 KiB buffer of
        # the broadcast block-offset add among them; a copy of the iterate,
        # or an output buffer beside it (8n bytes), does not fit.
        width = math.isqrt(n)
        blocks = -(-n // width)
        assert n >= 2 * numkit._RUN_CHUNK
        live = 8 * blocks * width + 8 * (blocks - 1) + 8 * n + 8 * numkit._RUN_CHUNK
        assert live <= peak <= live + 4 * n

    @pytest.mark.parametrize("kind", ["notell1", "complex", "step"])
    def test_run_products_within_derived_bound(self, kind):
        # |fl(A v) - A v| <= gamma_k T|v| entrywise, k = b + nb + R + 1 (see the
        # docstring), against a np.longdouble product whose own error is at
        # most (n + R + 2) eps_ld T|v|
        n = 2**14
        col = {"notell1": kernel_notell1(12, n).mu,
               "complex": kernel_notell1(12, n).mu * (0.6 + 0.8j),
               "step": parse_kernel_spec("step:0.1,0.35,1.5;0.35,0.6,-2;0.8,1,3", n).mu}[kind]
        starts, jumps = numkit._runs(col, fft_length(n))
        rng = np.random.default_rng(3)
        v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if kind == "complex" else 0.0)
        matvec, rmatvec = numkit._run_bind(starts, jumps, n, 1, col.dtype)([0])
        wide = np.clongdouble if kind == "complex" else np.longdouble
        c = col.astype(wide)
        d = np.diff(c, prepend=0)[starts]
        width = math.isqrt(n)
        k = width + -(-n // width) + len(starts) + 1
        u = np.finfo(float).eps / 2
        gamma = k * u / (1 - k * u)
        ref_err = (n + len(starts) + 2) * float(np.finfo(np.longdouble).eps)
        for adjoint, product in ((False, matvec), (True, rmatvec)):
            x = v[::-1] if adjoint else v
            sums = np.cumsum(x.astype(wide))
            abs_sums = np.cumsum(np.abs(x).astype(np.longdouble))
            exact = np.zeros(n, dtype=wide)
            scale = np.zeros(n, dtype=np.longdouble)
            for start, jump in zip(starts, d):
                exact[start:] += (np.conj(jump) if adjoint else jump) * sums[:n - start]
                scale[start:] += np.abs(jump) * abs_sums[:n - start]
            if adjoint:
                exact, scale = exact[::-1], scale[::-1]
            # a product writes its result into the iterate it reads
            got = product(v[None].copy())[0].astype(wide)
            err = np.abs(got - exact)
            assert np.all(err <= (gamma + ref_err) * scale)
            assert np.max(err) > 0.0  # the bound is tested, not an exact match

    @settings(deadline=None, derandomize=True, max_examples=25)
    @given(st.integers(2, 256),
           st.lists(st.integers(0, 64), min_size=2, max_size=6, unique=True),
           st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=3, max_size=3))
    def test_step_kernels_match_dense(self, n, edges, values):
        edges = sorted(edges)[:len(edges) // 2 * 2]
        spec = "step:" + ";".join(f"{a / 64},{b / 64},{v}" for a, b, v in
                                  zip(edges[::2], edges[1::2], values))
        col = parse_kernel_spec(spec, n).mu
        assume(numkit._runs(col, fft_length(n)) is not None)
        # the same seeded starts and stopping rule: the two settle together
        kw = {"tol": 1e-10, "restarts": 3}
        assert toeplitz_operator_norm(col, **kw) == pytest.approx(
            operator_norm(_toeplitz(col), **kw), rel=1e-10, abs=1e-300)
