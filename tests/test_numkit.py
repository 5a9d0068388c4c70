"""Unit tests for the foundation numerics."""

import concurrent.futures
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg import numkit
from opalg.numkit import (
    BLOCK_BYTES,
    ComplexMatrix,
    ConvergenceError,
    _round_robin,
    _row_norms,
    find_root,
    jacobi_svd,
    operator_norm,
    svd_oracle,
    toeplitz_operator_norm,
)
from opalg.volterra import kernel_notell1


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
    """The sequential oracle's vector norm: `np.linalg.norm`'s 1-D formula."""
    x = x.ravel(order="K")
    if np.iscomplexobj(x):
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


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


def sequential_toeplitz_operator_norm(col, tol=None, restarts=3, max_iter=100_000):
    n = col.size
    if tol is None:
        tol = max(1e-13, 4.0 * np.finfo(float).eps * n)
    length = 1
    while length < 2 * n:
        length *= 2
    is_complex = np.iscomplexobj(col)
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
        assert m.dim == 3

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ComplexMatrix(np.ones((2, 3)))

    def test_array_interface(self):
        m = ComplexMatrix(np.eye(2))
        assert np.allclose(np.asarray(m), np.eye(2))

    def test_array_copy_is_honoured(self):
        m = ComplexMatrix(volterra_matrix(4))
        c = np.array(m)
        c[0, 3] = 7.0
        assert m.entries[0, 3] == 0.0
        assert np.asarray(m) is m.entries
        assert not np.shares_memory(np.array(m, dtype=complex), m.entries)
        with pytest.raises(ValueError):
            np.asarray(m, dtype=complex, copy=False)


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
        sol = find_root(math.cos, (1.0, 2.0), 1e-12)
        assert sol.root == pytest.approx(math.pi / 2, abs=1e-12)

    def test_beam_equation(self):
        # least positive root of cosh(x)cos(x) + 1, the classic clamped-beam value
        f = lambda x: math.cosh(x) * math.cos(x) + 1.0
        sol = find_root(f, (1.0, 3.0), 1e-12)
        assert sol.root == pytest.approx(1.8751, abs=5e-5)
        assert abs(sol.residual) < 1e-10
        assert sol.lo < sol.root < sol.hi

    def test_linear(self):
        sol = find_root(lambda x: x, (-1.0, 1.0), 1e-12)
        assert sol.root == 0.0
        assert sol.residual == 0.0

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
            sol = find_root(f, bracket, tol)
            assert abs(sol.residual) <= 10.0 * tol * max(1.0, slope)


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
        # from N = 2^14 on a block is one row, and the core runs on a worker
        # thread; a linear phase makes a unitarily similar complex column
        col = kernel_notell1(12, n).mu
        if is_complex:
            col = col * np.exp(0.5j * np.arange(n))
        kw = {"tol": 1e-10, "restarts": 2}
        assert toeplitz_operator_norm(col, **kw) == sequential_toeplitz_operator_norm(col, **kw)
        assert outcome(lambda: toeplitz_operator_norm(col, max_iter=2, **kw)) == outcome(
            lambda: sequential_toeplitz_operator_norm(col, max_iter=2, **kw))

    @pytest.mark.parametrize("n, on_worker", [(2**13, False), (2**14, True)])
    def test_only_single_row_blocks_run_on_a_worker(self, n, on_worker, monkeypatch):
        threads = []
        core = numkit._power_iterate

        def recording(*args):
            threads.append(threading.current_thread())
            return core(*args)

        monkeypatch.setattr(numkit, "_power_iterate", recording)
        toeplitz_operator_norm(kernel_notell1(12, n).mu, tol=1e-10)
        assert len(threads) == 1
        assert (threads[0] is not threading.current_thread()) == on_worker

    def test_interrupt_stops_the_worker(self, monkeypatch):
        # Ctrl-C reaches the calling thread, in `result()`; the worker must
        # not run its power iteration to the end before the call can return
        futures = []

        def interrupted(future, timeout=None):
            futures.append(future)
            raise KeyboardInterrupt

        monkeypatch.setattr(concurrent.futures.Future, "result", interrupted)
        with pytest.raises(KeyboardInterrupt):
            toeplitz_operator_norm(kernel_notell1(12, 2**14).mu)
        assert isinstance(futures[0].exception(), KeyboardInterrupt)

    def test_power_step_allocates_nothing(self):
        mu = kernel_notell1(12, 2**15).mu
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
        # more 8n array per step does not fit.  The iterates are allocated on
        # the worker thread, so the lower bound shows tracemalloc counts them.
        assert 56 * n <= peak <= 56 * n + 4 * n
