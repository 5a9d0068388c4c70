"""Foundation numerics: square complex matrices, operator 2-norm estimation
with an independent SVD oracle, matrix-free and certified norms of
lower-triangular Toeplitz matrices from their first column, the truncated
Cauchy product both algebras multiply with, the roots-of-unity node grid,
and bracketed root finding.

Everything here is a pure function on immutable inputs; all randomness
(power-iteration restarts) is seeded by the restart index so results are
reproducible bit-for-bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

# Guard for the dense Jacobi oracle; one-sided sweeps are O(N^3) per sweep.
SVD_ORACLE_MAX_DIM = 512

# Jacobi stopping rule: a column pair is rotated while |<a_p, a_q>| exceeds
# this fraction of |a_p| |a_q|, and a sweep that rotates none finishes.
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60  # and the sweep cap

# Step cap of one power-iteration restart.
POWER_ITERATION_CAP = 100_000

# Working-set budget of one power-iteration block (see `_power_iterate`).
BLOCK_BYTES = 256 * 1024

# Step cap for the inverse iteration of `certified_toeplitz_norm`.
INVERSE_ITERATION_CAP = 100

# Relative width at which `certified_toeplitz_norm` closes its bracket.
CERTIFIED_TOL = 1e-8

# Longest piece of a row `_row_norms` hands to one BLAS dot product: OpenBLAS
# splits a dot product of more than 10,000 elements across its threads, and
# the split changes the bits with the thread count.
_DOT_CHUNK = 8192

# `toeplitz_operator_norm` takes the run product while its element work
# sum_r (N - s_r) is below this multiple of L log2 L, an FFT product's cost at
# transform length L.  The measured break-even ratio (CHANGES.md) is 0.21-0.28
# at N = 1024, 0.5-1.0 at N = 4096 and above 0.77 from N = 2^14 on.
_RUN_CROSSOVER = 0.25

# Output entries per chunk of the run product's jump sum: a chunk of the
# output and the term buffer (256 KiB each on one float row) stay in cache
# while every run adds into it.
_RUN_CHUNK = 32768


class ConvergenceError(RuntimeError):
    """An iterative kernel hit its iteration cap.

    Carries the last iterate value so callers can report how far the
    computation got.
    """

    def __init__(self, message: str, last_value: float):
        super().__init__(f"{message} (last iterate {last_value!r})")
        self.last_value = last_value


@dataclass(frozen=True)
class ComplexMatrix:
    """A square matrix; the shape is validated on construction."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {e.shape}")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class CircleGrid:
    """The M-th roots of unity, the quadrature nodes for circle integrals."""

    node_count: int

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")

    @property
    def nodes(self) -> np.ndarray:
        m = self.node_count
        return np.exp(2j * np.pi * np.arange(m) / m)


def _validate_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")


def _row_norms(x: np.ndarray) -> list:
    """Euclidean norm of each row of a 2-D array, as a list of floats.  A row
    of at most _DOT_CHUNK entries gets the bits of `np.linalg.norm`, without
    its argument dispatch (which costs as much as the dot product on small
    vectors): `np.vecdot` makes the same BLAS dot per row as that formula.  A
    longer row is summed as `np.vecdot`s of _DOT_CHUNK-entry pieces added in
    order (real parts first), so its bits do not depend on the BLAS thread
    count.  A block with strided rows is first copied to unit stride, as
    `np.linalg.norm`'s ravel copies a strided vector, because BLAS sums a
    strided vector in another order."""
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    if x.shape[-1] > _DOT_CHUNK:
        squares = np.zeros(x.shape[:-1])
        for part in (x.real, x.imag) if x.dtype.kind == "c" else (x,):
            for lo in range(0, x.shape[-1], _DOT_CHUNK):
                piece = part[..., lo:lo + _DOT_CHUNK]
                squares += np.vecdot(piece, piece)
        return np.sqrt(squares).tolist()
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)).tolist()
    return np.sqrt(np.vecdot(x, x)).tolist()


def _block_rows(row_bytes: int) -> int:
    """Rows per power-iteration block: as many as fit in BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // max(row_bytes, 1))


def _starts(n: int, seeds: list, complex_start: bool) -> np.ndarray:
    """Unit start vectors, one row per seed, each drawn from `default_rng(seed)`;
    a seed that repeats is drawn once."""
    distinct = list(dict.fromkeys(seeds))
    v = np.empty((len(distinct), n), dtype=complex if complex_start else float)
    for row, seed in zip(v, distinct):
        rng = np.random.default_rng(seed)
        if complex_start:
            row[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            rng.standard_normal(out=row)
    v /= np.array(_row_norms(v))[:, None]
    return v if len(distinct) == len(seeds) else v[[distinct.index(s) for s in seeds]]


def _check_tol(tol: float, n: int):
    """ValueError unless tol >= eps * N, the smallest relative change power
    iteration resolves on N entries; NaN is rejected too.  Tested as
    N <= tol / eps, exact for eps a power of two, so that an N past the
    float range is rejected rather than overflowing."""
    if not n <= tol / _EPS:
        raise ValueError(f"tol={tol} below machine resolution eps*N at N={n}")


def _power_iterate(bind, operators, n, row_bytes, complex_start, tol, restarts, label):
    """Shared power-iteration core on A*A with seeded restarts, for
    `operators` operators of dimension n.  Returns one norm per operator.

    The iterates s_k = ||A v_k|| increase monotonically towards the norm; a
    run terminates once the relative iterate change stays below tol for three
    consecutive steps.  Every estimate is of the form ||Av|| for a unit v,
    hence a certified lower bound on the norm.  Restart r (1, ..., restarts)
    starts from `default_rng(r)`; an operator's norm is the largest of its
    restarts' estimates.

    A row is one (operator, restart) pair, numbered operator by operator.
    Rows advance together in blocks of `_block_rows(row_bytes)`: a power step
    makes one `matvec`, one `rmatvec` and one row-norm call for the whole
    block, and a row leaves the block once it settles or its iterate
    vanishes.  Each row takes exactly the steps, and gets exactly the bits,
    of a one-vector loop over that restart alone; a ConvergenceError carries
    the estimate of the first row still running, the restart such a loop
    would have failed on.  A row norm that is inf or NaN raises ValueError at
    once, numpy's overflow warnings silenced: every later step would be NaN.

    `bind(ops)` takes the operator index of each row of a block and returns
    the block's (matvec, rmatvec) pair; it is called again, after the
    previous pair is released, whenever rows leave.  Both map a (rows, n)
    array to one row of A v (or A* w) per row, and may return a view of a
    buffer that their next call overwrites, or write the product into the
    array they read: the core never reads an iterate after its product.  It
    reads w = A v before it calls `rmatvec`, and writes the next iterates
    z / ||z|| into the previous iterates' buffer (into the copy of z's
    remaining rows when rows left).
    """
    _check_tol(tol, n)
    if restarts < 1:
        raise ValueError("restarts must be positive")
    total = operators * restarts
    sigmas = [0.0] * total
    per_block = _block_rows(row_bytes)
    matvec = rmatvec = None
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        for first in range(0, total, per_block):
            live = list(range(first, min(first + per_block, total)))
            v = _starts(n, [row % restarts + 1 for row in live], complex_start)
            sigma = [0.0] * len(live)
            settled = [0] * len(live)
            for _ in range(POWER_ITERATION_CAP):
                if matvec is None:
                    matvec, rmatvec = bind([row // restarts for row in live])
                w = matvec(v)
                s = _row_norms(w)
                z = rmatvec(w)
                nz = _row_norms(z)
                keep = []
                for i, row in enumerate(live):
                    if not (s[i] < math.inf and nz[i] < math.inf):  # inf or NaN
                        raise ValueError(f"{label} overflows: ||A v|| = {s[i]!r}, ||A* A v|| = "
                                         f"{nz[i]!r}; the operand is too large to norm")
                    if s[i] == 0.0 or nz[i] == 0.0:
                        sigmas[row] = s[i]
                        continue
                    settled[i] = settled[i] + 1 if abs(s[i] - sigma[i]) <= tol * s[i] else 0
                    sigma[i] = s[i]
                    if settled[i] >= 3:
                        sigmas[row] = s[i]
                    else:
                        keep.append(i)
                if len(keep) < len(live):
                    # drop the block's operands before `bind` builds the next ones
                    matvec = rmatvec = None
                    if not keep:
                        v = w = z = None  # and its iterates before `_starts` draws the next
                        break
                    live = [live[i] for i in keep]
                    sigma = [sigma[i] for i in keep]
                    settled = [settled[i] for i in keep]
                    nz = [nz[i] for i in keep]
                    v = z = z[keep]  # a copy, free to take the next iterates
                np.divide(z, np.array(nz)[:, None], out=v)
            else:
                raise ConvergenceError(
                    f"{label} did not settle within {POWER_ITERATION_CAP} iterations", sigma[0])
    return [max(0.0, *sigmas[k:k + restarts]) for k in range(0, total, restarts)]


def _default_tol(n: int) -> float:
    """Default power-iteration tolerance: 1e-13, raised to 4*eps*N for large N."""
    return max(1e-13, 4.0 * _EPS * n)


def operator_norm(a, tol: float | None = None) -> float | list[float]:
    """Largest singular value by power iteration on A*A.

    Runs three independent iterations seeded 1, 2 and 3 and returns the
    maximum estimate.  The default tolerance is 1e-13, raised to
    4*eps*N for large matrices.

    `a` is one square matrix, for which a float is returned, or a stack of
    shape (m, N, N), for which a list of m floats is returned, each equal bit
    for bit to the norm of its matrix alone.  All restarts of all matrices
    advance as rows of blocks (see `_power_iterate`).  A row costs 16N bytes
    (a complex iterate) for one matrix, alone or a stack of one, and the bytes
    of its matrix in a stack of several.  Rows of one matrix read it through
    a (1, N, N) view that matmul broadcasts with stride 0, never a copy per
    row; a block of several matrices gathers one copy of each row's matrix
    and adjoint.  Each row's product is one BLAS gemv, as in `a @ v`: a GEMM
    over the block would change the bits.
    """
    a = np.asarray(a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    _validate_finite(a)
    stack = a if a.ndim == 3 else a[None]
    n = a.shape[-1]
    if tol is None:
        tol = _default_tol(n)
    # a.conj() returns a real matrix itself, so the adjoint is one copy
    adj = np.swapaxes(stack.conj(), 1, 2).copy()

    def bind(ops):
        if ops[0] == ops[-1]:
            # one matrix: matmul broadcasts its (1, N, N) view over the rows
            fwd, bwd = stack[ops[0]:ops[0] + 1], adj[ops[0]:ops[0] + 1]
        else:
            fwd, bwd = stack[ops], adj[ops]
        return (lambda v: np.matmul(fwd, v[:, :, None])[:, :, 0],
                lambda w: np.matmul(bwd, w[:, :, None])[:, :, 0])

    norms = _power_iterate(
        bind, len(stack), n, a.itemsize * n * n if len(stack) > 1 else 16 * n,
        np.iscomplexobj(a), tol, 3, "power iteration")
    return norms if a.ndim == 3 else norms[0]


def _gram_from_column(col: np.ndarray, buffer: np.ndarray, gram_diagonal: np.ndarray):
    """Write G = fl(A*A), A the lower-triangular Toeplitz matrix with first
    column `col`, into the strict upper triangle of `buffer` and its diagonal
    into `gram_diagonal`, one `np.cumsum` per diagonal:
    G[i, i + d] = sum_{m=d}^{N-1-i} conj(c_m) c_{m-d}, summed in order of m.
    The lower triangle is not touched."""
    n = col.size
    conj = col.conj()
    terms = conj * col
    np.cumsum(terms.real, out=gram_diagonal[::-1])
    flat = buffer.reshape(-1)
    for d in range(1, n):
        np.multiply(conj[d:], col[:n - d], out=terms[:n - d])
        np.cumsum(terms[:n - d], out=flat[d::n + 1][:n - d][::-1])


def _cholesky_in_place(buffer: np.ndarray, gram_diagonal: np.ndarray, t: float, columns: int):
    """Factor B(t) = s I - G, s = t^2 (1 - (N + 2)^2 eps), as L L*, with G in
    the strict upper triangle of `buffer` and on `gram_diagonal` (see
    `certified_toeplitz_norm`).  Left-looking, one gemv per column: column j of B
    below the diagonal is -conj(G[j, j+1:]), read from the upper triangle,
    which stays untouched, and L goes into the lower triangle, diagonal
    included.  Writes columns 0..columns-1 of L and returns `columns`, or
    returns j once pivot j is not positive, columns 0..j-1 written."""
    n = gram_diagonal.size
    s = t * t * (1.0 - (n + 2) ** 2 * _EPS)
    work = np.empty(n, dtype=buffer.dtype)
    row = np.empty(n, dtype=buffer.dtype)
    for j in range(columns):
        # w = L[j:, :j] conj(L[j, :j]), so w[0] = sum_k |L[j, k]|^2
        w = np.matmul(buffer[j:, :j], np.conjugate(buffer[j, :j], out=row[:j]),
                      out=work[:n - j])
        pivot = (s - gram_diagonal[j]) - w[0].real
        if not pivot > 0.0:
            return j
        r = math.sqrt(pivot)
        buffer[j, j] = r
        # L[i, j] = (B[i, j] - w_i) / r = (conj(G[j, i]) + w_i) / (-r)
        column = buffer[j + 1:, j]
        np.add(np.conjugate(buffer[j, j + 1:], out=row[:n - j - 1]), w[1:], out=column)
        np.divide(column, -r, out=column)
    return columns


def _substitute(buffer: np.ndarray, x: np.ndarray):
    """Overwrite x with (L L*)^-1 x, L the factor in `buffer`'s lower
    triangle: forward substitution with L, then back substitution with L*."""
    for i in range(x.size):
        x[i] = (x[i] - np.dot(buffer[i, :i], x[:i])) / buffer[i, i].real
    for i in range(x.size - 1, -1, -1):
        x[i] = (x[i] - np.vdot(buffer[i + 1:, i], x[i + 1:])) / buffer[i, i].real


def certified_toeplitz_norm(first_column) -> tuple[float, float]:
    """A bracket (lower, upper) on the largest singular value of the
    lower-triangular Toeplitz matrix A with the given first column, which is
    never formed, with upper <= lower * (1 + CERTIFIED_TOL); (0.0, 0.0) for
    a zero column.  The column is taken in float64 or complex128 (integer and
    single-precision entries are converted, since the shift below is derived
    for double rounding); a wider or non-numeric dtype, a non-finite entry,
    or an N whose resolution 8(N + 2)^2 eps exceeds CERTIFIED_TOL raises
    ValueError.

    `lower` is ||Ax|| / ||x|| for a computed x, the lower bound
    `toeplitz_operator_norm` gives, and starts at
    `toeplitz_operator_norm(first_column, tol=1e-4)`; ||Ax|| is the
    truncated `np.convolve` of the column with x.  `upper` is certified: it
    is the smallest t at which a Cholesky factorization of B(t) = s I - G
    has run to completion, where G = fl(A*A) and s = fl(t^2 (1 - k)),
    k = (n + 2)^2 eps.  One N x N buffer, the only N x N array, holds both:
    `_gram_from_column` writes G into its strict upper triangle (its
    diagonal into a vector), and `_cholesky_in_place` reads B from there and
    writes the factor L into the lower triangle, so every attempt reuses the
    buffer and nothing is rebuilt.  A step takes x = y/||y|| for
    y = B(upper)^-1 x, by two substitutions with the factor just computed
    (inverse iteration on A*A, shifted just above sigma_1^2), raises `lower`
    to ||Ax||, and tries to certify t = lower + (upper - lower) / 8.  A failed
    attempt at pivot j overwrote only columns 0..j-1 of the factor at `upper`,
    and those are factored again before the step.  The first t tried is
    lower (1 + 1e-2), 8 times as far out after each failure; every attempt
    counts as a step towards INVERSE_ITERATION_CAP.

    Why success at t proves t > sigma_1 (u = eps/2 is the unit roundoff,
    g = (n + 2) u / (1 - (n + 2) u), and nothing underflows or overflows):
    - G differs from A*A by at most g |A|*|A| entrywise, for real and complex
      inner products in any summation order (Higham 2002, sections 3.1 and
      3.6), so ||G - A*A|| <= g ||A||_F^2.  The entries of G from the column
      are the inner products of A*A, each summed in one recursive order.  The
      factorization reads G's upper triangle and its real diagonal; the
      Hermitian matrix H they define obeys the same bound.
    - B's diagonal is fl(s - g_ii), within u s of s - g_ii, so B is sI - H
      plus a diagonal of norm at most u s.
    - A Cholesky factorization that runs to completion on B gives
      B + E = L L* with |E| <= g |L| |L*|, whatever the order of its inner
      products (Demmel 1989; Higham 2002, Thm 10.3, with gamma_{n+1} <= g).
      Cauchy-Schwarz on the rows of L bounds ||E|| by g trace(L L*) <=
      g trace(B) / (1 - g), so lambda_min(B) > -g trace(B) / (1 - g) (the
      route of Rump 2006, BIT 46).
    - Success needs every pivot, and so every fl(s - g_ii), > 0.  Then
      trace(B) <= (1 + u)(n s - sum g_ii) and ||A||_F^2 <= sum g_ii / (1 - g),
      so t^2 - sigma_1^2 > (t^2 - s) - (1 + u) g n s / (1 - g) - u s.
    - s is t^2 (1 - k) to within 3u relative, so t^2 - s >= (k - 3.01 u) t^2,
      while the terms subtracted come to about n (n + 2) u t^2 + u t^2.  The
      shift k t^2 = 2 (n + 2)^2 u t^2 exceeds them for every n.
    The factorization fails once t^2 (1 - k) < sigma_1^2, so a bracket
    cannot close below a relative width of about k / 2.  An N with
    8k > CERTIFIED_TOL (N > 2370) raises ValueError; where 8k <=
    CERTIFIED_TOL, the next t stays above that floor whenever the bracket is
    still open and `lower` is within k / 2 of sigma_1.
    """
    col = np.asarray(first_column)
    if col.ndim != 1 or col.size == 0:
        raise ValueError("first_column must be a nonempty vector")
    col = col.astype(np.result_type(col.dtype, np.float64), copy=False)
    if col.dtype not in (np.float64, np.complex128):
        raise ValueError(f"the certificate needs float64 or complex128 entries, got {col.dtype}")
    _validate_finite(col)
    n = col.size
    resolution = 8.0 * (n + 2) ** 2 * _EPS
    if resolution > CERTIFIED_TOL:
        raise ValueError(f"N={n}: the certificate's resolution 8(N+2)^2 eps="
                         f"{resolution} exceeds CERTIFIED_TOL={CERTIFIED_TOL}")
    if not np.any(col):
        return 0.0, 0.0
    lower = toeplitz_operator_norm(col, tol=1e-4)
    buffer = np.empty((n, n), dtype=col.dtype)
    gram_diagonal = np.empty(n)
    _gram_from_column(col, buffer, gram_diagonal)
    x = _starts(n, [1], col.dtype.kind == "c")[0]
    upper = math.inf
    t = lower * (1.0 + 1e-2)
    for _ in range(INVERSE_ITERATION_CAP):
        done = _cholesky_in_place(buffer, gram_diagonal, t, n)
        if done == n:
            upper = t
            if upper <= lower * (1.0 + CERTIFIED_TOL):
                return lower, upper
        elif upper == math.inf:
            t = lower + 8.0 * (t - lower)
            continue
        else:
            # the arithmetic of the attempt that certified upper, so it succeeds
            _cholesky_in_place(buffer, gram_diagonal, upper, done)
        _substitute(buffer, x)
        x /= np.linalg.norm(x)
        lower = max(lower, float(np.linalg.norm(np.convolve(col, x)[:n])))
        if upper <= lower * (1.0 + CERTIFIED_TOL):
            return lower, upper
        t = lower + (upper - lower) / 8.0
    raise ConvergenceError(
        f"certified norm did not close within {INVERSE_ITERATION_CAP} steps", lower)


def _column_norms_squared(rows: np.ndarray) -> np.ndarray:
    return np.vecdot(rows, rows).real


@functools.lru_cache(maxsize=16)
def _round_robin(n: int) -> tuple:
    """Brent-Luk tournament schedule for the columns 0..n-1.

    Returns n-1 rounds for even n and n rounds for odd n (where a phantom
    column n gives each real column one bye).  A round is a read-only (k, 2)
    index array of disjoint pairs (p, q) with p < q; every such pair occurs in
    exactly one round.
    """
    players = list(range(n + n % 2))
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = sorted((min(x, y), max(x, y))
                       for x, y in zip(players[:half], reversed(players[half:]))
                       if max(x, y) < n)
        pq = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        pq.flags.writeable = False
        rounds.append(pq)
        players.insert(1, players.pop())
    return tuple(rounds)


def jacobi_svd(a, vectors: bool = True):
    """One-sided (Hestenes) Jacobi SVD of a (possibly rectangular) matrix.

    Returns (singular values in decreasing order, right singular vectors as
    columns), or (singular values, None) with `vectors=False`, which rotates
    the columns of A alone.  Column pairs are orthogonalised by unitary plane
    rotations; at convergence the singular values are the column norms.

    A sweep visits every column pair once, in the round-robin (tournament)
    order of Brent & Luk (1985): about n rounds of n/2 disjoint pairs.  The
    rotations of one round touch disjoint columns and commute, so a round is
    one vectorized step: one gather of the paired columns, one `np.vecdot`
    for the pair inner products, rotation parameters as arrays, one batched
    2x2 product that rotates the columns of A (and of V) together, and one
    scatter.  A sweep still costs O(n^2 (m + n)) flops, or O(n^2 m) without
    vectors, but in about n numpy steps instead of n(n-1)/2 interpreted ones.

    The tracked squared column norms are re-anchored to exact ones after every
    sweep: within a sweep they lose relative accuracy once a column shrinks
    below sqrt(eps) of its start, which would leave the zero singular values
    of rank-deficient inputs near 1e-8 times the largest.

    This path uses only column inner products and plane rotations -- no LAPACK
    factorisation and no code shared with `operator_norm` -- so it serves as
    the independent oracle for the power-iteration norms.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    m, n = a.shape
    # cost guard, before any copy: a sweep costs ~ n^2 m / 2, capped at the
    # square 512 budget
    if n > SVD_ORACLE_MAX_DIM or m * n * n > SVD_ORACLE_MAX_DIM**3:
        raise ValueError(
            f"shape {a.shape} exceeds the Jacobi oracle cost guard "
            f"({SVD_ORACLE_MAX_DIM} square equivalent)")
    # Row j of w is column j of A, followed by column j of V when vectors are
    # wanted, so one gather and one scatter per round rotate both.
    w = np.empty((n, m + n if vectors else m), dtype=complex)
    w[:, :m] = a.T
    _validate_finite(w[:, :m])
    if vectors:
        w[:, m:] = np.eye(n)
    sq = _column_norms_squared(w[:, :m])
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for pq in _round_robin(n):
            wpq = w[pq]
            apq = np.vecdot(wpq[:, 0, :m], wpq[:, 1, :m])
            app, aqq = sq[pq].T
            scale = np.sqrt(app * aqq)
            g = np.abs(apq)
            act = (scale > 0.0) & (g > JACOBI_TOL * scale)
            active = np.count_nonzero(act)
            if active == 0:
                continue
            if active < len(act):
                pq, wpq, apq, app, aqq, scale, g = (
                    x[act] for x in (pq, wpq, apq, app, aqq, scale, g))
            off = max(off, float(np.max(g / scale)))
            tau = (aqq - app) / (2.0 * g)
            # t = sign(tau) / (|tau| + sqrt(1 + tau^2)), with sign(0) = +1
            t = np.copysign(1.0 / (np.abs(tau) + np.hypot(1.0, tau)), tau)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            # rows p, q <- [[c, -s*phase], [s, c*phase]] @ rows p, q
            phase = np.conj(apq) / g
            rot = np.empty((len(pq), 2, 2), dtype=complex)
            rot[:, 0, 0] = c
            np.multiply(-s, phase, out=rot[:, 0, 1])
            rot[:, 1, 0] = s
            np.multiply(c, phase, out=rot[:, 1, 1])
            w[pq] = rot @ wpq
            tg = t * g
            new = np.empty((len(pq), 2))
            np.subtract(app, tg, out=new[:, 0])
            np.add(aqq, tg, out=new[:, 1])
            sq[pq] = np.maximum(new, 0.0, out=new)
        if off <= JACOBI_TOL:
            break
        # re-anchor (see the docstring); LAPACK's xGESVJ also recomputes drifted norms
        sq = _column_norms_squared(w[:, :m])
    else:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS} sweeps", math.sqrt(max(sq)))
    sigmas = np.sqrt(_column_norms_squared(w[:, :m]))
    order = np.argsort(sigmas)[::-1]
    return sigmas[order], (w[order, m:].T if vectors else None)


def svd_oracle(a) -> float:
    """Largest singular value via the dense Jacobi SVD (test/cross-check path),
    0.0 for a matrix with no entries.  Calls `jacobi_svd` without vectors."""
    sigmas, _ = jacobi_svd(a, vectors=False)
    return float(sigmas[0]) if sigmas.size else 0.0


def cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two coefficient arrays truncated to the length of a:
    the product in C[x]/(x^len(a)), where both algebras compute."""
    return np.convolve(a, b)[:len(a)]


def find_root(f, bracket, tol: float) -> float:
    """Bisection on a sign-changing bracket; returns the root.

    Bisects until the interval width is at most `tol`, then keeps bisecting
    (down to machine resolution of the bracket) while the residual still
    exceeds `tol`.  Returns the final midpoint, or an exact zero of f met on
    the way.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    resolution = _EPS * max(1.0, abs(lo), abs(hi))
    if tol < resolution:
        raise ValueError(f"tol={tol} below machine resolution {resolution}")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise ValueError("f does not change sign over the bracket")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= tol and abs(fmid) <= tol:
            break
        if hi - lo <= 4.0 * resolution:
            break
    return 0.5 * (lo + hi)


def _runs(col: np.ndarray, length: int):
    """The constant runs of a Toeplitz column as (starts, jumps), two lists
    with col = sum_r jumps[r] 1[i >= starts[r]]; None when the run product
    would cost more than an FFT product of `length` points (_RUN_CROSSOVER)."""
    jumps = np.diff(col, prepend=0)
    starts = np.flatnonzero(jumps)
    work = col.size * len(starts) - int(starts.sum())
    if work >= _RUN_CROSSOVER * length * (length.bit_length() - 1):
        return None
    return starts.tolist(), jumps[starts].tolist()


def _run_bind(starts: list, jumps: list, n: int, rows: int, dtype):
    """`_power_iterate`'s `bind` for the run product of `toeplitz_operator_norm`
    on blocks of at most `rows` rows.  The padded sums, the block totals and a
    term buffer of one chunk are allocated here, once; a product writes A v
    (or A* w) into the iterate it reads, which `_power_iterate` never reads
    after the product, and allocates only numpy's 64 KiB buffer for the
    block-offset add."""
    width = math.isqrt(n)
    blocks = -(-n // width)
    full = (blocks - 1) * width  # the entries of the blocks before the last
    sums = np.zeros((rows, blocks * width), dtype=dtype)
    totals = np.empty((rows, blocks - 1), dtype=dtype)
    term = np.empty((rows, min(n, _RUN_CHUNK)), dtype=dtype)
    first = starts[0] if starts else n  # the outputs before it no run reaches
    forward_runs = list(zip(starts, jumps))
    adjoint_runs = list(zip(starts, np.conj(jumps).tolist()))

    def bind(ops):
        k = len(ops)
        x, tot, t = sums[:k], totals[:k], term[:k]
        blocked = x.reshape(k, blocks, width)

        def product(v, adjoint):
            # two-level prefix sums, of the reversed row for the adjoint,
            # straight from the (reversed) view into the sums, no copy; the
            # last block may be partial, and its padding is never read
            u = v[:, ::-1] if adjoint else v
            np.add.accumulate(u[:, :full].reshape(k, blocks - 1, width), axis=2,
                              out=blocked[:, :-1])
            np.add.accumulate(u[:, full:], axis=1, out=x[:, full:n])
            np.cumsum(blocked[:, :-1, -1], axis=1, out=tot)
            # each block's offset in one broadcast add (numpy's ufunc buffer, 64 KiB)
            np.add(blocked[:, 1:], tot[:, :, None], out=blocked[:, 1:])
            # v is read no more: y[j] = sum_r d_r S[j - s_r] goes into it, and
            # for the adjoint, with suffix sums R = reversed prefix sums,
            # y[j] = sum_r conj(d_r) R[j + s_r].  The first run reaches the
            # most outputs and writes its terms there; no run reaches the rest
            s = x[:, n - 1::-1] if adjoint else x
            (v[:, n - first:] if adjoint else v[:, :first]).fill(0.0)
            for lo in range(0, n, _RUN_CHUNK):
                hi = min(lo + _RUN_CHUNK, n)
                for r, (start, d) in enumerate(adjoint_runs if adjoint else forward_runs):
                    # the outputs of this chunk that run `start` reaches;
                    # starts ascend, so the runs after one that misses do too
                    a, b = (lo, min(hi, n - start)) if adjoint else (max(lo, start), hi)
                    if a >= b:
                        break
                    src = s[:, a + start:b + start] if adjoint else s[:, a - start:b - start]
                    if r == 0:
                        np.multiply(src, d, out=v[:, a:b])
                    else:
                        np.multiply(src, d, out=t[:, :b - a])
                        np.add(v[:, a:b], t[:, :b - a], out=v[:, a:b])
            return v

        return (lambda v: product(v, False)), (lambda w: product(w, True))

    return bind


def toeplitz_operator_norm(first_column, tol: float | None = None, restarts: int = 3) -> float:
    """Largest singular value of the lower-triangular Toeplitz matrix with the
    given first column, without materialising it.

    `volterra.sigma_max` uses it for every Volterra norm above its dense
    crossover, and `notell1` on its 2^20 grid.  Power iteration runs in
    `_power_iterate` with `operator_norm`'s default `tol` and three restarts.
    A real (or integer) column stays float64 and starts from the same real
    seeded vectors as `operator_norm` on the dense real matrix; a complex
    column uses complex starts.  Each product is a run product or an FFT
    product, chosen once per call.

    Run product.  One `np.diff` writes the column as c = sum_r d_r 1[i >= s_r],
    with R runs starting at s_r and jumps d_r, so the matrix is
    sum_r d_r tau_{s_r} P, with P the prefix-sum matrix and tau_s the
    truncated shift by s: the grid form of a step kernel's
    V_f = sum_r d_r tau_{s_r} V.  Then (A v)_i = sum_r d_r S_{i - s_r}, with S
    the prefix sums of v, and (A* w)_j = sum_r conj(d_r) R_{j + s_r}, with R
    the suffix sums of w (prefix sums of w reversed).  A product costs the
    sums plus sum_r (N - s_r) element work, and is taken while that work is
    below _RUN_CROSSOVER * L log2 L, for the FFT length L below: `notell1` at
    N = 2^20 has 38 runs and about 2N of work, and a product takes about
    9 ms against 120 ms by FFT.  The sums run in two levels: the row is cut
    into nb blocks of width b = isqrt(N), each block is summed in order, and
    the running sum of the totals of the blocks before it is added to it.
    The blocks are summed straight from the iterate (or its reversed view)
    into a buffer padded to nb b entries, the last, partial block on its
    own; the padding is never read.  The sum
    over runs is taken _RUN_CHUNK outputs at a time, so that the chunk stays
    in cache while each run adds into it; every entry still adds its terms
    in run order, so the chunks change no bit.
    With u = eps/2 and gamma_k = k u / (1 - k u), every entry obeys
    |fl(A v) - A v| <= gamma_k (T |v|) with k = b + nb + R + 1, where T is the
    Toeplitz matrix with column sum_r |d_r| 1[i >= s_r] (Higham 2002, ch. 3
    and 4): an entry of v passes at most b - 1 roundings in its block,
    nb - 2 in the running sum of the totals and one where that sum is added,
    then one in its jump, one in the product (a complex product's
    sqrt(2) gamma_2 takes two) and R - 1 in the sum over runs.  The adjoint
    obeys the same bound with T*.  A single `np.cumsum` has k about N + R.
    On `notell1`'s converged iterate, a product is within 5.6e-16 of a
    `np.longdouble` product in the 2-norm, the FFT's within 3.4e-16 and a
    single cumsum's within 1.8e-14.  The padded sums, the block totals and a
    term buffer of one chunk are allocated once, and a product writes its
    result into the iterate it read, once the sums hold all it needs: in each
    chunk the first run that reaches it writes d_r S there, and only the
    outputs no run reaches are zero-filled.  So a power step allocates
    nothing but numpy's 64 KiB buffer for the broadcast add of the block
    offsets, and holds no output buffer beside the iterate.

    FFT product.  A causal convolution at a power-of-two length L of at
    least 2N, O(N log N) per product: a real column takes the half-spectrum
    `rfft`/`irfft` pair, a complex one `fft`/`ifft`.  The spectrum of the
    column is computed once.  The restarts advance as rows of blocks (see
    `_power_iterate`), a row counting 16N bytes, so from N = 2^14 on a block
    is one restart.  Every product transforms the block's rows into one
    reused (rows, .) spectrum buffer, multiplies it in place and transforms
    back into one reused signal buffer, so a power step allocates nothing;
    `matvec` and `rmatvec` return views of the signal buffer.  The adjoint's
    factor conj(Ĉ) is not stored: conj(Ĉ) W is computed as conj(Ĉ conj(W))
    with in-place conjugates, the same bits but for the sign of an exact
    zero.  Batched transforms along the last axis give each row the bits of
    a one-row transform.  Every product runs on the calling thread; from
    N = 2^14 on, glibc's main arena hands pocketfft's scratch back to the
    kernel after each transform, so every transform faults it in again.
    """
    col = np.asarray(first_column)
    if col.ndim != 1 or col.size == 0:
        raise ValueError("first_column must be a nonempty vector")
    is_complex = np.iscomplexobj(col)
    col = np.asarray(col, dtype=complex if is_complex else float)
    _validate_finite(col)
    n = col.size
    if tol is None:
        tol = _default_tol(n)
    length = 1
    while length < 2 * n:
        length *= 2
    rows = min(max(restarts, 1), _block_rows(16 * n))  # the core rejects restarts < 1

    def iterate(bind):
        return _power_iterate(bind, 1, n, 16 * n, is_complex, tol, restarts,
                              "Toeplitz power iteration")[0]

    runs = _runs(col, length)
    if runs is not None:
        return iterate(_run_bind(*runs, n, rows, col.dtype))
    forward, inverse = ((np.fft.fft, np.fft.ifft) if is_complex
                        else (np.fft.rfft, np.fft.irfft))
    chat = forward(col, length)
    spec = np.empty((rows, chat.size), dtype=chat.dtype)
    signal = np.empty((rows, length), dtype=col.dtype)

    def bind(ops):
        spec_k, signal_k = spec[:len(ops)], signal[:len(ops)]

        def product(v, adjoint):
            forward(v, length, out=spec_k)
            if adjoint:
                np.conjugate(spec_k, out=spec_k)
            # chat first: numpy's SIMD complex multiply is not symmetric bit for bit
            np.multiply(chat, spec_k, out=spec_k)
            if adjoint:
                np.conjugate(spec_k, out=spec_k)
            inverse(spec_k, length, out=signal_k)
            return signal_k[:, :n]

        return (lambda v: product(v, False)), (lambda w: product(w, True))

    return iterate(bind)
