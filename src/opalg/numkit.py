"""Foundation numerics: square complex matrices, operator 2-norm estimation
with an independent SVD oracle, the truncated Cauchy product both algebras
multiply with, the roots-of-unity node grid, and bracketed root finding.

Everything here is a pure function on immutable inputs; all randomness
(power-iteration restarts) is seeded by the restart index so results are
reproducible bit-for-bit.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

# Guard for the dense Jacobi oracle; one-sided sweeps are O(N^3) per sweep.
SVD_ORACLE_MAX_DIM = 512

# Restart cap for power iteration.
POWER_ITERATION_CAP = 100_000

# Working-set budget of one power-iteration block (see `_power_iterate`).
BLOCK_BYTES = 256 * 1024


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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        # numpy 2 passes copy: True must copy, False must not, None copies
        # only for a dtype change
        return np.array(self.entries, dtype=dtype, copy=copy)


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


@dataclass(frozen=True)
class RootSolve:
    """Result of a bracketed root solve."""

    lo: float
    hi: float
    tolerance: float
    root: float
    residual: float
    iterations: int


def _validate_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")


def _row_norms(x: np.ndarray) -> list:
    """Euclidean norm of each row of a 2-D array, as a list of floats, bit for
    bit `np.linalg.norm` of that row, without its argument dispatch (which
    costs as much as the dot product on small vectors).  `np.vecdot` makes
    the same BLAS dot per row as that formula; a block with strided rows is
    first copied to unit stride, as `np.linalg.norm`'s ravel copies a strided
    vector, because BLAS sums a strided vector in another order."""
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
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


def _power_iterate(bind, operators, n, row_bytes, complex_start, tol, restarts,
                   max_iter, label):
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
    would have failed on.

    `bind(ops)` takes the operator index of each row of a block and returns
    the block's (matvec, rmatvec) pair; it is called again, after the
    previous pair is released, whenever rows leave.  Both map a (rows, n)
    array to one row of A v (or A* w) per row, and may return a view of a
    buffer that their next call overwrites: the core reads w = A v before it
    calls `rmatvec`, and writes the next iterates z / ||z|| into the previous
    iterates' buffer (into the copy of z's remaining rows when rows left).
    """
    if not tol >= _EPS * n:  # also rejects NaN
        raise ValueError(f"tol={tol} below machine resolution eps*N={_EPS * n}")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    total = operators * restarts
    sigmas = [0.0] * total
    per_block = _block_rows(row_bytes)
    matvec = rmatvec = None
    for first in range(0, total, per_block):
        live = list(range(first, min(first + per_block, total)))
        v = _starts(n, [row % restarts + 1 for row in live], complex_start)
        sigma = [0.0] * len(live)
        settled = [0] * len(live)
        for _ in range(max_iter):
            if matvec is None:
                matvec, rmatvec = bind([row // restarts for row in live])
            w = matvec(v)
            s = _row_norms(w)
            z = rmatvec(w)
            nz = _row_norms(z)
            keep = []
            for i, row in enumerate(live):
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
                f"{label} did not settle within {max_iter} iterations", sigma[0])
    return [max(0.0, *sigmas[k:k + restarts]) for k in range(0, total, restarts)]


def _default_tol(n: int) -> float:
    """Default power-iteration tolerance: 1e-13, raised to 4*eps*N for large N."""
    return max(1e-13, 4.0 * _EPS * n)


def operator_norm(a, tol: float | None = None, restarts: int = 3,
                  max_iter: int = POWER_ITERATION_CAP) -> float | list[float]:
    """Largest singular value by power iteration on A*A.

    Runs `restarts` independent iterations seeded 1, 2, ..., restarts and
    returns the maximum estimate.  The default tolerance is 1e-13, raised to
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
        np.iscomplexobj(a), tol, restarts, max_iter, "power iteration")
    return norms if a.ndim == 3 else norms[0]


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


def jacobi_svd(a, tol: float = 1e-14, max_sweeps: int = 60, vectors: bool = True):
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
    for _ in range(max_sweeps):
        off = 0.0
        for pq in _round_robin(n):
            wpq = w[pq]
            apq = np.vecdot(wpq[:, 0, :m], wpq[:, 1, :m])
            app, aqq = sq[pq].T
            scale = np.sqrt(app * aqq)
            g = np.abs(apq)
            act = (scale > 0.0) & (g > tol * scale)
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
        if off <= tol:
            break
        # re-anchor (see the docstring); LAPACK's xGESVJ also recomputes drifted norms
        sq = _column_norms_squared(w[:, :m])
    else:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge within {max_sweeps} sweeps", math.sqrt(max(sq)))
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


def find_root(f, bracket, tol: float) -> RootSolve:
    """Bisection on a sign-changing bracket.

    Bisects until the interval width is at most `tol`, then keeps bisecting
    (down to machine resolution of the bracket) while the residual still
    exceeds `tol`.  Reports the final midpoint and its residual.
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
        return RootSolve(lo, hi, tol, lo, 0.0, 0)
    if fhi == 0.0:
        return RootSolve(lo, hi, tol, hi, 0.0, 0)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise ValueError("f does not change sign over the bracket")
    orig_lo, orig_hi = lo, hi
    iterations = 0
    fmid = math.inf
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        iterations += 1
        if fmid == 0.0:
            return RootSolve(orig_lo, orig_hi, tol, mid, 0.0, iterations)
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= tol and abs(fmid) <= tol:
            break
        if hi - lo <= 4.0 * resolution:
            break
    root = 0.5 * (lo + hi)
    residual = float(f(root))
    return RootSolve(orig_lo, orig_hi, tol, root, residual, iterations)


def toeplitz_operator_norm(first_column, tol: float | None = None, restarts: int = 3,
                           max_iter: int = POWER_ITERATION_CAP) -> float:
    """Largest singular value of the lower-triangular Toeplitz matrix with the
    given first column, without materialising it.

    Matrix-vector products are causal convolutions evaluated by FFT at a
    power-of-two length of at least 2N, so the cost per iteration is
    O(N log N).  `volterra.sigma_max` uses it for every Volterra norm above
    its dense crossover, and `notell1` on its 2^20 grid.  A real (or
    integer) column stays float64 and uses the half-spectrum `rfft`/`irfft`
    pair, and power iteration starts from the same real seeded vectors as
    `operator_norm` on the dense real matrix.  A complex column uses
    `fft`/`ifft` and complex starts.  The defaults of `tol` and `restarts`
    are `operator_norm`'s.

    The spectrum of the column is computed once.  The restarts advance as
    rows of blocks (see `_power_iterate`), a row counting 16N bytes, so from
    N = 2^14 on a block is one restart.  Every product transforms the
    block's rows into one reused (rows, .) spectrum buffer, multiplies it in
    place and transforms back into one reused signal buffer, so a power step
    allocates nothing; `matvec` and `rmatvec` return views of the signal
    buffer.  The adjoint's factor conj(Ĉ) is not stored: conj(Ĉ) W is
    computed as conj(Ĉ conj(W)) with in-place conjugates, the same bits but
    for the sign of an exact zero.  Batched transforms along the last axis
    give each row the bits of a one-row transform.

    A block of one row runs on one worker thread, which the call starts and
    joins; the restarts stay sequential, `.result()` re-raises errors
    unchanged, and an interrupt stops the worker at its next transform.
    pocketfft's scratch for a transform of 2^21 points is about 32 MB, and
    glibc's main arena gives it back to the kernel after every transform and
    faults it in again on the next: 16,320 minor faults and about 140 ms per
    `rfft`/`irfft` pair, against none and about 100 ms on a worker, whose
    arena keeps its pages.  Smaller blocks stay on the calling thread.
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
    forward, inverse = ((np.fft.fft, np.fft.ifft) if is_complex
                        else (np.fft.rfft, np.fft.irfft))
    chat = forward(col, length)
    per_block = _block_rows(16 * n)
    rows = min(max(restarts, 1), per_block)  # the core rejects restarts < 1
    spec = np.empty((rows, chat.size), dtype=chat.dtype)
    signal = np.empty((rows, length), dtype=col.dtype)
    interrupted = threading.Event()

    def bind(ops):
        spec_k, signal_k = spec[:len(ops)], signal[:len(ops)]

        def product(v, adjoint):
            if interrupted.is_set():
                raise KeyboardInterrupt
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

    iterate = functools.partial(_power_iterate, bind, 1, n, 16 * n, is_complex, tol,
                                restarts, max_iter, "Toeplitz power iteration")
    if per_block > 1:
        return iterate()[0]
    # imported here: it pulls in `logging`, about 10 ms on every start of the CLI
    import concurrent.futures
    with concurrent.futures.ThreadPoolExecutor(1) as worker:
        future = worker.submit(iterate)
        try:
            return future.result()[0]
        except KeyboardInterrupt:
            # the executor's exit joins the worker: stop it at its next transform
            interrupted.set()
            raise
