"""Foundation numerics: square complex matrices, operator 2-norm estimation
with an independent SVD oracle, the roots-of-unity node grid, and bracketed
root finding.

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

# Restart cap for power iteration.
POWER_ITERATION_CAP = 100_000


class ConvergenceError(RuntimeError):
    """An iterative kernel hit its iteration cap.

    Carries the last iterate value so callers can report how far the
    computation got.
    """

    def __init__(self, message: str, last_value: float):
        super().__init__(f"{message} (last iterate {last_value!r})")
        self.last_value = last_value


def as_array(a) -> np.ndarray:
    """Unwrap a ComplexMatrix (or anything array-like) to an ndarray."""
    return np.asarray(getattr(a, "entries", a))


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


def _power_iterate(matvec, rmatvec, n, complex_start, tol, restarts, max_iter, label):
    """Shared power-iteration core on A*A with seeded restarts.

    The iterates s_k = ||A v_k|| increase monotonically towards the norm; a
    run terminates once the relative iterate change stays below tol for three
    consecutive steps.  Every estimate is of the form ||Av|| for a unit v,
    hence a certified lower bound on the norm.
    """
    if tol < _EPS * n:
        raise ValueError(f"tol={tol} below machine resolution eps*N={_EPS * n}")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    best = 0.0
    for restart in range(1, restarts + 1):
        rng = np.random.default_rng(restart)
        v = rng.standard_normal(n)
        if complex_start:
            v = v + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        sigma = 0.0
        settled = 0
        for _ in range(max_iter):
            w = matvec(v)
            s = float(np.linalg.norm(w))
            if s == 0.0:
                sigma = 0.0
                break
            z = rmatvec(w)
            nz = float(np.linalg.norm(z))
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


def operator_norm(a, tol: float | None = None, restarts: int = 3,
                  max_iter: int = POWER_ITERATION_CAP) -> float:
    """Largest singular value by power iteration on A*A.

    Runs `restarts` independent iterations seeded 1, 2, ..., restarts and
    returns the maximum estimate.  The default tolerance is 1e-13, raised to
    4*eps*N for large matrices.
    """
    a = as_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _validate_finite(a)
    n = a.shape[0]
    if tol is None:
        tol = max(1e-13, 4.0 * _EPS * n)
    adj = a.conj().T.copy()
    return _power_iterate(
        lambda v: a @ v, lambda w: adj @ w, n, np.iscomplexobj(a),
        tol, restarts, max_iter, "power iteration")


def _column_norms_squared(rows: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ij,ij->i", rows.conj(), rows))


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


def jacobi_svd(a, tol: float = 1e-14, max_sweeps: int = 60):
    """One-sided (Hestenes) Jacobi SVD of a (possibly rectangular) matrix.

    Returns (singular values in decreasing order, right singular vectors as
    columns).  Column pairs are orthogonalised by unitary plane rotations; at
    convergence the singular values are the column norms.

    A sweep visits every column pair once, in the round-robin (tournament)
    order of Brent & Luk (1985): about n rounds of n/2 disjoint pairs.  The
    rotations of one round touch disjoint columns and commute, so a round is
    one vectorized step: one einsum gives the pair inner products, the
    rotation parameters are arrays, and one batched 2x2 product rotates the
    columns of A and V together.  A sweep still costs O(n^2 (m + n)) flops,
    but in about n numpy steps instead of n(n-1)/2 interpreted ones.

    The tracked squared column norms are re-anchored to exact ones after every
    sweep: within a sweep they lose relative accuracy once a column shrinks
    below sqrt(eps) of its start, which would leave the zero singular values
    of rank-deficient inputs near 1e-8 times the largest.

    This path uses only column inner products and plane rotations -- no LAPACK
    factorisation and no code shared with `operator_norm` -- so it serves as
    the independent oracle for the power-iteration norms.
    """
    a = as_array(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    m, n = a.shape
    # cost guard, before any copy: a sweep costs ~ n^2 m / 2, capped at the
    # square 512 budget
    if n > SVD_ORACLE_MAX_DIM or m * n * n > SVD_ORACLE_MAX_DIM**3:
        raise ValueError(
            f"shape {a.shape} exceeds the Jacobi oracle cost guard "
            f"({SVD_ORACLE_MAX_DIM} square equivalent)")
    a = np.array(a, dtype=complex)
    _validate_finite(a)
    # Row j of w is column j of A followed by column j of V, so one gather and
    # one scatter per round rotate both.
    w = np.concatenate([a.T, np.eye(n, dtype=complex)], axis=1)
    sq = _column_norms_squared(w[:, :m])
    for _ in range(max_sweeps):
        off = 0.0
        for pq in _round_robin(n):
            wpq = w[pq]
            apq = np.einsum("ij,ij->i", wpq[:, 0, :m].conj(), wpq[:, 1, :m])
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
            rot = np.stack([c, -s * phase, s, c * phase], axis=1).reshape(-1, 2, 2)
            w[pq] = rot @ wpq
            tg = t * g
            sq[pq] = np.maximum(np.stack([app - tg, aqq + tg], axis=1), 0.0)
        if off <= tol:
            break
        # re-anchor (see the docstring); LAPACK's xGESVJ also recomputes drifted norms
        sq = _column_norms_squared(w[:, :m])
    else:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge within {max_sweeps} sweeps", math.sqrt(max(sq)))
    sigmas = np.linalg.norm(w[:, :m], axis=1)
    order = np.argsort(sigmas)[::-1]
    return sigmas[order], w[order, m:].T


def svd_oracle(a) -> float:
    """Largest singular value via the dense Jacobi SVD (test/cross-check path)."""
    sigmas, _ = jacobi_svd(a)
    return float(sigmas[0])


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


def toeplitz_operator_norm(first_column, tol: float = 1e-10, restarts: int = 2,
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
    `fft`/`ifft` and complex starts.
    """
    col = np.asarray(first_column)
    if col.ndim != 1 or col.size == 0:
        raise ValueError("first_column must be a nonempty vector")
    is_complex = np.iscomplexobj(col)
    col = col.astype(complex if is_complex else float)
    _validate_finite(col)
    n = col.size
    length = 1
    while length < 2 * n:
        length *= 2
    forward, inverse = ((np.fft.fft, np.fft.ifft) if is_complex
                        else (np.fft.rfft, np.fft.irfft))
    chat = forward(col, length)

    def matvec(v):
        return inverse(chat * forward(v, length), length)[:n]

    def rmatvec(v):
        return inverse(np.conj(chat) * forward(v, length), length)[:n]

    return _power_iterate(matvec, rmatvec, n, is_complex, tol, restarts, max_iter,
                          "Toeplitz power iteration")
