"""Gauge-action machinery for basis-graded operators.

For an operator S built from powers of a graded generator T, conjugation by
the diagonal phase unitary D_lam = diag(lam^0, ..., lam^(N-1)) multiplies the
k-th sub-diagonal band by lam^k.  Averaging those conjugates against lam^(-k)
isolates c_k T^k, a single band, so c_k is one entry of it divided by that
entry of T^k; `fourier_coefficients` returns the c_k as a coefficient vector
(entry k-1 holds c_k, as in `shift`), and `fejer_coefficients` weights such a
vector into the arithmetic-mean partial sums that reconstruct S.  The module
also provides two computable certificates that an algebra generated by a
single operator cannot carry an isometric circle action sending T to lam*T:
a linear dependence among nonzero powers, and a norm asymmetry under the
phase scan.  The claim function `fejer` is the `opalg` experiment of that
name: its keyword parameters are the options it reads, with its defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shift
from .numkit import CircleGrid, jacobi_svd, operator_norm
from .report import ExperimentReport

# Unit-circle membership tolerance for phases.
_CIRCLE_TOL = 1e-14


@dataclass(frozen=True)
class GaugeWitness:
    """Evidence that no isometric circle action can send T to lam*T.

    kind == "linear_dependence": coefficients a_1..a_m with
        ||a_1 T + ... + a_m T^m|| tiny while ||T^m|| is not.
    kind == "norm_asymmetry": a phase where the scanned norm ratio differs
        from 1 beyond the declared margin.
    """

    kind: str
    coefficients: np.ndarray | None = None
    top_index: int | None = None
    dependence_norm: float = 0.0
    top_power_norm: float = 0.0
    phase: complex | None = None
    ratio: float = 1.0
    base_norm: float = 0.0
    margin: float = 0.0


def gauge_conjugate(a, lam: complex) -> np.ndarray:
    """Conjugate by diag(lam^0, ..., lam^(N-1)): entry (i,j) -> lam^(i-j) * a[i,j].

    For a weighted-shift truncation T this equals lam * T exactly.
    """
    a = np.asarray(a)
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > _CIRCLE_TOL:
        raise ValueError(f"|lambda| = {abs(lam)} is off the unit circle")
    d = lam ** np.arange(a.shape[0])
    return (d[:, None] * a) * d.conj()[None, :]


def fourier_coefficients(a, grid: CircleGrid, t) -> np.ndarray:
    """Extract the coefficients of T^1..T^(N-1) from S by circle quadrature.

    Computes (1/M) sum_m gauge_conjugate(S, lam_m) * lam_m^(-k) -- which equals
    coeff(k) * T^k whenever M >= 2N -- then divides on the first largest-
    magnitude entry of T^k's band (`shift._bands`), t being S's N x N truncation,
    a subnormal entry included; a band that underflowed to zero is refused.
    Entry k-1 is coeff(k).
    """
    a, n, m = np.asarray(a), t.dim, grid.node_count
    if a.shape != (n, n) or m < 2 * n:
        raise ValueError(f"need an {n} x {n} matrix and at least 2N = {2 * n} grid "
                         f"nodes, got shape {a.shape} and {m} nodes")
    nodes = grid.nodes
    conjugates = np.empty((m, n, n), dtype=complex)
    for out, lam in zip(conjugates, nodes):
        out[...] = gauge_conjugate(a, lam)
    # all quadratures at once: weights[k - 1, m] = lam_m^(-k)
    weights = nodes[None, :] ** (-np.arange(1, n)[:, None])
    integrals = np.tensordot(weights, conjugates, axes=(1, 0))
    integrals /= m  # in place: a second (N-1, N, N) array would set the peak
    pairs = np.empty((2, n - 1), dtype=complex)  # the integrals, then their divisors
    for k, (cells, band) in enumerate(shift._bands(t, n - 1), start=1):
        j = int(np.argmax(np.abs(band)))
        if band[j] == 0:
            raise ValueError(f"T^{k} at truncation dim {n} is zero: its weight products "
                             f"underflowed, so its coefficient cannot be divided out")
        pairs[:, k - 1] = integrals[k - 1].ravel()[cells][j], band[j]
    # divide with both scaled by the power of two that brings each |divisor| into [1/2, 1)
    num, den = np.ldexp(pairs.view(float), -np.frexp(np.abs(pairs[1]))[1].repeat(2)).view(complex)
    return num / den


def fejer_coefficients(coeffs, n: int) -> np.ndarray:
    """Coefficients ((n-j)/n) * coeffs[j-1], j = 1..n, of the arithmetic-mean
    (Cesaro) weighted partial sum of S; entries past the end of coeffs count
    as zero, and the j = n term carries weight zero."""
    if n < 1:
        raise ValueError("n must be positive")
    c = np.zeros(n, dtype=complex)
    c[:min(n, len(coeffs))] = coeffs[:n]
    return (n - np.arange(1, n + 1)) / n * c


def fejer(*, dim: int = 32, nodes: int | None = None, nmax: int = 64,
          weights: str = shift.HARMONIC, seed: int = 0) -> ExperimentReport:
    """Cesaro-weighted reconstruction of a random shift polynomial from its
    Fourier coefficients (quadrature on 2 dim nodes unless `nodes` is given),
    at orders up to nmax, against the coefficient-mass bound.  T^k is one
    band, so ||T^k|| is exactly its largest modulus: no power is laid down."""
    t = shift.build_shift(shift.parse_weight_spec(weights, dim), dim)
    grid = CircleGrid(2 * dim if nodes is None else nodes)
    degree = min(8, dim - 1)
    s = shift.polynomial_in(t, shift.random_polynomial(t, seed, 0, degree))
    series = fourier_coefficients(s, grid, t)
    norms = [np.max(np.abs(band)) for _, band in shift._bands(t, dim - 1)]
    coeff_mass = sum(abs(c) * nrm for c, nrm in zip(series, norms))
    params = {"dim": dim, "nodes": nodes, "nmax": nmax, "weights": weights}
    rep = ExperimentReport("fejer", {k: v for k, v in params.items() if v is not None})
    rep.add("degree", degree)
    ok = True
    orders = [m for m in sorted({degree, 2 * degree, nmax}) if m >= degree]
    approx = np.stack([shift.polynomial_in(t, fejer_coefficients(series, m)) for m in orders])
    for m, err in zip(orders, operator_norm(s - approx)):
        bound = (degree / m) * coeff_mass
        rep.add(f"error_order_{m:04d}", err)
        rep.add(f"bound_order_{m:04d}", bound)
        ok = ok and err <= bound + 1e-10
    rep.check("errors_within_coefficient_bound", ok)
    return rep


def certify_no_gauge_linear_dependence(powers) -> GaugeWitness | None:
    """Search T^1..T^n for a minimal linear dependence with nonzero top power.

    Vectorizes the powers, scans prefixes for numerical rank deficiency
    (smallest singular value below 1e-10 times the largest, decided by the
    Jacobi oracle), and -- if the top power of the minimal dependence has
    norm above 1e-10 -- returns the dependence as a witness.  A dependence
    whose top power already vanishes proves nothing and yields None.
    """
    if len(powers) < 2:
        raise ValueError("need at least the powers T^1, T^2")
    vecs = [np.asarray(p).ravel() for p in powers]
    for m in range(2, len(powers) + 1):
        stacked = np.column_stack(vecs[:m])
        sigmas, v = jacobi_svd(stacked)
        if sigmas[0] == 0.0 or sigmas[-1] >= 1e-10 * sigmas[0]:
            continue
        top_norm = operator_norm(powers[m - 1])
        if top_norm <= 1e-10:
            return None
        coeffs = v[:, -1]
        combo = sum(c * np.asarray(p) for c, p in zip(coeffs, powers[:m]))
        dep_norm = operator_norm(combo)
        return GaugeWitness(
            kind="linear_dependence",
            coefficients=coeffs,
            top_index=m,
            dependence_norm=dep_norm,
            top_power_norm=top_norm,
        )
    return None


def certify_no_gauge_norm_scan(coeffs, powers, grid: CircleGrid,
                               margin: float) -> GaugeWitness | None:
    """Scan r(lam) = ||sum_j lam^j a_j T^j|| over the grid.

    An isometric circle action sending T to lam*T would force r to be
    constant; any ratio r(lam)/r(1) off 1 beyond the margin is a witness
    against it.  Returns the maximizing phase, or None if the scan is flat.
    The norms are taken at tolerance max(1e-14, 2 eps N).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or len(coeffs) != len(powers):
        raise ValueError("need one coefficient per power")
    if not np.any(coeffs != 0):
        raise ValueError("all coefficients vanish")
    mats = [np.asarray(p) for p in powers]
    n = mats[0].shape[0]
    tol = max(1e-14, 2.0 * np.finfo(float).eps * n)
    js = np.arange(1, len(coeffs) + 1)
    scan = np.stack([sum((lam**j * c) * t for j, c, t in zip(js, coeffs, mats))
                     for lam in grid.nodes])
    norms = np.asarray(operator_norm(scan, tol=tol))
    base = norms[0]  # node 0 is lam = 1
    if base == 0.0:
        raise ValueError("reference norm at lambda = 1 vanishes")
    ratios = norms / base
    idx = int(np.argmax(np.abs(ratios - 1.0)))
    if abs(ratios[idx] - 1.0) <= margin:
        return None
    return GaugeWitness(
        kind="norm_asymmetry",
        phase=complex(grid.nodes[idx]),
        ratio=float(ratios[idx]),
        base_norm=float(base),
        margin=float(margin),
    )
