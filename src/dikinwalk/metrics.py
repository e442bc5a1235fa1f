"""Local metrics G(x) = H(x) + lambda I, their factors, and Lewis weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from dikinwalk.polytope import Polytope, slack


class MetricError(ValueError):
    """Metric evaluation failed (exterior point, rank deficiency, ...)."""


class LewisConvergenceError(MetricError):
    """Fixed-point iteration did not reach the residual tolerance."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Lewis weights did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


def default_lewis_q(m: int) -> int:
    """Smallest even integer >= max(4, 2 ceil(log2 m))."""
    q = max(4, 2 * math.ceil(math.log2(m))) if m > 1 else 4
    return q if q % 2 == 0 else q + 1


@dataclass(frozen=True)
class SoftThreshold:
    """Log-barrier Hessian of the polytope plus lam * I."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise MetricError("lambda must be positive")


@dataclass(frozen=True)
class RegularizedLewis:
    """Lewis-weighted barrier Hessian scaled by c1 sqrt(n) (log m)^c2, plus lam * I."""

    lam: float
    c1: float = 1.0
    c2: float = 0.0
    q: int | None = None  # None -> default_lewis_q(m)
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not self.lam > 0:
            raise MetricError("lambda must be positive")
        if not self.c1 > 0 or self.c2 < 0:
            raise MetricError("need c1 > 0 and c2 >= 0")
        if self.q is not None and (self.q < 4 or self.q % 2 != 0):
            raise MetricError("q must be an even integer >= 4")
        if not self.tol > 0 or self.max_iter < 1:
            raise MetricError("need tol > 0 and max_iter >= 1")


MetricKind = Union[SoftThreshold, RegularizedLewis]


@dataclass(frozen=True)
class MetricEval:
    """G at a point with its upper-triangular factor Q (G = Q^T Q) and log det."""

    G: np.ndarray
    Q: np.ndarray
    logdet: float


@dataclass(frozen=True)
class LewisWeights:
    """Converged weights with the stationarity residual actually achieved."""

    w: np.ndarray
    residual: float
    iterations: int


def _cholesky_upper(G: np.ndarray) -> tuple[np.ndarray, float]:
    """Upper-triangular Q with G = Q^T Q, retrying once with a tiny jitter.

    The jitter goes onto G's diagonal in place, so G stays the matrix that
    was factored.
    """
    # scipy's LAPACK called directly: a quarter of np.linalg.cholesky's cost
    # at n = 10 (no validation or gufunc wrapping) and no slower at n = 100.
    # dpotrf copies G, so G is kept; clean=1 zeroes the strict lower
    # triangle, because log_accept_ratio multiplies by the full Q
    Q, info = dpotrf(G, lower=0, clean=1)
    if info > 0:
        jitter = 1e-12 * np.trace(G) / G.shape[0]
        _diagonal(G)[:] += jitter
        Q, info = dpotrf(G, lower=0, clean=1)
        if info > 0:
            raise MetricError("Cholesky failed even after jitter")
    logdet = 2.0 * float(np.log(Q.diagonal()).sum())
    if not math.isfinite(logdet):
        # an overflowed G (slacks near 0) factors without error into infinities
        raise MetricError("non-finite metric: log det G is not finite")
    return Q, logdet


def _diagonal(G: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-contiguous square matrix."""
    return G.ravel()[:: G.shape[0] + 1]


def lewis_weights(
    Ax: np.ndarray, q: int, tol: float = 1e-8, max_iter: int = 1000
) -> LewisWeights:
    """Solve the weight fixed point w_i = tau_i(w) by a Chebyshev semi-iteration.

    tau_i(w) = w_i^{c_q} a_i^T (Ax^T W^{c_q} Ax)^{-1} a_i is the leverage score
    of row i of W^{c_q / 2} Ax, with c_q = 1 - 2/q. The iteration runs on
    u = log w for the map u -> log tau(u), from w = n/m, and stops at the
    first iterate with max_i |w_i - tau_i| / w_i <= tol.

    At the fixed point the Jacobian of u -> log tau(u) is c_q (I - M), with
    M = diag(tau)^{-1} (P o P) and P the projection onto the columns of
    W^{c_q / 2} Ax. P o P is symmetric PSD (Schur product theorem) with row
    sums diag(P) = tau, so M is row-stochastic and similar to the PSD
    diag(tau)^{-1/2} (P o P) diag(tau)^{-1/2}: its spectrum lies in [0, 1] and
    the Jacobian's in [0, c_q]. The relaxed step u + gamma (log tau(u) - u)
    with gamma = 2 / (2 - c_q) maps that interval onto [-sigma, sigma],
    sigma = c_q / (2 - c_q), the case of Golub & Varga's Chebyshev
    semi-iteration: u_1 = u_0 + gamma (log tau(u_0) - u_0), then
    u_{k+1} = u_{k-1} + omega_{k+1} (u_k + gamma (log tau(u_k) - u_k) - u_{k-1})
    with omega_2 = 1 / (1 - sigma^2 / 2), omega_{k+1} = 1 / (1 - sigma^2 omega_k / 4).
    Its rate sigma / (1 + sqrt(1 - sigma^2)) beats the 1 - 1/q of the damped
    step w <- sqrt(w tau) (gamma = 1/2), e.g. 0.52 against 0.95 at q = 20.
    Every constant follows from q; the weights are a deterministic function
    of Ax.
    """
    Ax = np.asarray(Ax, dtype=float)
    m, n = Ax.shape
    if m < n:
        raise MetricError(f"need m >= n for Lewis weights (m={m}, n={n})")
    if q < 4 or q % 2 != 0:
        raise MetricError("q must be an even integer >= 4")
    cq = 1.0 - 2.0 / q
    gamma = 2.0 / (2.0 - cq)
    sigma2 = (cq / (2.0 - cq)) ** 2
    AxT = Ax.T  # F-contiguous view: dpotrs takes it without a transposing copy
    # checked once: each weighted Gram below differs from this one by the
    # row factors w**cq, and one that still overflows fails as a MetricError
    with np.errstate(over="ignore", invalid="ignore"):
        gram_finite = np.isfinite(AxT @ Ax).all()
    if not gram_finite:
        raise MetricError("non-finite row-scaled Gram matrix")
    w = np.full(m, n / m)
    u = u_prev = np.log(w)
    omega = 1.0
    residual = np.inf
    # a leverage score that underflows to 0 or turns NaN (log 0, 0 / 0) ends
    # in the non-finite MetricError below; numpy need not warn first.
    # Entered once per call, not per iteration: it costs ~2.6 us
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            wc = w**cq
            Mw = AxT @ (wc[:, None] * Ax)
            # scipy's LAPACK called directly, as cho_factor / cho_solve call it:
            # numpy's linalg links a different build whose low bits differ, and
            # these weights feed G, so same-seed output depends on every bit
            c, info = dpotrf(Mw, lower=1, clean=0)
            if info > 0:
                raise MetricError("rank-deficient weighted Gram matrix")
            B = dpotrs(c, AxT, lower=1)[0]  # n x m
            quad = np.einsum("ij,ji->i", Ax, B)
            tau = wc * quad
            residual = float(np.max(np.abs(w - tau) / w))
            if residual <= tol:
                return LewisWeights(w=w, residual=residual, iterations=it)
            if not math.isfinite(residual):
                raise MetricError("non-finite Lewis weights")
            step = u + gamma * (np.log(tau) - u)
            u, u_prev = u_prev + omega * (step - u_prev), u
            omega = 1.0 / (1.0 - sigma2 * (0.5 if it == 1 else omega / 4.0))
            w = np.exp(u)
    raise LewisConvergenceError(residual, max_iter)


def evaluate_metric(
    P: Polytope, x: np.ndarray, kind: MetricKind, s: np.ndarray | None = None
) -> MetricEval:
    """G(x) = H(x) + lam I at interior x, with its factor and log det.

    With A_x = S^{-1} A (S the diagonal of the slacks), the kind picks only
    the barrier term H:

    - SoftThreshold: H = A_x^T A_x = sum_i a_i a_i^T / s_i^2;
    - RegularizedLewis: H = c1 sqrt(n) (log m)^c2 A_x^T W A_x, W the Lewis
      weights of A_x (needs m >= n).

    A caller that already holds the slacks s = Ax - b at a 1-D float x, all
    positive, passes them to skip recomputing and rechecking them.
    """
    if s is None:
        s = slack(P, x)
        if not (s > 0.0).all():
            raise MetricError("point is on or outside the boundary")
    Ax = P.A / s[:, None]
    if isinstance(kind, SoftThreshold):
        G = Ax.T @ Ax
    elif isinstance(kind, RegularizedLewis):
        m, n = Ax.shape
        q = kind.q if kind.q is not None else default_lewis_q(m)
        lw = lewis_weights(Ax, q=q, tol=kind.tol, max_iter=kind.max_iter)
        scale = kind.c1 * math.sqrt(n) * math.log(m) ** kind.c2
        G = scale * (Ax.T @ (lw.w[:, None] * Ax))
    else:
        raise MetricError(f"unknown metric kind {kind!r}")
    _diagonal(G)[:] += kind.lam
    Q, logdet = _cholesky_upper(G)
    return MetricEval(G=G, Q=Q, logdet=logdet)
