"""Local metrics G(x) = H(x) + Lambda, their factors, and Lewis weights.

The regularizer Lambda is lam I for a scalar lam, or an SPD matrix lam, such
as a Gaussian target's precision Sigma^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from dikinwalk._lapack import dpotrf, dpotrs, dtrtri
from dikinwalk.polytope import Polytope, slack


# lewis_weights gives up once its residual has not halved in this many iterations
STALL_ITERATIONS = 20
# ... or after this many in all
MAX_ITERATIONS = 1000


class MetricError(ValueError):
    """Metric evaluation failed (exterior point, rank deficiency, ...)."""


def default_lewis_q(m: int) -> int:
    """Smallest even integer >= max(4, 2 ceil(log2 m))."""
    q = max(4, 2 * math.ceil(math.log2(m))) if m > 1 else 4
    return q if q % 2 == 0 else q + 1


def _regularizer(lam) -> float | np.ndarray:
    """lam as a float, or as a symmetrized float matrix.

    Raises MetricError unless lam is a positive finite scalar or a square,
    finite, symmetric (to 1e-12 relative) and positive-definite matrix.
    """
    if np.ndim(lam) == 0:
        if not 0 < lam < math.inf:
            raise MetricError("lambda must be positive and finite")
        return float(lam)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise MetricError("a matrix regularizer must be square")
    if not np.isfinite(lam).all():
        raise MetricError("a matrix regularizer must be finite")
    if np.abs(lam - lam.T).max() > 1e-12 * max(1.0, float(np.abs(lam).max())):
        raise MetricError("a matrix regularizer must be symmetric")
    lam = 0.5 * (lam + lam.T)
    if dpotrf(lam, lower=1, clean=0)[1] > 0:
        raise MetricError("a matrix regularizer must be positive definite")
    return lam


@dataclass(frozen=True)
class SoftThreshold:
    """Log-barrier Hessian of the polytope plus lam * I, or plus lam if a matrix."""

    lam: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _regularizer(self.lam))


@dataclass(frozen=True)
class RegularizedLewis:
    """Lewis-weighted barrier Hessian scaled by c1 sqrt(n) (log m)^c2, plus
    lam * I, or plus lam if a matrix."""

    lam: float | np.ndarray
    c1: float = 1.0
    c2: float = 0.0
    q: int | None = None  # None -> default_lewis_q(m)
    tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "lam", _regularizer(self.lam))
        # written so that a NaN fails them too
        if not (0 < self.c1 < math.inf and 0 <= self.c2 < math.inf):
            raise MetricError("need finite c1 > 0 and c2 >= 0")
        if self.q is not None and (self.q < 4 or self.q % 2 != 0):
            raise MetricError("q must be an even integer >= 4")
        # tol >= 1 would accept the start w = n/m, which is not a fixed point
        if not 0 < self.tol < 1:
            raise MetricError("need 0 < tol < 1")


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
    # scipy's LAPACK called directly: a quarter of the cost of numpy's cholesky
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


def _newton_side(m: int, n: int) -> bool:
    """Whether lewis_weights takes Newton steps at shape (m, n), else Chebyshev.

    A Newton step costs an m x m Gram and Cholesky, O(m^2 n + m^3), and
    takes ~4-8 steps; a Chebyshev step costs O(m n^2) and takes ~13-36. Timed
    at one BLAS thread, Newton is the faster side up to m ~ 3n at every n
    tried, and up to m ~ 110 whatever n (at m = 128 OpenBLAS's m x m work
    jumps ~2x). The rule reads the shape alone, so the weights stay a
    deterministic function of Ax.
    """
    return m <= 3 * n or m <= 96


def lewis_weights(Ax: np.ndarray, q: int, tol: float = 1e-8) -> LewisWeights:
    """Solve the weight fixed point w_i = tau_i(w) for the Lewis weights.

    tau_i(w) = w_i^{c_q} a_i^T (Ax^T W^{c_q} Ax)^{-1} a_i is the leverage score
    of row i of W^{c_q / 2} Ax, with c_q = 1 - 2/q. The iteration runs on
    u = log w for the map u -> log tau(u), from w = n/m, and stops at the
    first iterate with max_i |w_i - tau_i| / w_i <= tol. A square Ax (m = n)
    returns the start w = 1 at once: every leverage score of a full-rank
    square matrix is 1, so it is the exact fixed point whatever roundoff
    leaves in the residual. It raises MetricError ("did not converge") after
    MAX_ITERATIONS iterations, or earlier, once the residual has not fallen
    to half its last such mark in STALL_ITERATIONS iterations: on a nearly
    rank-deficient Ax roundoff holds it above tol. Both rules count
    iterations, so the outcome is a function of Ax.

    Leverage scores. Each iteration factors the weighted Gram
    Ax^T W^{c_q} Ax = L L^T, inverts L explicitly and forms Z = Ax L^{-T}, so
    K = Z Z^T = Ax (Ax^T W^{c_q} Ax)^{-1} Ax^T and tau_i = w_i^{c_q} |z_i|^2.

    Jacobian. With P = W^{c_q / 2} K W^{c_q / 2}, the projection onto the
    columns of W^{c_q / 2} Ax, d log tau_i / d u_j = c_q (delta_ij - P_ij^2 /
    tau_i) at every u, i.e. the Jacobian is c_q (I - M) with
    M = diag(tau)^{-1} (P o P). P o P is symmetric PSD (Schur product
    theorem) with row sums diag(P) = tau, so M is row-stochastic and similar
    to the PSD diag(tau)^{-1/2} (P o P) diag(tau)^{-1/2}: its spectrum lies in
    [0, 1] and the Jacobian's in [0, c_q].

    Newton update (small m, see _newton_side). The root of
    F(u) = log tau(u) - u has F'(u) = c_q (I - M) - I, so the Newton step
    u <- u + delta solves ((1 - c_q) I + c_q M) delta = F(u); multiplied by
    diag(tau) it is the symmetric positive definite m x m system
    ((1 - c_q) diag(tau) + c_q (P o P)) delta = tau o (log tau - u),
    P o P = (w^{c_q} w^{c_q T}) o K o K, solved by Cholesky. After diagonal
    scaling its spectrum lies in [1 - c_q, 1], so the factorization is
    accurate; it fails only when a leverage score underflows to 0. Near the
    fixed point the error squares each step.

    Chebyshev update (large m). The relaxed step u + gamma (log tau(u) - u)
    with gamma = 2 / (2 - c_q) maps the Jacobian's interval onto
    [-sigma, sigma], sigma = c_q / (2 - c_q), the case of Golub & Varga's
    Chebyshev semi-iteration: u_1 = u_0 + gamma (log tau(u_0) - u_0), then
    u_{k+1} = u_{k-1} + omega_{k+1} (u_k + gamma (log tau(u_k) - u_k) - u_{k-1})
    with omega_2 = 1 / (1 - sigma^2 / 2), omega_{k+1} = 1 / (1 - sigma^2 omega_k / 4).
    Its rate sigma / (1 + sqrt(1 - sigma^2)) beats the 1 - 1/q of the damped
    step w <- sqrt(w tau) (gamma = 1/2), e.g. 0.52 against 0.95 at q = 20.

    Every constant follows from q and the update from the shape; the weights
    are a deterministic function of Ax.
    """
    Ax = np.asarray(Ax, dtype=float)
    m, n = Ax.shape
    if m < n:
        raise MetricError(f"need m >= n for Lewis weights (m={m}, n={n})")
    if q < 4 or q % 2 != 0:
        raise MetricError("q must be an even integer >= 4")
    cq = 1.0 - 2.0 / q
    newton = _newton_side(m, n)
    gamma = 2.0 / (2.0 - cq)
    sigma2 = (cq / (2.0 - cq)) ** 2
    # checked once: each weighted Gram below differs from this one by the
    # row factors w**cq, and one that still overflows fails as a MetricError
    with np.errstate(over="ignore", invalid="ignore"):
        gram_finite = np.isfinite(Ax.T @ Ax).all()
    if not gram_finite:
        raise MetricError("non-finite row-scaled Gram matrix")
    w = np.full(m, n / m)
    u = u_prev = np.log(w)
    omega = 1.0
    mark, mark_it = np.inf, 0  # the last residual at most half the mark before
    # a leverage score that underflows to 0 or turns NaN (log 0, 0 / 0) ends
    # in the non-finite MetricError below; numpy need not warn first.
    # Entered once per call, not per iteration: it costs ~2.6 us
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, MAX_ITERATIONS + 1):
            wc = w**cq
            # scipy's LAPACK called directly: numpy's linalg links a different
            # build whose low bits differ, and these weights feed G, so
            # same-seed output depends on every bit
            L, info = dpotrf(Ax.T @ (wc[:, None] * Ax), lower=1, clean=1)
            if info > 0:
                raise MetricError("rank-deficient weighted Gram matrix")
            Linv, info = dtrtri(L, lower=1, overwrite_c=1)
            if info > 0:
                raise MetricError("rank-deficient weighted Gram matrix")
            # an explicit inverse and one gemm: OpenBLAS's triangular solve
            # against the m rows runs far below gemm's rate. clean=1 above
            # zeroes L's upper triangle, which dtrtri keeps and the gemm reads
            Z = Ax @ Linv.T
            tau = wc * np.einsum("ij,ij->i", Z, Z)
            residual = float((np.abs(w - tau) / w).max())
            if not math.isfinite(residual):
                raise MetricError("non-finite Lewis weights")
            # at m = n the start w = 1 is the exact fixed point; roundoff in
            # tau, ~cond(Ax)^2 eps, may hold the residual above tol
            if residual <= tol or m == n:
                return LewisWeights(w=w, residual=residual, iterations=it)
            if residual <= 0.5 * mark:
                mark, mark_it = residual, it
            if it - mark_it >= STALL_ITERATIONS or it == MAX_ITERATIONS:
                raise MetricError(
                    f"Lewis weights did not converge: residual {residual:.3e} "
                    f"after {it} iterations"
                )
            if newton:
                # H = (1 - cq) diag(tau) + cq (P o P), the docstring's system
                K = Z @ Z.T
                H = np.multiply.outer(cq * wc, wc)
                H *= K
                H *= K
                _diagonal(H)[:] += (1.0 - cq) * tau
                H, info = dpotrf(H, lower=1, clean=0)
                if info > 0:
                    # only a leverage score that underflowed to 0 leaves H
                    # singular; see the docstring
                    raise MetricError("non-finite Lewis weights")
                u = u + dpotrs(H, tau * (np.log(tau) - u), lower=1)[0]
            else:
                step = u + gamma * (np.log(tau) - u)
                u, u_prev = u_prev + omega * (step - u_prev), u
                omega = 1.0 / (1.0 - sigma2 * (0.5 if it == 1 else omega / 4.0))
            w = np.exp(u)


def evaluate_metric(
    P: Polytope, x: np.ndarray, kind: MetricKind, s: np.ndarray | None = None
) -> MetricEval:
    """G(x) = H(x) + Lambda at interior x, with its factor and log det.

    Lambda is kind.lam * I for a scalar lam and kind.lam itself for a matrix,
    which must be n x n.

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
        lw = lewis_weights(Ax, q=q, tol=kind.tol)
        try:
            scale = kind.c1 * math.sqrt(n) * math.log(m) ** kind.c2
        except OverflowError:
            raise MetricError("non-finite metric: (log m)^c2 overflows") from None
        G = scale * (Ax.T @ (lw.w[:, None] * Ax))
    else:
        raise MetricError(f"unknown metric kind {kind!r}")
    lam = kind.lam
    if isinstance(lam, np.ndarray):
        if lam.shape != G.shape:
            k = lam.shape[0]
            raise MetricError(f"regularizer is {k} x {k}, need n = {P.n}")
        G += lam
    else:
        _diagonal(G)[:] += lam
    Q, logdet = _cholesky_upper(G)
    return MetricEval(G=G, Q=Q, logdet=logdet)
