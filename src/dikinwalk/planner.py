"""Pre-run planning: mode solvers, warm-start balls, and iteration budgets.

Budgets are closed-form planning aids parameterized by a user-supplied
universal constant C; they are never correctness gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dikinwalk.polytope import DikinwalkError, Polytope, slack
from dikinwalk.target import GaussianTarget, LogConcaveTarget, TargetError


DELTA_GRID = np.logspace(-2, 3, 32)  # the delta grid of beyond_worst_case_budget


class PlannerError(DikinwalkError):
    """Invalid planner inputs."""


@dataclass(frozen=True)
class ModePair:
    """Unconstrained minimizer of f and the minimizer over the polytope closure."""

    x_star: np.ndarray
    x_dag: np.ndarray


@dataclass(frozen=True)
class WarmStartBall:
    """Uniform-ball warm start: B(x0, r0) inside K and inside B(x_dag, r1)."""

    x0: np.ndarray
    r0: float
    r1: float


@dataclass(frozen=True)
class MixingBudgetQuery:
    """Inputs for a closed-form iteration budget.

    regime is 'strong' or 'weak' and metric 'soft' or 'lewis'; kappa applies
    to the strong regime, beta_eta (the product beta * eta) to the weak one.
    A psi_n^2 other than max(1, log n), or the Lewis metric's (log m)^c2, goes into C.
    """

    regime: str
    m: int
    n: int
    metric: str
    M: float
    eps: float
    C: float
    kappa: Optional[float] = None
    beta_eta: Optional[float] = None

    def __post_init__(self):
        if self.regime not in ("strong", "weak"):
            raise PlannerError(f"unknown regime {self.regime!r}")
        if self.metric not in ("soft", "lewis"):
            raise PlannerError(f"unknown metric {self.metric!r}")
        if not 0 < self.eps < 1:
            raise PlannerError("eps must be in (0, 1)")
        if self.M < 1:
            raise PlannerError("warmness M must be >= 1")
        if self.n <= 0 or self.m < 0 or self.C <= 0:
            raise PlannerError("need n > 0, m >= 0, C > 0")
        if self.regime == "strong" and self.kappa is None:
            raise PlannerError("strong regime needs kappa")
        if self.regime == "weak" and self.beta_eta is None:
            raise PlannerError("weak regime needs beta_eta")
        values = (self.M, self.C, self.kappa, self.beta_eta)
        if not all(v is None or math.isfinite(v) for v in values):
            raise PlannerError("M, C, kappa and beta_eta must be finite")
        if self.kappa is not None and not self.kappa >= 1:
            raise PlannerError("kappa = beta / alpha must be >= 1")
        if self.beta_eta is not None and not self.beta_eta > 0:
            raise PlannerError("beta_eta must be positive")


@dataclass(frozen=True)
class BudgetResult:
    """Optimized beyond-worst-case budget next to the plain worst-case one."""

    T: int
    best_delta: float
    violated_count: int
    plain_T: int


def _row_norms(A: np.ndarray) -> np.ndarray:
    """|a_i| for each row of A; by hypot for the rows whose squares overflow
    or underflow (rows past about 1e154, or below 1e-154)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(A, axis=1)
    far = ~((norms > 1e-150) & (norms < 1e150))
    norms[far] = np.hypot.reduce(np.abs(A[far]), axis=1)
    return norms


def _margins(P: Polytope, x: np.ndarray) -> np.ndarray:
    """Per-constraint Euclidean distance margins (a_i^T x - b_i) / |a_i|."""
    return (P.A @ x - P.b) / _row_norms(P.A)


def _nearest_point(A: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The point of {x | A x >= b} nearest to y, for y outside the set.

    Least-distance programming (Lawson & Hanson, "Solving Least Squares
    Problems", 1974, ch. 23): u >= 0 minimizing |E u - e| for E = [A^T; h^T],
    h = b - A y and e = (0, ..., 0, 1) leaves r = E u - e, x = y + r[:n] / -r[n].
    The rows with u_i > 0 are active at x, so x - y is also the least-norm
    solution of their equations, which keeps the digits that the quotient
    loses for a far x.
    """
    # imported here: scipy.optimize, with the scipy.linalg it imports, takes
    # ~0.5 s and ~44 MB to import, and only a mode outside K needs it
    from scipy.optimize import nnls

    n = A.shape[1]
    # the set is the same with each (a_i, b_i) divided by |a_i|, and nnls
    # misses it among rows of scales as far apart as 1e-218 and 1e15
    norms = _row_norms(A)
    A, b = A / norms[:, None], b / norms
    h = b - A @ y
    # -r[n] = 1 / (1 + |x - y|^2) loses digits for a far x, so solve for
    # (x - y) / t, t the largest distance to a violated half-space
    t = max(1.0, float(np.max(h)))
    E = np.vstack([A.T, h / t])
    if not np.all(np.isfinite(E)):  # nnls raises a bare ValueError on inf/nan
        raise PlannerError("least-distance system is not finite")
    e = np.eye(n + 1)[n]
    try:
        u = nnls(E, e)[0]
    except RuntimeError as exc:
        raise PlannerError(f"least-distance solve failed: {exc}") from None
    r = E @ u - e
    # -r[n] = |r|^2 > 0 unless the constraints are inconsistent; then only
    # roundoff is left in r, and x comes out infeasible
    if -r[n] > 0:
        active = u > 0
        x = y + np.linalg.lstsq(A[active], h[active], rcond=None)[0]
        if np.all(A @ x - b >= -1e-9 * (np.abs(A) @ np.abs(x) + np.abs(b))):
            return x
    raise PlannerError("polytope is empty")


def solve_modes(gauss: GaussianTarget, P: Polytope) -> ModePair:
    """Modes of N(mu, Sigma) on the closure of K: x_star = mu, and x_dag the
    point of the closure nearest to mu in the Sigma^{-1} norm, that is mu + L z
    with L = gauss.L and z the least-norm point of {z | (A L) z >= b - A mu}.
    """
    mu = P._check_dim(gauss.mu).copy()
    # A mu can overflow, and a row of A L underflow to zero; _nearest_point
    # rejects the system that comes out
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if np.all(P.A @ mu - P.b >= 0.0):
            return ModePair(x_star=mu, x_dag=mu)
        z = _nearest_point(P.A @ gauss.L, P.b - P.A @ mu, np.zeros(P.n))
    return ModePair(x_star=mu, x_dag=mu + gauss.L @ z)


def _estimate_outer_radius(P: Polytope, x1: np.ndarray) -> float:
    """Max reach from x1 along the 2n axis directions; a lower-bound
    estimate of the circumradius, flagged as such by the caller."""
    s = slack(P, x1)
    if not (s > 0.0).all():
        raise PlannerError("x1 is not an interior point")
    # rows with a_ij < 0 bound the reach s_i / |a_ij| along +e_j, rows with
    # a_ij > 0 along -e_j; a zero a_ij, or a tiny one that overflows, gives inf
    with np.errstate(divide="ignore", over="ignore"):
        reach = s[:, None] / np.abs(P.A)
    neg = P.A < 0.0
    R = max(np.where(neg, reach, np.inf).min(axis=0, initial=np.inf).max(),
            np.where(neg, np.inf, reach).min(axis=0, initial=np.inf).max())
    if not math.isfinite(R):
        raise PlannerError(
            "polytope is unbounded along an axis; supply the outer radius"
        )
    return float(R)


def warm_start_center(P: Polytope, x_dag: np.ndarray, r_tilde: float) -> np.ndarray:
    """A center x1 for warm_start_ball: x_dag when B(x_dag, r_tilde) lies in K.

    Otherwise (x_dag on or near the boundary) the point of K shrunk by
    r_tilde, every constraint a_i^T x > b_i moved to b_i + r_tilde |a_i|,
    nearest to x_dag.
    """
    if not 0 < r_tilde < math.inf:
        raise PlannerError("r_tilde must be positive and finite")
    if P.m == 0 or np.min(_margins(P, x_dag)) >= r_tilde * (1 - 1e-9):
        return x_dag
    norms = _row_norms(P.A)
    try:
        # r_tilde |a_i| can overflow; _nearest_point rejects the system
        with np.errstate(over="ignore", invalid="ignore"):
            return _nearest_point(P.A, P.b + r_tilde * norms, x_dag)
    except PlannerError:
        raise PlannerError(f"found no ball of radius r_tilde = {r_tilde:g} in K")


def warm_start_ball(
    target: LogConcaveTarget,
    P: Polytope,
    x1: np.ndarray,
    r_tilde: float,
    modes: ModePair,
) -> WarmStartBall:
    """Ball construction guaranteeing f increases at most 1 over its interior.

    r1 = min{1/sqrt(beta), 1/(2 beta |x_dag - x_star|)}; the ball B(x0, r0) is
    the largest ball in the cone hull of {x_dag} and B(x1, r_tilde) that stays
    inside B(x_dag, r1). It needs no outer radius, so K may be unbounded.
    """
    x1 = P._check_dim(x1)
    if not 0 < r_tilde < math.inf:
        raise PlannerError("r_tilde must be positive and finite")
    # written so that a NaN margin fails it too
    if P.m > 0 and not np.min(_margins(P, x1)) >= r_tilde * (1 - 1e-9):
        raise PlannerError("B(x1, r_tilde) is not contained in the polytope")
    beta = target.beta
    mode_gap = float(np.linalg.norm(modes.x_dag - modes.x_star))
    r1 = 1.0 / math.sqrt(beta)
    if mode_gap > 0:
        r1 = min(r1, 1.0 / (2.0 * beta * mode_gap))
    d1 = float(np.linalg.norm(x1 - modes.x_dag))
    r0 = r1 * r_tilde / (d1 + r_tilde)
    scale = r1 / (r_tilde + d1)
    # a subnormal r_tilde at x1 = x_dag overflows the scale, and x0 = inf * 0
    # would be NaN, whose margins compare as inside
    if not (math.isfinite(scale) and math.isfinite(r0)):
        raise PlannerError(f"warm-start ball is not finite at r_tilde {r_tilde:g}")
    x0 = modes.x_dag + scale * (x1 - modes.x_dag)
    # degenerate collinear cases (e.g. x1 = x_dag) can push the ball to the
    # boundary; cap r0 by the actual per-constraint margin at x0, which keeps
    # the ball in K. It lies in B(x_dag, r1): |x0 - x_dag| + r0 <= r1
    if P.m > 0:
        r0 = min(r0, float(np.min(_margins(P, x0))))
    if r0 <= 0:
        raise PlannerError("warm-start ball collapsed (x0 too close to boundary)")
    return WarmStartBall(x0=x0, r0=r0, r1=r1)


def warmness_bound(
    target: LogConcaveTarget, P: Polytope, x1: np.ndarray, r_tilde: float,
    modes: ModePair, outer_radius: Optional[float] = None,
) -> float:
    """log M = 1 + n log(3 R / r_tilde) + n max{log(sqrt(beta) R), log(2 beta R g)},
    g = |x_dag - x_star|, bounds the warmness of the uniform distribution on
    warm_start_ball(target, P, x1, r_tilde, modes) for an outer radius R of
    K. Without one, R is _estimate_outer_radius(P, x1), which needs K
    bounded along every axis.
    """
    if not 0 < r_tilde < math.inf:
        raise PlannerError("r_tilde must be positive and finite")
    if outer_radius is not None and not 0 < outer_radius < math.inf:
        raise PlannerError("outer_radius must be positive and finite")
    beta = target.beta
    mode_gap = float(np.linalg.norm(modes.x_dag - modes.x_star))
    R = outer_radius or _estimate_outer_radius(P, x1)  # a given one is > 0
    try:
        second = 0.5 * math.log(beta * R**2)
        if mode_gap > 0:
            second = max(second, math.log(2.0 * beta * R * mode_gap))
        logM = 1.0 + P.n * math.log(3.0 * R / r_tilde) + P.n * second
    except (OverflowError, ValueError):  # R^2 overflows, or beta R^2 is <= 0
        logM = math.nan
    # 3 R / r_tilde overflows to inf, which log accepts, for a subnormal r_tilde
    if not math.isfinite(logM):
        raise PlannerError(
            f"warmness bound logM is out of range at outer radius {R:g}"
            f" and r_tilde {r_tilde:g}"
        )
    return logM


def sample_warm_start(ball: WarmStartBall, rng: np.random.Generator) -> np.ndarray:
    """Uniform point in B(x0, r0): Gaussian direction times radius^(1/n) scaling."""
    n = ball.x0.shape[0]
    g = rng.standard_normal(n)
    norm = np.linalg.norm(g)
    while norm == 0.0:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
    u = rng.uniform()
    return ball.x0 + ball.r0 * u ** (1.0 / n) * g / norm


def _ceil_budget(T: float) -> int:
    if not math.isfinite(T):
        raise PlannerError("budget is not finite; lower C")
    return math.ceil(T)


def mixing_budget(qry: MixingBudgetQuery) -> int:
    """ceil(C * regime factor * n * log(sqrt(M)/eps)).

    Factor: (m + kappa) for soft/strong; (n^{3/2} + kappa) for Lewis/strong;
    psi_n^2 (m + beta eta) for soft/weak; and psi_n^2 (n^{3/2} + beta eta)
    for Lewis/weak, psi_n^2 = max(1, log n).
    """
    n, m = qry.n, qry.m
    head = n**1.5 if qry.metric == "lewis" else float(m)
    if qry.regime == "strong":
        factor = head + qry.kappa
    else:
        factor = max(1.0, math.log(n)) * (head + qry.beta_eta)
    log_term = max(0.0, math.log(math.sqrt(qry.M) / qry.eps))
    return _ceil_budget(qry.C * factor * n * log_term)


def radius_hat(s: float, n: int) -> float:
    """2 + 2 max{n^{-1/4} log^{1/4}(1/s), n^{-1/2} log^{1/2}(1/s)} for s in (0,1)."""
    if not 0 < s < 1:
        raise PlannerError("s must be in (0, 1)")
    ln = math.log(1.0 / s)
    return 2.0 + 2.0 * max(n**-0.25 * ln**0.25, n**-0.5 * ln**0.5)


def violated_constraint_count(P: Polytope, center: np.ndarray, rho: float) -> int:
    """Constraints whose affine function attains <= 0 somewhere in B(center, rho)."""
    if rho < 0:
        raise PlannerError("rho must be nonnegative")
    center = P._check_dim(center)
    return int(np.count_nonzero(P.A @ center - P.b <= _row_norms(P.A) * rho))


def check_beyond_worst_case(qry: MixingBudgetQuery, P: Polytope) -> None:
    """Raise PlannerError unless qry is for the soft metric in the strong
    regime, with P's m and n: the inputs of beyond_worst_case_budget."""
    if qry.regime != "strong" or qry.metric != "soft":
        raise PlannerError("beyond-worst-case budget needs soft metric, strong regime")
    if (qry.m, qry.n) != (P.m, P.n):
        raise PlannerError(f"m, n differ from the polytope's m = {P.m}, n = {P.n}")


def beyond_worst_case_budget(
    qry: MixingBudgetQuery,
    P: Polytope,
    target: LogConcaveTarget,
    modes: ModePair,
) -> BudgetResult:
    """Minimize kappa n + m / delta^2 + n * (violated count) over DELTA_GRID.

    Every input but alpha (from target) comes from qry. The ball is centered
    at the constrained mode with radius (radius_hat(eps / 2M) + delta)
    sqrt(n / alpha). A delta -> infinity sentinel (count = m, m / delta^2 = 0)
    gives the plain (m + kappa) n budget, returned alongside; both scale with
    log(2M / eps), not mixing_budget's log(sqrt(M) / eps).
    """
    check_beyond_worst_case(qry, P)
    if target.alpha <= 0:
        raise TargetError("regime requires alpha > 0")
    n, m, kappa, M, eps = qry.n, qry.m, qry.kappa, qry.M, qry.eps
    ups = radius_hat(eps / (2.0 * M), n)
    scale = math.sqrt(n / target.alpha)
    log_term = max(0.0, math.log(2.0 * M / eps))
    best_val = kappa * n + n * m  # delta -> infinity sentinel
    best_delta = math.inf
    best_count = m
    for delta in DELTA_GRID:
        count = violated_constraint_count(P, modes.x_dag, (ups + delta) * scale)
        val = kappa * n + m / delta**2 + n * count
        if val < best_val:
            best_val = val
            best_delta = float(delta)
            best_count = count
    T = _ceil_budget(qry.C * best_val * log_term)
    plain_T = _ceil_budget(qry.C * (m + kappa) * n * log_term)
    return BudgetResult(T=T, best_delta=best_delta, violated_count=best_count, plain_T=plain_T)
