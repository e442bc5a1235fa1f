"""Regularized Dikin walk: proposal, Metropolis acceptance, chain execution.

Randomness discipline: one numpy PCG64 stream per chain (np.random.default_rng
seeded with the configured 64-bit seed). Per step the draws are, in order:
the lazification uniform (when lazy), the n proposal normals, and the MH
uniform; both uniforms are Generator.random() draws on [0, 1). The MH
uniform is consumed only when the proposal is interior, so a rejection at
the indicator never advances that draw; accept and MH-reject consume
identically. The MH uniform is drawn after f(z) and before G(z): with the
soft metric at large m n^2, step compares it first with log_accept_bound,
and G(z) is built only when that bound cannot reject. The decision is the
one log_accept_ratio would make, so the bytes do not depend on the bound.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from dikinwalk._lapack import dtrtrs
from dikinwalk.metrics import MetricEval, MetricKind, SoftThreshold, evaluate_metric
from dikinwalk.polytope import Polytope, contains
from dikinwalk.target import LogConcaveTarget


class WalkError(ValueError):
    """Invalid chain configuration or state."""


class NonFiniteDensityError(WalkError):
    """f returned a non-finite value at a proposed interior point."""


_EPS = float(np.finfo(float).eps)
ADAPT_WINDOW = 50  # non-lazy proposals per step-size adaptation decision
R_MIN, R_MAX = 1e-6, 1.0


@dataclass(frozen=True)
class WalkConfig:
    """Step size, metric kind, and run lengths for one chain."""

    metric: MetricKind
    r: float = 0.1
    lazy: bool = True
    steps: int = 0
    burn_in: int = 0
    adapt: bool = False
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        # the MH ratio divides by r^2, which underflows to 0 below ~1e-162
        if not (0 < self.r < math.inf and self.r * self.r > 0):
            raise WalkError("step size r must be positive and finite, with r^2 > 0")
        if self.thin < 1:
            raise WalkError("thin must be >= 1")
        if self.steps < 0 or self.burn_in < 0:
            raise WalkError("steps and burn_in must be nonnegative")

    def check_dimension(self, n: int) -> None:
        """Raise WalkError unless the MH ratio's n / (2 r^2) is finite in R^n.

        It overflows for r below ~5e-155 sqrt(n), and inf * 0 is NaN for a
        proposal equal to x, which the MH test would count as a rejection.
        """
        r = float(self.r)
        if not math.isfinite(n / (2.0 * r * r)):
            raise WalkError(f"step size r is too small for dimension {n}")


@dataclass
class StepStats:
    """Counters over proposals; proposed = accepted + rejected_outside + rejected_mh."""

    proposed: int = 0
    accepted: int = 0
    lazy_skips: int = 0
    rejected_outside: int = 0
    rejected_mh: int = 0

    @property
    def nonlazy_acceptance(self) -> float:
        return self.accepted / self.proposed if self.proposed else float("nan")


@dataclass
class ChainState:
    """Current interior point with cached metric factor and f value."""

    x: np.ndarray
    metric_cache: MetricEval
    f_x: float
    rng: np.random.Generator
    stats: StepStats = field(default_factory=StepStats)


@dataclass(frozen=True)
class SampleBatch:
    """Recorded trajectory plus run metadata."""

    samples: np.ndarray
    stats: StepStats
    step_size: float
    seed: int


def propose(state: ChainState, config: WalkConfig) -> np.ndarray:
    """Draw z = x + (r / sqrt(n)) Q^{-1} xi, i.e. z ~ N(x, (r^2/n) G(x)^{-1})."""
    n = state.x.shape[0]
    xi = state.rng.standard_normal(n)
    # Q is upper triangular with a positive diagonal; LAPACK trtrs directly,
    # as scipy.linalg.solve_triangular does minus its validation wrappers
    step_vec = dtrtrs(state.metric_cache.Q, xi, overwrite_b=1)[0]
    return state.x + (config.r / math.sqrt(n)) * step_vec


def log_accept_ratio(
    x: np.ndarray,
    z: np.ndarray,
    f_x: float,
    f_z: float,
    metric_at_x: MetricEval,
    metric_at_z: MetricEval,
    r: float,
) -> float:
    """Log Metropolis ratio for interior x, z; acceptance is min{1, e^L}.

    With f_x = f(x), f_z = f(z) finite and the metrics evaluated at x and z:
    L = [f(x) - f(z)] + (1/2)[logdet G(z) - logdet G(x)]
        - (n / 2r^2) [ |x-z|^2_{G(z)} - |z-x|^2_{G(x)} ].
    """
    n = x.shape[0]
    d = x - z
    v = metric_at_z.Q @ d
    w = metric_at_x.Q @ d  # sign-flipped Q (z - x): same square, bit for bit
    # sqrt then square reproduces np.linalg.norm(.) ** 2 to the bit
    nx_sq = math.sqrt(v @ v) ** 2
    nz_sq = math.sqrt(w @ w) ** 2
    return (
        (f_x - f_z)
        + 0.5 * (metric_at_z.logdet - metric_at_x.logdet)
        - (n / (2.0 * r * r)) * (nx_sq - nz_sq)
    )


def log_accept_bound(
    x: np.ndarray,
    z: np.ndarray,
    f_x: float,
    f_z: float,
    metric_at_x: MetricEval,
    s_z: np.ndarray,
    P: Polytope,
    kind: SoftThreshold,
    r: float,
) -> float:
    """Upper bound, from slacks alone, on the soft metric's log_accept_ratio.

    For interior x, z with slacks s_x (cached in metric_at_x) and s_z, write
    d = x - z, ds = s_x - s_z = A d and c_i = 1/s_{z,i}^2 - 1/s_{x,i}^2, so
    that G(z) - G(x) = sum_i c_i a_i a_i^T: Lambda cancels. Then

    - |d|^2_{G(z)} - |d|^2_{G(x)} = sum_i c_i ds_i^2, exactly;
    - G(z) <= G(x) + sum_i c_i^+ a_i a_i^T and G(x) >= lam_min I, so with
      log det(I + M) <= tr M,
      log det G(z) - log det G(x) <= T = sum_i c_i^+ |a_i|^2 / lam_min;

    hence L <= (f_x - f_z) + T/2 - (n / 2r^2) sum_i c_i ds_i^2, in O(m).

    The bound must dominate the L that log_accept_ratio computes, so it adds
    four allowances, each O(m) too. They use tr G(z) <= sum_i |a_i|^2 /
    s_{z,i}^2 + tr G(x), as Lambda <= G(x), and eps = 2^-52:

    - Slacks: a slack is off by up to ~n eps |a_i| |x| + eps s_i, which
      grows with |x| rather than with s_i. So ds_i, taken from the rounded
      slacks, differs from the a_i^T d that G sees by at most
      e_i <= 2 (n + 2) eps w_i, with w_i = |a_i| R + s_{x,i} + s_{z,i} and
      R = |x| + |z| + |d|, and sum_i c_i ds_i^2 by at most
      sum_i |c_i| e_i (2 |ds_i| + e_i) <= 6 (n + 2) eps sum_i |c_i| w_i^2,
      itself at most 12 (n + 2) eps times
      R^2 sum_i |c_i| |a_i|^2 + sum_i |c_i| (s_{x,i} + s_{z,i})^2.
      Far from the origin this term is what keeps the bound sound.
    - Jitter: _cholesky_upper's retry puts j = 1e-12 tr G / n on G's
      diagonal. At z that raises log det G(z) by at most
      n log1p(j_z / lam_min). At x it adds j_x |d|^2 <= 1e-12 tr G(x) |d|^2
      to |d|^2_{G(x)}, inside the rounding allowance below.
    - Factors: the Gram, Lambda's sum and dpotrf perturb G by E with
      |E| <= (m + n + 2) eps times a matrix of spectral norm <= tr G. That
      moves |d|^2_G by at most (m + n + 2) eps tr G |d|^2, and log det G, to
      first order, by at most n times that over |d|^2 and lam_min. For
      m + n < 10^7, 1e-8 times (n / 2r^2) (tr G(z) + tr G(x)) |d|^2 and
      n (tr G(z) + tr G(x)) / lam_min covers both.
    - Rounding in the sums: 1e-8 times |f_x|, |f_z|, |log det G(x)| and T.
    """
    n = x.shape[0]
    k = n / (2.0 * r * r)
    lam_min = kind.lam_min
    a_sq = P.row_norms_sq
    s_x = metric_at_x.s
    inv_x = metric_at_x.inv_s_sq
    d = x - z
    d_sq = float(d.dot(d))
    R = math.sqrt(float(x.dot(x))) + math.sqrt(float(z.dot(z))) + math.sqrt(d_sq)
    # a slack near 0 or huge overflows a term to inf; the bound is then inf
    # or NaN, and step's test decides nothing
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_z = 1.0 / (s_z * s_z)
        ds_sq = s_x - s_z
        ds_sq *= ds_sq
        c = inv_z - inv_x
        # sum_i c_i ds_i^2, = |d|^2_{G(z)} - |d|^2_{G(x)}
        quad = float(ds_sq.dot(c))
        c_plus = np.maximum(c, 0.0)
        np.abs(c, out=c)
        s_sum = s_x + s_z
        s_sum *= s_sum
    T = float(c_plus.dot(a_sq)) / lam_min
    tr_x = float(metric_at_x.G.trace())
    tr_z = float(inv_z.dot(a_sq)) + tr_x
    slack_err = 12.0 * (n + 2) * _EPS * (R * R * float(c.dot(a_sq)) + float(c.dot(s_sum)))
    jitter = 0.5 * n * math.log1p(1e-12 * tr_z / (n * lam_min))
    rounding = 1e-8 * (
        1.0
        + abs(f_x)
        + abs(f_z)
        + abs(metric_at_x.logdet)
        + T
        + (k * d_sq + n / lam_min) * (tr_z + tr_x)
    )
    return (f_x - f_z) + 0.5 * T - k * (quad - slack_err) + jitter + rounding


def _bound_pays(m: int, n: int) -> bool:
    """Whether step tries log_accept_bound before G(z) at shape (m, n).

    The bound costs ~12-20 us, mostly per-call overhead of its ~20 O(m)
    vector operations; an interior proposal without it costs an m n^2 Gram
    and an n^3 / 3 Cholesky. Timed at one BLAS thread, the bound came to
    49 / 34 / 20 / 12 / 6 / 5.4 / 3.5% of such a proposal at m n^2 = 4e3 /
    8e4 / 5e5 / 1.25e6 / 4e6 / 5e6 / 1e7, catching nothing. From 5e6 on it
    stays near 5%, and pays once it catches about that share of proposals;
    at (100, 1000) it catches about every MH rejection. Outputs do not
    depend on this rule.
    """
    return m * n * n >= 5_000_000


def step(
    state: ChainState,
    target: LogConcaveTarget,
    P: Polytope,
    config: WalkConfig,
) -> ChainState:
    """One (lazy) transition; mutates and returns the state.

    An interior proposal costs one slack vector and one f(z). With the soft
    metric at a shape where _bound_pays, it then costs O(m) for
    log_accept_bound, and a proposal that bound already rejects costs
    nothing more. Every other interior proposal costs one metric evaluation
    from those slacks and one log ratio.
    """
    rng = state.rng
    if config.lazy and rng.random() >= 0.5:
        state.stats.lazy_skips += 1
        return state
    z = propose(state, config)
    state.stats.proposed += 1
    s = P.A @ z - P.b
    if not (s > 0.0).all():
        # indicator forces rejection; G(z) and f(z) are never evaluated,
        # and the MH uniform is not consumed
        state.stats.rejected_outside += 1
        return state
    f_z = float(target.f(z))
    if not math.isfinite(f_z):
        raise NonFiniteDensityError(f"f({z}) is not finite")
    u = rng.random()
    # u is drawn from [0, 1): log(0) = -inf rejects only when L = -inf
    log_u = math.log(u) if u > 0.0 else -math.inf
    kind = config.metric
    if (
        isinstance(kind, SoftThreshold)
        and _bound_pays(P.m, P.n)
        and kind.lam_min > 0.0
        # a NaN bound (overflowed 1 / s^2) decides nothing
        and log_u >= log_accept_bound(
            state.x, z, state.f_x, f_z, state.metric_cache, s, P, kind, config.r
        )
    ):
        state.stats.rejected_mh += 1
        return state
    metric_z = evaluate_metric(P, z, kind, s)
    L = log_accept_ratio(
        state.x, z, state.f_x, f_z, state.metric_cache, metric_z, config.r
    )
    if log_u < L:
        state.x = z
        state.metric_cache = metric_z
        state.f_x = f_z
        state.stats.accepted += 1
    else:
        state.stats.rejected_mh += 1
    return state


def adapt_step_size(acceptance: float, r: float) -> float:
    """Double r above 0.7 windowed acceptance, halve below 0.3, clamp [1e-6, 1]."""
    if acceptance > 0.7:
        r = 2.0 * r
    elif acceptance < 0.3:
        r = 0.5 * r
    return min(R_MAX, max(R_MIN, r))


def run(
    x0: Union[np.ndarray, Callable[[np.random.Generator], np.ndarray]],
    target: LogConcaveTarget,
    P: Polytope,
    config: WalkConfig,
) -> SampleBatch:
    """Burn in (optionally adapting r), then record every thin-th of `steps` states.

    With steps=0 (or steps < thin) the batch holds just the post-burn-in
    point, so it is never empty. Fully deterministic given config.seed;
    stats cover the recorded phase only.
    """
    config.check_dimension(P.n)
    rng = np.random.default_rng(config.seed)
    x_init = x0(rng) if callable(x0) else np.asarray(x0, dtype=float).reshape(-1)
    if not contains(P, x_init):
        raise WalkError("initial point is not interior to the polytope")
    f0 = float(target.f(x_init))
    if not math.isfinite(f0):
        raise WalkError("f is not finite at the initial point")
    state = ChainState(
        x=x_init.copy(),
        metric_cache=evaluate_metric(P, x_init, config.metric),
        f_x=f0,
        rng=rng,
    )
    cfg = config
    window_start = (0, 0)  # (proposed, accepted) at window open
    for _ in range(config.burn_in):
        step(state, target, P, cfg)
        if config.adapt:
            dp = state.stats.proposed - window_start[0]
            if dp >= ADAPT_WINDOW:
                da = state.stats.accepted - window_start[1]
                new_r = adapt_step_size(da / dp, cfg.r)
                if new_r != cfg.r:
                    cfg = dataclasses.replace(cfg, r=new_r)
                window_start = (state.stats.proposed, state.stats.accepted)
    # stats for the recorded phase only; r is frozen from here on
    state.stats = StepStats()
    samples = []
    for t in range(1, config.steps + 1):
        step(state, target, P, cfg)
        if t % config.thin == 0:
            samples.append(state.x.copy())
    if not samples:
        samples.append(state.x.copy())
    return SampleBatch(
        samples=np.array(samples),
        stats=state.stats,
        step_size=cfg.r,
        seed=config.seed,
    )


def format_rows(samples: np.ndarray) -> list[str]:
    """One CSV line per row of a 2-D array, 17 significant digits per value.

    A chain repeats its state on every lazy skip and rejection, so each run
    of bit-identical rows is formatted once and its line repeated. Rows are
    compared by bit pattern, not by value: 0.0 == -0.0, but they print
    differently.
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    k = samples.shape[0]
    if k == 0:
        return []
    template = ",".join(["%.17g"] * samples.shape[1])
    bits = samples.view(np.uint64)
    new = np.empty(k, dtype=bool)
    new[0] = True
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=k).tolist()
    lines: list[str] = []
    for row, count in zip(samples[starts].tolist(), counts):
        lines += [template % tuple(row)] * count
    return lines


def format_csv(batch: SampleBatch, header: bool = False) -> str:
    n = batch.samples.shape[1] if batch.samples.size else 0
    lines = []
    if header:
        lines.append(",".join(f"x{i + 1}" for i in range(n)))
    lines += format_rows(batch.samples)
    s = batch.stats
    lines.append(f"# proposed={s.proposed} accepted={s.accepted}")
    lines.append(
        f"# lazy_skips={s.lazy_skips} rejected_outside={s.rejected_outside} "
        f"rejected_mh={s.rejected_mh}"
    )
    lines.append(f"# step_size={batch.step_size:.17g} seed={batch.seed}")
    return "\n".join(lines) + "\n"
