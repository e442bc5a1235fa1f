"""Regularized Dikin walk: proposal, Metropolis acceptance, chain execution.

Randomness discipline: one numpy PCG64 stream per chain (np.random.default_rng
seeded with the configured 64-bit seed). Per step the draws are, in order:
the lazification uniform (when lazy), the n proposal normals, and the MH
uniform; both uniforms are Generator.random() draws on [0, 1). The MH
uniform is consumed only when the proposal is interior, so a rejection at
the indicator never advances that draw; accept and MH-reject consume
identically.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from dikinwalk._lapack import dtrtrs
from dikinwalk.metrics import MetricEval, MetricKind, evaluate_metric
from dikinwalk.polytope import Polytope, contains
from dikinwalk.target import LogConcaveTarget


class WalkError(ValueError):
    """Invalid chain configuration or state."""


class NonFiniteDensityError(WalkError):
    """f returned a non-finite value at a proposed interior point."""


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


def step(
    state: ChainState,
    target: LogConcaveTarget,
    P: Polytope,
    config: WalkConfig,
) -> ChainState:
    """One (lazy) transition; mutates and returns the state.

    An interior proposal costs one slack vector, one metric evaluation
    from those slacks, one f(z) and one log ratio.
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
    metric_z = evaluate_metric(P, z, config.metric, s)
    f_z = float(target.f(z))
    if not math.isfinite(f_z):
        raise NonFiniteDensityError(f"f({z}) is not finite")
    L = log_accept_ratio(
        state.x, z, state.f_x, f_z, state.metric_cache, metric_z, config.r
    )
    u = rng.random()
    # u is drawn from [0, 1): log(0) = -inf rejects only when L = -inf
    if (math.log(u) if u > 0.0 else -math.inf) < L:
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
