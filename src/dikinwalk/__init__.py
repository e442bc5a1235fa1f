"""Sampling from logconcave distributions truncated on open polytopes.

The sampler is a Metropolis chain whose Gaussian proposal covariance is the
inverse of a position-dependent local metric, either a log-barrier Hessian
plus a regularizer ("soft-threshold") or a Lewis-weighted barrier Hessian
plus the same regularizer. The regularizer is lam I, or an SPD matrix such
as a Gaussian target's precision Sigma^{-1}. Supporting modules provide
warm-start construction, iteration-budget planning, and a diagnostics suite
(rejection-sampling oracles, cross-ratio / Hilbert geometry, numeric
self-concordance certification).
"""

from dikinwalk.polytope import (
    Polytope,
    PolytopeError,
    chord,
    contains,
    make_box,
    make_orthant,
    parse_polytope,
    serialize_polytope,
    slack,
)
from dikinwalk.target import GaussianTarget, LogConcaveTarget, quadratic_target
from dikinwalk.metrics import (
    LewisWeights,
    MetricError,
    MetricEval,
    RegularizedLewis,
    SoftThreshold,
    default_lewis_q,
    evaluate_metric,
    lewis_weights,
)
from dikinwalk.walk import (
    ChainState,
    SampleBatch,
    StepStats,
    WalkConfig,
    adapt_step_size,
    log_accept_ratio,
    propose,
    run,
    step,
)
from dikinwalk.planner import (
    BudgetResult,
    MixingBudgetQuery,
    ModePair,
    WarmStartBall,
    beyond_worst_case_budget,
    mixing_budget,
    radius_hat,
    sample_warm_start,
    solve_modes,
    violated_constraint_count,
    warm_start_ball,
    warmness_bound,
)
from dikinwalk.diagnostics import (
    CertReport,
    MomentReport,
    OracleSamples,
    certify_ssc,
    certify_symmetry,
    compare_moments,
    cross_ratio,
    hilbert,
    rejection_oracle,
)

__version__ = "0.1.0"
