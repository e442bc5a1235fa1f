"""Ground-truth oracles and property checkers.

Rejection sampling gives exact truncated-Gaussian samples at desk scale;
cross-ratio / Hilbert distances supply the geometry the walk's guarantees
are phrased in; the certify_* harnesses turn the metric-stability
and symmetry inequalities into finite randomized checks that report (rather
than throw) violations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from dikinwalk._lapack import dpotrf, dtrtrs
from dikinwalk.metrics import (
    MetricEval,
    MetricKind,
    RegularizedLewis,
    SoftThreshold,
    evaluate_metric,
)
from dikinwalk.polytope import Polytope, chord, contains, slack


SSC_DELTA_MAX = 0.4  # largest G(x)-norm step certify_ssc draws
MIN_SLACK = 0.2  # least slack of a random instance at its interior point
ORACLE_BATCH = 10000  # draws per rejection_oracle batch


class DiagnosticsError(ValueError):
    """Invalid diagnostics inputs or an oracle that cannot make progress."""


@dataclass(frozen=True)
class MomentReport:
    """Per-coordinate z-scores of the difference of two batches' means."""

    z_scores: np.ndarray
    max_abs_z: float


@dataclass(frozen=True)
class OracleSamples:
    """Exact i.i.d. truncated-Gaussian samples with the empirical accept rate."""

    samples: np.ndarray
    acceptance: float


@dataclass
class CertReport:
    """Outcome of a randomized certification run; violations are counted, not raised."""

    name: str
    trials: int = 0
    violations: int = 0
    max_slack: float = 0.0
    notes: list = field(default_factory=list)

    def record(self, ratio: float, ok: bool, note: str = "") -> None:
        self.trials += 1
        self.max_slack = max(self.max_slack, ratio)
        if not ok:
            self.violations += 1
            if note and len(self.notes) < 10:
                self.notes.append(note)

    def merge(self, other: "CertReport") -> None:
        """Add another run's counts into this one; notes are appended in order."""
        self.trials += other.trials
        self.violations += other.violations
        self.max_slack = max(self.max_slack, other.max_slack)
        self.notes.extend(other.notes)


def cross_ratio(P: Polytope, x: np.ndarray, y: np.ndarray) -> float:
    """Cross-ratio distance along the chord through x and y.

    With chord endpoints p, q in order p, x, y, q:
    both finite -> |p-q||x-y| / (|p-x||q-y|); one infinite endpoint drops
    the two lengths involving it; both infinite -> 0. x = y -> 0.
    """
    x = P._check_dim(x)
    y = P._check_dim(y)
    if not (contains(P, x) and contains(P, y)):
        raise DiagnosticsError("cross_ratio needs interior points")
    d = y - x
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        return 0.0
    c = chord(P, x, d)
    # parameters: p at t_minus, x at 0, y at 1, q at t_plus
    p_finite = math.isfinite(c.t_minus)
    q_finite = math.isfinite(c.t_plus)
    if p_finite and q_finite:
        return (c.t_plus - c.t_minus) / ((-c.t_minus) * (c.t_plus - 1.0))
    if q_finite:  # p at infinity: |x-y| / |q-y|
        return 1.0 / (c.t_plus - 1.0)
    if p_finite:  # q at infinity: |x-y| / |p-x|
        return 1.0 / (-c.t_minus)
    return 0.0


def hilbert(P: Polytope, x: np.ndarray, y: np.ndarray) -> float:
    """log(1 + cross-ratio distance); a genuine metric on the open polytope."""
    return math.log1p(cross_ratio(P, x, y))


def rejection_oracle(G, P: Polytope, N: int, rng: np.random.Generator) -> OracleSamples:
    """Exact i.i.d. N(mu, Sigma) | K samples: mu + G.L z, z ~ N(0, I), kept in K.

    Aborts after 100 consecutive empty batches of ORACLE_BATCH draws: K holds
    too little of the Gaussian's mass, which no affine change of variables
    alters.
    """
    if N <= 0:
        raise DiagnosticsError("N must be positive")
    kept = []
    total = accepted = 0
    empty_batches = 0
    while accepted < N:
        draws = G.mu + rng.standard_normal((ORACLE_BATCH, G.n)) @ G.L.T
        mask = np.all(draws @ P.A.T - P.b > 0.0, axis=1)
        total += ORACLE_BATCH
        got = int(mask.sum())
        if got == 0:
            empty_batches += 1
            if empty_batches >= 100:
                raise DiagnosticsError(
                    "rejection oracle acceptance too low; "
                    "use a smaller instance or one with more Gaussian mass in K"
                )
        else:
            empty_batches = 0
            kept.append(draws[mask])
            accepted += got
    samples = np.vstack(kept)[:N]
    return OracleSamples(samples=samples, acceptance=accepted / total)


def compare_moments(batch_a: np.ndarray, batch_b: np.ndarray) -> MomentReport:
    """Per-coordinate z-scores of mean_a - mean_b with pooled standard errors."""
    a = np.atleast_2d(np.asarray(batch_a, dtype=float))
    b = np.atleast_2d(np.asarray(batch_b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DiagnosticsError("both batches must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise DiagnosticsError("batch dimensions differ")
    var_a, var_b = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
    se = np.sqrt(var_a / a.shape[0] + var_b / b.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, (a.mean(axis=0) - b.mean(axis=0)) / se, 0.0)
    return MomentReport(z_scores=z, max_abs_z=float(np.max(np.abs(z))))


def _upper_solve(U: np.ndarray, B: np.ndarray, trans: int = 0) -> np.ndarray:
    """U^{-1} B (trans=0) or U^{-T} B (trans=1) for upper-triangular, F-ordered U.

    LAPACK trtrs directly, with the arguments scipy.linalg.solve_triangular
    passes it for such a U (or for U^T with lower=True), minus its
    validation wrappers.
    """
    X, info = dtrtrs(U, B, lower=0, trans=trans)
    if info != 0:
        raise DiagnosticsError(f"triangular solve failed (LAPACK trtrs info {info})")
    return X


def _sym_inv_sandwich(M_x, G_y: np.ndarray) -> np.ndarray:
    """Q^{-T} G(y) Q^{-1}; orthogonally similar to G(x)^{-1/2} G(y) G(x)^{-1/2},
    so Frobenius norms and determinants agree."""
    Qinv_Gy = _upper_solve(M_x.Q, G_y, trans=1)
    return _upper_solve(M_x.Q, Qinv_Gy.T, trans=1).T


def _interior_point_near(
    P: Polytope, x0: np.ndarray, M0: MetricEval, rng: np.random.Generator
) -> np.ndarray:
    """Random point in the open unit ellipsoid of M0 = G(x0), resampled into K."""
    for _ in range(100):
        u = rng.standard_normal(P.n)
        u *= rng.uniform() ** (1.0 / P.n) / np.linalg.norm(u)
        x = x0 + 0.95 * _upper_solve(M0.Q, u)
        if contains(P, x):
            return x
    raise DiagnosticsError("could not find an interior point near x0")


def certify_ssc(
    P: Polytope,
    x0: np.ndarray,
    kind: MetricKind,
    trials: int,
    rng: np.random.Generator,
) -> CertReport:
    """Check the metric-stability bounds for nearby interior pairs.

    For delta = |y - x|_{G(x)} <= SSC_DELTA_MAX:
      |G(x)^{-1/2}(G(y)-G(x))G(x)^{-1/2}|_F <= 2 delta / (1-delta)^2 + 1e-6,
    and for delta <= 1/2:
      det(G(x)^{-1/2} G(y) G(x)^{-1/2}) <= exp(8 sqrt(n) delta) (1 + 1e-6).
    """
    report = CertReport(name=f"ssc[{_kind_name(kind)}]")
    n = P.n
    M0 = evaluate_metric(P, x0, kind)  # a function of x0 alone: once per call
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 50 * trials:
            raise DiagnosticsError("certify_ssc could not draw enough valid pairs")
        x = _interior_point_near(P, x0, M0, rng)
        Mx = evaluate_metric(P, x, kind)
        delta = rng.uniform(1e-3, SSC_DELTA_MAX)
        u = rng.standard_normal(n)
        h = _upper_solve(Mx.Q, u / np.linalg.norm(u))
        y = x + delta * h
        if not contains(P, y):
            continue
        My = evaluate_metric(P, y, kind)
        S = _sym_inv_sandwich(Mx, My.G)
        frob = float(np.linalg.norm(S - np.eye(n), "fro"))
        frob_bound = 2.0 * delta / (1.0 - delta) ** 2 + 1e-6
        frob_ok = frob <= frob_bound
        report.record(frob / frob_bound, frob_ok, note=f"frob {frob:.3e} > {frob_bound:.3e}")
        if delta <= 0.5:
            logdet = My.logdet - Mx.logdet
            det_bound = 8.0 * math.sqrt(n) * delta + math.log1p(1e-6)
            det_ok = logdet <= det_bound
            report.record(
                (logdet / det_bound) if det_bound > 0 else 0.0,
                det_ok,
                note=f"logdet {logdet:.3e} > {det_bound:.3e}",
            )
        done += 1
    return report


def certify_symmetry(
    P: Polytope, x0: np.ndarray, trials: int, rng: np.random.Generator
) -> CertReport:
    """Check the symmetric-body sandwich of the unregularized barrier metric H.

    (a) points on the unit H-ellipsoid boundary lie in K and in 2x - K;
    (b) points of K intersected with 2x - K satisfy |z - x|_H^2 <= m + 1e-9,
        sampled by rejection from a slightly inflated sqrt(m)-ellipsoid.
    """
    if P.m == 0:
        raise DiagnosticsError("symmetry certification needs m >= 1")
    report = CertReport(name="symmetry")
    m, n = P.m, P.n
    M0 = evaluate_metric(P, x0, SoftThreshold(lam=1e-8))
    for _ in range(trials):
        x = _interior_point_near(P, x0, M0, rng)
        s = slack(P, x)
        Ax = P.A / s[:, None]
        H = Ax.T @ Ax
        # H = U^T U, U upper-triangular and F-ordered, as _upper_solve wants
        U, info = dpotrf(H, lower=0, clean=1)
        if info > 0:  # rank-deficient H: m < n leaves directions unconstrained
            continue
        u = rng.standard_normal(n)
        # pull fractionally inside the boundary sphere: the ellipsoid can
        # touch the facets, and membership is strict
        u *= (1.0 - 1e-9) / np.linalg.norm(u)
        z = x + _upper_solve(U, u)
        ok = contains(P, z) and contains(P, 2.0 * x - z)
        report.record(1.0 if not ok else 0.0, ok, note="unit H-ellipsoid left K")
        # rejection sample the symmetrized body inside an inflated ellipsoid
        v = rng.standard_normal(n)
        v *= rng.uniform() ** (1.0 / n) / np.linalg.norm(v)
        z = x + 1.1 * math.sqrt(m) * _upper_solve(U, v)
        if contains(P, z) and contains(P, 2.0 * x - z):
            hn_sq = float(np.linalg.norm(U @ (z - x)) ** 2)
            ok = hn_sq <= m + 1e-9
            report.record(hn_sq / m, ok, note=f"|z-x|_H^2 = {hn_sq:.6f} > m = {m}")
    return report


def lewis_fixed_point_residual(Ax: np.ndarray, w: np.ndarray, q: int) -> float:
    """Independent stationarity check: max_i |w_i - tau_i(w)| / w_i."""
    cq = 1.0 - 2.0 / q
    Mw = Ax.T @ (w[:, None] ** cq * Ax)
    B = np.linalg.solve(Mw, Ax.T)
    quad = np.einsum("ij,ji->i", Ax, B)
    tau = w**cq * quad
    return float(np.max(np.abs(w - tau) / w))


def _kind_name(kind: MetricKind) -> str:
    return "soft" if isinstance(kind, SoftThreshold) else "lewis"


def random_polytope_with_interior(
    n: int, m: int, rng: np.random.Generator
) -> tuple[Polytope, np.ndarray]:
    """Random full-dimensional instance with a known interior point at the origin."""
    A = rng.standard_normal((m, n))
    norms = np.linalg.norm(A, axis=1)
    while np.any(norms == 0):
        A = rng.standard_normal((m, n))
        norms = np.linalg.norm(A, axis=1)
    A /= norms[:, None]
    b = -rng.uniform(MIN_SLACK, 1.5, size=m)  # slack at 0 is -b > 0
    return Polytope(A=A, b=b), np.zeros(n)


def _certify_instance(seed: int, trials: int, i: int) -> tuple[CertReport, ...]:
    """Instance i of the corpus: SSC for both metric kinds plus symmetry,
    `trials` trials each, all drawn from the stream default_rng([seed, i])."""
    rng = np.random.default_rng([seed, i])
    n = int(rng.integers(1, 6))
    m = int(rng.integers(n, 11))
    P, x0 = random_polytope_with_interior(n, m, rng)
    # the Lewis metric's stability bound holds once the barrier part is
    # scaled up enough; c1=2 certifies cleanly, c1=1 is marginally outside
    return (
        certify_ssc(P, x0, SoftThreshold(lam=1.0), trials, rng),
        certify_ssc(P, x0, RegularizedLewis(lam=1.0, c1=2.0), trials, rng),
        certify_symmetry(P, x0, trials, rng),
    )


def diagnose_corpus(seed: int = 0, trials: int = 1000, map=map) -> list[CertReport]:
    """Standard randomized corpus: SSC for both metric kinds plus symmetry.

    Each of the 20 instances runs max(1, trials // 20) trials per check, so
    trials is rounded down to a multiple of 20, with a floor of 20. The
    instances share nothing, so `map` may run them anywhere: it is called as
    map(instance, range(20)) and must return their results in that order.
    """
    if trials < 1:
        raise DiagnosticsError("trials must be >= 1")
    instance = functools.partial(_certify_instance, seed, max(1, trials // 20))
    reports = [CertReport(name) for name in ("ssc[soft]", "ssc[lewis]", "symmetry")]
    for results in map(instance, range(20)):
        for report, result in zip(reports, results):
            report.merge(result)
    return reports
