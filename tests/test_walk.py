import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dikinwalk import walk
from dikinwalk.diagnostics import random_polytope_with_interior
from dikinwalk.metrics import RegularizedLewis, SoftThreshold, evaluate_metric
from dikinwalk.polytope import Polytope, chord, contains, make_box, make_orthant
from dikinwalk.target import GaussianTarget, LogConcaveTarget, quadratic_target
from dikinwalk.walk import (
    ChainState,
    NonFiniteDensityError,
    SampleBatch,
    StepStats,
    WalkConfig,
    WalkError,
    adapt_step_size,
    format_csv,
    format_rows,
    log_accept_bound,
    log_accept_ratio,
    propose,
    run,
    step,
)

FREE_2D = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
FLAT = LogConcaveTarget(f=lambda x: 0.0, alpha=0.0, beta=1.0)


def _state(P, x, metric, seed=0):
    return ChainState(
        x=np.asarray(x, dtype=float),
        metric_cache=evaluate_metric(P, x, metric),
        f_x=0.0,
        rng=np.random.default_rng(seed),
    )


def test_propose_zero_noise_returns_x():
    class ZeroRng:
        def standard_normal(self, n):
            return np.zeros(n)

    st = _state(FREE_2D, [0.3, 0.4], SoftThreshold(lam=1.0))
    st.rng = ZeroRng()
    z = propose(st, WalkConfig(metric=SoftThreshold(lam=1.0), r=0.5))
    np.testing.assert_array_equal(z, [0.3, 0.4])


def test_propose_identity_factor_1d():
    class FixedRng:
        def standard_normal(self, n):
            return np.full(n, 1.5)

    P = Polytope(A=np.zeros((0, 1)), b=np.zeros(0))
    st = _state(P, [2.0], SoftThreshold(lam=1.0))
    st.rng = FixedRng()
    z = propose(st, WalkConfig(metric=SoftThreshold(lam=1.0), r=1.0))
    assert z[0] == pytest.approx(3.5)


def test_propose_covariance_monte_carlo():
    # target covariance (r^2/n) G^{-1} with G = diag(4, 1)
    P = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
    G = np.diag([4.0, 1.0])

    class FakeMetric:
        Q = np.linalg.cholesky(G).T

    st = ChainState(
        x=np.zeros(2), metric_cache=FakeMetric(), f_x=0.0,
        rng=np.random.default_rng(123),
    )
    cfg = WalkConfig(metric=SoftThreshold(lam=1.0), r=1.0)
    draws = np.array([propose(st, cfg) for _ in range(100000)])
    cov = np.cov(draws, rowvar=False)
    np.testing.assert_allclose(np.diag(cov), [1 / 8, 1 / 2], rtol=0.05)
    assert abs(cov[0, 1]) < 0.01


@pytest.mark.parametrize("kind", ["soft", "lewis"])
def test_propose_covariance_at_a_non_diagonal_metric(kind):
    # z - x ~ N(0, (r^2/n) G(x)^{-1}): whitened by the symmetric root of G,
    # the steps have identity covariance, to ~0.015 at 20 000 draws. A solve
    # with Q^T instead of Q draws from (Q Q^T)^{-1}, off by 0.17 (soft) and
    # 0.20 (Lewis) in the whitened frame
    rng = np.random.default_rng(5)
    P, x = random_polytope_with_interior(3, 8, rng)
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    precision = R @ np.diag([1.0, 1.0 / 0.3, 10.0]) @ R.T
    metric = (SoftThreshold if kind == "soft" else RegularizedLewis)(lam=precision)
    st = _state(P, x, metric, seed=0)
    G = st.metric_cache.G
    assert np.abs(G - np.diag(np.diag(G))).max() > 1.0
    r = 0.5
    cfg = WalkConfig(metric=metric, r=r)
    steps = np.array([propose(st, cfg) - x for _ in range(20_000)])
    w, V = np.linalg.eigh(G)
    white = steps @ (V * np.sqrt(w)) * (math.sqrt(3) / r)
    cov = white.T @ white / len(white)
    assert np.abs(cov - np.eye(3)).max() < 0.05


def test_log_ratio_flat_unconstrained_is_zero():
    metric = SoftThreshold(lam=1.0)
    Mx = evaluate_metric(FREE_2D, np.array([0.0, 0.0]), metric)
    Mz = evaluate_metric(FREE_2D, np.array([0.5, -0.2]), metric)
    L = log_accept_ratio(np.zeros(2), np.array([0.5, -0.2]), 0.0, 0.0, Mx, Mz, r=0.7)
    assert L == pytest.approx(0.0, abs=1e-14)


def test_log_ratio_half_line_hand_value():
    # K=(0,inf), lam=1, f=0, r=1, x=1 (G=2), z=2 (G=1.25):
    # L = 0.5 log(0.625) - 0.5 (1.25 - 2) = 0.13996...
    P = Polytope(A=np.array([[1.0]]), b=np.array([0.0]))
    metric = SoftThreshold(lam=1.0)
    Mx = evaluate_metric(P, np.array([1.0]), metric)
    Mz = evaluate_metric(P, np.array([2.0]), metric)
    L = log_accept_ratio(np.array([1.0]), np.array([2.0]), 0.0, 0.0, Mx, Mz, r=1.0)
    expected = 0.5 * math.log(0.625) - 0.5 * (1.25 - 2.0)
    assert L == pytest.approx(expected, abs=1e-12)
    assert L == pytest.approx(0.1400, abs=5e-4)


def test_log_ratio_matches_raw_gaussian_densities():
    # independent oracle: log pi(z) + log N(x; z, (r^2/n) G(z)^{-1}) minus the
    # same with x and z swapped
    rng = np.random.default_rng(17)
    P = make_box([0.0, 0.0, 0.0], [1.0, 2.0, 1.5])
    target = quadratic_target(
        GaussianTarget(mu=np.array([0.4, 1.0, 0.2]), Sigma=np.diag([1.0, 0.5, 2.0]))
    )
    metric = SoftThreshold(lam=1.0)
    r = 0.6
    n = 3

    def log_prop(frm, Mfrom, to):
        d = to - frm
        quad = float(np.linalg.norm(Mfrom.Q @ d) ** 2)
        return (
            0.5 * Mfrom.logdet
            + 0.5 * n * math.log(n / (2.0 * math.pi * r * r))
            - (n / (2.0 * r * r)) * quad
        )

    for _ in range(100):
        x = rng.uniform([0.05, 0.05, 0.05], [0.95, 1.95, 1.45])
        z = rng.uniform([0.05, 0.05, 0.05], [0.95, 1.95, 1.45])
        Mx = evaluate_metric(P, x, metric)
        Mz = evaluate_metric(P, z, metric)
        L = log_accept_ratio(x, z, target.f(x), target.f(z), Mx, Mz, r)
        oracle = (-target.f(z) + log_prop(z, Mz, x)) - (
            -target.f(x) + log_prop(x, Mx, z)
        )
        assert L == pytest.approx(oracle, abs=1e-9)


def test_log_ratio_antisymmetry():
    rng = np.random.default_rng(23)
    P = make_orthant(2)
    metric = SoftThreshold(lam=1.0)
    target = quadratic_target(GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2)))
    for _ in range(100):
        x = rng.uniform(0.1, 3.0, 2)
        z = rng.uniform(0.1, 3.0, 2)
        Mx = evaluate_metric(P, x, metric)
        Mz = evaluate_metric(P, z, metric)
        f_x, f_z = target.f(x), target.f(z)
        fwd = log_accept_ratio(x, z, f_x, f_z, Mx, Mz, r=0.5)
        bwd = log_accept_ratio(z, x, f_z, f_x, Mz, Mx, r=0.5)
        assert fwd == pytest.approx(-bwd, abs=1e-12)


def test_step_lazy_skip():
    class LazyRng:
        def random(self):
            return 0.9

    st = _state(FREE_2D, [0.0, 0.0], SoftThreshold(lam=1.0))
    st.rng = LazyRng()
    cfg = WalkConfig(metric=SoftThreshold(lam=1.0), lazy=True)
    x_before = st.x.copy()
    step(st, FLAT, FREE_2D, cfg)
    np.testing.assert_array_equal(st.x, x_before)
    assert st.stats.lazy_skips == 1
    assert st.stats.proposed == 0


class _ScriptedRng:
    """Lazy uniform, normals and MH uniform taken from fixed scripts."""

    def __init__(self, uniforms, normal):
        self.uniforms = list(uniforms)
        self.normal = normal

    def random(self):
        return self.uniforms.pop(0)

    def standard_normal(self, n):
        return np.full(n, self.normal)


def test_step_mh_uniform_zero_accepts():
    # u = 0 is a legal draw from [0, 1); it must act as log u = -inf
    metric = SoftThreshold(lam=1.0)
    target = quadratic_target(GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2)))
    st = _state(FREE_2D, [0.0, 0.0], metric)
    st.rng = _ScriptedRng(uniforms=[0.1, 0.0], normal=3.0)
    step(st, target, FREE_2D, WalkConfig(metric=metric, r=1.0, lazy=True))
    assert st.rng.uniforms == []  # lazy uniform, then the MH uniform
    assert st.stats.accepted == 1
    assert st.x[0] > 0.0


def test_step_nonfinite_f_at_proposal_raises():
    metric = SoftThreshold(lam=1.0)
    target = LogConcaveTarget(f=lambda x: math.inf, alpha=0.0, beta=1.0)
    st = _state(FREE_2D, [0.0, 0.0], metric)
    with pytest.raises(NonFiniteDensityError):
        step(st, target, FREE_2D, WalkConfig(metric=metric, lazy=False))


def test_step_outside_rejection_skips_f():
    calls = []

    def counting_f(x):
        calls.append(x)
        return 0.0

    target = LogConcaveTarget(f=counting_f, alpha=0.0, beta=1.0)
    P = make_box([0.0], [1e-6])  # tiny box: proposals almost surely leave
    metric = SoftThreshold(lam=1.0)
    st = _state(P, [5e-7], metric, seed=4)
    st.f_x = 0.0
    cfg = WalkConfig(metric=metric, r=1.0, lazy=False)
    for _ in range(50):
        step(st, target, P, cfg)
    assert st.stats.rejected_outside > 0
    # f is only evaluated for interior proposals
    assert len(calls) == st.stats.proposed - st.stats.rejected_outside


def test_step_flat_unconstrained_always_accepts():
    metric = SoftThreshold(lam=1.0)
    st = _state(FREE_2D, [0.0, 0.0], metric, seed=8)
    cfg = WalkConfig(metric=metric, r=0.5, lazy=False)
    for _ in range(500):
        step(st, FLAT, FREE_2D, cfg)
    assert st.stats.accepted == st.stats.proposed == 500


def test_adapt_step_size_rules():
    assert adapt_step_size(0.95, 0.1) == pytest.approx(0.2)
    assert adapt_step_size(0.1, 0.1) == pytest.approx(0.05)
    assert adapt_step_size(0.5, 0.1) == pytest.approx(0.1)
    assert adapt_step_size(0.95, 0.9) == 1.0  # clamp above
    assert adapt_step_size(0.0, 1.5e-6) == pytest.approx(1e-6)  # clamp below


def test_run_zero_steps_records_initial_point():
    metric = SoftThreshold(lam=1.0)
    cfg = WalkConfig(metric=metric, steps=0, seed=1)
    batch = run(np.array([0.1, 0.2]), FLAT, FREE_2D, cfg)
    assert batch.samples.shape == (1, 2)
    np.testing.assert_array_equal(batch.samples[0], [0.1, 0.2])


def test_run_row_count_matches_steps():
    metric = SoftThreshold(lam=1.0)
    P = make_box([0.0, 0.0], [1.0, 1.0])
    cfg = WalkConfig(metric=metric, steps=100, thin=1, seed=2)
    batch = run(np.array([0.5, 0.5]), FLAT, P, cfg)
    assert batch.samples.shape == (100, 2)
    cfg = WalkConfig(metric=metric, steps=100, thin=10, seed=2)
    assert run(np.array([0.5, 0.5]), FLAT, P, cfg).samples.shape == (10, 2)


def test_run_same_seed_bit_identical():
    metric = SoftThreshold(lam=1.0)
    P = make_orthant(2)
    target = quadratic_target(GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2)))
    cfg = WalkConfig(metric=metric, steps=300, burn_in=50, adapt=True, seed=99)
    a = run(np.array([1.0, 1.0]), target, P, cfg)
    b = run(np.array([1.0, 1.0]), target, P, cfg)
    assert np.array_equal(a.samples, b.samples)
    assert a.step_size == b.step_size


def test_run_rejects_exterior_start():
    metric = SoftThreshold(lam=1.0)
    P = make_orthant(2)
    with pytest.raises(WalkError):
        run(np.array([-1.0, 1.0]), FLAT, P, WalkConfig(metric=metric, steps=1))


def test_run_callable_initializer():
    metric = SoftThreshold(lam=1.0)
    P = make_box([0.0, 0.0], [1.0, 1.0])

    def init(rng):
        return rng.uniform(0.3, 0.7, size=2)

    batch = run(init, FLAT, P, WalkConfig(metric=metric, steps=5, seed=3))
    assert contains(P, batch.samples[-1])


def test_run_samples_stay_interior():
    metric = SoftThreshold(lam=1.0)
    P = make_box([0.0, 0.0], [1.0, 1.0])
    cfg = WalkConfig(metric=metric, r=0.8, steps=2000, seed=6)
    batch = run(np.array([0.5, 0.5]), FLAT, P, cfg)
    for row in batch.samples:
        assert contains(P, row)


def test_adaptation_freezes_after_burn_in():
    metric = SoftThreshold(lam=1.0)
    P = make_box([0.0, 0.0], [1.0, 1.0])
    cfg = WalkConfig(
        metric=metric, r=1e-4, steps=500, burn_in=3000, adapt=True, seed=5
    )
    batch = run(np.array([0.5, 0.5]), FLAT, P, cfg)
    assert batch.step_size > 1e-4  # tiny r gets adapted up during burn-in
    # recorded-phase stats only
    total = (
        batch.stats.proposed + batch.stats.lazy_skips
    )
    assert total == 500


def test_config_validation():
    metric = SoftThreshold(lam=1.0)
    with pytest.raises(WalkError):
        WalkConfig(metric=metric, r=0.0)
    with pytest.raises(WalkError):
        WalkConfig(metric=metric, thin=0)
    with pytest.raises(WalkError):
        WalkConfig(metric=metric, steps=-1)


def test_run_rejects_a_step_size_whose_mh_scale_overflows():
    # n / (2 r^2) is inf at r = 1e-160, and inf * 0 is NaN for a proposal
    # equal to x: every such step was counted as an MH rejection
    P = make_orthant(2)
    cfg = WalkConfig(metric=SoftThreshold(lam=1.0), r=1e-160, steps=1)
    with pytest.raises(WalkError, match="too small for dimension 2"):
        run(np.array([1.0, 1.0]), FLAT, P, cfg)


def test_format_csv():
    batch = run(
        np.array([0.5, 0.5]),
        FLAT,
        make_box([0.0, 0.0], [1.0, 1.0]),
        WalkConfig(metric=SoftThreshold(lam=1.0), steps=3, seed=0),
    )
    text = format_csv(batch, header=True)
    lines = text.strip().splitlines()
    assert lines[0] == "x1,x2"
    data = [ln for ln in lines if not ln.startswith("#") and "," in ln and "x1" not in ln]
    assert len(data) == 3
    assert any(ln.startswith("# proposed=") for ln in lines)
    # exact bytes: signed zero, subnormal-range and 17-digit values
    samples = np.array([[-0.0, 1e-300, 0.12345678901234568], [0.1, -2.5, 1e16]])
    batch = SampleBatch(samples=samples, stats=StepStats(), step_size=0.5, seed=4)
    assert format_csv(batch, header=True) == (
        "x1,x2,x3\n"
        "-0,1e-300,0.12345678901234568\n"
        "0.10000000000000001,-2.5,10000000000000000\n"
        "# proposed=0 accepted=0\n"
        "# lazy_skips=0 rejected_outside=0 rejected_mh=0\n"
        "# step_size=0.5 seed=4\n"
    )


# values whose %.17g text is easy to get wrong: signed zeros, subnormals,
# infinities, NaN, and integers past 2**53
_EDGE_VALUES = [0.0, -0.0, 5e-324, -1e-300, 0.1, 1e16, math.inf, -math.inf, math.nan]


@st.composite
def _rows_with_repeats(draw):
    """A 2-D array whose rows come from a small pool, so runs of repeats are common."""
    n = draw(st.integers(0, 4))
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))
    pool = [[0.0] * n, [-0.0] * n]  # equal as values, not as bits
    pool += draw(st.lists(st.lists(value, min_size=n, max_size=n), max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), n)


@settings(max_examples=200, deadline=None)
@given(_rows_with_repeats())
@example(np.zeros((0, 3)))
@example(np.array([[1.5, -0.0]]))
@example(np.array([[0.0], [-0.0], [-0.0], [0.0]]))
@example(np.array([[math.nan, 1.0], [math.nan, 1.0], [-math.nan, 1.0]]))
def test_format_rows_equals_per_row_formatting(samples):
    naive = [",".join("%.17g" % v for v in row) for row in samples.tolist()]
    assert format_rows(samples) == naive


def test_random_draws_the_bits_uniform_draws():
    # step draws its uniforms with Generator.random(); uniform() returns
    # 0 + 1 * next_double, the same double from the same stream
    a, b = np.random.default_rng(2024), np.random.default_rng(2024)
    for _ in range(2000):
        assert a.random().hex() == b.uniform().hex()
        np.testing.assert_array_equal(a.standard_normal(3), b.standard_normal(3))
    bulk_a, bulk_b = a.random(100_000), b.uniform(size=100_000)
    assert (bulk_a.view(np.uint64) == bulk_b.view(np.uint64)).all()
    assert a.standard_normal() == b.standard_normal()
    assert a.bit_generator.state == b.bit_generator.state


def test_stats_partition():
    metric = SoftThreshold(lam=1.0)
    P = make_box([0.0, 0.0], [1.0, 1.0])
    target = quadratic_target(GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2)))
    cfg = WalkConfig(metric=metric, r=0.9, steps=5000, seed=14)
    s = run(np.array([0.5, 0.5]), target, P, cfg).stats
    assert s.proposed == s.accepted + s.rejected_outside + s.rejected_mh
    assert s.proposed + s.lazy_skips == 5000


@st.composite
def _bound_case(draw):
    """Interior x, z of a random polytope, a scalar or dense SPD Lambda, f values and r."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 30))
    unit = st.floats(-1.0, 1.0)
    A = np.array(draw(st.lists(unit, min_size=m * n, max_size=m * n))).reshape(m, n)
    A[np.all(A == 0.0, axis=1), 0] = 1.0
    x = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    slacks = draw(st.lists(st.floats(1e-4, 10.0), min_size=m, max_size=m))
    P = Polytope(A=A, b=A @ x - np.array(slacks))
    d = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    if not d.any():
        d[0] = 1.0
    # z = x + t d anywhere on the chord: x itself, near x, or near a facet
    reach = min(chord(P, x, d).t_plus, 100.0)
    z = x + draw(st.floats(0.0, 1.0, exclude_max=True)) * reach * d
    assume(contains(P, z))
    if draw(st.booleans()):
        lam = draw(st.floats(1e-3, 1e3))
    else:
        B = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
        lam = B @ B.T + draw(st.floats(1e-3, 10.0)) * np.eye(n)
    f_x, f_z = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    r = draw(st.floats(1e-3, 2.0))
    return P, x, z, SoftThreshold(lam=lam), f_x, f_z, r


@settings(max_examples=400, deadline=None)
@given(_bound_case())
def test_early_reject_bound_dominates_the_computed_ratio(case):
    P, x, z, metric, f_x, f_z, r = case
    Mx = evaluate_metric(P, x, metric)
    s_z = P.A @ z - P.b
    L = log_accept_ratio(x, z, f_x, f_z, Mx, evaluate_metric(P, z, metric, s_z), r)
    assert L <= log_accept_bound(x, z, f_x, f_z, Mx, s_z, P, metric, r)


def test_early_reject_bound_holds_far_from_the_origin():
    # at |x| ~ 1e12 every slack is off by ~1e-4 whatever its size, so near a
    # facet the slack differences that the bound reads stray far from A d
    rng = np.random.default_rng(3)
    metric = SoftThreshold(lam=1e4)
    checked = 0
    for _ in range(300):
        P0, _ = random_polytope_with_interior(3, 8, rng)
        centre = rng.standard_normal(3)
        centre *= 1e12 / np.linalg.norm(centre)
        P = Polytope(A=P0.A, b=P0.b + P0.A @ centre)
        u = rng.standard_normal(3)
        reach = chord(P0, np.zeros(3), u).t_plus
        x = centre + (1.0 - 10.0 ** -rng.uniform(1, 8)) * reach * u
        if not (math.isfinite(reach) and contains(P, x)):
            continue
        st = _state(P, x, metric, seed=int(rng.integers(2**32)))
        r = 10.0 ** rng.uniform(-3, 0)
        z = propose(st, WalkConfig(metric=metric, r=r))
        s_z = P.A @ z - P.b
        if not (s_z > 0).all():
            continue
        Mz = evaluate_metric(P, z, metric, s_z)
        L = log_accept_ratio(x, z, 0.0, 0.0, st.metric_cache, Mz, r)
        assert L <= log_accept_bound(x, z, 0.0, 0.0, st.metric_cache, s_z, P, metric, r)
        checked += 1
    assert checked > 100


def _run_counting_evaluations(monkeypatch, P, target, cfg, x0):
    """The run's digest (so that a failure does not diff two long CSV texts)
    and its number of metric evaluations."""
    calls = []
    evaluate = walk.evaluate_metric

    def counting(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(walk, "evaluate_metric", counting)
    batch = run(x0, target, P, cfg)
    monkeypatch.setattr(walk, "evaluate_metric", evaluate)
    digest = hashlib.sha256(format_csv(batch).encode() + batch.samples.tobytes())
    return digest.hexdigest(), len(calls)


@pytest.mark.parametrize(
    "n, m, rule",
    [(100, 1000, None), (10, 40, True)],
    ids=["shape-rule", "forced-on"],
)
@pytest.mark.parametrize("regularizer", ["scalar", "precision"])
def test_early_reject_keeps_the_chain_byte_identical(monkeypatch, n, m, rule, regularizer):
    # bytes with the bound against bytes with the shape rule patched off;
    # at (10, 40) the rule is patched on, where it would not run by itself.
    # At sigma = 0.07 the bound catches most MH rejections, and log det G
    # moves enough that a bound without its T / 2 term rejects proposals the
    # chain accepts (at 0.05 it does not at (100, 1000); at 0.2 the bound
    # catches nothing there)
    P, x0 = random_polytope_with_interior(n, m, np.random.default_rng(0))
    gauss = GaussianTarget(mu=np.zeros(n), Sigma=0.07**2 * np.eye(n))
    lam = gauss.precision if regularizer == "precision" else 1.0 / 0.07**2
    steps = 300 if n == 100 else 3000
    cfg = WalkConfig(
        metric=SoftThreshold(lam=lam), r=0.5, steps=steps, burn_in=100,
        adapt=True, seed=1,
    )
    target = quadratic_target(gauss)
    if rule is not None:
        monkeypatch.setattr(walk, "_bound_pays", lambda m, n: rule)
    assert walk._bound_pays(m, n)
    on, evals_on = _run_counting_evaluations(monkeypatch, P, target, cfg, x0)
    monkeypatch.setattr(walk, "_bound_pays", lambda m, n: False)
    off, evals_off = _run_counting_evaluations(monkeypatch, P, target, cfg, x0)
    assert on == off
    # the bound rejected some proposals without evaluating G(z)
    assert evals_on < evals_off
