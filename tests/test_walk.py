import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dikinwalk.metrics import SoftThreshold, evaluate_metric
from dikinwalk.polytope import Polytope, contains, make_box, make_orthant
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
