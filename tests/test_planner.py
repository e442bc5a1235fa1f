import dataclasses
import itertools
import math

import numpy as np
import pytest

from dikinwalk import planner
from dikinwalk.diagnostics import random_polytope_with_interior
from dikinwalk.planner import (
    MixingBudgetQuery,
    PlannerError,
    beyond_worst_case_budget,
    mixing_budget,
    radius_hat,
    sample_warm_start,
    solve_modes,
    violated_constraint_count,
    warm_start_ball,
    warm_start_center,
    warmness_bound,
)
from dikinwalk.polytope import Polytope, contains, make_box, make_orthant
from dikinwalk.target import GaussianTarget, quadratic_target


def _std_normal(n, mu=None):
    mu = np.zeros(n) if mu is None else np.asarray(mu, dtype=float)
    return GaussianTarget(mu=mu, Sigma=np.eye(n))


def _std_normal_target(n, mu=None):
    return quadratic_target(_std_normal(n, mu))


def test_modes_interior_minimum():
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    modes = solve_modes(_std_normal(2), P)
    np.testing.assert_allclose(modes.x_star, np.zeros(2), atol=1e-7)
    np.testing.assert_allclose(modes.x_dag, np.zeros(2), atol=1e-7)
    np.testing.assert_array_equal(modes.x_star, _std_normal(2).mu)


def test_modes_clipped_coordinate():
    # mean (2, 0) outside the box clips to (1, 0); cross-checked below by a
    # dense grid search over the box
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    target = _std_normal_target(2, mu=[2.0, 0.0])
    modes = solve_modes(_std_normal(2, mu=[2.0, 0.0]), P)
    np.testing.assert_allclose(modes.x_dag, [1.0, 0.0], atol=1e-6)

    grid = np.linspace(-1.0, 1.0, 201)
    best = min(
        ((target.f(np.array([u, v])), (u, v)) for u in grid for v in grid),
        key=lambda t: t[0],
    )
    np.testing.assert_allclose(modes.x_dag, best[1], atol=1e-2)
    assert target.f(modes.x_dag) <= best[0] + 1e-9


def test_modes_random_instances_beat_grid():
    rng = np.random.default_rng(31)
    for _ in range(10):
        P, _ = random_polytope_with_interior(2, 6, rng)
        mu = rng.standard_normal(2) * 2.0
        target = _std_normal_target(2, mu=mu)
        modes = solve_modes(_std_normal(2, mu=mu), P)
        # constrained mode must be feasible (closure) and no random feasible
        # point may do better
        assert np.all(P.A @ modes.x_dag - P.b >= -1e-7)
        for _ in range(200):
            y = rng.uniform(-1.5, 1.5, 2)
            if contains(P, y):
                assert target.f(modes.x_dag) <= target.f(y) + 1e-6


def _least_distance_reference(gauss, P):
    """The point of the closure of P nearest to mu in the Sigma^{-1} norm, by
    enumerating active sets: the first KKT point found is the optimum."""
    mu, Sigma = gauss.mu, gauss.Sigma
    scale = np.abs(P.A) @ np.abs(mu) + np.abs(P.b)
    for k in range(1, P.n + 1):
        for S in itertools.combinations(range(P.m), k):
            A_S = P.A[list(S)]
            M = A_S @ Sigma @ A_S.T
            if np.linalg.matrix_rank(M) < k:
                continue
            lam = np.linalg.solve(M, P.b[list(S)] - A_S @ mu)
            x = mu + Sigma @ A_S.T @ lam
            if np.all(lam >= 0.0) and np.all(P.A @ x - P.b >= -1e-9 * scale):
                return x
    raise AssertionError("no KKT point found")


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_modes_match_active_set_enumeration(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 40)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n + 1, 12))
        P, x_int = random_polytope_with_interior(n, m, rng)
        B = rng.standard_normal((n, n))
        Sigma = scale * (B @ B.T + 0.5 * np.eye(n))
        gauss = GaussianTarget(mu=x_int + 3.0 * rng.standard_normal(n), Sigma=Sigma)
        if np.all(P.A @ gauss.mu - P.b >= 0.0):
            continue  # mu inside K: nothing to solve
        done += 1
        modes = solve_modes(gauss, P)
        ref = _least_distance_reference(gauss, P)
        np.testing.assert_array_equal(modes.x_star, gauss.mu)
        err = np.linalg.norm(modes.x_dag - ref) / np.linalg.norm(ref)
        assert err <= 1e-9, (n, m, err)


def test_modes_of_an_empty_polytope_raise():
    P = Polytope(A=np.array([[1.0], [-1.0]]), b=np.array([1.0, 0.0]))  # x > 1, x < 0
    with pytest.raises(PlannerError, match="empty"):
        solve_modes(_std_normal(1), P)


def test_least_distance_failure_is_a_planner_error(monkeypatch):
    import scipy.optimize

    def fail(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(scipy.optimize, "nnls", fail)
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(PlannerError, match="least-distance"):
        solve_modes(_std_normal(2, mu=[2.0, 0.0]), P)


def test_warm_ball_centered_box():
    # beta = 1, modes at 0, x1 = 0, r_tilde = 1 in the box [-1,1]^n:
    # r1 = 1, x0 = 0, r0 = 1 (capped at the box margin, also 1)
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    target = _std_normal_target(2)
    modes = solve_modes(_std_normal(2), P)
    n, R = 2, math.sqrt(2.0)
    ball = warm_start_ball(target, P, np.zeros(2), 1.0, modes)
    assert ball.r1 == pytest.approx(1.0)
    assert ball.r0 == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(ball.x0, np.zeros(2), atol=1e-7)
    # log M = 1 + n log(3 R / r_tilde) + n log(sqrt(beta) R)
    logM = warmness_bound(target, P, np.zeros(2), 1.0, modes, outer_radius=R)
    assert logM == pytest.approx(1.0 + n * math.log(3.0 * R) + n * math.log(R))
    # without R, the axis-chord reach from 0, which is 1
    est = warmness_bound(target, P, np.zeros(2), 1.0, modes)
    assert est == pytest.approx(1.0 + n * math.log(3.0))


def test_warm_ball_r1_when_modes_coincide():
    P = make_box([-2.0, -2.0], [2.0, 2.0])
    gauss = GaussianTarget(mu=np.zeros(2), Sigma=0.25 * np.eye(2))
    target = quadratic_target(gauss)
    modes = solve_modes(gauss, P)  # beta = 4, modes coincide
    ball = warm_start_ball(target, P, np.zeros(2), 0.5, modes)
    assert ball.r1 == pytest.approx(0.5)  # 1/sqrt(beta), second branch inactive


def test_warm_ball_rejects_bad_x1():
    P = make_orthant(2)
    target = _std_normal_target(2)
    modes = solve_modes(_std_normal(2), P)
    with pytest.raises(PlannerError):
        warm_start_ball(target, P, np.array([0.05, 1.0]), 0.5, modes)


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
def test_warm_ball_rejects_bad_outer_radius(R):
    # log(3 R / r_tilde) used to fail with a math domain error for R <= 0
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    target = _std_normal_target(2)
    modes = solve_modes(_std_normal(2), P)
    with pytest.raises(PlannerError, match="outer_radius"):
        warmness_bound(target, P, np.zeros(2), 0.5, modes, outer_radius=R)


def test_warm_start_rejects_non_finite_inputs(monkeypatch):
    # a NaN margin compares false either way
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    target = _std_normal_target(2)
    modes = solve_modes(_std_normal(2), P)
    with pytest.raises(PlannerError, match="not contained"):
        warm_start_ball(target, P, np.array([math.nan, 0.0]), 0.5, modes)
    for r_tilde in (math.inf, math.nan):
        with pytest.raises(PlannerError, match="r_tilde"):
            warm_start_ball(target, P, np.zeros(2), r_tilde, modes)
        with pytest.raises(PlannerError, match="r_tilde"):
            warm_start_center(P, np.array([1.0, 0.0]), r_tilde)
    # R^2 overflows, or beta R^2 underflows to 0
    for outer_radius in (1e200, 1e-200):
        with pytest.raises(PlannerError, match="logM is out of range"):
            warmness_bound(target, P, np.zeros(2), 0.5, modes, outer_radius)
    # 3 R / r_tilde overflows to inf, and log(inf) does not raise
    with pytest.raises(PlannerError, match="logM is out of range"):
        warmness_bound(target, P, np.zeros(2), 1e-320, modes, 10.0)
    # at x1 = x_dag, x0 = x_dag + (r1 / r_tilde) * 0 is NaN, and NaN margins
    # pass the containment checks; the ball is refused before it is built
    monkeypatch.setattr(planner, "WarmStartBall", None)
    with pytest.raises(PlannerError, match="not finite"):
        warm_start_ball(target, P, np.zeros(2), 1e-320, modes)


def test_warmness_bound_mode_gap_term():
    # mu = (3, 0) outside the box [-1, 1]^2 with beta = 2: x_dag = (1, 0) and
    # g = 2, so log(2 beta R g) = log(8 R) exceeds log(sqrt(beta) R)
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    gauss = GaussianTarget(mu=np.array([3.0, 0.0]), Sigma=0.5 * np.eye(2))
    target = quadratic_target(gauss)
    modes = solve_modes(gauss, P)
    np.testing.assert_allclose(modes.x_dag, [1.0, 0.0], atol=1e-7)
    n, R, r_tilde = 2, math.sqrt(2.0), 0.5
    logM = warmness_bound(target, P, np.zeros(2), r_tilde, modes, outer_radius=R)
    expected = 1.0 + n * math.log(3.0 * R / r_tilde) + n * math.log(8.0 * R)
    assert logM == pytest.approx(expected, abs=1e-6)


def test_warmness_bound_estimates_only_along_bounded_axes():
    # the ball needs no outer radius on the orthant; the estimate of one does
    P = make_orthant(2)
    target = _std_normal_target(2, mu=[1.0, 1.0])
    modes = solve_modes(_std_normal(2, mu=[1.0, 1.0]), P)
    x1 = np.array([1.0, 1.0])
    ball = warm_start_ball(target, P, x1, 0.5, modes)
    assert ball.r0 == ball.r1 == 1.0
    with pytest.raises(PlannerError, match="unbounded along an axis"):
        warmness_bound(target, P, x1, 0.5, modes)
    logM = warmness_bound(target, P, x1, 0.5, modes, outer_radius=10.0)
    assert logM == pytest.approx(1.0 + 2 * math.log(60.0) + 2 * math.log(10.0))


def test_warm_ball_random_instances():
    rng = np.random.default_rng(77)
    count = 0
    attempts = 0
    while count < 100:
        attempts += 1
        assert attempts < 1000, "too many degenerate instances"
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, 10))
        P, x_int = random_polytope_with_interior(n, m, rng)
        margins = (P.A @ x_int - P.b) / np.linalg.norm(P.A, axis=1)
        r_tilde = 0.5 * float(np.min(margins))
        B = rng.standard_normal((n, n))
        Sigma = B @ B.T + 0.5 * np.eye(n)
        gauss = GaussianTarget(mu=rng.standard_normal(n), Sigma=Sigma)
        target = quadratic_target(gauss)
        modes = solve_modes(gauss, P)
        try:
            ball = warm_start_ball(target, P, x_int, r_tilde, modes)
        except PlannerError:
            continue  # degenerate geometry; construction declined, not wrong
        count += 1
        # ball inside K and inside B(x_dag, r1)
        assert np.min((P.A @ ball.x0 - P.b) / np.linalg.norm(P.A, axis=1)) >= ball.r0 - 1e-9
        assert np.linalg.norm(ball.x0 - modes.x_dag) + ball.r0 <= ball.r1 + 1e-9
        # f increases by at most 1 over the ball
        for _ in range(10):
            y = sample_warm_start(ball, rng)
            assert target.f(y) - target.f(modes.x_dag) <= 1.0 + 1e-6


def test_warm_ball_degenerate_x1_at_mode():
    P = make_box([0.0, 0.0], [1.0, 1.0])
    target = _std_normal_target(2, mu=[0.5, 0.5])
    modes = solve_modes(_std_normal(2, mu=[0.5, 0.5]), P)
    ball = warm_start_ball(target, P, modes.x_dag, 0.25, modes)
    np.testing.assert_allclose(ball.x0, modes.x_dag, atol=1e-7)
    assert ball.r0 <= 0.5 + 1e-9  # capped by the box margin at the center


def test_warm_start_center_moves_a_boundary_mode_inside():
    # the standard normal's mode on the orthant is the corner at 0
    P = make_orthant(2)
    target = _std_normal_target(2)
    modes = solve_modes(_std_normal(2), P)
    x1 = warm_start_center(P, modes.x_dag, 0.1)
    np.testing.assert_allclose(x1, [0.1, 0.1], atol=1e-9)
    ball = warm_start_ball(target, P, x1, 0.1, modes)
    assert np.min(ball.x0) >= ball.r0 - 1e-9 and ball.r0 > 0
    # a mode with room around it is returned as it is
    box = make_box([-1.0, -1.0], [1.0, 1.0])
    x_dag = solve_modes(_std_normal(2), box).x_dag
    assert warm_start_center(box, x_dag, 0.1) is x_dag
    # no point of [0, 0.1]^2 is 0.1 away from every side
    with pytest.raises(PlannerError, match="r_tilde"):
        warm_start_center(make_box([0.0, 0.0], [0.1, 0.1]), modes.x_dag, 0.1)


def test_warm_start_center_on_a_non_finite_system_raises_planner_error():
    # (-1, 1)^2 with rows +-1e20 e_i: b + r_tilde |a_i| overflows to inf,
    # which nnls would reject with a bare ValueError
    A = 1e20 * np.vstack([np.eye(2), -np.eye(2)])
    P = Polytope(A=A, b=np.full(4, -1e20))
    with pytest.raises(PlannerError, match="r_tilde"):
        warm_start_center(P, np.zeros(2), 1e300)


def test_modes_on_a_non_finite_system_raise_planner_error():
    # x[0] > 1 written as 1e300 x[0] > 1e300: A mu overflows for a far mu
    P = Polytope(A=np.array([[1e300, 0.0]]), b=np.array([1e300]))
    with pytest.raises(PlannerError, match="not finite"):
        solve_modes(_std_normal(2, mu=[-1e10, 0.0]), P)


def test_sample_warm_start_zero_radius_limit():
    from dikinwalk.planner import WarmStartBall

    ball = WarmStartBall(x0=np.array([0.3, 0.7]), r0=1e-300, r1=1.0)
    rng = np.random.default_rng(0)
    np.testing.assert_allclose(sample_warm_start(ball, rng), [0.3, 0.7], atol=1e-12)


def test_sample_warm_start_in_ball_and_symmetric():
    from dikinwalk.planner import WarmStartBall

    ball = WarmStartBall(x0=np.zeros(1), r0=1.0, r1=2.0)
    rng = np.random.default_rng(6)
    xs = np.array([sample_warm_start(ball, rng)[0] for _ in range(10000)])
    assert np.all(np.abs(xs) <= 1.0)
    assert abs(xs.mean()) < 0.02


def test_mixing_budget_worked_example():
    qry = MixingBudgetQuery(
        regime="strong", m=4, n=2, metric="soft",
        M=math.e**2, eps=0.1, C=1.0, kappa=1.0,
    )
    assert mixing_budget(qry) == 34


def test_mixing_budget_zero_log_term():
    # eps = sqrt(M) would zero the log factor, but eps must stay below 1
    with pytest.raises(PlannerError):
        MixingBudgetQuery(
            regime="strong", m=4, n=2, metric="soft",
            M=4.0, eps=2.0 - 1e-12, C=1.0, kappa=1.0,
        )
    qry = MixingBudgetQuery(
        regime="strong", m=4, n=2, metric="soft",
        M=1.0 + 1e-15, eps=0.999999999, C=1.0, kappa=1.0,
    )
    assert mixing_budget(qry) <= 1


def test_mixing_budget_linear_in_C():
    base = dict(
        regime="strong", m=7, n=3, metric="soft",
        M=10.0, eps=0.05, kappa=2.0,
    )
    t1 = mixing_budget(MixingBudgetQuery(C=1.0, **base))
    t2 = mixing_budget(MixingBudgetQuery(C=2.0, **base))
    assert t1 * 2 - 1 <= t2 <= t1 * 2  # ceiling slack only


def test_mixing_budget_monotone():
    def T(**kw):
        base = dict(
            regime="strong", m=8, n=3, metric="soft",
            M=20.0, eps=0.05, C=1.0, kappa=2.0,
        )
        base.update(kw)
        return mixing_budget(MixingBudgetQuery(**base))

    t0 = T()
    assert T(m=16) >= t0
    assert T(kappa=5.0) >= t0
    assert T(n=5) >= t0
    assert T(M=80.0) >= t0
    assert T(eps=0.01) >= t0


def test_mixing_budget_all_regimes():
    n, m = 4, 20
    log_term = math.log(math.sqrt(9.0) / 0.1)
    assert mixing_budget(
        MixingBudgetQuery(regime="strong", m=m, n=n, metric="lewis", c2=1.0, M=9.0,
                          eps=0.1, C=1.0, kappa=3.0)
    ) == math.ceil((n**1.5 + 3.0) * math.log(m) * n * log_term)
    psi = max(1.0, math.log(n))
    assert mixing_budget(
        MixingBudgetQuery(regime="weak", m=m, n=n, metric="soft", M=9.0,
                          eps=0.1, C=1.0, beta_eta=2.0)
    ) == math.ceil(psi * (m + 2.0) * n * log_term)
    assert mixing_budget(
        MixingBudgetQuery(regime="weak", m=m, n=n, metric="lewis", c2=1.0, M=9.0,
                          eps=0.1, C=1.0, beta_eta=2.0)
    ) == math.ceil(psi * (n**1.5 + 2.0) * math.log(m) * n * log_term)


def test_budget_query_validation():
    with pytest.raises(PlannerError):
        MixingBudgetQuery(regime="strong", m=4, n=2, metric="soft", M=2.0,
                          eps=0.1, C=1.0)  # missing kappa
    with pytest.raises(PlannerError):
        MixingBudgetQuery(regime="weak", m=4, n=2, metric="soft", M=2.0,
                          eps=0.1, C=1.0)  # missing beta_eta
    with pytest.raises(PlannerError):
        MixingBudgetQuery(regime="medium", m=4, n=2, metric="soft", M=2.0,
                          eps=0.1, C=1.0, kappa=1.0)
    with pytest.raises(PlannerError):
        MixingBudgetQuery(regime="strong", m=4, n=2, metric="soft", M=0.5,
                          eps=0.1, C=1.0, kappa=1.0)
    # non-finite values used to reach math.ceil and fail there
    good = dict(regime="weak", m=4, n=2, metric="soft", M=2.0, eps=0.1, C=1.0,
                kappa=1.0, beta_eta=1.0, psi_n_sq=1.0)
    for field in ("M", "C", "kappa", "beta_eta", "psi_n_sq"):
        for bad in (math.nan, math.inf):
            with pytest.raises(PlannerError, match="finite"):
                MixingBudgetQuery(**{**good, field: bad})
    # kappa = beta / alpha >= 1; a negative budget used to come out
    for field, bad in (("kappa", 0.5), ("kappa", -100.0), ("beta_eta", 0.0),
                       ("beta_eta", -50.0), ("psi_n_sq", -3.0)):
        with pytest.raises(PlannerError):
            MixingBudgetQuery(**{**good, field: bad})


def test_budgets_that_overflow_raise():
    qry = MixingBudgetQuery(regime="strong", m=4, n=2, metric="soft",
                            M=7.0, eps=0.1, C=1e308, kappa=1.0)
    with pytest.raises(PlannerError, match="not finite"):
        mixing_budget(qry)
    with pytest.raises(PlannerError, match="not finite"):  # (log m)^c2 overflows
        mixing_budget(dataclasses.replace(qry, metric="lewis", c2=1e308, C=1.0))
    P = make_box([-1.0, -1.0], [1.0, 1.0])
    modes = solve_modes(_std_normal(2), P)
    with pytest.raises(PlannerError, match="not finite"):
        beyond_worst_case_budget(dataclasses.replace(qry, M=10.0), P,
                                 _std_normal_target(2), modes)


def test_radius_hat_values():
    assert radius_hat(1.0 / math.e, 1) == pytest.approx(4.0)
    assert radius_hat(1.0 - 1e-12, 5) == pytest.approx(2.0, abs=1e-2)
    assert radius_hat(0.01, 10**9) == pytest.approx(2.0, abs=1e-1)
    with pytest.raises(PlannerError):
        radius_hat(0.0, 3)
    with pytest.raises(PlannerError):
        radius_hat(1.0, 3)


def test_violated_constraint_count():
    P = make_orthant(2)
    c = np.array([1.0, 1.0])
    assert violated_constraint_count(P, c, 0.5) == 0
    assert violated_constraint_count(P, c, 1.5) == 2
    assert violated_constraint_count(P, c, 0.0) == 0
    free = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
    assert violated_constraint_count(free, c, 1e9) == 0


def test_violated_constraint_count_monotone_in_rho():
    rng = np.random.default_rng(13)
    P, c = random_polytope_with_interior(3, 8, rng)
    prev = -1
    for rho in np.linspace(0.0, 5.0, 40):
        cur = violated_constraint_count(P, c, float(rho))
        assert cur >= prev
        prev = cur
    assert prev == P.m  # large enough balls hit everything


def _soft_query(P, kappa=1.0, M=10.0):
    """The strong-regime soft-metric query for P at eps = 0.1 and C = 1."""
    return MixingBudgetQuery(regime="strong", m=P.m, n=P.n, metric="soft", M=M,
                             eps=0.1, C=1.0, kappa=kappa)


def test_beyond_worst_case_sentinel_and_bound(monkeypatch):
    rng = np.random.default_rng(19)
    for _ in range(10):
        P, _ = random_polytope_with_interior(3, 7, rng)
        target = _std_normal_target(3)
        modes = solve_modes(_std_normal(3), P)
        res = beyond_worst_case_budget(_soft_query(P), P, target, modes)
        assert res.T <= res.plain_T
        # empty grid leaves only the delta -> infinity sentinel
        with monkeypatch.context() as patch:
            patch.setattr(planner, "DELTA_GRID", [])
            sent = beyond_worst_case_budget(_soft_query(P), P, target, modes)
        assert sent.T == sent.plain_T
        assert math.isinf(sent.best_delta)
        assert sent.violated_count == P.m


def test_beyond_worst_case_deep_center():
    # margins far exceed the ball radius: zero violated constraints, budget
    # dominated by kappa n + m / delta^2 at the largest grid delta
    side = 10000.0
    P = make_box([-side] * 2, [side] * 2)
    target = _std_normal_target(2)
    modes = solve_modes(_std_normal(2), P)
    res = beyond_worst_case_budget(_soft_query(P), P, target, modes)
    assert res.violated_count == 0
    assert res.best_delta == pytest.approx(1000.0)
    n, m, kappa = 2, 4, 1.0
    expected = math.ceil(
        (kappa * n + m / 1000.0**2) * math.log(2.0 * 10.0 / 0.1)
    )
    assert res.T == expected
    assert res.T < res.plain_T


def test_beyond_worst_case_takes_kappa_from_the_query():
    # under sample's default Sigma^-1 regularizer kappa is 1 whatever Sigma's
    # condition number (here 100): the budget used to read beta / alpha off
    # the target and print T_plain = 1572
    P = make_box([-1.0] * 3, [1.0] * 3)
    gauss = GaussianTarget(mu=np.zeros(3), Sigma=np.diag([1.0, 100.0, 1.0]))
    res = beyond_worst_case_budget(
        _soft_query(P, M=7.0), P, quadratic_target(gauss), solve_modes(gauss, P)
    )
    m, n = 6, 3
    assert res.plain_T == math.ceil((m + 1) * n * math.log(2 * 7.0 / 0.1)) == 104
    assert res.T == 104


@pytest.mark.parametrize(
    "change",
    [dict(metric="lewis"), dict(regime="weak", beta_eta=1.0), dict(m=100), dict(n=7)],
    ids=["lewis", "weak", "m", "n"],
)
def test_beyond_worst_case_needs_a_strong_soft_query_of_the_polytope(change):
    P = make_box([-1.0] * 3, [1.0] * 3)
    qry = dataclasses.replace(_soft_query(P), **change)
    modes = solve_modes(_std_normal(3), P)
    with pytest.raises(PlannerError):
        beyond_worst_case_budget(qry, P, _std_normal_target(3), modes)


def test_budget_query_metric_and_c2():
    base = dict(regime="strong", m=4, n=2, M=2.0, eps=0.1, C=1.0, kappa=1.0)
    with pytest.raises(PlannerError, match="unknown metric"):
        MixingBudgetQuery(metric="barrier", **base)
    # c2 is the Lewis metric's exponent of log m; the soft metric has none
    for c2 in (0.0, 1.5):
        with pytest.raises(PlannerError, match="Lewis metric only"):
            MixingBudgetQuery(metric="soft", c2=c2, **base)
    for c2 in (-1.0, math.nan, math.inf):
        with pytest.raises(PlannerError):
            MixingBudgetQuery(metric="lewis", c2=c2, **base)
    lewis = MixingBudgetQuery(metric="lewis", **base)
    assert mixing_budget(lewis) == mixing_budget(dataclasses.replace(lewis, c2=0.0))
