import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from dikinwalk import metrics
from dikinwalk.diagnostics import (
    diagnose_corpus,
    lewis_fixed_point_residual,
    random_polytope_with_interior,
)
from dikinwalk.metrics import (
    MetricError,
    RegularizedLewis,
    SoftThreshold,
    default_lewis_q,
    evaluate_metric,
    lewis_weights,
)
from dikinwalk.polytope import Polytope, make_orthant


def test_soft_half_line():
    # K = (0, inf), lambda 1, x = 0.5: G = 1/0.25 + 1 = 5
    P = Polytope(A=np.array([[1.0]]), b=np.array([0.0]))
    M = evaluate_metric(P, np.array([0.5]), SoftThreshold(lam=1.0))
    np.testing.assert_allclose(M.G, [[5.0]])
    assert M.logdet == pytest.approx(math.log(5.0))


def test_soft_unconstrained():
    P = Polytope(A=np.zeros((0, 3)), b=np.zeros(0))
    M = evaluate_metric(P, np.zeros(3), SoftThreshold(lam=2.0))
    np.testing.assert_allclose(M.G, 2.0 * np.eye(3))
    assert M.logdet == pytest.approx(3.0 * math.log(2.0))


def test_soft_orthant_diag():
    P = make_orthant(2)
    M = evaluate_metric(P, np.array([1.0, 1.0]), SoftThreshold(lam=1.0))
    np.testing.assert_allclose(M.G, np.diag([2.0, 2.0]))


def test_soft_cholesky_convention():
    rng = np.random.default_rng(0)
    P = Polytope(A=rng.standard_normal((5, 3)), b=-rng.uniform(0.5, 1.0, 5))
    M = evaluate_metric(P, np.zeros(3), SoftThreshold(lam=0.7))
    assert np.allclose(np.tril(M.Q, -1), 0.0)  # upper triangular
    np.testing.assert_allclose(M.Q.T @ M.Q, M.G, atol=1e-12)
    sign, logdet = np.linalg.slogdet(M.G)
    assert sign > 0 and M.logdet == pytest.approx(logdet)


def test_soft_rejects_boundary():
    P = make_orthant(2)
    with pytest.raises(MetricError):
        evaluate_metric(P, np.array([0.0, 1.0]), SoftThreshold(lam=1.0))
    with pytest.raises(MetricError):
        SoftThreshold(lam=0.0)


def test_default_lewis_q():
    assert default_lewis_q(1) == 4
    assert default_lewis_q(4) == 4
    assert default_lewis_q(16) == 8
    assert default_lewis_q(17) == 10
    q = default_lewis_q(1000)
    assert q >= 4 and q % 2 == 0


def test_lewis_identity():
    lw = lewis_weights(np.eye(4), q=4)
    np.testing.assert_allclose(lw.w, np.ones(4), atol=1e-10)


def test_lewis_stacked_identity():
    lw = lewis_weights(np.vstack([np.eye(3), np.eye(3)]), q=4)
    np.testing.assert_allclose(lw.w, np.full(6, 0.5), atol=1e-10)


def test_lewis_random_instances():
    # stationarity residual via an independent solve, plus the trace identity
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n, 65))
        Ax = rng.standard_normal((m, n))
        q = int(2 * rng.integers(2, 6))
        lw = lewis_weights(Ax, q=q)
        assert lw.residual <= 1e-8
        assert lewis_fixed_point_residual(Ax, lw.w, q) <= 1e-7
        assert abs(lw.w.sum() - n) <= 1e-6
        assert np.all(lw.w > 0)


def _lewis_weights_cho(Ax, q, tol=1e-8, max_iter=1000):
    """The damped fixed point w <- sqrt(w * tau) on scipy's cho_factor /
    cho_solve wrappers, as a reference; None where it does not converge."""
    m, n = Ax.shape
    cq = 1.0 - 2.0 / q
    w = np.full(m, n / m)
    for it in range(1, max_iter + 1):
        Mw = Ax.T @ (w[:, None] ** cq * Ax)
        cho = scipy.linalg.cho_factor(Mw, lower=True)
        B = scipy.linalg.cho_solve(cho, Ax.T)
        quad = np.einsum("ij,ji->i", Ax, B)
        tau = w**cq * quad
        residual = float(np.max(np.abs(w - tau) / w))
        if residual <= tol:
            return w, residual, it
        w = np.sqrt(w * tau)
    return None


def test_lewis_weights_agree_with_damped_reference():
    # the Chebyshev iteration reaches the reference's weights, not its bits,
    # in at most a fifth of its iterations
    rng = np.random.default_rng(2024)
    iterations = ref_iterations = 0
    for k in range(200):
        n = int(rng.integers(1, 9))
        m = n if k % 4 == 0 else int(rng.integers(n, 41))
        q = int(rng.choice([4, 6, 8, 12]))
        Ax = rng.standard_normal((m, n)) / rng.uniform(0.05, 2.0, size=m)[:, None]
        ref = _lewis_weights_cho(Ax, q)
        if ref is None:
            with pytest.raises(MetricError, match="did not converge"):
                lewis_weights(Ax, q)
            continue
        lw = lewis_weights(Ax, q)
        assert np.max(np.abs(lw.w - ref[0]) / ref[0]) <= 1e-6
        assert lw.residual <= 1e-8
        assert lewis_fixed_point_residual(Ax, lw.w, q) <= 1e-7
        iterations += lw.iterations
        ref_iterations += ref[2]
    assert 5 * iterations <= ref_iterations


def test_lewis_weights_solve_what_the_reference_solves_on_scaled_rows():
    # row norms spread over three decades, as near a facet of a polytope
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n, 61))
        q = int(rng.choice([4, 6, 8, 12, 20]))
        Ax = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 0, size=m)[:, None]
        if _lewis_weights_cho(Ax, q) is not None:
            assert lewis_weights(Ax, q).residual <= 1e-8


@pytest.mark.parametrize(
    "n, m, newton",
    [(1, 1, True), (3, 8, True), (10, 40, True), (2, 96, True), (2, 97, False),
     (40, 120, True), (40, 121, False), (5, 200, False), (50, 200, False)],
)
def test_lewis_weights_on_both_sides_of_the_update_rule(n, m, newton):
    # Newton steps at small m, Chebyshev at large m: both reach the damped
    # reference's weights, solve the fixed point and repeat their bytes
    assert metrics._newton_side(m, n) == newton
    P, _ = random_polytope_with_interior(n, m, np.random.default_rng(n * 1000 + m))
    Ax = P.A / -P.b[:, None]
    q = default_lewis_q(m)
    lw = lewis_weights(Ax, q)
    ref = _lewis_weights_cho(Ax, q)
    assert np.max(np.abs(lw.w - ref[0]) / ref[0]) <= 1e-6
    assert lewis_fixed_point_residual(Ax, lw.w, q) <= 1e-7
    again = lewis_weights(Ax, q)
    assert again.w.tobytes() == lw.w.tobytes()
    assert (again.residual, again.iterations) == (lw.residual, lw.iterations)


def test_certification_corpus_takes_few_lewis_iterations(monkeypatch):
    # every shape of the corpus (n <= 5, m <= 10) takes Newton steps: ~4 per
    # evaluation, where the Chebyshev semi-iteration took ~15
    iterations = []

    def recording(*args, **kwargs):
        lw = lewis_weights(*args, **kwargs)
        iterations.append(lw.iterations)
        return lw

    monkeypatch.setattr(metrics, "lewis_weights", recording)
    diagnose_corpus(0, 40)
    assert len(iterations) >= 100
    assert np.mean(iterations) <= 6


def test_lewis_stalled_solve_raises_early():
    # with two columns collinear to 1e-6 the residual stops near 1e-4, far
    # above tol, within ~10 iterations, and MAX_ITERATIONS is 1000
    rng = np.random.default_rng(0)
    for _ in range(200):
        Ax = rng.standard_normal((30, 4))
        Ax[:, 3] = Ax[:, 2] + 1e-6 * rng.standard_normal(30)
        with pytest.raises(MetricError, match="did not converge") as exc:
            lewis_weights(Ax, q=10)
        found = re.fullmatch(
            r"Lewis weights did not converge: residual (\S+) after (\d+) iterations",
            str(exc.value),
        )
        assert int(found[2]) < 100
        assert float(found[1]) > 1e-8


def test_lewis_rank_deficient_raises():
    with pytest.raises(MetricError, match="rank-deficient"):
        lewis_weights(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), q=4)
    # a singular square Ax too, though a full-rank one returns w = 1 at once
    with pytest.raises(MetricError, match="rank-deficient"):
        lewis_weights(np.array([[1.0, 1.0], [2.0, 2.0]]), q=4)


def test_lewis_square_returns_the_exact_fixed_point():
    # every leverage score of a full-rank square matrix is 1, so w = 1 is the
    # fixed point; at cond = 3e5 roundoff in tau alone holds the residual
    # near 5e-6, above tol, however many steps are taken
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    Ax = U @ np.diag([3.0, 2.0, 1.0, 1e-5]) @ V.T
    lw = lewis_weights(Ax, q=4)
    assert lw.iterations == 1
    assert (lw.w == 1.0).all()


@pytest.mark.parametrize(
    "Ax",
    [
        [[np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]],  # overflows the Gram matrix
        [[1e150], [1e-150]],  # the second weight underflows to 0
    ],
)
def test_lewis_non_finite_raises_at_once(Ax):
    # each fails at once, not as "did not converge" after MAX_ITERATIONS, and
    # a library caller sees the MetricError with no numpy warning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MetricError, match="non-finite") as exc:
            lewis_weights(np.array(Ax), q=4)
    assert "did not converge" not in str(exc.value)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "kind",
    [
        # G = Ax^T Ax overflows in numpy's matmul, which warns; silencing it
        # would cost an errstate per step (~5% of a (10, 40) proposal), and
        # the CLI already runs under one
        pytest.param(
            SoftThreshold(lam=1.0),
            marks=pytest.mark.filterwarnings("ignore:overflow encountered in matmul"),
        ),
        RegularizedLewis(lam=1.0),
    ],
)
def test_metric_non_finite_near_boundary(kind):
    # at x = 1e-300 in (0, 1), A / s overflows once squared
    P = Polytope(A=np.array([[1.0], [-1.0]]), b=np.array([0.0, -1.0]))
    with pytest.raises(MetricError, match="non-finite"):
        evaluate_metric(P, np.array([1e-300]), kind)


def test_lewis_scale_overflow_raises():
    # (log 4)^1e308 overflows a float; RegularizedLewis only requires c2 >= 0
    P = Polytope(A=np.vstack([np.eye(2), -np.eye(2)]), b=-np.ones(4))
    with pytest.raises(MetricError, match="non-finite"):
        evaluate_metric(P, np.zeros(2), RegularizedLewis(lam=1.0, c2=1e308))


def test_lewis_needs_enough_rows():
    with pytest.raises(MetricError):
        lewis_weights(np.ones((1, 2)), q=4)
    with pytest.raises(MetricError):
        lewis_weights(np.eye(3), q=3)


def test_lewis_metric_duplicate_orthant():
    # two copies of each orthant constraint: weights 1/2, W-weighted Gram = I
    P = Polytope(A=np.vstack([np.eye(2), np.eye(2)]), b=np.zeros(4))
    x = np.array([1.0, 1.0])
    params = RegularizedLewis(lam=1.0, c1=1.0, c2=0.0)
    M = evaluate_metric(P, x, params)
    expected = (math.sqrt(2.0) + 1.0) * np.eye(2)
    np.testing.assert_allclose(M.G, expected, atol=1e-8)


def test_lewis_metric_linear_in_c1():
    P = Polytope(A=np.vstack([np.eye(2), np.eye(2)]), b=np.zeros(4))
    x = np.array([0.7, 1.3])
    lam = 1.0
    G1 = evaluate_metric(P, x, RegularizedLewis(lam=lam, c1=1.0)).G
    G2 = evaluate_metric(P, x, RegularizedLewis(lam=lam, c1=2.0)).G
    np.testing.assert_allclose(G2 - lam * np.eye(2), 2.0 * (G1 - lam * np.eye(2)),
                               atol=1e-8)


def test_lewis_metric_lambda_dominates():
    P = Polytope(A=np.vstack([np.eye(2), np.eye(2)]), b=np.zeros(4))
    x = np.array([1.0, 1.0])
    lam = 1e8
    M = evaluate_metric(P, x, RegularizedLewis(lam=lam))
    assert np.linalg.norm(M.G / lam - np.eye(2), 2) < 1e-6


def test_lewis_metric_rejects_wide():
    P = Polytope(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
    with pytest.raises(MetricError):
        evaluate_metric(P, np.array([1.0, 1.0]), RegularizedLewis(lam=1.0))


def test_evaluate_metric_dispatch():
    P = make_orthant(2)
    x = np.array([1.0, 2.0])
    Ms = evaluate_metric(P, x, SoftThreshold(lam=1.0))
    np.testing.assert_allclose(Ms.G, np.diag([2.0, 1.25]))
    Ml = evaluate_metric(P, x, RegularizedLewis(lam=1.0))
    assert Ml.G.shape == (2, 2)
    with pytest.raises(MetricError):
        evaluate_metric(P, x, "not a metric")


def test_soft_matches_quadratic_form_definition():
    # G h = sum_i (a_i^T h / s_i^2) a_i + lam h, spot-checked against the
    # assembled matrix on random instances
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        A = rng.standard_normal((m, n))
        A = A[np.linalg.norm(A, axis=1) > 1e-9]
        if A.shape[0] == 0:
            continue
        P = Polytope(A=A, b=-rng.uniform(0.3, 1.0, A.shape[0]))
        lam = float(rng.uniform(0.1, 5.0))
        M = evaluate_metric(P, np.zeros(n), SoftThreshold(lam=lam))
        h = rng.standard_normal(n)
        s = -P.b
        direct = sum(
            (P.A[i] @ h) / s[i] ** 2 * P.A[i] for i in range(P.m)
        ) + lam * h
        np.testing.assert_allclose(M.G @ h, direct, rtol=1e-10, atol=1e-10)


def test_jittered_factor_reproduces_reported_G():
    # one row in n = 2 leaves H rank one; lam = 1e-300 is lost in rounding,
    # so the first Cholesky fails and the jitter retry runs
    P = Polytope(A=np.array([[1.0, 1.0]]) / math.sqrt(2.0), b=np.array([0.0]))
    M = evaluate_metric(P, np.array([1.0, 1.0]), SoftThreshold(lam=1e-300))
    gap = np.abs(M.Q.T @ M.Q - M.G).max() / np.abs(M.G).max()
    assert gap <= 1e-14
    assert M.logdet == pytest.approx(np.linalg.slogdet(M.G)[1], rel=1e-12)


def test_given_slacks_match_computed_ones():
    rng = np.random.default_rng(3)
    P = Polytope(A=rng.standard_normal((12, 4)), b=-rng.uniform(0.5, 1.0, 12))
    x = 0.05 * rng.standard_normal(4)
    s = P.A @ x - P.b
    for kind in (SoftThreshold(lam=0.3), RegularizedLewis(lam=0.3)):
        a, b = evaluate_metric(P, x, kind), evaluate_metric(P, x, kind, s)
        np.testing.assert_array_equal(a.G, b.G)
        np.testing.assert_array_equal(a.Q, b.Q)
        assert a.logdet == b.logdet


@pytest.mark.parametrize("kind", [SoftThreshold, RegularizedLewis])
def test_matrix_regularizer_lam_times_identity_is_scalar_lam(kind):
    rng = np.random.default_rng(8)
    P = Polytope(A=rng.standard_normal((12, 4)), b=-rng.uniform(0.5, 1.0, 12))
    x = 0.05 * rng.standard_normal(4)
    a = evaluate_metric(P, x, kind(lam=0.3))
    b = evaluate_metric(P, x, kind(lam=0.3 * np.eye(4)))
    np.testing.assert_array_equal(a.G, b.G)
    assert a.logdet == b.logdet


def test_matrix_regularizer_is_added_whole():
    # K = R^2, so G is the regularizer itself
    P = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
    lam = np.array([[2.0, 0.5], [0.5, 1.0]])
    M = evaluate_metric(P, np.zeros(2), SoftThreshold(lam=lam))
    np.testing.assert_array_equal(M.G, lam)
    assert M.logdet == pytest.approx(math.log(1.75))


@pytest.mark.parametrize(
    "lam, match",
    [
        (np.ones(2), "square"),
        (np.ones((2, 3)), "square"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "finite"),
        (np.array([[1.0, 0.0], [0.0, np.inf]]), "finite"),
        (np.array([[1.0, 0.5], [0.4, 1.0]]), "symmetric"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive definite"),
        (np.zeros((2, 2)), "positive definite"),
    ],
)
@pytest.mark.parametrize("kind", [SoftThreshold, RegularizedLewis])
def test_matrix_regularizer_validation(kind, lam, match):
    with pytest.raises(MetricError, match=match):
        kind(lam=lam)


@pytest.mark.parametrize("kind", [SoftThreshold, RegularizedLewis])
def test_matrix_regularizer_of_another_dimension_raises(kind):
    P = Polytope(A=np.vstack([np.eye(2), -np.eye(2)]), b=-np.ones(4))
    with pytest.raises(MetricError, match="regularizer is 3 x 3, need n = 2"):
        evaluate_metric(P, np.zeros(2), kind(lam=np.eye(3)))
