import numpy as np
import pytest

from dikinwalk.target import (
    GaussianTarget,
    LogConcaveTarget,
    RegimeError,
    TargetError,
    quadratic_target,
)


def test_standard_normal_curvature():
    t = quadratic_target(GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2)))
    x = np.array([3.0, 4.0])
    assert t.f(x) == pytest.approx(0.5 * 25.0)
    assert t.alpha == pytest.approx(1.0)
    assert t.beta == pytest.approx(1.0)
    assert t.kappa == pytest.approx(1.0)


def test_diagonal_covariance_curvature():
    t = quadratic_target(GaussianTarget(mu=np.zeros(2), Sigma=np.diag([1.0, 4.0])))
    assert t.alpha == pytest.approx(0.25)
    assert t.beta == pytest.approx(1.0)
    assert t.kappa == pytest.approx(4.0)


def test_f_at_mean_is_zero():
    mu = np.array([2.0, -1.0])
    t = quadratic_target(GaussianTarget(mu=mu, Sigma=np.diag([3.0, 0.5])))
    assert t.f(mu) == pytest.approx(0.0, abs=1e-15)


def test_f_matches_cho_solve_bit_for_bit():
    # potrf is called as cho_factor calls it, so f keeps every bit
    import scipy.linalg

    rng = np.random.default_rng(4)
    B = rng.standard_normal((5, 5))
    G = GaussianTarget(mu=rng.standard_normal(5), Sigma=B @ B.T + np.eye(5))
    t = quadratic_target(G)
    cho = scipy.linalg.cho_factor(G.Sigma, lower=True)
    for x in rng.standard_normal((10, 5)):
        d = x - G.mu
        assert t.f(x) == 0.5 * float(d @ scipy.linalg.cho_solve(cho, d))


def test_quadratic_target_rejects_a_sigma_potrf_cannot_factor():
    G = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    # GaussianTarget checks Sigma with numpy's Cholesky; bypass it
    object.__setattr__(G, "Sigma", np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(TargetError, match="not positive definite"):
        quadratic_target(G)


def test_kappa_needs_strong_convexity():
    t = LogConcaveTarget(f=lambda x: 0.0, alpha=0.0, beta=1.0)
    with pytest.raises(RegimeError):
        _ = t.kappa


def test_target_validation():
    with pytest.raises(TargetError):
        LogConcaveTarget(f=lambda x: 0.0, alpha=2.0, beta=1.0)
    with pytest.raises(TargetError):
        LogConcaveTarget(f=lambda x: 0.0, alpha=0.0, beta=0.0)


def test_gaussian_validation():
    with pytest.raises(TargetError):
        GaussianTarget(mu=np.zeros(2), Sigma=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(TargetError):
        GaussianTarget(mu=np.zeros(2), Sigma=-np.eye(2))
    with pytest.raises(TargetError):
        GaussianTarget(mu=np.zeros(3), Sigma=np.eye(2))


def test_precision_inverts_sigma():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((5, 5))
    G = GaussianTarget(mu=np.zeros(5), Sigma=B @ B.T + 0.1 * np.eye(5))
    prec = G.precision
    np.testing.assert_array_equal(prec, prec.T)
    np.testing.assert_allclose(prec @ G.Sigma, np.eye(5), atol=1e-10)


def test_precision_of_the_identity_is_exact():
    # lets `sample` without a lambda flag keep --lambda 1's bytes on N(mu, I)
    G = GaussianTarget(mu=np.ones(3), Sigma=np.eye(3))
    np.testing.assert_array_equal(G.precision, np.eye(3))


def test_precision_rejects_a_sigma_potrf_cannot_factor():
    G = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    object.__setattr__(G, "Sigma", np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(TargetError, match="not positive definite"):
        _ = G.precision
