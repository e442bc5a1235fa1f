import numpy as np
import pytest

from dikinwalk.polytope import Polytope, contains, make_orthant
from dikinwalk.target import (
    AffineTransform,
    GaussianTarget,
    LogConcaveTarget,
    RegimeError,
    TargetError,
    map_samples,
    precondition_gaussian,
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


def test_precondition_isotropic_is_identity():
    P = make_orthant(2)
    G = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    P2, T = precondition_gaussian(G, P)
    np.testing.assert_allclose(P2.A, P.A)
    np.testing.assert_allclose(P2.b, P.b)
    np.testing.assert_allclose(T.L, np.eye(2))
    np.testing.assert_allclose(T.shift, np.zeros(2))


def test_precondition_1d_scaling():
    # variance 4 on the half line: constraint row doubles, b stays 0
    P = Polytope(A=np.array([[1.0]]), b=np.array([0.0]))
    G = GaussianTarget(mu=np.zeros(1), Sigma=np.array([[4.0]]))
    P2, T = precondition_gaussian(G, P)
    np.testing.assert_allclose(P2.A, [[2.0]])
    np.testing.assert_allclose(P2.b, [0.0])
    np.testing.assert_allclose(T.apply(np.array([0.5])), [1.0])


def test_precondition_shifted_mean():
    P = make_orthant(2)
    G = GaussianTarget(mu=np.array([1.0, 0.0]), Sigma=np.eye(2))
    P2, _ = precondition_gaussian(G, P)
    np.testing.assert_allclose(P2.b, [-1.0, 0.0])


def test_precondition_membership_equivalence():
    # y interior to the transformed polytope iff L y + mu interior to the original
    rng = np.random.default_rng(12)
    A = rng.standard_normal((6, 3))
    b = A @ np.ones(3) - rng.uniform(0.5, 2.0, size=6)
    P = Polytope(A=A, b=b)
    B = rng.standard_normal((3, 3))
    G = GaussianTarget(mu=rng.standard_normal(3), Sigma=B @ B.T + 0.3 * np.eye(3))
    P2, T = precondition_gaussian(G, P)
    for _ in range(200):
        y = rng.standard_normal(3) * 2.0
        assert contains(P2, y) == contains(P, T.apply(y))


def test_map_samples_identity():
    T = AffineTransform(L=np.eye(2), shift=np.zeros(2))
    s = np.array([[0.1, 0.2], [0.3, 0.4]])
    np.testing.assert_array_equal(map_samples(T, s), s)


def test_map_samples_scale_and_shift():
    T = AffineTransform(L=np.array([[2.0]]), shift=np.zeros(1))
    np.testing.assert_allclose(map_samples(T, np.array([[0.5]])), [[1.0]])
    T = AffineTransform(L=np.eye(2), shift=np.array([1.0, 1.0]))
    np.testing.assert_allclose(map_samples(T, np.zeros((1, 2))), [[1.0, 1.0]])


def test_transform_round_trip():
    rng = np.random.default_rng(2)
    L = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    T = AffineTransform(L=L, shift=rng.standard_normal(3))
    x = rng.standard_normal(3)
    np.testing.assert_allclose(T.apply(T.inverse_apply(x)), x, atol=1e-12)


@pytest.mark.parametrize("L", [1e-200 * np.eye(3), 5e-4 * np.eye(100)])
def test_transform_accepts_small_invertible_L(L):
    # det(L) underflows to 0.0 for both; invertibility does not depend on scale
    assert np.linalg.det(L) == 0.0
    T = AffineTransform(L=L, shift=np.zeros(L.shape[0]))
    y = np.ones(L.shape[0])
    np.testing.assert_allclose(T.inverse_apply(T.apply(y)), y)


@pytest.mark.parametrize("L", [[[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2))])
def test_transform_rejects_singular_L(L):
    # pytest turns a RuntimeWarning into an error, so none is printed first
    with pytest.raises(TargetError, match="invertible"):
        AffineTransform(L=L, shift=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transform_rejects_non_finite_L(bad):
    # a NaN used to reach the SVD of matrix_rank and raise numpy's LinAlgError
    with pytest.raises(TargetError, match="L must be finite"):
        AffineTransform(L=[[bad, 0.0], [0.0, 1.0]], shift=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transform_rejects_non_finite_shift(bad):
    # used to be accepted, and every mapped sample came out non-finite
    with pytest.raises(TargetError, match="shift must be finite"):
        AffineTransform(L=np.eye(2), shift=[0.0, bad])
