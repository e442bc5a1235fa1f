import numpy as np
import pytest

from dikinwalk import target
from dikinwalk._lapack import dpotrf
from dikinwalk.diagnostics import rejection_oracle
from dikinwalk.planner import solve_modes
from dikinwalk.polytope import make_box
from dikinwalk.target import (
    GaussianTarget,
    LogConcaveTarget,
    TargetError,
    parse_gaussian,
    quadratic_target,
    serialize_gaussian,
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


def test_kappa_needs_strong_convexity():
    t = LogConcaveTarget(f=lambda x: 0.0, alpha=0.0, beta=1.0)
    with pytest.raises(TargetError, match="alpha > 0"):
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
    with pytest.raises(TargetError, match="dimension"):
        GaussianTarget(mu=np.zeros(0), Sigma=np.zeros((0, 0)))


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


def test_sigma_is_factored_once_and_only_by_lapack(monkeypatch):
    # the precision, f, the constrained mode and the rejection oracle all
    # work from G.L; numpy's Cholesky is never called
    calls = []

    def counting_dpotrf(*args, **kwargs):
        calls.append(args)
        return dpotrf(*args, **kwargs)

    def no_numpy_cholesky(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(target, "dpotrf", counting_dpotrf)
    monkeypatch.setattr(np.linalg, "cholesky", no_numpy_cholesky)
    Sigma = np.array([[4.0, 1.2, 0.3], [1.2, 1.0, -0.2], [0.3, -0.2, 0.25]])
    G = GaussianTarget(mu=np.array([2.0, 0.5, -0.5]), Sigma=Sigma)
    P = make_box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])  # mu is outside
    t = quadratic_target(G)
    prec = G.precision
    modes = solve_modes(G, P)
    oracle = rejection_oracle(G, P, 10, np.random.default_rng(0))
    assert len(calls) == 1
    np.testing.assert_array_equal(G.L, np.tril(G.L))
    np.testing.assert_allclose(G.L @ G.L.T, Sigma, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(prec @ Sigma, np.eye(3), atol=1e-12)
    assert t.f(G.mu) == 0.0
    assert np.all(P.A @ modes.x_dag - P.b >= -1e-9)
    assert oracle.samples.shape == (10, 3)
    # L is derived, not a settable field
    assert "L=" not in repr(G)
    with pytest.raises(TypeError):
        GaussianTarget(mu=G.mu, Sigma=Sigma, L=G.L)


@pytest.mark.parametrize(
    "text, line",
    [
        ("2\n0 0\n1 0\n0 x\n", 4),
        ("# n\n\n2\n0 0 0\n1 0\n0 1\n", 4),  # comment and blank lines count
        ("2 2\n0 0\n1 0\n0 1\n", 1),
        ("2\n0 0\n1 0\n0 1\n0 0\n", 5),
    ],
)
def test_gaussian_row_errors_name_their_line(text, line):
    with pytest.raises(TargetError, match=f"^line {line}: "):
        parse_gaussian(text)


def test_sigma_singular_to_eigvalsh_is_a_target_error():
    # dpotrf factors this Sigma (condition ~1e24), but eigvalsh puts its
    # smallest eigenvalue at exactly 0, and beta = 1 / 0 raised
    # ZeroDivisionError
    G = GaussianTarget(
        mu=np.array([0.023643249400513433, 0.90092739265187061]),
        Sigma=np.array([[9486748.7194622532, -14491339.97136379],
                        [-14491339.97136379, 22136027.882221539]]),
    )
    assert np.linalg.eigvalsh(G.Sigma).min() == 0.0
    with pytest.raises(TargetError, match="beta must be positive"):
        quadratic_target(G)


def test_gaussian_huge_header_allocates_nothing():
    # the missing rows are reported before n sizes any array
    with pytest.raises(TargetError, match="^line 1: expected 1 mean line"):
        parse_gaussian("1000000000000\n1\n1\n")


def test_serialize_gaussian_text():
    G = GaussianTarget(mu=np.array([0.1, -2.0]), Sigma=np.array([[1.0, 0.5], [0.5, 3e10]]))
    # one writer for both files: the header, then 17 significant digits a row
    assert serialize_gaussian(G) == "2\n0.10000000000000001 -2\n1 0.5\n0.5 30000000000\n"
