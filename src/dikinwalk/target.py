"""Unnormalized targets pi(x) = 1_K(x) exp(-f(x)) and Gaussian preconditioning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from dikinwalk._lapack import dpotrf, dpotrs
from dikinwalk.polytope import Polytope


class TargetError(ValueError):
    """Invalid target parameters."""


class RegimeError(TargetError):
    """An operation needed alpha > 0 but the target is only weakly logconcave."""


@dataclass(frozen=True)
class LogConcaveTarget:
    """Negative log-density f (up to an additive constant) with curvature bounds.

    alpha is the strong-convexity modulus (0 allowed, weakly logconcave);
    beta the smoothness.
    """

    f: Callable[[np.ndarray], float]
    alpha: float
    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise TargetError("beta must be positive")
        if not 0 <= self.alpha <= self.beta:
            raise TargetError("need 0 <= alpha <= beta")

    @property
    def kappa(self) -> float:
        """Condition number beta / alpha; defined only for alpha > 0."""
        if self.alpha <= 0:
            raise RegimeError("regime requires alpha > 0")
        return self.beta / self.alpha


@dataclass(frozen=True)
class GaussianTarget:
    """Mean and covariance of an (untruncated) multivariate Gaussian."""

    mu: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        Sigma = np.asarray(self.Sigma, dtype=float)
        if Sigma.shape != (mu.shape[0], mu.shape[0]):
            raise TargetError("Sigma shape does not match mu")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(Sigma))):
            raise TargetError("mu and Sigma must be finite")
        scale = max(1.0, float(np.abs(Sigma).max()))
        if np.abs(Sigma - Sigma.T).max() > 1e-12 * scale:
            raise TargetError("Sigma must be symmetric")
        try:
            np.linalg.cholesky(Sigma)
        except np.linalg.LinAlgError:
            raise TargetError("Sigma is not positive definite") from None
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Sigma", 0.5 * (Sigma + Sigma.T))

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def Sigma_half(self) -> np.ndarray:
        """Symmetric PSD square root of Sigma (eigendecomposition)."""
        w, V = np.linalg.eigh(self.Sigma)
        return (V * np.sqrt(w)) @ V.T


@dataclass(frozen=True)
class AffineTransform:
    """y -> L y + shift, mapping preconditioned coordinates back to originals."""

    L: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        shift = np.asarray(self.shift, dtype=float).reshape(-1)
        if L.shape != (shift.shape[0], shift.shape[0]):
            raise TargetError("L shape does not match shift")
        if not np.all(np.isfinite(L)):
            raise TargetError("L must be finite")
        if not np.all(np.isfinite(shift)):
            raise TargetError("shift must be finite")
        # rank is scale-free: det underflows to 0 for a small, well-conditioned L
        if np.linalg.matrix_rank(L) != L.shape[0]:
            raise TargetError("L must be invertible")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "shift", shift)

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.L @ np.asarray(y, dtype=float) + self.shift

    def inverse_apply(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.L, np.asarray(x, dtype=float) - self.shift)


def quadratic_target(G: GaussianTarget) -> LogConcaveTarget:
    """f(x) = (1/2)(x - mu)^T Sigma^{-1} (x - mu)."""
    # LAPACK potrf as cho_factor calls it; the strict upper triangle of c is
    # left as Sigma's, and potrs reads only the lower one
    c, info = dpotrf(G.Sigma, lower=1, clean=0)
    if info > 0:
        raise TargetError("Sigma is not positive definite")
    mu = G.mu
    evals = np.linalg.eigvalsh(G.Sigma)
    alpha = 1.0 / float(evals.max())
    beta = 1.0 / float(evals.min())

    def f(x: np.ndarray) -> float:
        # LAPACK potrs directly, as cho_solve does minus its validation wrappers
        d = np.asarray(x, dtype=float) - mu
        return 0.5 * float(d @ dpotrs(c, d, lower=1)[0])

    return LogConcaveTarget(f=f, alpha=alpha, beta=beta)


def precondition_gaussian(
    G: GaussianTarget, P: Polytope
) -> tuple[Polytope, AffineTransform]:
    """Affine reduction to a standard-normal target.

    Returns the polytope {y | (A S) y > b - A mu} with S the symmetric square
    root of Sigma, and the transform y -> S y + mu. Sampling N(0, I) truncated
    on the new polytope and mapping back is equivalent to sampling N(mu, Sigma)
    truncated on P.
    """
    if P.n != G.n:
        raise TargetError("polytope and Gaussian dimensions differ")
    S = G.Sigma_half
    A_new = P.A @ S
    b_new = P.b - P.A @ G.mu
    return Polytope(A=A_new, b=b_new), AffineTransform(L=S, shift=G.mu)


def map_samples(T: AffineTransform, samples: np.ndarray) -> np.ndarray:
    """Apply the transform row-wise: each y becomes L y + shift."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != T.shift.shape[0]:
        raise TargetError("sample dimension does not match transform")
    return samples @ T.L.T + T.shift
