"""Unnormalized targets pi(x) = 1_K(x) exp(-f(x)) and Gaussian parameters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dikinwalk._lapack import dpotrf, dpotrs


class TargetError(ValueError):
    """Invalid target parameters."""


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
            raise TargetError("regime requires alpha > 0")
        return self.beta / self.alpha


@dataclass(frozen=True)
class GaussianTarget:
    """Mean and covariance of an (untruncated) multivariate Gaussian, and L,
    the one Cholesky factor of Sigma (L L^T = Sigma) that all code uses."""

    mu: np.ndarray
    Sigma: np.ndarray
    L: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        Sigma = np.asarray(self.Sigma, dtype=float)
        if mu.shape[0] == 0:
            raise TargetError("dimension must be positive")
        if Sigma.shape != (mu.shape[0], mu.shape[0]):
            raise TargetError("Sigma shape does not match mu")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(Sigma))):
            raise TargetError("mu and Sigma must be finite")
        scale = max(1.0, float(np.abs(Sigma).max()))
        if np.abs(Sigma - Sigma.T).max() > 1e-12 * scale:
            raise TargetError("Sigma must be symmetric")
        Sigma = 0.5 * (Sigma + Sigma.T)
        # the lower triangle as cho_factor's; clean=1 zeroes the upper one
        L, info = dpotrf(Sigma, lower=1, clean=1)
        if info > 0:
            raise TargetError("Sigma is not positive definite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Sigma", Sigma)
        object.__setattr__(self, "L", L)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def precision(self) -> np.ndarray:
        """Sigma^{-1}, symmetrized, solved from L.

        The walk with G(x) = H(x) + Sigma^{-1} is the lam = 1 walk on the
        whitened problem, y = L^{-1} (x - mu), seen in x.
        """
        inv = dpotrs(self.L, np.eye(self.n), lower=1)[0]
        return 0.5 * (inv + inv.T)


def quadratic_target(G: GaussianTarget) -> LogConcaveTarget:
    """f(x) = (1/2)(x - mu)^T Sigma^{-1} (x - mu)."""
    L, mu = G.L, G.mu
    evals = np.linalg.eigvalsh(G.Sigma)
    alpha = 1.0 / float(evals.max())
    beta = 1.0 / float(evals.min())

    def f(x: np.ndarray) -> float:
        # LAPACK potrs directly, as cho_solve does minus its validation wrappers
        d = np.asarray(x, dtype=float) - mu
        return 0.5 * float(d @ dpotrs(L, d, lower=1)[0])

    return LogConcaveTarget(f=f, alpha=alpha, beta=beta)
