"""Effective sample size and split-R-hat for MCMC output, numpy only.

`ess` is Geyer's initial monotone sequence estimator (Geyer 1992): the
autocorrelations, from FFT autocovariances, are summed in adjacent pairs until a pair sum
turns negative, and the pair sums are forced to be non-increasing before they
are added up. Over several chains (`ess_chains`) the autocorrelation at each
lag is the chains' mean autocovariance, set against the variance estimate
that includes the spread between chain means, as in Vehtari et al. (2021).
No rank normalisation is applied, so this is the ESS of a coordinate's mean.
"""

from __future__ import annotations

import math

import numpy as np


def autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased sample autocovariance (divided by N) at lags 0..N-1 of a 1-D chain."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size)
    return np.fft.irfft(spectrum * np.conjugate(spectrum), size)[:n] / n


def ess(x: np.ndarray) -> float:
    """Effective sample size of the mean of one chain.

    A chain shorter than 4 draws or with zero variance has no defined ESS
    and gives nan.
    """
    return ess_chains(np.asarray(x, dtype=float).reshape(1, -1))


def ess_chains(chains: np.ndarray) -> float:
    """Effective sample size of the pooled mean of independent chains of shape (C, N).

    Estimating one autocorrelation sequence from all chains is steadier
    than adding up per-chain estimates, which overstate a short chain's ESS.
    Chains shorter than 4 draws, or with zero variance within them, give nan.
    """
    chains = np.asarray(chains, dtype=float)
    m, n = chains.shape
    if n < 4:
        return float("nan")
    within = float(chains.var(axis=1, ddof=1).mean())
    if not within > 0.0:
        return float("nan")
    between = float(chains.mean(axis=1).var(ddof=1)) if m > 1 else 0.0
    var_plus = (n - 1) / n * within + between
    mean_acov = np.mean([autocovariance(c) for c in chains], axis=0)
    rho = 1.0 - (within - mean_acov) / var_plus
    rho[0] = 1.0
    pairs = rho[0 : n - 1 : 2][: (n - 1) // 2] + rho[1:n:2][: (n - 1) // 2]
    negative = np.flatnonzero(pairs <= 0.0)
    if negative.size:
        pairs = pairs[: negative[0]]
    pairs = np.minimum.accumulate(pairs)
    tau = 2.0 * float(pairs.sum()) - 1.0
    # antithetic chains can drive tau towards 0; cap ESS at N log10(N) as Stan does
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def split_rhat(chains: np.ndarray) -> float:
    """Split-R-hat of one coordinate over chains of shape (C, N), C >= 1, N >= 4."""
    chains = np.asarray(chains, dtype=float)
    half = chains.shape[1] // 2
    split = np.concatenate([chains[:, :half], chains[:, half : 2 * half]])
    within = float(split.var(axis=1, ddof=1).mean())
    between = half * float(split.mean(axis=1).var(ddof=1))
    if within == 0.0:
        return float("nan")
    var_plus = (half - 1) / half * within + between / half
    return math.sqrt(var_plus / within)
