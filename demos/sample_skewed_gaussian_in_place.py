"""Sample a skewed truncated Gaussian in place, regularizing with Sigma^-1.

The walk with G(x) = H(x) + Sigma^-1 is the lambda = 1 walk on the whitened
problem, seen in the original coordinates, so Sigma's condition number drops
out of its mixing time. `dikinwalk sample` does this when given neither
--lambda nor --lambda-from-beta.
"""

import numpy as np

from dikinwalk import (
    GaussianTarget,
    SoftThreshold,
    WalkConfig,
    make_box,
    quadratic_target,
    rejection_oracle,
    run,
)


def main():
    P = make_box([0.0, 0.0], [4.0, 4.0])
    gauss = GaussianTarget(
        mu=np.array([1.0, 2.0]),
        Sigma=np.array([[2.0, 0.8], [0.8, 0.5]]),
    )
    print(f"condition number of Sigma: {np.linalg.cond(gauss.Sigma):.1f}")

    cfg = WalkConfig(
        metric=SoftThreshold(lam=gauss.precision),
        steps=50_000, burn_in=5_000, adapt=True, thin=10, seed=3,
    )
    samples = run(np.array([1.0, 2.0]), quadratic_target(gauss), P, cfg).samples

    oracle = rejection_oracle(gauss, P, 50_000, np.random.default_rng(4))
    print(f"chain mean : {samples.mean(axis=0)}")
    print(f"oracle mean: {oracle.samples.mean(axis=0)}")
    print("chain covariance:")
    print(np.cov(samples, rowvar=False))
    print("oracle covariance:")
    print(np.cov(oracle.samples, rowvar=False))


if __name__ == "__main__":
    main()
