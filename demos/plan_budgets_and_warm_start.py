"""Pre-run planning: solve for the modes, build a warm-start ball, and compare
the plain iteration budget against the geometry-aware optimized one.

Budgets are closed-form planning aids parameterized by a user constant C;
they are order-of-magnitude guides, not correctness gates.
"""

import math

import numpy as np

from dikinwalk import (
    GaussianTarget,
    MixingBudgetQuery,
    beyond_worst_case_budget,
    make_box,
    mixing_budget,
    quadratic_target,
    sample_warm_start,
    solve_modes,
    warm_start_ball,
    warmness_bound,
)


def main():
    # Gaussian centered deep inside a large box: constraints barely matter
    side = 50.0
    P = make_box([-side, -side], [side, side])
    gauss = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    target = quadratic_target(gauss)

    modes = solve_modes(gauss, P)
    print(f"unconstrained mode x*  = {modes.x_star}")
    print(f"constrained mode x_dag = {modes.x_dag}")

    x1 = np.array([5.0, 5.0])
    ball = warm_start_ball(target, P, x1=x1, r_tilde=1.0, modes=modes)
    print(f"warm-start ball: x0={ball.x0}, r0={ball.r0:.4f}, r1={ball.r1:.4f}")
    # the bound, unlike the ball, needs an outer radius of K
    logM = warmness_bound(
        target, P, x1=x1, r_tilde=1.0, modes=modes, outer_radius=side * math.sqrt(2.0)
    )
    print(f"warmness bound: logM = {logM:.2f}")
    rng = np.random.default_rng(0)
    worst = max(
        target.f(sample_warm_start(ball, rng)) - target.f(modes.x_dag)
        for _ in range(1000)
    )
    print(f"max f-increase over 1000 ball samples = {worst:.4f} (<= 1 guaranteed)")

    # one query feeds both budgets; kappa = beta / alpha is 1 here, as it is
    # for any Gaussian under `sample`'s default Sigma^-1 regularizer
    qry = MixingBudgetQuery(
        regime="strong", m=P.m, n=P.n, metric="soft",
        M=math.exp(logM), eps=0.1, C=1.0, kappa=target.kappa,
    )
    plain = mixing_budget(qry)
    tuned = beyond_worst_case_budget(qry, P, target, modes)
    print(f"plain budget      T = {plain}")
    print(
        f"optimized budget  T = {tuned.T} "
        f"(best delta {tuned.best_delta:g}, {tuned.violated_count} constraints in range)"
    )


if __name__ == "__main__":
    main()
