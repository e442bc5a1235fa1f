"""Acceptance gate: ten numbered end-to-end checks, one printed verdict line each.

Each test prints "criterion N: PASS/FAIL ..." before asserting, so a -s or
failure log always shows which checks stood where.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dikinwalk import planner
from dikinwalk.diagnostics import (
    compare_moments,
    diagnose_corpus,
    random_polytope_with_interior,
    rejection_oracle,
)
from dikinwalk.metrics import RegularizedLewis, SoftThreshold, evaluate_metric
from dikinwalk.planner import (
    MixingBudgetQuery,
    beyond_worst_case_budget,
    sample_warm_start,
    solve_modes,
    warm_start_ball,
)
from dikinwalk.polytope import Polytope, contains, make_box, make_orthant
from dikinwalk.target import GaussianTarget, LogConcaveTarget, quadratic_target
from dikinwalk.walk import WalkConfig, format_csv, log_accept_ratio, run


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_detailed_balance():
    _detailed_balance(lambda n, rng: 1.0, "lambda = 1")


def test_criterion_1_detailed_balance_matrix_regularizer():
    # a dense SPD regularizer, as `sample` builds from a Gaussian's Sigma^-1
    def regularizer(n, rng):
        B = rng.standard_normal((n, n))
        return B @ B.T + 0.1 * np.eye(n)

    _detailed_balance(regularizer, "dense SPD regularizer")


def _detailed_balance(regularizer, label):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    r = 0.5
    worst = 0.0
    pairs_done = 0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 9))
        P, x0 = random_polytope_with_interior(n, m, rng)
        tgt = quadratic_target(
            GaussianTarget(mu=rng.standard_normal(n) * 0.3, Sigma=np.eye(n))
        )
        lam = regularizer(n, rng)
        for kind in (SoftThreshold(lam=lam), RegularizedLewis(lam=lam)):
            for _ in range(25):
                x = _interior(P, x0, rng)
                z = _interior(P, x0, rng)
                Mx = evaluate_metric(P, x, kind)
                Mz = evaluate_metric(P, z, kind)
                f_x, f_z = tgt.f(x), tgt.f(z)
                L_fwd = log_accept_ratio(x, z, f_x, f_z, Mx, Mz, r)
                L_bwd = log_accept_ratio(z, x, f_z, f_x, Mz, Mx, r)

                def side(frm, to, Mfrm, Lr):
                    quad = float(np.linalg.norm(Mfrm.Q @ (to - frm)) ** 2)
                    log_prop = (
                        0.5 * Mfrm.logdet
                        + 0.5 * n * math.log(n / (2.0 * math.pi * r * r))
                        - (n / (2.0 * r * r)) * quad
                    )
                    return -tgt.f(frm) + log_prop + min(0.0, Lr)

                gap = abs(side(x, z, Mx, L_fwd) - side(z, x, Mz, L_bwd))
                worst = max(worst, gap)
                pairs_done += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst <= 1e-8 and pairs_done >= 1000 and elapsed < 10.0,
        f"{label}: max gap {worst:.2e} over {pairs_done} pairs in {elapsed:.1f}s",
    )


def _interior(P, x0, rng):
    for _ in range(1000):
        x = x0 + rng.standard_normal(P.n) * 0.5
        if contains(P, x):
            return x
    raise AssertionError("could not draw an interior point")


# ----------------------------------------------------- criteria 2 and 6 setup

@pytest.fixture(scope="module")
def orthant_chain():
    P = make_orthant(2)
    target = quadratic_target(GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2)))
    cfg = WalkConfig(
        metric=SoftThreshold(lam=1.0),  # lambda = beta = 1
        r=0.1,
        steps=100000,
        burn_in=5000,
        adapt=True,
        thin=10,
        seed=2024,
    )
    t0 = time.perf_counter()
    batch = run(np.array([1.0, 1.0]), target, P, cfg)
    elapsed = time.perf_counter() - t0
    oracle = rejection_oracle(
        GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2)),
        P,
        100000,
        np.random.default_rng(77),
    )
    return batch, oracle, elapsed


def _cov_entry_z(a, b, j, k):
    ua = (a[:, j] - a[:, j].mean()) * (a[:, k] - a[:, k].mean())
    ub = (b[:, j] - b[:, j].mean()) * (b[:, k] - b[:, k].mean())
    se = math.sqrt(ua.var() / len(ua) + ub.var() / len(ub))
    return abs(ua.mean() - ub.mean()) / se


def test_criterion_2_truncated_gaussian_ground_truth(orthant_chain):
    batch, oracle, elapsed = orthant_chain
    rep = compare_moments(batch.samples, oracle.samples)
    half_normal = math.sqrt(2.0 / math.pi)
    mean_gap = float(np.max(np.abs(oracle.samples.mean(axis=0) - half_normal)))
    cov_z = max(
        _cov_entry_z(batch.samples, oracle.samples, j, k)
        for j in range(2)
        for k in range(j, 2)
    )
    ok = rep.max_abs_z < 4.0 and cov_z < 4.0 and elapsed < 60.0 and mean_gap < 0.01
    _verdict(
        2,
        ok,
        f"mean z {rep.max_abs_z:.2f}, cov z {cov_z:.2f}, "
        f"oracle vs sqrt(2/pi) gap {mean_gap:.4f}, chain {elapsed:.1f}s",
    )


def test_criterion_6_acceptance_floor(orthant_chain):
    batch, _, _ = orthant_chain
    acc = batch.stats.nonlazy_acceptance
    _verdict(6, acc >= 0.4, f"non-lazy acceptance {acc:.3f} at r={batch.step_size:g}")


# ---------------------------------------------------------------- criterion 3

# The mean of one 100 000-step chain has a standard deviation of 0.010-0.0135
# per coordinate (seeds 33-72, on SkylakeX and Sandybridge kernels), so 0.02
# was 1.5-2 sd of one chain; pooled over 6 chains it is at least 3.6 sd
CRITERION_3_CHAINS = 6


def test_criterion_3_uniform_box():
    P = make_box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    flat = LogConcaveTarget(f=lambda x: 0.0, alpha=0.0, beta=1.0)
    cfg = WalkConfig(
        metric=SoftThreshold(lam=1.0),
        r=0.1,
        steps=100000,
        burn_in=3000,
        adapt=True,
    )
    samples = np.vstack([
        run(np.array([0.5, 0.5, 0.5]), flat, P, replace(cfg, seed=seed)).samples
        for seed in range(33, 33 + CRITERION_3_CHAINS)
    ])
    mean = samples.mean(axis=0)
    var = samples.var(axis=0)
    mean_ok = np.all(np.abs(mean - 0.5) <= 0.02)
    var_ok = np.all(np.abs(var - 1.0 / 12.0) <= 0.01)
    _verdict(
        3,
        bool(mean_ok and var_ok),
        f"{CRITERION_3_CHAINS} chains: mean {np.round(mean, 4)}, var {np.round(var, 4)}",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_lewis_weights():
    from dikinwalk.diagnostics import lewis_fixed_point_residual
    from dikinwalk.metrics import lewis_weights

    ok = True
    details = []
    lw = lewis_weights(np.eye(5), q=4)
    if not np.allclose(lw.w, 1.0, atol=1e-10):
        ok = False
        details.append("identity")
    lw = lewis_weights(np.vstack([np.eye(4), np.eye(4)]), q=6)
    if not np.allclose(lw.w, 0.5, atol=1e-10):
        ok = False
        details.append("stacked")
    rng = np.random.default_rng(404)
    worst_res, worst_trace = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n, 65))
        Ax = rng.standard_normal((m, n))
        q = int(2 * rng.integers(2, 7))
        lw = lewis_weights(Ax, q=q)
        worst_res = max(worst_res, lewis_fixed_point_residual(Ax, lw.w, q))
        worst_trace = max(worst_trace, abs(float(lw.w.sum()) - n))
    if worst_res > 1e-8 or worst_trace > 1e-6:
        ok = False
        details.append("random")
    _verdict(
        4,
        ok,
        f"residual {worst_res:.2e}, trace gap {worst_trace:.2e}"
        + (f"; failed: {details}" if details else ""),
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_certification_corpus():
    t0 = time.perf_counter()
    reports = diagnose_corpus(seed=0, trials=1000)
    elapsed = time.perf_counter() - t0
    total = sum(r.violations for r in reports)
    summary = ", ".join(f"{r.name}:{r.violations}/{r.trials}" for r in reports)
    _verdict(5, total == 0 and elapsed < 30.0, f"{summary} in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_stationarity():
    P = make_orthant(2)
    gauss = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    target = quadratic_target(gauss)
    metric = SoftThreshold(lam=1.0)
    n_chains = 10000
    # single documented re-seed allowed by the flake policy; 707 is the first
    starts = rejection_oracle(gauss, P, n_chains, np.random.default_rng(707)).samples
    finals = np.empty_like(starts)
    for i in range(n_chains):
        cfg = WalkConfig(metric=metric, r=0.5, steps=10, thin=10, seed=50000 + i)
        finals[i] = run(starts[i], target, P, cfg).samples[-1]
    reference = rejection_oracle(gauss, P, n_chains, np.random.default_rng(708)).samples
    rep = compare_moments(finals, reference)
    _verdict(7, rep.max_abs_z < 4.0, f"max |z| {rep.max_abs_z:.2f} over {n_chains} chains")


@pytest.mark.parametrize("kind", ["soft", "lewis"])
def test_criterion_7_stationarity_rotated(kind):
    # on the orthant G is diagonal, so a proposal drawn from (Q Q^T)^{-1} in
    # place of G^{-1} = (Q^T Q)^{-1} passes criterion 7; here G is not, and
    # chains reach points near a facet, where Lewis solves once stalled
    rng = np.random.default_rng(5)
    P, _ = random_polytope_with_interior(3, 8, rng)
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    gauss = GaussianTarget(mu=np.zeros(3), Sigma=R @ np.diag([1.0, 0.3, 0.1]) @ R.T)
    target = quadratic_target(gauss)
    metric = (SoftThreshold if kind == "soft" else RegularizedLewis)(lam=1.0)
    n_chains = 5000
    starts = rejection_oracle(gauss, P, n_chains, np.random.default_rng(709)).samples
    finals = np.empty_like(starts)
    for i in range(n_chains):
        cfg = WalkConfig(metric=metric, r=1.0, lazy=False, steps=5, thin=5, seed=60000 + i)
        finals[i] = run(starts[i], target, P, cfg).samples[-1]
    reference = rejection_oracle(gauss, P, n_chains, np.random.default_rng(710)).samples

    def moments(x):
        return np.column_stack([x, x * x, x[:, 0] * x[:, 1]])

    z = np.abs(compare_moments(moments(finals), moments(reference)).z_scores)
    _verdict(
        7,
        z.max() < 4.0,
        f"{kind}, rotated: max |z| means {z[:3].max():.2f}, squares "
        f"{z[3:6].max():.2f}, cross {z[6]:.2f} over {n_chains} chains",
    )


def test_criterion_7_stationarity_lewis_near_parallel_rows():
    # three rows parallel to ~1e-6, so the weighted Gram's Cholesky fails at
    # every point and the Lewis weights come from the rank-1 column subset
    P = Polytope(
        A=np.array([
            [240.77047178941964, -192.08338142364204],
            [77278.681687259537, -61651.87275719121],
            [492.75734767910387, -393.1150563549316],
        ]),
        b=np.array([-0.67687848241418258, -0.27709951756571793, -2.3037559381187451]),
    )
    gauss = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    target = quadratic_target(gauss)
    metric = RegularizedLewis(lam=1.0)
    n_chains = 5000
    starts = rejection_oracle(gauss, P, n_chains, np.random.default_rng(711)).samples
    finals = np.empty_like(starts)
    for i in range(n_chains):
        cfg = WalkConfig(metric=metric, r=1.0, lazy=False, steps=5, thin=5, seed=70000 + i)
        finals[i] = run(starts[i], target, P, cfg).samples[-1]
    reference = rejection_oracle(gauss, P, n_chains, np.random.default_rng(712)).samples

    def moments(x):
        return np.column_stack([x, x * x, x[:, 0] * x[:, 1]])

    z = np.abs(compare_moments(moments(finals), moments(reference)).z_scores)
    _verdict(
        7,
        z.max() < 4.0,
        f"lewis, near-parallel rows: max |z| means {z[:2].max():.2f}, squares "
        f"{z[2:4].max():.2f}, cross {z[4]:.2f} over {n_chains} chains",
    )


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_warm_start_instances():
    rng = np.random.default_rng(888)
    done = 0
    attempts = 0
    worst_increase = -math.inf
    while done < 100:
        attempts += 1
        assert attempts < 2000
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, 11))
        P, x1 = random_polytope_with_interior(n, m, rng)
        margins = (P.A @ x1 - P.b) / np.linalg.norm(P.A, axis=1)
        r_tilde = 0.5 * float(np.min(margins))
        B = rng.standard_normal((n, n))
        gauss = GaussianTarget(
            mu=rng.standard_normal(n), Sigma=B @ B.T + 0.4 * np.eye(n)
        )
        target = quadratic_target(gauss)
        modes = solve_modes(gauss, P)
        try:
            ball = warm_start_ball(target, P, x1, r_tilde, modes)
        except Exception:
            continue
        norms = np.linalg.norm(P.A, axis=1)
        assert np.min((P.A @ ball.x0 - P.b) / norms) >= ball.r0 - 1e-9  # ball in K
        assert (
            np.linalg.norm(ball.x0 - modes.x_dag) + ball.r0 <= ball.r1 + 1e-9
        )  # ball in B(x_dag, r1)
        f_dag = target.f(modes.x_dag)
        for _ in range(10):
            y = sample_warm_start(ball, rng)
            worst_increase = max(worst_increase, target.f(y) - f_dag)
        done += 1
    _verdict(
        8,
        worst_increase <= 1.0 + 1e-6,
        f"{done} instances, max f increase {worst_increase:.6f}",
    )


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_budget_dominance(monkeypatch):
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 12))
        P, _ = random_polytope_with_interior(n, m, rng)
        gauss = GaussianTarget(mu=rng.standard_normal(n) * 0.2, Sigma=np.eye(n))
        target = quadratic_target(gauss)
        modes = solve_modes(gauss, P)
        # kappa = beta / alpha = 1 for Sigma = I
        qry = MixingBudgetQuery(regime="strong", m=P.m, n=P.n, metric="soft",
                                M=10.0, eps=0.1, C=1.0, kappa=1.0)
        res = beyond_worst_case_budget(qry, P, target, modes)
        with monkeypatch.context() as patch:
            patch.setattr(planner, "DELTA_GRID", [])
            sentinel = beyond_worst_case_budget(qry, P, target, modes)
        if res.T > res.plain_T or sentinel.T != sentinel.plain_T:
            ok = False
    _verdict(9, ok, "optimized <= plain on all instances; sentinel equals plain")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_lazification_and_determinism(tmp_path):
    P = make_box([0.0, 0.0], [1.0, 1.0])
    flat = LogConcaveTarget(f=lambda x: 0.0, alpha=0.0, beta=1.0)
    cfg = WalkConfig(metric=SoftThreshold(lam=1.0), r=0.4, steps=100000, seed=1234)
    batch = run(np.array([0.5, 0.5]), flat, P, cfg)
    frac = batch.stats.lazy_skips / 100000
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg2 = WalkConfig(metric=SoftThreshold(lam=1.0), r=0.4, steps=500, seed=9)
    for path in (a, b):
        path.write_text(
            format_csv(run(np.array([0.5, 0.5]), flat, P, cfg2), header=True),
            encoding="utf-8",
        )
    identical = a.read_bytes() == b.read_bytes()
    _verdict(
        10,
        abs(frac - 0.5) <= 0.01 and identical,
        f"lazy fraction {frac:.4f}; byte-identical CSV: {identical}",
    )
