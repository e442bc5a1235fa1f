"""Tests of the benchmark's own ESS, split-R-hat and span tracing."""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import ess  # noqa: E402
import spans  # noqa: E402


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ar1_matches_closed_form(rho):
    # ESS of an AR(1) mean is N (1 - rho) / (1 + rho); 10% covers the
    # estimator's sampling error at N = 50 000 for these rho
    n = 50_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert ess.ess(ar1(rho, n, seed=3)) == pytest.approx(expected, rel=0.10)


def test_iid_chain_gives_n():
    n = 20_000
    x = np.random.default_rng(4).standard_normal(n)
    assert ess.ess(x) == pytest.approx(n, rel=0.10)


def test_constant_chain_is_nan_without_dividing_by_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(ess.ess(np.full(100, 2.5)))
        assert math.isnan(ess.split_rhat(np.full((2, 100), 2.5)))
        assert math.isnan(ess.ess(np.arange(3.0)))


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ar1_chains_pool_to_closed_form(rho):
    # 8 chains of 5 000: the pooled ESS is 8 x N (1 - rho) / (1 + rho)
    chains = np.stack([ar1(rho, 5_000, seed=10 + k) for k in range(8)])
    expected = chains.size * (1.0 - rho) / (1.0 + rho)
    assert ess.ess_chains(chains) == pytest.approx(expected, rel=0.10)


def test_chains_stuck_apart_have_low_pooled_ess():
    # each chain mixes on its own, but their means disagree: pooling must not
    # count them as 4 N independent draws
    rng = np.random.default_rng(6)
    chains = rng.standard_normal((4, 2_000)) + 3.0 * np.arange(4)[:, None]
    assert ess.ess_chains(chains) < 0.1 * chains.size
    assert math.isnan(ess.ess_chains(np.full((3, 100), 1.0)))


def test_split_rhat_flags_disagreeing_chains():
    rng = np.random.default_rng(5)
    mixed = rng.standard_normal((4, 2_000))
    assert ess.split_rhat(mixed) == pytest.approx(1.0, abs=0.01)
    shifted = mixed + np.arange(4)[:, None]
    assert ess.split_rhat(shifted) > 1.5


def test_tracer_reports_missing_names_and_restores_originals(tmp_path, monkeypatch):
    from dikinwalk import cli, walk
    from dikinwalk.diagnostics import random_polytope_with_interior
    from dikinwalk.polytope import serialize_polytope
    from dikinwalk.target import GaussianTarget

    P, _ = random_polytope_with_interior(3, 8, np.random.default_rng(0))
    (tmp_path / "P.txt").write_text(serialize_polytope(P))
    gauss = GaussianTarget(mu=np.zeros(3), Sigma=0.25 * np.eye(3))
    (tmp_path / "G.txt").write_text(cli.serialize_gaussian(gauss))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + [
        ("dikinwalk.walk", "fused_step_gone", "walk.fused"),
        ("dikinwalk.module_gone", "anything", "gone.anything"),
    ])
    original_step = walk.step

    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["sample", "--polytope", "P.txt", "--gaussian", "G.txt",
                "--lambda-from-beta", "--steps", "200", "--init-point", "0", "0", "0",
                "--out", "out.csv"]
        assert tracer.command(0, cli.main, argv) == 0
    finally:
        tracer.uninstall()

    assert tracer.absent == ["dikinwalk.walk.fused_step_gone", "dikinwalk.module_gone.anything"]
    assert walk.step is original_step
    table = spans.span_table(tracer, [0])
    assert table.count("walk.step") == 200
    assert table.count("cli.main") == 1
    for name, durations in table.duration.items():
        assert np.all(table.self_time[name] <= durations + 1e-12), name
    layers = spans.layer_metrics(table)
    assert layers["metrics.evals"] == table.count("metrics.evaluate_metric") > 0
    assert layers["metrics.lewis_calls"] == 0.0
