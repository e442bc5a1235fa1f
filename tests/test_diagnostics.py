import math

import numpy as np
import pytest

from dikinwalk import diagnostics
from dikinwalk.diagnostics import (
    CertReport,
    DiagnosticsError,
    certify_ssc,
    certify_symmetry,
    compare_moments,
    cross_ratio,
    diagnose_corpus,
    hilbert,
    random_polytope_with_interior,
    rejection_oracle,
)
from dikinwalk.metrics import RegularizedLewis, SoftThreshold
from dikinwalk.polytope import Polytope, contains, make_box, make_orthant
from dikinwalk.target import GaussianTarget


def test_cross_ratio_unit_interval():
    # K=(0,1), x=0.25, y=0.5: (1 * 0.25) / (0.25 * 0.5) = 2
    P = make_box([0.0], [1.0])
    assert cross_ratio(P, np.array([0.25]), np.array([0.5])) == pytest.approx(2.0)


def test_cross_ratio_half_line():
    P = Polytope(A=np.array([[1.0]]), b=np.array([0.0]))
    assert cross_ratio(P, np.array([1.0]), np.array([2.0])) == pytest.approx(1.0)


def test_cross_ratio_unconstrained_zero():
    P = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
    assert cross_ratio(P, np.zeros(2), np.array([5.0, -3.0])) == 0.0


def test_cross_ratio_symmetric_and_zero_at_equal():
    rng = np.random.default_rng(1)
    P = make_box([0.0, 0.0], [1.0, 2.0])
    for _ in range(50):
        x = rng.uniform([0.01, 0.01], [0.99, 1.99])
        y = rng.uniform([0.01, 0.01], [0.99, 1.99])
        assert cross_ratio(P, x, y) == pytest.approx(cross_ratio(P, y, x), rel=1e-12)
    x = rng.uniform([0.01, 0.01], [0.99, 1.99])
    assert cross_ratio(P, x, x) == 0.0


def test_cross_ratio_matches_four_point_lengths():
    # independent evaluation straight from the endpoint geometry
    rng = np.random.default_rng(21)
    P = make_box([0.0, 0.0], [1.0, 1.0])
    for _ in range(50):
        x = rng.uniform(0.05, 0.95, 2)
        y = rng.uniform(0.05, 0.95, 2)
        if np.allclose(x, y):
            continue
        d = (y - x) / np.linalg.norm(y - x)
        # march to the boundary numerically by bisection on contains
        def boundary(sign):
            lo, hi = 0.0, 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if contains(P, x + sign * mid * d):
                    lo = mid
                else:
                    hi = mid
            return x + sign * lo * d

        q = boundary(+1.0)
        p = boundary(-1.0)
        num = np.linalg.norm(p - q) * np.linalg.norm(x - y)
        den = np.linalg.norm(p - x) * np.linalg.norm(q - y)
        assert cross_ratio(P, x, y) == pytest.approx(num / den, rel=1e-6)


def test_hilbert_values():
    P = make_box([0.0], [1.0])
    assert hilbert(P, np.array([0.25]), np.array([0.5])) == pytest.approx(math.log(3.0))
    assert hilbert(P, np.array([0.3]), np.array([0.3])) == 0.0


def test_hilbert_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 8))
        P, _ = random_polytope_with_interior(n, m, rng)
        for _ in range(50):
            pts = []
            while len(pts) < 3:
                cand = rng.uniform(-1.0, 1.0, n) * 0.3
                if contains(P, cand):
                    pts.append(cand)
            x, y, z = pts
            assert hilbert(P, x, z) <= hilbert(P, x, y) + hilbert(P, y, z) + 1e-9


def test_rejection_oracle_unconstrained():
    P = Polytope(A=np.zeros((0, 2)), b=np.zeros(0))
    G = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    out = rejection_oracle(G, P, 1000, np.random.default_rng(0))
    assert out.samples.shape == (1000, 2)
    assert out.acceptance == pytest.approx(1.0)


def test_rejection_oracle_orthant_quarter():
    P = make_orthant(2)
    G = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    out = rejection_oracle(G, P, 100000, np.random.default_rng(5))
    assert out.acceptance == pytest.approx(0.25, abs=0.01)
    half_normal_mean = math.sqrt(2.0 / math.pi)
    for j in range(2):
        se = out.samples[:, j].std() / math.sqrt(out.samples.shape[0])
        assert abs(out.samples[:, j].mean() - half_normal_mean) < 3 * se
    for row in out.samples[:200]:
        assert contains(P, row)


def test_rejection_oracle_gives_up(monkeypatch):
    # far-away shifted box: acceptance essentially zero
    monkeypatch.setattr(diagnostics, "ORACLE_BATCH", 100)
    P = make_box([100.0, 100.0], [100.1, 100.1])
    G = GaussianTarget(mu=np.zeros(2), Sigma=np.eye(2))
    with pytest.raises(DiagnosticsError):
        rejection_oracle(G, P, 10, np.random.default_rng(0))


def test_compare_moments_self():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((500, 3))
    rep = compare_moments(a, a)
    assert rep.max_abs_z == pytest.approx(0.0, abs=1e-12)


def test_compare_moments_detects_shift():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((100000, 2))
    b = rng.standard_normal((100000, 2))
    b[:, 0] += 1.0
    rep = compare_moments(a, b)
    assert abs(rep.z_scores[0]) > 10
    assert abs(rep.z_scores[1]) < 5


def test_compare_moments_calibrated():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((100000, 2))
    b = rng.standard_normal((100000, 2))
    assert compare_moments(a, b).max_abs_z < 4


def test_certify_ssc_zero_at_equal_points_and_small_runs():
    rng = np.random.default_rng(10)
    P, x0 = random_polytope_with_interior(3, 6, rng)
    rep = certify_ssc(P, x0, SoftThreshold(lam=1.0), 50, rng)
    assert rep.violations == 0
    assert rep.trials >= 50
    rep = certify_ssc(P, x0, RegularizedLewis(lam=1.0, c1=2.0), 50, rng)
    assert rep.violations == 0


def test_certify_symmetry_half_line_hand_case():
    # m=1, K=(0,inf), x=1: H = 1, unit ellipsoid (0,2) stays in K and 2x-K
    P = Polytope(A=np.array([[1.0]]), b=np.array([0.0]))
    rng = np.random.default_rng(4)
    rep = certify_symmetry(P, np.array([1.0]), 100, rng)
    assert rep.violations == 0


def test_certify_symmetry_orthant_corner_case():
    # symmetrized body for the orthant at (1,1) is (0,2)^2; the corner attains
    # |z-x|_H^2 = 2 = m exactly
    P = make_orthant(2)
    x = np.array([1.0, 1.0])
    corner = np.array([2.0, 2.0]) - 1e-9
    hn_sq = float(np.sum((corner - x) ** 2))  # H = I at x=(1,1)
    assert hn_sq <= 2.0 + 1e-6
    rng = np.random.default_rng(9)
    rep = certify_symmetry(P, x, 200, rng)
    assert rep.violations == 0
    assert rep.max_slack <= 1.0 + 1e-9  # normalized by m


def test_cert_report_merge():
    total = CertReport(name="ssc[soft]")
    a = CertReport(name="ssc[soft]")
    a.record(0.5, True)
    a.record(1.5, False, note="first")
    b = CertReport(name="ssc[soft]")
    for k in range(12):
        b.record(2.0 + k, False, note=f"b{k}")
    total.merge(a)
    total.merge(b)
    total.merge(CertReport(name="ssc[soft]"))
    assert (total.trials, total.violations) == (14, 13)
    assert total.max_slack == 13.0
    # each part keeps at most 10 notes; the merged report keeps them all, in order
    assert total.notes == ["first"] + [f"b{k}" for k in range(10)]
    assert (a.trials, a.notes) == (2, ["first"])


def test_random_polytope_interior_point():
    rng = np.random.default_rng(15)
    for _ in range(20):
        P, x0 = random_polytope_with_interior(3, 7, rng)
        assert contains(P, x0)
        np.testing.assert_allclose(np.linalg.norm(P.A, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("trials", [0, -5])
def test_diagnose_corpus_rejects_no_trials(trials):
    # used to run the full corpus as if 20 trials had been asked for
    with pytest.raises(DiagnosticsError, match="trials"):
        diagnose_corpus(seed=0, trials=trials)
