import argparse
import importlib.util
import inspect
import math
import os
import pathlib
import pickle
import pkgutil
import stat
import subprocess
import sys

import numpy as np
import pytest

import dikinwalk
from dikinwalk import cli, diagnostics, metrics, planner
from dikinwalk.cli import main, parse_gaussian, serialize_gaussian
from dikinwalk.diagnostics import DiagnosticsError, diagnose_corpus
from dikinwalk.metrics import MetricError
from dikinwalk.planner import PlannerError
from dikinwalk.polytope import (
    DikinwalkError,
    PolytopeError,
    contains,
    parse_polytope,
    serialize_polytope,
)
from dikinwalk.target import GaussianTarget, LogConcaveTarget, TargetError
from dikinwalk.walk import NonFiniteDensityError, WalkError

# the benchmark's ESS estimator (Geyer's initial monotone sequence), by path
_spec = importlib.util.spec_from_file_location(
    "bench_ess", pathlib.Path(__file__).resolve().parents[1] / "bench" / "ess.py"
)
ESS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ESS)

ORTHANT2 = "2 2\n1 0\n0 1\n0 0\n"
STD2 = "2\n0 0\n1 0\n0 1\n"
# (-1, 1)^2 with rows +-1e20 e_i: b + r_tilde |a_i| overflows for a huge r_tilde
SCALED_BOX2 = "2 4\n1e20 0\n-1e20 0\n0 1e20\n0 -1e20\n-1e20 -1e20 -1e20 -1e20\n"


@pytest.fixture
def files(tmp_path):
    poly = tmp_path / "orthant2.txt"
    poly.write_text(ORTHANT2)
    gauss = tmp_path / "std2.txt"
    gauss.write_text(STD2)
    return tmp_path, str(poly), str(gauss)


def _data_lines(path):
    return [
        ln for ln in path.read_text().splitlines()
        if ln.strip() and not ln.startswith("#")
    ]


def test_gaussian_round_trip():
    G = GaussianTarget(mu=np.array([1.0, -2.0]), Sigma=np.array([[2.0, 0.3], [0.3, 1.0]]))
    G2 = parse_gaussian(serialize_gaussian(G))
    np.testing.assert_array_equal(G.mu, G2.mu)
    np.testing.assert_array_equal(G.Sigma, G2.Sigma)


def test_gaussian_parse_errors():
    with pytest.raises(TargetError):
        parse_gaussian("")
    with pytest.raises(TargetError):
        parse_gaussian("2\n0 0\n1 0\n")  # missing covariance row
    with pytest.raises(TargetError):
        parse_gaussian("x\n0\n1\n")
    with pytest.raises(TargetError):
        parse_gaussian("-1")  # n + 2 == 1 matches the line count
    with pytest.raises(TargetError, match="finite"):
        parse_gaussian("2\n0 0\n1 0\n0 inf\n")
    with pytest.raises(TargetError, match="finite"):
        parse_gaussian("2\nnan 0\n1 0\n0 1\n")


@pytest.mark.parametrize("gaussian", ["2\n0 0\n1 0\n0 inf\n", "2\nnan 0\n1 0\n0 1\n"])
@pytest.mark.parametrize("command", ["sample", "warmstart", "oracle"])
def test_non_finite_gaussian_exits_2(files, gaussian, command):
    tmp, poly, _ = files
    gauss = tmp / "bad.txt"
    gauss.write_text(gaussian)
    argv = [command, "--polytope", poly, "--gaussian", str(gauss)]
    argv += {
        "sample": ["--lambda", "1", "--steps", "5", "--init-warmstart"],
        "warmstart": ["--r-tilde", "0.1", "--outer-radius", "10"],
        "oracle": ["--n-samples", "5"],
    }[command]
    assert main(argv) == 2


@pytest.mark.parametrize("command", ["sample", "warmstart", "budget", "oracle"])
def test_gaussian_of_another_dimension_exits_2(files, command, capsys):
    tmp, poly, _ = files
    gauss = tmp / "std3.txt"
    gauss.write_text("3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    argv = [command, "--polytope", poly, "--gaussian", str(gauss)]
    argv += {
        "sample": ["--lambda", "1", "--steps", "5", "--init-point", "1", "1"],
        "warmstart": ["--r-tilde", "0.1", "--outer-radius", "10"],
        "budget": ["--regime", "strong", "--m", "2", "--n", "2", "--kappa", "1",
                   "--warmness", "2", "--eps", "0.1", "--C", "1"],
        "oracle": ["--n-samples", "5"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dimensions differ" in err


def test_sample_row_count_and_header(files):
    tmp, poly, gauss = files
    out = tmp / "s.csv"
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss,
        "--metric", "soft", "--lambda-from-beta", "--seed", "7",
        "--steps", "1000", "--init-point", "1", "1", "--out", str(out),
    ])
    assert code == 0
    data = [ln for ln in _data_lines(out) if "," in ln]
    assert len(data) == 1000  # thin=1 contract
    assert out.read_text().startswith("# dikinwalk")


def test_sample_deterministic(files):
    tmp, poly, gauss = files
    a, b = tmp / "a.csv", tmp / "b.csv"
    args = [
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--seed", "11", "--steps", "200", "--init-point", "1", "1",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")


def test_sample_without_lambda_regularizes_with_the_precision(files, capsys):
    # STD2's Sigma^-1 is I exactly, so the default is --lambda 1, bit for bit
    _, poly, gauss = files
    argv = ["sample", "--polytope", poly, "--gaussian", gauss,
            "--seed", "1", "--steps", "200", "--init-point", "1", "1"]
    bodies = []
    for flags in ([], ["--lambda", "1"]):
        assert main([*argv, *flags]) == 0
        out = capsys.readouterr().out
        bodies.append([ln for ln in out.splitlines() if not ln.startswith("# lam")])
    assert bodies[0] == bodies[1]


def test_sample_default_regularizer_matches_oracle_at_kappa_100(tmp_path):
    # a rotated Sigma of condition number 100; no lambda flag, so G = H + Sigma^-1
    n, chains = 5, 3
    P, x0 = diagnostics.random_polytope_with_interior(n, 20, np.random.default_rng(0))
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    Sigma = Q @ np.diag(0.16 * np.logspace(0, -2, n)) @ Q.T
    gauss = GaussianTarget(mu=np.zeros(n), Sigma=0.5 * (Sigma + Sigma.T))
    (tmp_path / "p.txt").write_text(serialize_polytope(P))
    (tmp_path / "g.txt").write_text(serialize_gaussian(gauss))
    code = main([
        "sample", "--polytope", str(tmp_path / "p.txt"),
        "--gaussian", str(tmp_path / "g.txt"), "--steps", "4000", "--burn-in", "500",
        "--adapt", "--step-size", "0.5", "--no-lazy", "--chains", str(chains),
        "--seed", "1", "--init-point", *map(str, x0), "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 0
    samples = np.array([
        [[float(v) for v in ln.split(",")] for ln in _data_lines(path) if "," in ln]
        for path in (tmp_path / f"s_{i}.csv" for i in range(chains))
    ])
    oracle = diagnostics.rejection_oracle(gauss, P, 50_000, np.random.default_rng(1))
    pooled = samples.reshape(-1, n)
    ess = np.array([ESS.ess_chains(samples[:, :, j]) for j in range(n)])
    se = np.sqrt(pooled.var(axis=0) / ess + oracle.samples.var(axis=0) / 50_000)
    z = np.abs(pooled.mean(axis=0) - oracle.samples.mean(axis=0)) / se
    assert z.max() <= 5.0, z


def test_sample_infeasible_start(files):
    _, poly, gauss = files
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "10", "--init-point", "-1", "1",
    ])
    assert code == 3


def test_sample_bad_file(tmp_path, files):
    _, _, gauss = files
    bad = tmp_path / "bad.txt"
    bad.write_text("not a polytope\n")
    code = main([
        "sample", "--polytope", str(bad), "--gaussian", gauss, "--lambda", "1",
        "--steps", "10", "--init-point", "1", "1",
    ])
    assert code == 2


def test_sample_no_partial_output_on_error(files):
    tmp, poly, gauss = files
    out = tmp / "never.csv"
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "10", "--init-point", "-5", "-5", "--out", str(out),
    ])
    assert code == 3
    assert not out.exists()


def _finite_only_at(x0):
    def f(x):
        return 0.0 if np.array_equal(x, x0) else math.inf

    return lambda gauss: LogConcaveTarget(f=f, alpha=0.0, beta=1.0)


def test_non_interior_start_of_every_chain_exits_3(files, monkeypatch, capsys):
    # run refuses the start in each chain, before any output exists
    tmp, poly, gauss = files
    monkeypatch.chdir(tmp)
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "10", "--chains", "2", "--init-point", "-1", "1",
        "--out", "s.csv",
    ])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: initial point is not interior to the polytope\n"
    )
    assert not list(tmp.glob("s_*.csv")) and not list(tmp.glob(".dikinwalk-*"))
    _no_child_left()


def test_adapt_without_burn_in_exits_0(files, capsys):
    # --adapt tunes r during burn-in only, so here it changes nothing
    _, poly, gauss = files
    argv = [
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda-from-beta",
        "--steps", "20", "--burn-in", "0", "--init-point", "1", "1",
    ]
    rows = []
    for flags in (["--adapt"], []):
        assert main([*argv, *flags]) == 0
        out = capsys.readouterr().out
        rows.append([ln for ln in out.splitlines() if not ln.startswith("#")])
    assert rows[0] == rows[1]


def test_sample_nonfinite_density_exit_codes(files, monkeypatch):
    tmp, poly, gauss = files
    out = tmp / "never.csv"
    argv = [
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "10", "--no-lazy", "--init-point", "1", "1",
        "--out", str(out),
    ]
    # finite at the start, infinite at every proposal: numeric failure
    monkeypatch.setattr(cli, "quadratic_target", _finite_only_at([1.0, 1.0]))
    assert main(argv) == 4
    # infinite already at the start: infeasible initial point
    monkeypatch.setattr(cli, "quadratic_target", _finite_only_at([2.0, 2.0]))
    assert main(argv) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--thin", "0"], ["--step-size", "-1"], ["--steps", "-1"], ["--chains", "0"],
     ["--seed", "-1"], ["--step-size", "inf"],
     # r^2 underflows to 0, and the MH ratio divides by it
     ["--step-size", "1e-320"],
     # n / (2 r^2) overflows, and inf * 0 is NaN
     ["--step-size", "1e-160"]],
)
def test_sample_bad_walk_config_exits_2(files, flags):
    tmp, poly, gauss = files
    out = tmp / "never.csv"
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "10", "--init-point", "1", "1", "--out", str(out), *flags,
    ])
    assert code == 2
    assert not out.exists()


def test_sample_at_a_tiny_step_size_accepts(files, capsys):
    # n / (2 r^2) is finite at r = 1e-140: proposals equal to x are accepted
    _, poly, gauss = files
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "200", "--init-point", "1", "1", "--step-size", "1e-140",
    ])
    assert code == 0
    stats = capsys.readouterr().out
    assert " rejected_mh=0" in stats
    assert " accepted=0" not in stats


@pytest.mark.parametrize(
    "flags",
    [["--lambda", "-1"], ["--lambda", "1", "--metric", "lewis", "--q", "3"],
     ["--lambda", "1", "--metric", "lewis", "--c1", "0"],
     ["--lambda", "inf"],
     ["--lambda", "1", "--metric", "lewis", "--c1", "inf"]],
)
def test_sample_bad_metric_flags_exit_2(files, flags):
    tmp, poly, gauss = files
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss,
        "--steps", "10", "--init-point", "1", "1", *flags,
    ])
    assert code == 2


@pytest.mark.parametrize("metric", ["soft", "lewis"])
def test_sample_overflowing_metric_exits_4(tmp_path, metric, capsys, recwarn):
    # in (0, 1) at x = 1e-300 the metric overflows: a numeric failure, not a
    # traceback, not a chain stuck at its start, and no numpy warning
    poly = tmp_path / "unit.txt"
    poly.write_text("1 2\n1\n-1\n0 -1\n")
    gauss = tmp_path / "g.txt"
    gauss.write_text("1\n0.5\n1\n")
    out = tmp_path / "never.csv"
    code = main([
        "sample", "--polytope", str(poly), "--gaussian", str(gauss),
        "--lambda", "1", "--metric", metric, "--steps", "5",
        "--init-point", "1e-300", "--out", str(out),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err
    assert err.count("\n") == 1
    assert not recwarn.list
    assert not out.exists()


def test_sample_lewis_on_a_nearly_singular_square_system(tmp_path):
    # cond(A_x) ~ 2.5e14 at the start, past the Gram's Cholesky; A_x has full
    # rank, so its Lewis weights are 1 and the walk runs as the soft one does
    polytope = "2 2\n1 -0.5\n-1 0.50000000000001\n-1 -1\n"
    poly = tmp_path / "wedge.txt"
    poly.write_text(polytope)
    gauss = tmp_path / "g.txt"
    gauss.write_text("2\n0 0\n1 0\n0 1\n")
    out = tmp_path / "s.csv"
    code = main([
        "sample", "--polytope", str(poly), "--gaussian", str(gauss), "--metric",
        "lewis", "--lambda", "1", "--steps", "50", "--init-point", "0", "0",
        "--out", str(out),
    ])
    assert code == 0
    P = parse_polytope(polytope)
    rows = _data_lines(out)
    assert len(rows) == 50
    assert all(contains(P, np.array(ln.split(","), dtype=float)) for ln in rows)


def test_sample_lewis_with_near_parallel_rows(tmp_path):
    # three rows parallel to ~1e-6: A_x is numerically rank 1 at every point,
    # so the Lewis weights come from one column, where the soft metric needs none
    polytope = (
        "2 3\n240.77047178941964 -192.08338142364204\n"
        "77278.681687259537 -61651.87275719121\n"
        "492.75734767910387 -393.1150563549316\n"
        "-0.67687848241418258 -0.27709951756571793 -2.3037559381187451\n"
    )
    poly = tmp_path / "parallel.txt"
    poly.write_text(polytope)
    gauss = tmp_path / "g.txt"
    gauss.write_text("2\n0 0\n1 0\n0 1\n")
    out = tmp_path / "s.csv"
    code = main([
        "sample", "--polytope", str(poly), "--gaussian", str(gauss), "--metric",
        "lewis", "--lambda", "1", "--steps", "2000", "--init-point", "0", "0",
        "--out", str(out),
    ])
    assert code == 0
    P = parse_polytope(polytope)
    rows = _data_lines(out)
    assert len(rows) == 2000
    assert all(contains(P, np.array(ln.split(","), dtype=float)) for ln in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--polytope", "{P}", "--gaussian", "{G}", "--n-samples", "5",
         "--seed", "-1"],
        ["diagnose", "--seed", "-1"],
        ["diagnose", "--trials", "0"],
        ["diagnose", "--trials", "-5"],
        ["warmstart", "--polytope", "{B}", "--gaussian", "{G}", "--r-tilde", "0.5",
         "--outer-radius", "0"],
        ["warmstart", "--polytope", "{B}", "--gaussian", "{G}", "--r-tilde", "0.5",
         "--outer-radius", "-1"],
        *(["budget", "--regime", "weak", "--m", "4", "--n", "2", "--beta-eta", "1",
           "--warmness", "2", "--eps", "0.1", "--C", "1", *flags]
          for flags in (["--kappa", "nan"], ["--C", "inf"], ["--beta-eta", "nan"])),
        ["budget", "--regime", "strong", "--m", "4", "--n", "2", "--kappa", "inf",
         "--warmness", "2", "--eps", "0.1", "--C", "1"],
        ["warmstart", "--polytope", "{B}", "--gaussian", "{G}", "--r-tilde", "inf"],
        ["sample", "--polytope", "{B}", "--gaussian", "{G}", "--lambda", "1",
         "--steps", "10", "--init-warmstart", "--r-tilde", "inf"],
        *(["warmstart", "--polytope", "{B}", "--gaussian", "{G}", "--r-tilde", "0.5",
           "--x1", *x1] for x1 in (["0", "0", "0"], ["0"], ["nan", "0"], ["0", "inf"])),
        # an overflowing budget, and kappa < 1 or beta_eta <= 0
        *(["budget", "--regime", "strong", "--m", "4", "--n", "2", "--warmness", "7",
           "--eps", "0.1", *flags]
          for flags in (["--kappa", "1", "--C", "1e308"],
                        ["--kappa", "-100", "--C", "1"],
                        ["--kappa", "0.5", "--C", "1"])),
        ["budget", "--regime", "weak", "--m", "4", "--n", "2", "--warmness", "7",
         "--eps", "0.1", "--C", "1", "--beta-eta", "-50"],
        # T is finite, but T_plain = C (m + kappa) n log(2M / eps) overflows
        ["budget", "--regime", "strong", "--m", "4", "--n", "2", "--kappa", "1",
         "--warmness", "1", "--eps", "0.1", "--C", "6.5e306",
         "--polytope", "{B}", "--gaussian", "{G}"],
        # the warm-start bound squares the outer radius
        ["warmstart", "--polytope", "{P}", "--gaussian", "{G}", "--r-tilde", "0.1",
         "--outer-radius", "1e200"],
        # ... and the square underflows to 0
        ["warmstart", "--polytope", "{P}", "--gaussian", "{G}", "--r-tilde", "0.1",
         "--outer-radius", "1e-320"],
        # the Lewis metric on m < n constraints: m = 0, and m = 1 with either start
        *(["sample", "--polytope", poly, "--gaussian", "{G}", "--lambda", "1",
           "--metric", "lewis", "--steps", "10", *start]
          for poly, start in (("{R}", ["--init-point", "1", "1"]),
                              ("{H}", ["--init-point", "1", "1"]),
                              ("{H}", ["--init-warmstart"]))),
        # sample's flag pairs; the second of each used to drop the first
        ["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "5",
         "--lambda-from-beta", "--steps", "10", "--init-point", "1", "1"],
        ["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
         "--steps", "10", "--init-point", "1", "1", "--init-warmstart"],
        # an initial point of the wrong dimension, and no initial point
        *(["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
           "--steps", "10", *start] for start in (["--init-point", "1", "1", "1"], [])),
        # a polytope file that cannot be read
        ["sample", "--polytope", "{X}", "--gaussian", "{G}", "--lambda", "1",
         "--steps", "10", "--init-point", "1", "1"],
        # the soft metric has no Lewis knobs; these used to be ignored
        ["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
         "--steps", "10", "--init-point", "1", "1", "--c1", "1e300", "--q", "3"],
        *(["budget", "--regime", "strong", "--m", "4", "--n", "2", "--kappa", "1",
           "--warmness", "7", "--eps", "0.1", "--C", "1", *flags]
          for flags in (
              # the two files select the beyond-worst-case budget together
              ["--polytope", "{X}", "--gaussian", "{X}"],
              ["--polytope", "{B}"],
              ["--gaussian", "{G}"],
              # the beyond-worst-case budget is the strong-regime soft walk's
              # on the polytope's own m and n; these used to print one anyway
              ["--polytope", "{B}", "--gaussian", "{G}", "--metric", "lewis"],
              ["--polytope", "{B}", "--gaussian", "{G}", "--regime", "weak",
               "--beta-eta", "1"],
              ["--polytope", "{B}", "--gaussian", "{G}", "--m", "100", "--n", "7"],
              ["--polytope", "{B}", "--gaussian", "{G}", "--m", "5"],
          )),
    ],
)
def test_bad_flag_values_exit_2(files, argv):
    tmp, poly, gauss = files
    box = tmp / "box.txt"  # (-1, 1)^2, so the constrained mode 0 is interior
    box.write_text("2 4\n1 0\n-1 0\n0 1\n0 -1\n-1 -1 -1 -1\n")
    plane = tmp / "plane.txt"  # R^2, m = 0
    plane.write_text("2 0\n")
    half = tmp / "half.txt"  # x[0] > 0, m = 1
    half.write_text("2 1\n1 0\n0\n")
    out = tmp / "never.txt"
    missing = tmp / "missing.txt"
    names = dict(P=poly, B=box, G=gauss, R=plane, H=half, X=missing)
    argv = [a.format(**names) for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


# argv that succeeds as it stands; the sweep appends one numeric flag to it
SWEEP_BASES = {
    "sample-soft": ["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
                    "--steps", "5", "--init-point", "1", "1"],
    "sample-lewis": ["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
                     "--metric", "lewis", "--steps", "5", "--init-warmstart"],
    "warmstart": ["warmstart", "--polytope", "{P}", "--gaussian", "{G}",
                  "--r-tilde", "0.1"],
    "budget-strong": ["budget", "--regime", "strong", "--m", "2", "--n", "2",
                      "--kappa", "1", "--warmness", "2", "--eps", "0.1", "--C", "1",
                      "--metric", "soft",
                      "--polytope", "{P}", "--gaussian", "{G}"],
    "budget-lewis": ["budget", "--regime", "strong", "--m", "2", "--n", "2",
                     "--kappa", "1", "--warmness", "2", "--eps", "0.1", "--C", "1",
                     "--metric", "lewis"],
    "budget-weak": ["budget", "--regime", "weak", "--m", "2", "--n", "2",
                    "--beta-eta", "1", "--warmness", "2", "--eps", "0.1", "--C", "1"],
    "oracle": ["oracle", "--polytope", "{P}", "--gaussian", "{G}", "--n-samples", "5"],
    "diagnose": ["diagnose", "--trials", "20"],
    "warmstart-scaled": ["warmstart", "--polytope", "{S}", "--gaussian", "{G}",
                         "--r-tilde", "0.1"],
    "sample-scaled": ["sample", "--polytope", "{S}", "--gaussian", "{G}", "--lambda", "1",
                      "--steps", "5", "--init-warmstart"],
}
SWEEP_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "1e-10", "3")
# numeric flags since deleted: (log m)^c2 is a factor of --c1 and of --C,
# psi_n^2 one of --C, and the Lewis solve's tolerance is metrics.TOL
REMOVED_NUMERIC_FLAGS = {
    "sample": ("--c2", "--lewis-tol"), "budget": ("--c2", "--psi-n-sq"),
}


def _sweep_cases():
    """Each base argv with each of its int or float options set to each value
    that the option's type parses (argparse rejects the others itself), and
    with each deleted numeric flag of its command set to each value."""
    parser = cli.build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for base, argv in SWEEP_BASES.items():
        for action in commands[argv[0]]._actions:
            if action.type not in (int, float):
                continue
            flag = action.option_strings[0]
            for value in SWEEP_VALUES:
                try:
                    action.type(value)
                except ValueError:
                    continue
                if action.nargs != "+":
                    tokens = [f"{flag}={value}"]  # "-inf" alone would read as a flag
                elif value != "-inf":
                    tokens = [flag, value, value]  # n = 2
                else:
                    continue
                head = argv
                if flag == "--init-point":
                    # the pair with --init-warmstart would exit 2 before run
                    head = [a for a in argv if a != "--init-warmstart"]
                yield pytest.param([*head, *tokens], None, id=f"{base}{flag}={value}")
        for flag in REMOVED_NUMERIC_FLAGS.get(argv[0], ()):
            for value in SWEEP_VALUES:
                yield pytest.param([*argv, f"{flag}={value}"], flag,
                                   id=f"{base}{flag}={value}")


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    (tmp / "orthant2.txt").write_text(ORTHANT2)
    (tmp / "std2.txt").write_text(STD2)
    (tmp / "scaled.txt").write_text(SCALED_BOX2)
    return str(tmp / "orthant2.txt"), str(tmp / "std2.txt"), str(tmp / "scaled.txt")


@pytest.mark.parametrize("argv, removed", _sweep_cases())
def test_numeric_flag_values_exit_with_a_documented_code(
    sweep_files, argv, removed, capsys
):
    # no traceback, whatever the value: an exit code of the documented ones
    # and at most one line on stderr; a deleted flag is argparse's usage error
    poly, gauss, scaled = sweep_files
    argv = [a.format(P=poly, G=gauss, S=scaled) for a in argv]
    if removed:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {removed}=" in capsys.readouterr().err
        return
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    _no_child_left()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
         "--steps", "10", "--init-point", "1", "1", "--out", "{out}"],
        ["warmstart", "--polytope", "{P}", "--gaussian", "{G}", "--x1", "1", "1",
         "--r-tilde", "0.5", "--outer-radius", "10", "--out", "{out}"],
        ["budget", "--regime", "strong", "--m", "4", "--n", "2", "--kappa", "1",
         "--warmness", "2", "--eps", "0.1", "--C", "1", "--out", "{out}"],
        ["oracle", "--polytope", "{P}", "--gaussian", "{G}", "--n-samples", "5",
         "--out", "{out}"],
        ["diagnose", "--trials", "20", "--out", "{out}"],
    ],
)
def test_unwritable_out_exits_2(files, argv, capsys):
    tmp, poly, gauss = files
    out = str(tmp / "missing" / "x.csv")
    assert main([a.format(P=poly, G=gauss, out=out) for a in argv]) == 2
    assert "cannot write" in capsys.readouterr().err


SAMPLE_2_CHAINS = [
    "sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
    "--steps", "5", "--chains", "2", "--init-point", "1", "1",
]


@pytest.mark.parametrize(
    "argv, directory, kept",
    [
        ([*SAMPLE_2_CHAINS, "--out", "missing/s.csv"], None, "missing/s_0.csv"),
        # renaming onto a directory fails; no other file may be renamed first
        ([*SAMPLE_2_CHAINS, "--out", "s.csv"], "s_1.csv", "s_0.csv"),
    ],
    ids=["sample", "sample-onto-directory"],
)
def test_multi_file_output_all_or_nothing(files, monkeypatch, argv, directory, kept):
    tmp, poly, gauss = files
    monkeypatch.chdir(tmp)
    if directory is not None:
        (tmp / directory).mkdir()
    assert main([a.format(P=poly, G=gauss) for a in argv]) == 2
    assert not (tmp / kept).exists()
    assert not list(tmp.glob(".dikinwalk-*"))


def test_negative_flag_values_in_exponent_form(tmp_path, capsys):
    # argparse took "-5e-08" for an option, so --init-point and --x1 could
    # not take coordinates written as warmstart writes them
    poly, gauss = tmp_path / "box.txt", tmp_path / "g.txt"
    poly.write_text(SCALED_BOX2)
    gauss.write_text(STD2)
    files = ["--polytope", str(poly), "--gaussian", str(gauss)]
    assert main(["sample", *files, "--steps", "5", "--init-point", "-5e-08", "0.5"]) == 0
    assert main(["warmstart", *files, "--x1", "-5e-08", "-.5", "--r-tilde", "0.1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["sample", "diagnose"])
def test_out_naming_a_fifo_exits_2(files, monkeypatch, capsys, command):
    # os.replace would swap the FIFO for a regular file; it is never opened
    tmp, poly, gauss = files
    monkeypatch.chdir(tmp)
    if command == "sample":
        fifo, argv = "s_1.csv", [a.format(P=poly, G=gauss) for a in SAMPLE_2_CHAINS]
        argv += ["--out", "s.csv"]
    else:
        fifo, argv = "d.txt", ["diagnose", "--trials", "20", "--out", "d.txt"]
    os.mkfifo(fifo)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {fifo}: not a regular file\n"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp)) == sorted([fifo, "orthant2.txt", "std2.txt"])


def test_sample_chain_files_all_or_nothing(files, monkeypatch):
    # a write failing on the second chain's file leaves the first unwritten
    tmp, poly, gauss = files
    calls = []
    mkstemp = cli.tempfile.mkstemp

    def mkstemp_then_disk_full(*args, **kwargs):
        fd, tmp_path = mkstemp(*args, **kwargs)
        calls.append(tmp_path)
        if len(calls) == 2:  # the second chain's staged file is on a full disk
            full = os.open("/dev/full", os.O_WRONLY)
            os.dup2(full, fd)
            os.close(full)
        return fd, tmp_path

    monkeypatch.setattr(cli.tempfile, "mkstemp", mkstemp_then_disk_full)
    monkeypatch.chdir(tmp)
    argv = [a.format(P=poly, G=gauss) for a in SAMPLE_2_CHAINS]
    assert main([*argv, "--out", "s.csv"]) == 2
    assert len(calls) == 2
    assert not list(tmp.glob("s_*.csv")) and not list(tmp.glob(".dikinwalk-*"))


def test_sample_multichain(files):
    tmp, poly, gauss = files
    out = tmp / "c.csv"
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--seed", "5", "--steps", "50", "--chains", "3",
        "--init-point", "1", "1", "--out", str(out),
    ])
    assert code == 0
    parts = [tmp / f"c_{i}.csv" for i in range(3)]
    assert all(p.exists() for p in parts)
    # chain 0 must equal a single-chain run with the same seed
    single = tmp / "single.csv"
    main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--seed", "5", "--steps", "50", "--init-point", "1", "1",
        "--out", str(single),
    ])
    strip = lambda p: [ln for ln in _data_lines(p) if "," in ln]  # noqa: E731
    assert strip(parts[0]) == strip(single)
    assert strip(parts[1]) != strip(single)
    # chain i equals a single-chain run with seed 5 + i, stats block included
    for i, part in enumerate(parts):
        main([
            "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
            "--seed", str(5 + i), "--steps", "50", "--init-point", "1", "1",
            "--out", str(single),
        ])
        assert _after_manifest(part) == _after_manifest(single)


def _after_manifest(path):
    lines = path.read_text().splitlines()
    start = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    return lines[start:]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _finite_left_of(t):
    def factory(gauss):
        def f(x):
            return 0.5 * float(x @ x) if x[0] < t else math.inf

        return LogConcaveTarget(f=f, alpha=1.0, beta=1.0)

    return factory


def _lewis_converges_left_of(t):
    # on the box (-1, 1)^2 row 0 of A_x is (1 / (x[0] + 1), 0), so x[0] is
    # read off it; the error names x[0] as its residual
    lewis_weights = metrics.lewis_weights

    def patched(Ax, *args, **kwargs):
        x0 = 1.0 / Ax[0, 0] - 1.0
        if x0 >= t:
            raise MetricError(
                f"Lewis weights did not converge: residual {x0:.3e} after 1000 iterations"
            )
        return lewis_weights(Ax, *args, **kwargs)

    return patched


@pytest.mark.parametrize(
    "seed, flags, kind",
    [
        # f is infinite at x[0] >= 1.3: chain 0 never proposes there, chains 1
        # and 2 do, at different points
        (17, [], "f"),
        # the Lewis solve fails at x[0] >= 0.7: chain 0 never proposes there,
        # chains 1 and 2 do, at different points
        (31, ["--metric", "lewis"], "lewis"),
    ],
    ids=["non-finite-f", "lewis-convergence"],
)
def test_failing_chain_matches_serial(tmp_path, monkeypatch, capsys, seed, flags, kind):
    box = tmp_path / "box.txt"
    box.write_text("2 4\n1 0\n-1 0\n0 1\n0 -1\n-1 -1 -1 -1\n")
    orthant = tmp_path / "orthant2.txt"
    orthant.write_text(ORTHANT2)
    gauss = tmp_path / "std2.txt"
    gauss.write_text(STD2)
    if kind == "f":
        monkeypatch.setattr(cli, "quadratic_target", _finite_left_of(1.3))
        poly, x0 = orthant, ["1", "1"]
    else:
        monkeypatch.setattr(metrics, "lewis_weights", _lewis_converges_left_of(0.7))
        poly, x0 = box, ["0.5", "0.5"]
    monkeypatch.chdir(tmp_path)
    argv = [
        "sample", "--polytope", str(poly), "--gaussian", str(gauss), "--lambda", "1",
        "--steps", "10", "--no-lazy", "--step-size", "0.3", "--init-point", *x0, *flags,
    ]
    serial = []
    for i in range(3):
        code = main([*argv, "--seed", str(seed + i)])
        serial.append((code, capsys.readouterr().err))
    # chain 0 succeeds; chains 1 and 2 fail, each in its own way
    assert serial[0][0] == 0 and serial[1][0] == serial[2][0] == 4
    assert serial[1][1] != serial[2][1]
    if kind == "lewis":
        assert "did not converge" in serial[1][1]
    code = main([*argv, "--seed", str(seed), "--chains", "3", "--out", "s.csv"])
    assert (code, capsys.readouterr().err) == serial[1]
    assert not list(tmp_path.glob("s_*.csv"))
    assert not list(tmp_path.glob(".dikinwalk-*"))
    _no_child_left()


def test_interrupt_reaps_chain_processes(files, monkeypatch):
    # an interrupt in this process while the other chains run kills and reaps them
    tmp, poly, gauss = files
    me = os.getpid()

    def run_interrupted_here(*args, **kwargs):
        if os.getpid() == me:
            raise KeyboardInterrupt
        return run(*args, **kwargs)

    run = cli.run
    monkeypatch.setattr(cli, "run", run_interrupted_here)
    monkeypatch.chdir(tmp)
    argv = [a.format(P=poly, G=gauss) for a in SAMPLE_2_CHAINS]
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--steps", "100000", "--out", "s.csv"])
    _no_child_left()
    assert not list(tmp.glob("s_*.csv")) and not list(tmp.glob(".dikinwalk-*"))


def test_chain_process_crash_is_reported(files, monkeypatch):
    # an unexpected error in another process comes back with its traceback
    tmp, poly, gauss = files
    me = os.getpid()

    def run_failing_elsewhere(*args, **kwargs):
        if os.getpid() != me:
            raise ZeroDivisionError("in a chain process")
        return run(*args, **kwargs)

    run = cli.run
    monkeypatch.setattr(cli, "run", run_failing_elsewhere)
    monkeypatch.setattr(cli, "_chain_processes", lambda chains: min(chains, 2))
    monkeypatch.chdir(tmp)
    argv = [a.format(P=poly, G=gauss) for a in SAMPLE_2_CHAINS]
    with pytest.raises(RuntimeError, match="ZeroDivisionError: in a chain process"):
        main([*argv, "--out", "s.csv"])
    _no_child_left()
    assert not list(tmp.glob("s_*.csv")) and not list(tmp.glob(".dikinwalk-*"))


def test_chain_processes_at_most_one_per_cpu(files, monkeypatch):
    tmp, poly, gauss = files
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.chdir(tmp)
    argv = [a.format(P=poly, G=gauss) for a in SAMPLE_2_CHAINS]
    assert main([*argv, "--chains", "5", "--out", "s.csv"]) == 0
    assert len(forks) <= len(os.sched_getaffinity(0)) - 1
    assert len(list(tmp.glob("s_*.csv"))) == 5
    _no_child_left()


def test_failed_fork_leaves_its_chains_here(files, monkeypatch):
    tmp, poly, gauss = files

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.chdir(tmp)
    argv = [*[a.format(P=poly, G=gauss) for a in SAMPLE_2_CHAINS], "--chains", "3"]
    assert main([*argv, "--out", "a.csv"]) == 0
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "_chain_processes", lambda chains: min(chains, 2))
    assert main([*argv, "--out", "b.csv"]) == 0
    for i in range(3):
        a, b = tmp / f"a_{i}.csv", tmp / f"b_{i}.csv"
        assert _after_manifest(a) == _after_manifest(b)


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # at (100, 1000) OpenBLAS sums the Gram matrix in another order with 2 threads
    from dikinwalk.diagnostics import random_polytope_with_interior
    from dikinwalk.polytope import serialize_polytope

    P, _ = random_polytope_with_interior(100, 1000, np.random.default_rng(0))
    poly = tmp_path / "P.txt"
    poly.write_text(serialize_polytope(P))
    gauss = tmp_path / "G.txt"
    gauss.write_text(serialize_gaussian(GaussianTarget(mu=np.zeros(100),
                                                       Sigma=0.05**2 * np.eye(100))))
    argv = [
        sys.executable, "-m", "dikinwalk.cli", "sample", "--polytope", str(poly),
        "--gaussian", str(gauss), "--lambda-from-beta", "--step-size", "0.5",
        "--steps", "50", "--seed", "3", "--init-point", *["0"] * 100,
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_warmstart_block(files, capsys):
    _, poly, gauss = files
    code = main([
        "warmstart", "--polytope", poly, "--gaussian", gauss,
        "--x1", "1", "1", "--r-tilde", "0.5", "--outer-radius", "10",
    ])
    assert code == 0
    out = capsys.readouterr().out
    kv = dict(
        ln.split("=", 1) for ln in out.splitlines()
        if "=" in ln and not ln.startswith("#")
    )
    assert {"x0", "r0", "r1", "logM"} <= set(kv)
    assert float(kv["r0"]) > 0


def test_warm_start_from_boundary_mode(files, capsys):
    # the standard normal's constrained mode is the orthant's corner, where
    # B(x_dag, r_tilde) leaves the polytope; the ball is built around (0.1, 0.1)
    tmp, poly, gauss = files
    ball_flags = ["--r-tilde", "0.1"]
    code = main(["warmstart", "--polytope", poly, "--gaussian", gauss, *ball_flags,
                 "--outer-radius", "10"])
    assert code == 0
    kv = dict(
        ln.split("=", 1) for ln in capsys.readouterr().out.splitlines()
        if "=" in ln and not ln.startswith("#")
    )
    x0 = np.array(kv["x0"].split(), dtype=float)
    assert float(kv["r0"]) > 0 and np.min(x0) >= float(kv["r0"]) - 1e-9
    out = tmp / "w.csv"
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "20", "--init-warmstart", *ball_flags, "--out", str(out),
    ])
    assert code == 0
    rows = [ln for ln in _data_lines(out) if "," in ln]
    assert len(rows) == 20
    assert all(float(v) > 0 for ln in rows for v in ln.split(","))


@pytest.mark.parametrize("command", ["warmstart", "sample"])
def test_warm_start_without_room_names_r_tilde(tmp_path, command, capsys):
    # no point of [0, 0.1]^2 is 0.1 away from every side
    poly = tmp_path / "box.txt"
    poly.write_text("2 4\n1 0\n0 1\n-1 0\n0 -1\n0 0 -0.1 -0.1\n")
    gauss = tmp_path / "std2.txt"
    gauss.write_text(STD2)
    argv = [command, "--polytope", str(poly), "--gaussian", str(gauss), "--r-tilde", "0.1"]
    if command == "sample":
        argv += ["--lambda", "1", "--steps", "5", "--init-warmstart"]
    else:
        argv += ["--outer-radius", "1"]
    assert main(argv) == 4
    assert "--r-tilde" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["warmstart", "sample"])
def test_warm_start_on_an_overflowing_system_exits_4(files, command, capsys):
    # the least-distance system is not finite; nnls once raised a ValueError
    # whose traceback ended the run with exit 1
    tmp, _, gauss = files
    poly = tmp / "scaled.txt"
    poly.write_text(SCALED_BOX2)
    out = tmp / "never.txt"
    argv = [command, "--polytope", str(poly), "--gaussian", gauss,
            "--r-tilde", "1e300", "--out", str(out)]
    if command == "sample":
        argv += ["--steps", "5", "--init-warmstart"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: found no ball") and err.count("\n") == 1, err
    assert not out.exists()


def test_warm_start_below_the_old_absolute_slack(files, capsys):
    # r_tilde = 1e-10 is below the margin slack of 1e-9 that the warm start once
    # allowed, so the orthant's corner was taken as the center and the ball
    # collapsed; the center is now 1e-10 inside, and the ball, in the cone
    # from the corner, has r0 = r1 / (sqrt(2) + 1) whatever r_tilde
    _, poly, gauss = files
    code = main([
        "warmstart", "--polytope", poly, "--gaussian", gauss,
        "--r-tilde", "1e-10", "--outer-radius", "10",
    ])
    assert code == 0
    kv = dict(
        ln.split("=", 1) for ln in capsys.readouterr().out.splitlines()
        if "=" in ln and not ln.startswith("#")
    )
    assert float(kv["r1"]) == 1.0
    assert float(kv["r0"]) == pytest.approx(math.sqrt(2) - 1)


def test_sample_from_a_subnormal_r_tilde_exits_4(files, capsys):
    # the corner was once taken as the center of a ball of radius 1e-320, and
    # the chain failed to start (exit 3) from a point on the boundary
    tmp, poly, gauss = files
    out = tmp / "never.csv"
    code = main([
        "sample", "--polytope", poly, "--gaussian", gauss, "--lambda", "1",
        "--steps", "5", "--init-warmstart", "--r-tilde", "1e-320", "--out", str(out),
    ])
    assert code == 4
    assert "found no ball of radius r_tilde" in capsys.readouterr().err
    assert not out.exists()


def test_warm_start_bound_of_a_subnormal_r_tilde_exits_4(files, capsys):
    # 3 R / r_tilde overflows, so logM was written as inf with exit 0
    tmp, poly, gauss = files
    out = tmp / "never.txt"
    code = main([
        "warmstart", "--polytope", poly, "--gaussian", gauss, "--x1", "1", "1",
        "--r-tilde", "1e-320", "--outer-radius", "10", "--out", str(out),
    ])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: warmness bound logM is out of range")
    assert not out.exists()


@pytest.mark.parametrize("command", ["warmstart", "sample"])
def test_warm_ball_at_the_mode_of_a_subnormal_r_tilde_exits_4(
    files, monkeypatch, command, capsys
):
    # at x1 = x_dag, x0 = x_dag + (r1 / r_tilde) * 0 would be NaN; the ball is
    # refused before it is built, with or without a warmness bound after it
    tmp, _, gauss = files
    box = tmp / "box.txt"  # (-1, 1)^2, so the constrained mode 0 is interior
    box.write_text("2 4\n1 0\n-1 0\n0 1\n0 -1\n-1 -1 -1 -1\n")
    monkeypatch.setattr(planner, "WarmStartBall", None)
    out = tmp / "never.txt"
    argv = [command, "--polytope", str(box), "--gaussian", gauss, "--r-tilde", "1e-320"]
    if command == "sample":
        argv += ["--lambda", "1", "--steps", "5", "--init-warmstart"]
    else:
        argv += ["--x1", "0", "0"]
    assert main([*argv, "--out", str(out)]) == 4
    assert "warm-start ball is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "polytope, gaussian",
    [("2 2\n1 0\n0 1\n0 0\n", "2\n1 1\n1 0\n0 1\n"),  # the orthant
     ("2 1\n1 1\n0\n", STD2),  # a half-plane; the mode is on its boundary
     ("3 2\n1 0 0\n0 1 0\n0 0\n", "3\n1 1 0\n1 0 0\n0 1 0\n0 0 1\n")],  # m < n
    ids=["orthant", "half-plane", "m-below-n"],
)
def test_sample_warm_start_needs_no_outer_radius(
    tmp_path, monkeypatch, polytope, gaussian
):
    # only warmstart's warmness bound reads an outer radius; sample never
    # estimates one, so it starts on polytopes that are unbounded along an axis
    def unreachable(*args, **kwargs):
        raise AssertionError("sample computed a warmness bound")

    monkeypatch.setattr(planner, "_estimate_outer_radius", unreachable)
    monkeypatch.setattr(planner, "warmness_bound", unreachable)
    monkeypatch.setattr(cli, "warmness_bound", unreachable)
    poly, gauss, out = tmp_path / "p.txt", tmp_path / "g.txt", tmp_path / "s.csv"
    poly.write_text(polytope)
    gauss.write_text(gaussian)
    code = main([
        "sample", "--polytope", str(poly), "--gaussian", str(gauss), "--lambda", "1",
        "--steps", "50", "--init-warmstart", "--out", str(out),
    ])
    assert code == 0
    P = parse_polytope(polytope)
    rows = [ln for ln in _data_lines(out) if "," in ln]
    assert len(rows) == 50
    assert all(contains(P, np.array(ln.split(","), dtype=float)) for ln in rows)


@pytest.mark.parametrize(
    "argv, flag",
    [(["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
       "--steps", "5", "--init-warmstart", "--outer-radius", "10"], "--outer-radius"),
     (["budget", "--regime", "strong", "--m", "4", "--n", "2", "--kappa", "1",
       "--warmness", "2", "--eps", "0.1", "--C", "1", "--metric", "lewis",
       "--c1", "5"], "--c1"),
     # the paper's (log m)^c2 is a factor of --c1 and of --C, psi_n^2 one of
     # --C, and the Lewis solve's tolerance is metrics.TOL
     (["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
       "--metric", "lewis", "--steps", "5", "--init-point", "1", "1",
       "--c2", "1.5"], "--c2"),
     (["sample", "--polytope", "{P}", "--gaussian", "{G}", "--lambda", "1",
       "--metric", "lewis", "--steps", "5", "--init-point", "1", "1",
       "--lewis-tol", "1e-6"], "--lewis-tol"),
     *((["budget", "--regime", "weak", "--m", "4", "--n", "2", "--beta-eta", "1",
         "--warmness", "2", "--eps", "0.1", "--C", "1", "--metric", "lewis",
         flag, "1.5"], flag) for flag in ("--c2", "--psi-n-sq")),
     # --polytope and --gaussian select the beyond-worst-case budget
     (["budget", "--regime", "strong", "--m", "2", "--n", "2", "--kappa", "1",
       "--warmness", "2", "--eps", "0.1", "--C", "1", "--polytope", "{P}",
       "--gaussian", "{G}", "--beyond-worst-case"], "--beyond-worst-case")],
    ids=["sample-outer-radius", "budget-c1", "sample-c2", "sample-lewis-tol",
         "budget-c2", "budget-psi-n-sq", "budget-beyond-worst-case"],
)
def test_removed_flags_are_unknown(files, argv, flag, capsys):
    _, poly, gauss = files
    with pytest.raises(SystemExit) as exc:
        main([a.format(P=poly, G=gauss) for a in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_removed_precondition_command_is_an_invalid_choice(files, capsys):
    # `sample` regularizes with Sigma^-1 in place of whitening by hand
    _, poly, gauss = files
    with pytest.raises(SystemExit) as exc:
        main(["precondition", "--polytope", poly, "--gaussian", gauss])
    assert exc.value.code == 2
    assert "invalid choice: 'precondition'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["warmstart", "budget"])
def test_modes_of_an_empty_polytope_exit_4(tmp_path, command, capsys):
    poly = tmp_path / "empty.txt"
    poly.write_text("1 2\n1\n-1\n1 0\n")  # x > 1 and x < 0
    gauss = tmp_path / "g.txt"
    gauss.write_text("1\n0\n1\n")
    files = ["--polytope", str(poly), "--gaussian", str(gauss)]
    argv = {
        "warmstart": ["warmstart", *files, "--r-tilde", "0.1", "--outer-radius", "1"],
        "budget": ["budget", "--regime", "strong", "--m", "2", "--n", "1",
                   "--kappa", "1", "--warmness", "2", "--eps", "0.1", "--C", "1",
                   *files],
    }[command]
    assert main(argv) == 4
    assert "polytope is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["warmstart", "--r-tilde", "0.5", "--outer-radius", "10"],
     ["sample", "--lambda", "1", "--steps", "20", "--init-point", "0.5", "0.5",
      "--chains", "2"],
     ["diagnose", "--trials", "20"]],
    ids=["warmstart", "sample", "diagnose"],
)
def test_commands_skip_the_scipy_linalg_and_optimize_imports(files, argv):
    # importing scipy.linalg costs ~0.25 s and ~23 MB per process, and
    # scipy.optimize (~0.5 s and ~44 MB with it), which only a mode outside K
    # needs, imports it too
    tmp, _, gauss = files
    box = tmp / "box.txt"
    box.write_text("2 4\n1 0\n-1 0\n0 1\n0 -1\n-1 -1 -1 -1\n")
    if argv[0] != "diagnose":
        argv = [*argv, "--polytope", str(box), "--gaussian", gauss]
    argv = [*argv, "--out", str(tmp / "out.txt")]
    code = (
        "import sys\n"
        "from dikinwalk.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted({'scipy.linalg', 'scipy.optimize'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_budget_worked_example(files, capsys):
    import math

    code = main([
        "budget", "--regime", "strong", "--m", "4", "--n", "2",
        "--metric", "soft", "--kappa", "1",
        "--warmness", str(math.e**2), "--eps", "0.1", "--C", "1",
    ])
    assert code == 0
    assert "T=34" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--m", "--n"])
def test_budget_without_files_needs_m_and_n(capsys, flag):
    argv = ["budget", "--regime", "strong", "--m", "4", "--n", "2", "--kappa", "1",
            "--warmness", "7", "--eps", "0.1", "--C", "1"]
    del argv[argv.index(flag):argv.index(flag) + 2]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: budget needs --m and --n, or --polytope and --gaussian\n"
    )


def test_budget_beyond_worst_case(files, capsys):
    tmp, poly, gauss = files
    box = tmp / "bigbox.txt"
    box.write_text("2 4\n1 0\n-1 0\n0 1\n0 -1\n-100 -100 -100 -100\n")
    code = main([
        "budget", "--regime", "strong", "--m", "4", "--n", "2",
        "--metric", "soft", "--kappa", "1", "--warmness", "10",
        "--eps", "0.1", "--C", "1",
        "--polytope", str(box), "--gaussian", gauss,
    ])
    assert code == 0
    out = capsys.readouterr().out
    kv = dict(
        ln.split("=", 1) for ln in out.splitlines()
        if "=" in ln and not ln.startswith("#")
    )
    assert int(kv["T_beyond"]) <= int(kv["T_plain"])
    assert int(kv["count"]) == 0


def test_oracle_output(files):
    tmp, poly, gauss = files
    out = tmp / "o.csv"
    code = main([
        "oracle", "--polytope", poly, "--gaussian", gauss,
        "--n-samples", "50", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    rows = [ln for ln in _data_lines(out) if "," in ln]
    assert len(rows) == 50
    for row in rows:
        x = [float(v) for v in row.split(",")]
        assert x[0] > 0 and x[1] > 0
    assert "# acceptance=" in out.read_text()


def test_oracle_needs_a_sample(files):
    tmp, poly, gauss = files
    code = main([
        "oracle", "--polytope", poly, "--gaussian", gauss, "--n-samples", "0",
    ])
    assert code == 2


def test_oracle_without_acceptance_exits_4(tmp_path, capsys):
    # N(0, 1) has no mass to speak of on x > 50
    poly = tmp_path / "far.txt"
    poly.write_text("1 1\n1\n50\n")
    gauss = tmp_path / "g.txt"
    gauss.write_text("1\n0\n1\n")
    out = tmp_path / "never.csv"
    code = main([
        "oracle", "--polytope", str(poly), "--gaussian", str(gauss),
        "--n-samples", "1", "--out", str(out),
    ])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: rejection oracle acceptance too low")
    assert not out.exists()


@pytest.mark.parametrize(
    "exc",
    [
        PolytopeError("p"),
        TargetError("t"),
        MetricError("m"),
        PlannerError("pl"),
        DiagnosticsError("d"),
        WalkError("w"),
        NonFiniteDensityError("f"),
        cli.CliError("x"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "line", None) == getattr(exc, "line", None)


def test_every_library_error_is_a_dikinwalk_error():
    # found by walking the modules, so that a new error class is checked too
    classes = set()
    for info in pkgutil.iter_modules(dikinwalk.__path__):
        module = importlib.import_module(f"dikinwalk.{info.name}")
        classes |= {
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        }
    assert {cls.__name__ for cls in classes} >= {
        "DikinwalkError", "PolytopeError", "TargetError", "MetricError",
        "WalkError", "NonFiniteDensityError", "PlannerError", "DiagnosticsError",
    }
    assert [cls for cls in classes - {cli.CliError}
            if not issubclass(cls, DikinwalkError)] == []
    assert dikinwalk.DikinwalkError is DikinwalkError


class UnlistedError(DikinwalkError):
    """A library error that main knows by its base alone."""


def test_any_library_error_from_a_chain_process_exits_4(files, monkeypatch, capsys):
    # chain 1 runs in a forked process, which sends the error back
    tmp, poly, gauss = files

    def run_failing_in_chain_1(init, target, P, config):
        if config.seed == 1:
            raise UnlistedError("chain 1 failed")
        return run(init, target, P, config)

    run = cli.run
    monkeypatch.setattr(cli, "run", run_failing_in_chain_1)
    monkeypatch.setattr(cli, "_chain_processes", lambda chains: min(chains, 2))
    monkeypatch.chdir(tmp)
    argv = [a.format(P=poly, G=gauss) for a in SAMPLE_2_CHAINS]
    assert main([*argv, "--out", "s.csv"]) == 4
    assert capsys.readouterr().err == "error: chain 1 failed\n"
    assert not list(tmp.glob("s_*.csv")) and not list(tmp.glob(".dikinwalk-*"))
    _no_child_left()


def test_diagnose_exit_zero(files, capsys):
    code = main(["diagnose", "--seed", "0", "--trials", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "violations=0" in out


@pytest.mark.parametrize(
    "seed",
    [2173, 12928, 13888, 19768, 21779, 22609, 29663, 38643, 38872, 41661, 118900],
)
def test_diagnose_square_instances_exit_zero(seed, capsys):
    # each seed draws a square A_x (m = n, cond 5e4 to 1e6) at which
    # roundoff holds the Lewis residual above tol, though w = 1 is exact
    assert main(["diagnose", "--seed", str(seed), "--trials", "40"]) == 0
    assert capsys.readouterr().err == ""


def test_diagnose_output_does_not_depend_on_cpu_count(tmp_path, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.chdir(tmp_path)
    outputs = []
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks.clear()
        assert main(["diagnose", "--trials", "40", "--seed", "3", "--out", "d.txt"]) == 0
        # one process per CPU where this platform forks at all
        with cli._one_blas_thread():
            assert len(forks) == cli._chain_processes(20) - 1 <= cpus - 1
        outputs.append((tmp_path / "d.txt").read_bytes())
        _no_child_left()
    assert outputs[0] == outputs[1]
    expected = [
        f"{r.name} trials={r.trials} violations={r.violations} max_slack={r.max_slack:.6f}"
        for r in diagnose_corpus(3, 40)
    ]
    assert _after_manifest(tmp_path / "d.txt") == expected


def _failing_instances(errors):
    """_certify_instance, except that instance i raises errors[i]."""
    certify_instance = diagnostics._certify_instance

    def instance(seed, trials, i):
        if i in errors:
            raise errors[i]
        return certify_instance(seed, trials, i)

    return instance


@pytest.mark.parametrize(
    "errors",
    [
        {3: DiagnosticsError("instance 3 failed"), 8: DiagnosticsError("instance 8 failed")},
        {3: MetricError("instance 3 overflowed"), 8: DiagnosticsError("instance 8 failed")},
    ],
    ids=["diagnostics", "metric"],
)
def test_failing_instance_matches_serial(tmp_path, monkeypatch, capsys, errors):
    # with 4 processes, instance 3 runs in a child and instance 8 here
    monkeypatch.setattr(diagnostics, "_certify_instance", _failing_instances(errors))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(type(errors[3])) as serial:
        diagnose_corpus(0, 40)
    assert main(["diagnose", "--trials", "40", "--out", "d.txt"]) == 4
    assert capsys.readouterr().err == f"error: {serial.value}\n"
    assert str(serial.value) == str(errors[3])
    assert not (tmp_path / "d.txt").exists()
    assert not list(tmp_path.glob(".dikinwalk-*"))
    _no_child_left()


def test_violation_in_a_child_exits_1(tmp_path, monkeypatch):
    # instance 5 reports a violation, but only where a child runs it
    me = os.getpid()
    certify_instance = diagnostics._certify_instance

    def violated_elsewhere(seed, trials, i):
        reports = certify_instance(seed, trials, i)
        if i == 5 and os.getpid() != me:
            reports[2].record(2.0, False, note="forced")
        return reports

    monkeypatch.setattr(diagnostics, "_certify_instance", violated_elsewhere)
    monkeypatch.setattr(cli, "_chain_processes", lambda tasks: min(tasks, 2))
    monkeypatch.chdir(tmp_path)
    assert main(["diagnose", "--trials", "40", "--out", "d.txt"]) == 1
    lines = _after_manifest(tmp_path / "d.txt")
    assert [ln.split()[2] for ln in lines] == ["violations=0"] * 2 + ["violations=1"]
    assert lines[2].endswith("max_slack=2.000000")
    _no_child_left()


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
