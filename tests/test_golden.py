"""Same-seed output bytes of the CLI, pinned across commits.

The hashes below were recorded from fixed-seed runs on numpy 2.4 / scipy 1.17
(x86-64, OpenBLAS). A change that moves them changes the RNG or floating-point
contract and has to declare it. Only the body of each output is hashed: the
leading '#' manifest echoes argument values (file names, package version), the
trailing '#' stats block of `sample` is part of the body.
"""

import hashlib

import pytest

from dikinwalk import cli
from dikinwalk.diagnostics import diagnose_corpus

# a 3-D box [-1, 1]^3 cut by two tilted half-spaces; contains the origin
POLYTOPE = """3 8
1 0 0
0 1 0
0 0 1
-1 0 0
0 -1 0
0 0 -1
0.6 -0.8 0.1
-0.3 -0.4 -0.866
-1 -1 -1 -1 -1 -1 -0.9 -0.7
"""

GAUSSIAN = """3
0.2 -0.1 0.05
0.5 0.1 0
0.1 0.4 -0.05
0 -0.05 0.3
"""

GOLDEN = {
    # soft chain 1, "lewis" and certify seed 2 were re-recorded when G's
    # Cholesky moved from numpy's to scipy's LAPACK: same accepts and
    # rejections, samples moved <= 2e-14, one max_slack moved 2e-15
    "soft": [
        "3d344242e16749aed9f93870552fc6dd713abf28059d6ffd3e64f72a7be9b46c",
        "aa0244b98ba2e42d01026638f676a48b1c4b90625c6e0d1c72de217ebc84fc47",
    ],
    # "lewis" and "certify" were re-recorded when the Lewis fixed point became a
    # Chebyshev semi-iteration: same weights to ~1e-7 relative, other low bits
    "lewis": "1c587a31f91a8909f0796bf3a60f57629085b0e0ed2dba20a2e5d957dad43a74",
    "diagnose": "e18a8ae7efdfc08572f1ba2f2e94ba9ad0b6b5a4e3a5ac8d3438f557745cc5dd",
    # diagnose_corpus(seed, trials=40) for seeds 0, 1, 2, every bit of max_slack
    "certify": [
        "ce072f9efe4d3b2ffc081eabed401c76dae9b08370cea2d977ecdb00e7b31fae",
        "15d1fe0ed6eb91eb1341338e22e02d770f3d80ca2538119b8c6c0406c99bb089",
        "8ffed6d6023acad42a50428dfc49a7de0aebd59eccb4b99d3f26e26954b48ba0",
    ],
}


def _body_sha256(text: str) -> str:
    lines = text.splitlines(keepends=True)
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    return hashlib.sha256("".join(lines[k:]).encode()).hexdigest()


def _cli_body_sha256(argv, capsys) -> str:
    capsys.readouterr()
    assert cli.main(argv) == 0
    return _body_sha256(capsys.readouterr().out)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.txt").write_text(POLYTOPE)
    (tmp_path / "g.txt").write_text(GAUSSIAN)
    return ["--polytope", "p.txt", "--gaussian", "g.txt", "--lambda-from-beta"]


def test_golden_sample_soft_two_chains(inputs, tmp_path):
    # r adapts up from 0.05 during burn-in; both rejection kinds occur
    argv = ["sample", *inputs, "--metric", "soft", "--steps", "300"]
    argv += ["--burn-in", "600", "--step-size", "0.05", "--adapt"]
    argv += ["--chains", "2", "--seed", "7"]
    argv += ["--init-warmstart", "--header", "--out", "s.csv"]
    assert cli.main(argv) == 0
    chains = [(tmp_path / f"s_{i}.csv").read_text() for i in range(2)]
    assert [_body_sha256(text) for text in chains] == GOLDEN["soft"]


def test_golden_sample_lewis(inputs, capsys):
    argv = ["sample", *inputs, "--metric", "lewis", "--steps", "40"]
    argv += ["--burn-in", "10", "--step-size", "0.9", "--seed", "3"]
    argv += ["--init-point", "0.1", "0", "0"]
    assert _cli_body_sha256(argv, capsys) == GOLDEN["lewis"]


def test_golden_diagnose(capsys):
    argv = ["diagnose", "--trials", "20", "--seed", "0"]
    assert _cli_body_sha256(argv, capsys) == GOLDEN["diagnose"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_golden_certify_full_precision(seed):
    # the diagnose output rounds max_slack to 6 decimals; this sees every bit
    text = "".join(
        f"{r.name} {r.trials} {r.violations} {r.max_slack.hex()} {r.notes!r}\n"
        for r in diagnose_corpus(seed=seed, trials=40)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["certify"][seed]
