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
    # rejections, samples moved <= 2e-14, one max_slack moved 2e-15.
    # "soft" was re-recorded again when the warm start's mode became mu
    # exactly instead of a gradient-descent iterate ~2e-9 away: same accepts
    # and rejections, samples moved <= 6.2e-6 (chain 0) and 3.8e-7 (chain 1)
    "soft": [
        "e3e9cec3018a72c1996b0ce82f13032903611a3b622a86e6ee18c7666b452243",
        "b9239d9924faa9ec1b0a360c115976e58c4c068815d1fdcf56d5ecfbef77b355",
    ],
    # "lewis" and "certify" were re-recorded when the Lewis fixed point became a
    # Chebyshev semi-iteration: same weights to ~1e-7 relative, other low bits.
    # They were re-recorded again when small shapes took exact Newton steps and
    # the leverage scores came from an explicit inverse of the Gram's factor:
    # same accepts, samples moved <= 2.3e-9, ssc[lewis] max_slack <= 5.6e-9
    "lewis": "6b9222331a6519310fb4f80aa38c0d4220b8321f4bbfbbe4fb39181814930269",
    # "diagnose" and "certify" were re-recorded when each corpus instance i
    # took its own stream default_rng([seed, i]) instead of a share of one
    # default_rng(seed) stream, so that the instances can run in any process
    "diagnose": "e75374c644d1a6eb8a9aea8d2120a8e26e459477f694375cacf8c53cd7ddbec1",
    # diagnose_corpus(seed, trials=40) for seeds 0, 1, 2, every bit of max_slack
    # warmstart, budget and oracle were recorded at the commit before the
    # warmness bound moved out of warm_start_ball, so that warmstart's bytes
    # are checked across that change
    "warmstart": [
        "d11d3b42390c7ffe3fbde2f8ba7c6639519a3881053baa326fe3fb6a5fa7c1df",
        "c657bc5821286f76cf2177bebf3dea933744fd9638e50c12fbb083cca4b2a7bf",
        "7cd3684d95c8453302321372de7149bb1a5f5a8e74273471fc650f861bdc4d34",
        "299ab956206d50cc6c4796ceab54d3513050638fad03fab95dbd69e64be2010b",
    ],
    # budget case 2 was re-recorded when the beyond-worst-case budget took
    # kappa = 2 from --kappa instead of beta / alpha = 2.085 from the Gaussian
    # file: T_beyond and T_plain moved 150 -> 149, T and count did not
    "budget": [
        "a7cae031ff959fd1d5af021ca0a6bda819d8139a878dd94473962a84090d639a",
        "792aa98a6e656d1618a8408105637a419ece54225cf1e63dfe705328aca69fa1",
        "4687b707197c5f627d57bed484cb2e85dfd0b2202b57869bcb5703cbf445ad43",
    ],
    "oracle": "23eb63be8b5d8ec8545718034930c3185ce0cb1e37c32e17868e202006ecfc78",
    # soft and lewis without a lambda flag, so regularized with Sigma^-1;
    # recorded when that became the default (before, the command exited 2)
    "precision": [
        "f18a58d0e6648ebada1dda26eaa249544d1efafe43006f55ead7004882676c66",
        "a6a235f2a5a077f91d82f2720d8ae29a3bdddf7186f1e58353353160a84ae659",
    ],
    "certify": [
        "c4869dc66d27398c13bea5e7bc21d53075086e0eb8a0554d143de812a6182549",
        "c3957da358e57a004a4ed3f2be6e877939683a4af86e1b3251ed8604add86bf9",
        "15d387b3e777eac64c0ccaf6e5c157947d1d3c4c3733908296a1a519b3a61a79",
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
def files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.txt").write_text(POLYTOPE)
    (tmp_path / "g.txt").write_text(GAUSSIAN)
    return ["--polytope", "p.txt", "--gaussian", "g.txt"]


@pytest.fixture
def inputs(files):
    return [*files, "--lambda-from-beta"]


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


@pytest.mark.parametrize("case, metric", enumerate(["soft", "lewis"]))
def test_golden_sample_precision(files, capsys, case, metric):
    argv = ["sample", *files, "--metric", metric, "--steps", "60", "--burn-in", "20"]
    # both rejection kinds occur for both metrics
    argv += ["--step-size", "1.5", "--seed", "5"]
    argv += ["--init-point", "0.1", "0", "0"]
    assert _cli_body_sha256(argv, capsys) == GOLDEN["precision"][case]


# warmstart without and with --x1 and --outer-radius, the default r_tilde
# keeping B(x1, r_tilde) inside K
WARMSTART_ARGV = [
    [],
    ["--outer-radius", "2"],
    ["--x1", "0.1", "0", "0"],
    ["--x1", "0.1", "0", "0", "--outer-radius", "2"],
]


@pytest.mark.parametrize("case", range(len(WARMSTART_ARGV)))
def test_golden_warmstart(files, capsys, case):
    argv = ["warmstart", *files, "--r-tilde", "0.1", *WARMSTART_ARGV[case]]
    assert _cli_body_sha256(argv, capsys) == GOLDEN["warmstart"][case]


BUDGET_ARGV = [
    ["--regime", "strong", "--kappa", "2"],
    ["--regime", "weak", "--metric", "lewis", "--c2", "1.5", "--beta-eta", "3"],
    ["--regime", "strong", "--kappa", "2", "--beyond-worst-case",
     "--polytope", "p.txt", "--gaussian", "g.txt"],
]


@pytest.mark.parametrize("case", range(len(BUDGET_ARGV)))
def test_golden_budget(files, capsys, case):
    argv = ["budget", "--m", "8", "--n", "3", "--warmness", "7", "--eps", "0.1"]
    argv += ["--C", "1", *BUDGET_ARGV[case]]
    assert _cli_body_sha256(argv, capsys) == GOLDEN["budget"][case]


def test_golden_oracle(files, capsys):
    argv = ["oracle", *files, "--n-samples", "50", "--seed", "4"]
    assert _cli_body_sha256(argv, capsys) == GOLDEN["oracle"]


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
