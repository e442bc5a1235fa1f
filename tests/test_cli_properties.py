"""Property-based tests of the whole CLI.

Each example draws a polytope file, a Gaussian file, a command and its flags,
and runs `main` in this process. Whatever the inputs, `main` returns one of
the documented exit codes (0-4) without raising, nothing it or a chain
process prints holds a traceback or a RuntimeWarning, and a command that
fails (2, 3 or 4) leaves neither an output file nor a staged temp file.

The files are drawn where the parsers and the numerics are weakest: row
scales from 1e-300 to 1e300, near-parallel rows, m from 0 to 3n + 2, Sigma
with condition numbers up to ~1e24, and now and then a corrupted token or a
dropped line. `sample` runs 100 to 1 000 steps of size up to 1, enough to
reach a facet. `diagnose` reads neither file, so it is left to test_cli.
"""

import os
import tempfile
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dikinwalk.cli import main
from dikinwalk.polytope import serialize_polytope
from dikinwalk.target import serialize_gaussian

JUNK = ["nan", "-inf", "1e400", "x", "0", "-1", "99999999999999999999999", "1 2"]


@st.composite
def instances(draw):
    """(n, m, polytope text, Gaussian text, x0), x0 the drawn start point;
    the polytope keeps x0 inside unless a drawn margin is not positive.

    Hypothesis draws the shape and the scales; a generator seeded by it draws
    the entries and decides the rarer cases at their own rates, which draws
    biased towards simple examples would not keep.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3 * n + 2))
    x0 = rng.uniform(-1.0, 1.0, n)
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):  # near-parallel to an earlier row
            base = rows[rng.integers(len(rows))]
            tilt = 10.0 ** draw(st.integers(-16, -4))
            row = base / np.abs(base).max() + tilt * rng.uniform(-1.0, 1.0, n)
        else:
            row = rng.uniform(-1.0, 1.0, n)
        rows.append(row * 10.0 ** draw(st.integers(-300, 300)))
    A = np.array(rows).reshape(m, n)
    margins = rng.uniform(0.0, 2.0, m)
    if m and rng.random() < 0.15:
        margins[rng.integers(m)] = rng.uniform(-0.5, 0.0)
    b = A @ x0 - margins * np.abs(A).max(axis=1, initial=0.0)

    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eig = 10.0 ** np.array(draw(st.lists(st.floats(-12, 12), min_size=n, max_size=n)))
    Sigma = (Q * eig) @ Q.T
    Sigma = 0.5 * (Sigma + Sigma.T)
    mu = x0 + draw(st.sampled_from([0.0, 1.0, 1e3])) * rng.uniform(-1.0, 1.0, n)
    # the serializers read only these fields; the CLI is left to check them
    texts = [
        serialize_polytope(SimpleNamespace(n=n, m=m, A=A, b=b)),
        serialize_gaussian(SimpleNamespace(n=n, mu=mu, Sigma=Sigma)),
    ]
    if rng.random() < 0.2:  # corrupt one of the files
        k = rng.integers(2)
        lines = texts[k].splitlines()
        i = rng.integers(len(lines))
        if rng.random() < 0.5:
            del lines[i]
        else:
            tokens = lines[i].split()
            tokens[rng.integers(len(tokens))] = rng.choice(JUNK)
            lines[i] = " ".join(tokens)
        texts[k] = "\n".join(lines) + "\n"
    return n, m, texts[0], texts[1], x0


def _floats(values):
    return [repr(float(v)) for v in values]


@st.composite
def commands(draw, n, m, x0):
    """argv for one command, without --polytope, --gaussian and --out."""
    command = draw(st.sampled_from(["sample", "warmstart", "oracle", "budget"]))
    seed = ["--seed", str(draw(st.integers(0, 3)))]
    r_tilde = ["--r-tilde", draw(st.sampled_from(["1e-3", "0.1", "1"]))]
    if command == "sample":
        argv = ["sample", *seed, "--metric", draw(st.sampled_from(["soft", "lewis"]))]
        argv += draw(st.sampled_from(
            [[], ["--lambda", "1e-6"], ["--lambda", "1"], ["--lambda-from-beta"]]
        ))
        argv += ["--steps", str(draw(st.integers(100, 1000)))]
        argv += ["--burn-in", str(draw(st.integers(0, 50)))]
        argv += ["--step-size", draw(st.sampled_from(["0.1", "0.5", "1"]))]
        argv += ["--chains", str(draw(st.integers(1, 2)))]
        argv += draw(st.sampled_from([[], ["--no-lazy"], ["--adapt"]]))
        if draw(st.booleans()):
            argv += ["--init-point", *_floats(x0)]
        else:
            argv += ["--init-warmstart", *r_tilde]
        return argv
    if command == "warmstart":
        argv = ["warmstart", *r_tilde]
        if draw(st.booleans()):
            argv += ["--x1", *_floats(x0)]
        return argv + draw(st.sampled_from([[], ["--outer-radius", "10"]]))
    if command == "oracle":
        return ["oracle", *seed, "--n-samples", str(draw(st.integers(1, 50)))]
    m += draw(st.sampled_from([0, 0, 0, 1]))  # the polytope's m, or not
    return [
        "budget", "--regime", "strong", "--m", str(m), "--n", str(n), "--kappa", "1",
        "--warmness", "7", "--eps", "0.1", "--C", "1",
    ]


def _outputs(argv, out):
    if argv[0] == "sample" and argv[argv.index("--chains") + 1] == "2":
        return {"out_0.csv", "out_1.csv"}
    return {out}


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.data())
def test_cli_exits_with_a_documented_code(capfd, data):
    n, m, poly_text, gauss_text, x0 = data.draw(instances())
    argv = data.draw(commands(n, m, x0))
    capfd.readouterr()
    with tempfile.TemporaryDirectory(prefix="cli-properties-") as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("P.txt", "G.txt")}
        with open(paths["P.txt"], "w", encoding="utf-8") as fh:
            fh.write(poly_text)
        with open(paths["G.txt"], "w", encoding="utf-8") as fh:
            fh.write(gauss_text)
        argv += ["--polytope", paths["P.txt"], "--gaussian", paths["G.txt"]]
        code = main([*argv, "--out", os.path.join(tmp, "out.csv")])
        written = set(os.listdir(tmp)) - set(paths)
    err = capfd.readouterr().err
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
    assert written == (_outputs(argv, "out.csv") if code < 2 else set()), err
