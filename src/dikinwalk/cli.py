"""Command-line front end: sample, warmstart, budget, oracle, diagnose.

`sample` regularizes its metric with the Gaussian's precision Sigma^-1 unless
--lambda or --lambda-from-beta sets lambda I, so by default the walk mixes as
on the whitened target, whatever Sigma's condition number.

Every output file starts with a '#' manifest block recording the resolved
parameters; stripping comment lines leaves machine-parseable data only.
Files are written to temp paths and renamed once every file of the command
is written, so errors never leave partial outputs.

Exit codes: 0 ok, 1 `diagnose` found violations, 2 file/parse error or
invalid flag value, 3 infeasible initial point, 4 numeric failure. Each
command checks its files and flag values before it computes anything, and a
failed check raises `CliError`, which always exits 2; so does `sample` given
both --lambda and --lambda-from-beta, or both --init-point and
--init-warmstart. After that, `main` alone maps the error that escapes, by
type and whichever process raised it. Every library error is a
`DikinwalkError`: a `WalkError` (`run` cannot start a chain: the initial
point is not interior, or f is not finite there) exits 3, and every other
one exits 4. Both input files skip '#' comment lines and blank lines.

While a command runs, every loaded OpenBLAS (numpy and scipy each link their
own) is held to one thread, so output does not depend on the CPU count.
`sample --chains k` runs its k chains, and `diagnose` the 20 instances of its
corpus, in up to one process per CPU: the command's own and forked ones.
Each chain and each instance draws from its own seeded stream, so the
output bytes do not depend on which process ran it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import math
import os
import pickle
import re
import signal
import sys
import tempfile
import traceback
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from dikinwalk import __version__
from dikinwalk.diagnostics import diagnose_corpus, rejection_oracle
from dikinwalk.metrics import MetricError, RegularizedLewis, SoftThreshold
from dikinwalk.planner import (
    PlannerError,
    MixingBudgetQuery,
    beyond_worst_case_budget,
    check_beyond_worst_case,
    mixing_budget,
    sample_warm_start,
    solve_modes,
    warm_start_ball,
    warm_start_center,
    warmness_bound,
)
from dikinwalk.polytope import DikinwalkError, PolytopeError, parse_polytope
from dikinwalk.polytope import contains  # noqa: F401  bench/spans.py times it here
from dikinwalk.target import (
    GaussianTarget,
    TargetError,
    parse_gaussian,
    quadratic_target,
    serialize_gaussian,  # noqa: F401  bench/run.py writes its inputs with it
)
from dikinwalk.walk import WalkConfig, WalkError, format_csv, format_rows, run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4

# scipy's wheels prefix OpenBLAS's symbols and suffix its 64-bit-integer build
OPENBLAS_SYMBOLS = (
    ("scipy_openblas", "64_"),
    ("scipy_openblas", ""),
    ("openblas", "64_"),
    ("openblas", ""),
)


class CliError(Exception):
    """A bad file or flag value; main exits 2."""


def _parse_file(path: str, parse: Callable):
    """parse(text of the file); a file that cannot be read or parsed exits 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (PolytopeError, TargetError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _manifest(args: argparse.Namespace) -> str:
    skip = {"func", "command"}
    items = [
        f"{k}={v}"
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    ]
    lines = [f"# dikinwalk {__version__}", f"# command={args.command}"]
    lines += [f"# {item}" for item in items]
    return "\n".join(lines) + "\n"


def _write_outputs(outputs: Iterable[tuple[str | None, str]]) -> None:
    """Write each (path, content); content for a None path goes to stdout.

    A path must name a regular file or nothing yet: os.replace would swap a
    device or FIFO for a regular file, and fail on a directory only after
    earlier renames. Every file is written to a temp path in its directory
    first, and all are renamed only after every write has succeeded, so a
    failing write leaves no file behind. Stdout is written last.
    """
    outputs = list(outputs)
    for path, _ in outputs:
        if path is not None and os.path.exists(path) and not os.path.isfile(path):
            raise CliError(f"cannot write {path}: not a regular file")
    staged: list[tuple[str, str]] = []
    to_stdout: list[str] = []
    try:
        try:
            for path, content in outputs:
                if path is None:
                    to_stdout.append(content)
                    continue
                directory = os.path.dirname(os.path.abspath(path))
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dikinwalk-")
                staged.append((tmp, path))
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(content)
            for tmp, path in staged:
                os.replace(tmp, path)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc.strerror}") from exc
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    sys.stdout.write("".join(to_stdout))


@functools.cache
def _openblas() -> tuple:
    """(get_num_threads, set_num_threads) of every OpenBLAS loaded in this process.

    Both numpy's and scipy's (linked by the LAPACK extension that
    dikinwalk._lapack loads) are loaded once this module is imported. Empty
    where /proc/self/maps does not exist.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold every loaded OpenBLAS to one thread, then restore the previous counts.

    The CLI's matrices gain little from BLAS threads, a second thread pool
    only contends for the CPUs, and chains run one process per CPU. Sums in
    BLAS then have one order whatever the CPU count, and so have the bytes.
    """
    blas = _openblas()
    saved = [get() for get, _ in blas]
    try:
        for _, set_ in blas:
            set_(1)
        yield
    finally:
        for (_, set_), threads in zip(blas, saved):
            set_(threads)


def _chain_processes(tasks: int) -> int:
    """Processes that run `tasks` independent tasks: up to one per CPU.

    One where fork does not exist, or where BLAS is not held to one thread
    (processes of several BLAS threads each would contend for the CPUs).
    """
    blas = _openblas()
    if (
        tasks == 1
        or not hasattr(os, "fork")
        or not blas
        or any(get() != 1 for get, _ in blas)
    ):
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


def _in_order(task: Callable, items, positions: Iterable[int]) -> list:
    """(k, task(items[k]), None) per position k, in order, up to the first
    failing one, which gives (k, None, the library error it raised)."""
    done = []
    for k in positions:
        try:
            done.append((k, task(items[k]), None))
        except DikinwalkError as exc:
            done.append((k, None, exc))
            break
    return done


def _child(fd: int, work: Callable[[], list]) -> None:
    """In a forked child: pickle ("ok", work()) to fd, or ("crash", traceback)
    if it raised, and leave through os._exit; never returns or prints."""
    try:
        try:
            result = ("ok", work())
        except BaseException:
            result = ("crash", traceback.format_exc())
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(result, fh)
    finally:
        os._exit(0)


def _in_processes(task: Callable, items) -> list:
    """[task(item) for item in items], computed in W processes.

    The tasks are independent, and a task reports failure by raising a
    library error. Process w (w = 0 is this one, the others are forked) runs
    the tasks at positions k = w mod W in order and stops at its first
    failure; this process also runs the tasks of a fork that failed.
    Children send their results, or the error itself, back over a pipe. As in
    a serial loop, the lowest-position failure is raised. Every child is
    reaped before this returns or raises; on an error or interrupt it is
    killed first.
    """
    count = len(items)
    workers = _chain_processes(count)
    children = []  # (pid, read end of its pipe)
    local = [0]
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wfd)
                local.append(w)
                continue
            if pid == 0:
                os.close(r)
                positions = range(w, count, workers)
                _child(wfd, lambda: _in_order(task, items, positions))
            os.close(wfd)
            children.append((pid, os.fdopen(r, "rb")))
        mine = [k for k in range(count) if k % workers in local]
        results = _in_order(task, items, mine)
        for pid, fh in children:
            data = fh.read()
            if not data:
                raise RuntimeError(f"task process {pid} ended without a result")
            kind, value = pickle.loads(data)
            if kind == "crash":
                raise RuntimeError(f"task process {pid} failed:\n{value}")
            results += value
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)
    failed = [(k, error) for k, _, error in results if error is not None]
    if failed:
        raise min(failed, key=lambda failure: failure[0])[1]
    return [result for _, result, _ in sorted(results)]  # positions are distinct


def _check_seed(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise CliError("--seed must be >= 0")


def _check_r_tilde(args: argparse.Namespace) -> None:
    # warm_start_ball rejects it too, but as a planner (numeric) failure
    if not 0 < args.r_tilde < np.inf:
        raise CliError("--r-tilde must be positive and finite")


def _resolve_metric(args: argparse.Namespace, gauss: GaussianTarget, beta: float):
    """The metric of --metric, regularized with --lambda, with beta under
    --lambda-from-beta, and otherwise with the Gaussian's precision."""
    if args.lambda_from_beta and args.lam is not None:
        raise CliError("give at most one of --lambda and --lambda-from-beta")
    if args.lambda_from_beta:
        lam = beta
    elif args.lam is not None:
        lam = args.lam
    else:
        lam = gauss.precision
    lewis = {k: v for k, v in (("c1", args.c1), ("q", args.q)) if v is not None}
    if args.metric == "soft" and lewis:
        raise CliError("--c1 and --q need --metric lewis")
    # the metric's constructor validates the flag values
    try:
        if args.metric == "soft":
            return SoftThreshold(lam=lam)
        return RegularizedLewis(lam=lam, **lewis)
    except MetricError as exc:
        raise CliError(str(exc)) from exc


def _load_inputs(args: argparse.Namespace):
    """(P, gauss) from --polytope and --gaussian, of one dimension."""
    P = _parse_file(args.polytope, parse_polytope)
    gauss = _parse_file(args.gaussian, parse_gaussian)
    if gauss.n != P.n:
        raise CliError("Gaussian and polytope dimensions differ")
    return P, gauss


def _warm_start(args: argparse.Namespace, gauss, target, P, x1):
    """(ball, x1, modes): the warm-start ball around x1; a None x1 is the
    constrained mode, moved inside when it lies within --r-tilde of the boundary."""
    modes = solve_modes(gauss, P)
    if x1 is None:
        try:
            x1 = warm_start_center(P, modes.x_dag, args.r_tilde)
        except PlannerError as exc:
            raise PlannerError(f"{exc}; lower --r-tilde") from exc
    return warm_start_ball(target, P, x1, args.r_tilde, modes), x1, modes


def cmd_sample(args: argparse.Namespace) -> int:
    P, gauss = _load_inputs(args)
    target = quadratic_target(gauss)
    metric = _resolve_metric(args, gauss, target.beta)
    if isinstance(metric, RegularizedLewis) and P.m < P.n:
        raise CliError(f"--metric lewis needs m >= n constraints (m={P.m}, n={P.n})")
    try:
        config = WalkConfig(
            metric=metric,
            r=args.step_size,
            lazy=not args.no_lazy,
            steps=args.steps,
            burn_in=args.burn_in,
            adapt=args.adapt,
            seed=args.seed,
            thin=args.thin,
        )
        config.check_dimension(P.n)
    except WalkError as exc:
        raise CliError(str(exc)) from exc
    if args.chains < 1:
        raise CliError("--chains must be >= 1")
    _check_seed(args)
    if (args.init_point is not None) == args.init_warmstart:
        raise CliError("give one of --init-point and --init-warmstart")
    if args.init_warmstart:
        _check_r_tilde(args)
        ball, _, _ = _warm_start(args, gauss, target, P, x1=None)
        init = lambda rng: sample_warm_start(ball, rng)  # noqa: E731
    else:
        # run refuses a point that is not interior, exit 3
        init = np.array(args.init_point, dtype=float)
        if init.shape[0] != P.n:
            raise CliError("--init-point has the wrong dimension")

    manifest = _manifest(args)

    def chain_text(i: int) -> str:
        batch = run(init, target, P, dataclasses.replace(config, seed=args.seed + i))
        return manifest + format_csv(batch, header=args.header)

    paths = [args.out] * args.chains
    if args.out is not None and args.chains > 1:
        root, ext = os.path.splitext(args.out)
        paths = [f"{root}_{i}{ext}" for i in range(args.chains)]
    # chain i has seed seed + i whichever process runs it; each process formats
    # its own chains (~10% of a (10, 40) command). Nothing is written until
    # every chain has finished, so a failing chain leaves no output behind.
    _write_outputs(zip(paths, _in_processes(chain_text, range(args.chains))))
    return EXIT_OK


def _kv_block(pairs) -> str:
    return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"


def cmd_warmstart(args: argparse.Namespace) -> int:
    _check_r_tilde(args)
    R = args.outer_radius  # the warmness bound squares it
    if R is not None and not (R > 0 and 0 < R * R < math.inf):
        raise CliError("--outer-radius must be positive with a finite, nonzero square")
    P, gauss = _load_inputs(args)
    target = quadratic_target(gauss)
    x1 = None if args.x1 is None else np.array(args.x1, dtype=float)
    if x1 is not None and (x1.shape[0] != P.n or not np.all(np.isfinite(x1))):
        raise CliError("--x1 needs n finite values")
    ball, x1, modes = _warm_start(args, gauss, target, P, x1)
    logM = warmness_bound(target, P, x1, args.r_tilde, modes, R)
    content = _manifest(args) + _kv_block(
        [
            ("x0", " ".join(f"{x:.17g}" for x in ball.x0)),
            ("r0", f"{ball.r0:.17g}"),
            ("r1", f"{ball.r1:.17g}"),
            ("logM", f"{logM:.17g}"),
            ("outer_radius_estimated", str(R is None).lower()),
        ]
    )
    _write_outputs([(args.out, content)])
    return EXIT_OK


def cmd_budget(args: argparse.Namespace) -> int:
    if (args.polytope is None) != (args.gaussian is None):
        raise CliError("the beyond-worst-case budget takes --polytope and --gaussian")
    if args.polytope is not None:
        P, gauss = _load_inputs(args)
        # --m and --n default to the polytope's, and the manifest records them
        args.m = P.m if args.m is None else args.m
        args.n = P.n if args.n is None else args.n
    elif args.m is None or args.n is None:
        raise CliError("budget needs --m and --n, or --polytope and --gaussian")
    try:
        qry = MixingBudgetQuery(
            regime=args.regime,
            m=args.m,
            n=args.n,
            metric=args.metric,
            M=args.warmness,
            eps=args.eps,
            C=args.C,
            kappa=args.kappa,
            beta_eta=args.beta_eta,
        )
        pairs = [("T", mixing_budget(qry))]
        if args.polytope is not None:
            check_beyond_worst_case(qry, P)
    except PlannerError as exc:
        raise CliError(str(exc)) from exc
    if args.polytope is not None:
        modes = solve_modes(gauss, P)
        try:
            res = beyond_worst_case_budget(qry, P, quadratic_target(gauss), modes)
        except PlannerError as exc:  # a budget that overflows, as in mixing_budget
            raise CliError(str(exc)) from exc
        pairs += [("T_beyond", res.T), ("best_delta", f"{res.best_delta:.17g}"),
                  ("count", res.violated_count), ("T_plain", res.plain_T)]
    _write_outputs([(args.out, _manifest(args) + _kv_block(pairs))])
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.n_samples < 1:
        raise CliError("--n-samples must be >= 1")
    _check_seed(args)
    P, gauss = _load_inputs(args)
    rng = np.random.default_rng(args.seed)
    result = rejection_oracle(gauss, P, args.n_samples, rng)
    lines = format_rows(result.samples)
    lines.append(f"# acceptance={result.acceptance:.17g}")
    _write_outputs([(args.out, _manifest(args) + "\n".join(lines) + "\n")])
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    _check_seed(args)
    # instance i draws from its own stream [seed, i] whichever process runs it
    reports = diagnose_corpus(args.seed, args.trials, map=_in_processes)
    lines = [
        f"{rep.name} trials={rep.trials} violations={rep.violations} "
        f"max_slack={rep.max_slack:.6f}"
        for rep in reports
    ]
    _write_outputs([(args.out, _manifest(args) + "\n".join(lines) + "\n")])
    return EXIT_OK if sum(rep.violations for rep in reports) == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dikinwalk",
        description="Regularized Dikin walk sampling on polytopes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_polytope_gaussian(p):
        p.add_argument("--polytope", required=True, help="polytope text file")
        p.add_argument("--gaussian", required=True, help="Gaussian target file")

    p = sub.add_parser("sample", help="run the walk and write samples CSV")
    add_polytope_gaussian(p)
    p.add_argument("--metric", choices=["soft", "lewis"], default="soft")
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="regularize with lambda I (default: with the Gaussian's Sigma^-1)",
    )
    p.add_argument(
        "--lambda-from-beta",
        action="store_true",
        help="regularize with beta I, beta the target smoothness",
    )
    # Lewis metric only; None leaves RegularizedLewis's default
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--step-size", type=float, default=0.1)
    p.add_argument("--adapt", action="store_true")
    p.add_argument("--no-lazy", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--init-point", type=float, nargs="+", default=None)
    p.add_argument("--init-warmstart", action="store_true")
    p.add_argument("--r-tilde", type=float, default=0.1)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("warmstart", help="construct the warm-start ball")
    add_polytope_gaussian(p)
    p.add_argument("--x1", type=float, nargs="+", default=None)
    p.add_argument("--r-tilde", type=float, required=True)
    p.add_argument(
        "--outer-radius",
        type=float,
        default=None,
        help="outer radius of K, used only for the warmness bound logM "
        "(default: the largest reach from x1 along the axes, a "
        "lower-bound estimate that needs K bounded along every axis)",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_warmstart)

    p = sub.add_parser("budget", help="closed-form iteration budgets", description=(
        "T = C (m + kappa) n log(sqrt(M)/eps) for the soft metric, strong regime. "
        "--polytope with --gaussian (--m and --n default to the polytope's) adds "
        "that walk's beyond-worst-case T_beyond and its delta -> infinity sentinel "
        "T_plain; both use log(2M/eps) and radius r_hat(eps/2M), so T_plain > T by "
        "design. The weak regime takes psi_n^2 = max(1, log n); pass any other "
        "psi_n^2, and the Lewis metric's (log m)^c2, as a factor of --C."))
    p.add_argument("--regime", choices=["strong", "weak"], required=True)
    p.add_argument("--m", type=int, default=None, help="default: --polytope's m")
    p.add_argument("--n", type=int, default=None, help="default: --polytope's n")
    p.add_argument("--metric", choices=["soft", "lewis"], default="soft")
    p.add_argument("--kappa", type=float, default=None, help="1 for `sample` with "
                   "its default Sigma^-1; beta/alpha with --lambda-from-beta")
    p.add_argument("--beta-eta", type=float, default=None)
    p.add_argument("--warmness", type=float, required=True, help="warmness M")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--polytope", default=None)
    p.add_argument("--gaussian", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("oracle", help="exact rejection-sampling oracle")
    add_polytope_gaussian(p)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("diagnose", help="run the certification corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials",
        type=int,
        default=1000,
        help="trials per check, rounded down to a multiple of 20 with a floor of 20; "
        "instance i of the 20 draws from the stream [seed, i], and the instances "
        "run in up to one process per CPU",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnose)

    # argparse takes only "-1" and "-.5" for negative numbers and "-1e-08" for
    # an option, so --x1 could not take every coordinate that warmstart prints
    for p in [parser, *sub.choices.values()]:
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the library turns a non-finite G, log det, Lewis weight or f into an
    # error of its own, so numpy's overflow warnings would only repeat it
    try:
        with (
            _one_blas_thread(),
            np.errstate(over="ignore", invalid="ignore", divide="ignore"),
        ):
            return args.func(args)
    except (CliError, DikinwalkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return EXIT_PARSE
        if isinstance(exc, WalkError):
            return EXIT_INFEASIBLE  # the chain cannot start
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
