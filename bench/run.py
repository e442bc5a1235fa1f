"""Benchmark of the dikinwalk CLI; see README.md in this directory.

Usage, from the root of a checkout:

    python3 bench/run.py --workload soft-10x40-2chains --seed 0 --seconds 22 --trace 0

Inputs come from the seed. Each run starts fresh worker processes (worker.py)
that call `dikinwalk.cli.main(argv)` in-process: several that time set-up,
and one that repeats the workload's command for `--seconds` (untraced), or
that alternates untraced and traced runs of it (`--trace 1`). This process
then checks every output. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
full record, which is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import ess

START = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # records and spans

SETUP_PROBES = 9  # fresh processes per run that time set-up; the median is reported
INSTANCES = 4  # random polytopes per sampling run; worker.inputs_for picks one per command
ORACLE_SAMPLES = 20_000
Z_LIMIT = 5.0  # in pooled standard errors; see README.md, "Correctness checks"
DEADLINE_S = 170  # a run that has not finished by then is stopped
# metric names and units, as declared for the benchmark
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
# the trailing stats block of a sample CSV, after the manifest and the rows
STATS_PREFIXES = ("# proposed=", "# lazy_skips=", "# step_size=")

# Why each workload exists is in README.md. `steps`, `burn_in` and `thin` are
# per command, which is repeated for --seconds; `warm` is the (steps, burn_in)
# or trials of the short same-seed command run twice before timing.
# lewis-10x40 runs by name but is not declared in BENCHMARK.json: a run holds
# too little ESS for a bounded ess_per_s (see README.md).
WORKLOADS = {
    "soft-10x40-2chains": dict(
        n=10, m=40, metric="soft", acceptance=0.2, chains=2, init="warmstart",
        steps=5_000, burn_in=500, thin=1, warm=(200, 50),
    ),
    "soft-100x1000": dict(
        n=100, m=1000, metric="soft", sigma=0.05, chains=1, init="origin",
        steps=4_500, burn_in=500, thin=25, warm=(200, 50),
    ),
    "lewis-10x40": dict(
        n=10, m=40, metric="lewis", acceptance=0.2, chains=1, init="origin",
        steps=640, burn_in=160, thin=5, warm=(60, 20),
    ),
    "certify": dict(trials=40, warm=20),
}
STEP_SIZE = "0.5"  # initial r; --adapt tunes it during burn-in


def calibrated_sigma(P, rng, acceptance: float, draws: int = 20_000) -> float:
    """sigma at which N(0, sigma^2 I) lands in P with the given probability.

    For a draw sigma * z the polytope {Ax > b} (b < 0, origin interior) is
    hit exactly when sigma < min over a_i.z < 0 of b_i / a_i.z, so the
    acceptance is the upper tail of that per-draw limit.
    """
    z = rng.standard_normal((draws, P.n))
    az = z @ P.A.T
    with np.errstate(divide="ignore"):
        limits = np.where(az < 0.0, P.b / az, np.inf).min(axis=1)
    return float(np.quantile(limits, 1.0 - acceptance))


def make_inputs(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files, P<i>.txt and G<i>.txt; return them parsed."""
    from dikinwalk.cli import serialize_gaussian
    from dikinwalk.diagnostics import random_polytope_with_interior
    from dikinwalk.polytope import serialize_polytope
    from dikinwalk.target import GaussianTarget

    spec = WORKLOADS[name]
    inputs = {"spec": spec, "P": [], "gauss": [], "sigma": []}
    if name == "certify":
        return inputs
    for i in range(INSTANCES):
        rng = np.random.default_rng([seed, i])
        P, _ = random_polytope_with_interior(spec["n"], spec["m"], rng)
        sigma = spec.get("sigma") or calibrated_sigma(P, rng, spec["acceptance"])
        gauss = GaussianTarget(mu=np.zeros(spec["n"]), Sigma=sigma**2 * np.eye(spec["n"]))
        (workdir / f"P{i}.txt").write_text(serialize_polytope(P))
        (workdir / f"G{i}.txt").write_text(serialize_gaussian(gauss))
        inputs["P"].append(P)
        inputs["gauss"].append(gauss)
        inputs["sigma"].append(sigma)
    return inputs


def workload_argv(name: str, spec: dict, steps: int, burn_in: int, chains: int) -> list:
    """CLI arguments, relative to a directory one level below the work directory."""
    if name == "certify":
        return ["diagnose", "--trials", str(steps), "--seed", "{seed}", "--out", "d.txt"]
    argv = ["sample", "--polytope", "../P{instance}.txt", "--gaussian", "../G{instance}.txt",
            "--metric", spec["metric"], "--lambda-from-beta", "--adapt",
            "--step-size", STEP_SIZE, "--steps", str(steps), "--burn-in", str(burn_in),
            "--thin", str(spec["thin"]), "--chains", str(chains),
            "--seed", "{seed}", "--out", "out.csv"]
    if spec["init"] == "warmstart":
        return argv + ["--init-warmstart"]
    return argv + ["--init-point"] + ["0"] * spec["n"]


def certify_trials(trials: int) -> int:
    """Trials `diagnose --trials T` runs: 20 instances x 3 reports x max(1, T // 20).

    The report's own `trials=` fields count checks, of which a trial makes one
    or two depending on random draws, so they are not used as the op count.
    """
    return 3 * 20 * max(1, trials // 20)


def worker_config(name: str, seed: int, workdir: Path, seconds: float) -> dict:
    """The worker's settings; its argument lists are templates that worker.py fills."""
    spec = WORKLOADS[name]
    chains = spec.get("chains", 1)
    if name == "certify":
        size, warm, setup = (spec["trials"], 0), (spec["warm"], 0), None
    else:
        size, warm, setup = (spec["steps"], spec["burn_in"]), spec["warm"], (0, 0)
    return {
        "src": str(SRC),
        "workdir": str(workdir),
        "seconds": seconds,
        "argv": workload_argv(name, spec, *size, chains),
        "seed_base": seed * 1000,
        "seed_stride": 10,
        "instances": INSTANCES if name != "certify" else 1,
        "chains": chains,
        # warming up also matters: the first (100, 1000) run in a process is ~3x slower
        "warmup_argv": workload_argv(name, spec, *warm, chains),
        "setup_argv": workload_argv(name, spec, *setup, chains) if setup else None,
        "single_chain_argv": workload_argv(name, spec, *size, 1) if chains > 1 else None,
    }


def run_worker(cfg: dict, workdir: Path, tag: str) -> tuple:
    """Run worker.py on cfg: (its result, None), or (None, why it gave none).

    subprocess.run kills and reaps the worker at the deadline.
    """
    path = workdir / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(path)],
            capture_output=True, text=True,
            timeout=max(1.0, START + DEADLINE_S - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, f"worker {tag} stopped at the {DEADLINE_S} s deadline"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return None, f"worker {tag} exited {proc.returncode}: {tail}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def read_chains(directory: Path, chains: int) -> list:
    """Samples and the trailing stats block of each chain's CSV."""
    names = ["out.csv"] if chains == 1 else [f"out_{i}.csv" for i in range(chains)]
    out = []
    for name in names:
        text = (directory / name).read_text()
        stats = {}
        for line in text.splitlines():
            if line.startswith(STATS_PREFIXES):
                for item in line[2:].split():
                    key, _, value = item.partition("=")
                    stats[key] = float(value)
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        samples = np.array([[float(v) for v in ln.split(",")] for ln in rows])
        out.append((samples, stats))
    return out


def check_sampling(rep: dict, directory: Path, P) -> tuple:
    """Failures in one sample command's output, and its ESS summed over chains.

    Keeps the samples on the rep for `check_oracle`. Short
    warm-up runs are only checked for interior samples.
    """
    from dikinwalk.polytope import contains

    chains = read_chains(directory, rep["chains"])
    rep["stats"] = [st for _, st in chains]
    failures = []
    if not all(contains(P, x) for samples, _ in chains for x in samples):
        failures.append("sample outside the polytope")
    if rep.get("warm"):
        return failures, 0.0
    per_chain = np.array([[ess.ess(s[:, j]) for j in range(P.n)] for s, _ in chains])
    if not np.all(np.isfinite(per_chain)):
        return failures + ["a coordinate never moved"], 0.0
    if len(chains) > 1:
        rows = min(len(s) for s, _ in chains)
        stacked = np.stack([s[:rows] for s, _ in chains])  # (chains, rows, n)
        rep["rhat_max"] = max(ess.split_rhat(stacked[:, :, j]) for j in range(P.n))
    rep["samples"] = [s for s, _ in chains]
    return failures, float(per_chain.mean(axis=1).sum())


def check_oracle(reps: list, oracles: list) -> None:
    """Per instance, the mean of every chain sampled on it must match the oracle's.

    Chains are pooled per instance (identical outputs counted once), with
    standard errors from the ESS of their pooled mean (`ess.ess_chains`),
    not the row count. A mismatch fails every repetition that sampled the
    instance.
    """
    groups: dict[int, list] = {}
    for rep in reps:
        if "samples" in rep:
            groups.setdefault(rep["instance"], []).append(rep)
    for i, group in groups.items():
        distinct = list({rep["sha256"]: rep for rep in group}.values())
        rows = min(len(s) for rep in distinct for s in rep["samples"])
        chains = np.stack([s[:rows] for rep in distinct for s in rep["samples"]])
        pooled = chains.reshape(-1, chains.shape[2])
        pooled_ess = np.array([ess.ess_chains(chains[:, :, j]) for j in range(chains.shape[2])])
        oracle = oracles[i]
        se2 = pooled.var(axis=0, ddof=1) / pooled_ess + oracle.var(axis=0, ddof=1) / len(oracle)
        z = float(np.max(np.abs(pooled.mean(axis=0) - oracle.mean(axis=0)) / np.sqrt(se2)))
        for rep in group:
            rep["max_abs_z"] = z
            if z > Z_LIMIT:
                rep["failures"].append(f"instance {i}: chain mean off the oracle by {z:.2f} SE")


def check_certify(rep: dict, directory: Path) -> list:
    """Failures in one diagnose command's report."""
    lines = [ln for ln in (directory / "d.txt").read_text().splitlines()
             if ln and not ln.startswith("#")]
    fields = [dict(item.split("=", 1) for item in ln.split()[1:]) for ln in lines]
    if len(fields) != 3:
        return [f"{len(fields)} reports instead of 3"]
    rep["violations"] = sum(int(f["violations"]) for f in fields)
    return [f"{rep['violations']} certification violations"] if rep["violations"] else []


def check_reps(name: str, reps: list, workdir: Path, inputs: dict, oracles) -> list:
    """Check every command's output; set each rep's failures, ops and ESS.

    An op is a Markov transition (summed over chains) of `sample`, or a
    certification trial of `diagnose` (see `certify_trials`).
    """
    spec = inputs["spec"]
    for rep in reps:
        rep["failures"], rep["ops"], rep["ess"] = [], 0, 0.0
        if rep["error"] is not None:
            rep["failures"].append("traceback: " + rep["error"].strip().splitlines()[-1])
            continue
        if rep["rc"] != 0:
            rep["failures"].append(f"exit code {rep['rc']}")
            continue
        directory = workdir / rep["dir"]
        try:
            if name == "certify":
                found = check_certify(rep, directory)
                rep["ops"] = certify_trials(spec["warm"] if rep.get("warm") else spec["trials"])
                rep["ess"] = rep["ops"]  # certification trials are independent draws
            else:
                rep.setdefault("chains", spec["chains"])
                P = inputs["P"][rep["instance"]]
                found, rep["ess"] = check_sampling(rep, directory, P)
                per_chain = (sum(spec["warm"]) if rep.get("warm")
                             else spec["steps"] + spec["burn_in"])
                rep["ops"] = rep["chains"] * per_chain
        except (OSError, ValueError, KeyError) as exc:
            found = [f"unreadable output: {exc!r}"]
        rep["failures"] += found
    if oracles:
        check_oracle(reps, oracles)
    for rep in reps:
        rep.pop("samples", None)
    return reps


def check_same_output(reps: list, first: dict) -> None:
    """Commands with the same arguments must write byte-identical output."""
    for rep in reps:
        if rep["sha256"] != first["sha256"]:
            rep["failures"].append(f"output differs from same-seed {first['dir']}")


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 of the library sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dikinwalk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, worker: dict) -> dict:
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": worker.get("openblas", []),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def trace_layers(name: str, worker: dict, reps: list, workdir: Path) -> dict:
    """Per-layer metrics: the worker's span metrics plus counters from the outputs."""
    layers = dict(worker["layers"])
    traced = [r for r in reps if r["dir"].startswith("traced") and not r["failures"]]
    stats = [st for r in traced for st in r.get("stats", [])]
    if stats:
        proposed = sum(st["proposed"] for st in stats)
        recorded = sum(st["proposed"] + st["lazy_skips"] for st in stats)
        layers["walk.accept_frac"] = sum(st["accepted"] for st in stats) / proposed
        layers["walk.outside_frac"] = sum(st["rejected_outside"] for st in stats) / proposed
        layers["walk.lazy_frac"] = sum(st["lazy_skips"] for st in stats) / recorded
        layers["walk.step_size_r"] = float(np.mean([st["step_size"] for st in stats]))
    if traced:
        layers["cli.csv_bytes"] = float(np.mean([
            sum(p.stat().st_size for p in (workdir / r["dir"]).glob("*.csv"))
            for r in traced]))
    if name == "certify" and traced:
        trials = float(np.mean([r["ops"] for r in traced]))
        layers["diagnostics.evals_per_trial"] = layers["metrics.evals"] / trials
        layers["diagnostics.violations"] = float(np.mean([r["violations"] for r in traced]))
    return {k: {"value": layers.get(k, 0.0), "unit": unit} for k, unit in LAYER_UNITS.items()}


def e2e_metrics(reps: list, setups: list, worker: dict) -> dict:
    """End-to-end metrics of the timed repetitions that passed every check.

    Rates are those of one pass over the input instances: per instance, the
    ops and mean ESS of its repetitions over the mean wall time of those that
    ran free of steal (of all of them, where none did). Taking each instance
    once keeps the mix fixed however many repetitions each got.
    """
    by_instance: dict[int, list] = {}
    for r in reps:
        if r["dir"].startswith("rep") and not r["failures"]:
            by_instance.setdefault(r["instance"], []).append(r)
    ops = wall = ess_sum = 0.0
    for group in by_instance.values():
        timed = [r for r in group if r["clean"]] or group
        ops += group[0]["ops"]
        ess_sum += statistics.fmean(r["ess"] for r in group)
        wall += statistics.fmean(r["wall_s"] for r in timed)
    values = {
        "steps_per_s": ops / wall if wall else 0.0,
        "ess_per_s": ess_sum / wall if wall else 0.0,
        "setup_s": statistics.median(p["setup_s"] for p in setups) if setups else 0.0,
        "peak_rss_mb": worker["peak_rss_mb"] if worker else 0.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    inputs = make_inputs(name, seed, workdir)
    cfg = worker_config(name, seed, workdir, seconds)
    oracles = None
    if name == "soft-10x40-2chains":
        from dikinwalk.diagnostics import rejection_oracle

        oracles = [rejection_oracle(g, P, ORACLE_SAMPLES,
                                    np.random.default_rng([seed, i, 1])).samples
                   for i, (g, P) in enumerate(zip(inputs["gauss"], inputs["P"]))]
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "sigma": inputs["sigma"]}

    setups, ops = [], []  # ops: one dict with "dir" and "failures" per operation
    if trace:
        cfg.update(mode="trace", spans_path=str(OUT / f"spans-{name}-seed{seed}.csv"))
    else:
        cfg.update(mode="run")
        for i in range(SETUP_PROBES):
            probe, why = run_worker(dict(cfg, mode="setup", setup_dir=f"setup{i}"), workdir,
                                    f"setup{i}")
            if probe is not None and probe["rc"] != 0:
                why = f"exit code {probe['rc']}"
            elif probe is not None:
                setups.append(probe)
            ops.append({"dir": f"setup{i}", "failures": [why] if why else []})
    worker, why = run_worker(cfg, workdir, cfg["mode"])
    if worker is None:
        # the worker's commands are lost with it; it counts as one failed operation
        reps = [{"dir": cfg["mode"], "failures": [why]}]
        if trace:
            metrics = {k: {"value": 0.0, "unit": u} for k, u in LAYER_UNITS.items()}
        else:
            metrics = e2e_metrics(reps, setups, worker)
        warm = []
    else:
        reps = check_reps(name, worker["reps"], workdir, inputs, oracles)
        warm = [r for r in reps if r.get("warm")]
        check_same_output(warm[1:], warm[0])
        if trace:
            plain = [r for r in reps if r["dir"].startswith(("plain", "traced"))]
            check_same_output(plain[1:], plain[0])  # tracing must not change the output
            metrics = trace_layers(name, worker, reps, workdir)
            record.update(
                plain_wall_s=worker["plain_wall_s"], traced_wall_s=worker["traced_wall_s"],
                absent_hooks=worker["absent_hooks"], spans=worker["spans"],
                spans_path=cfg["spans_path"])
        else:
            metrics = e2e_metrics(reps, setups, worker)
            record["steal_frac"] = worker["steal_frac"]
            timed = [r for r in reps if r["dir"].startswith("rep")]
            record["clean_frac"] = sum(r["clean"] for r in timed) / len(timed)
    if not trace:
        record["setup_s_all"] = [p["setup_s"] for p in setups]
    reps += ops

    record.update(
        output_sha256=warm[0]["sha256"] if warm else None,
        reps=[{k: r.get(k) for k in ("dir", "index", "instance", "seed", "wall_s", "cpu_s",
                                     "steal_frac", "ops", "ess", "max_abs_z", "rhat_max",
                                     "sha256")}
              for r in reps if "wall_s" in r],
        attempted=len(reps),
        failed=sum(1 for r in reps if r["failures"]),
        failures=[f"{r['dir']}: {f}" for r in reps for f in r["failures"]],
        metrics=metrics,
        provenance=provenance(seed, worker or {}),
    )
    record["fail_frac"] = record["failed"] / record["attempted"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dikinwalk" / "__init__.py").is_file():
        print(f"error: no dikinwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
