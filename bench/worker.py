"""One benchmark process: runs `dikinwalk.cli.main(argv)` in-process and times it.

Started by run.py as `python3 worker.py CONFIG.json`, with CONFIG written by
run.py. Modes:

- setup: time from process start (before numpy is imported) to the end of
  the workload's set-up command, once.
- run: warm up, then repeat the workload's command until the repetitions
  free of hypervisor steal (see `STEAL_LIMIT`) add up to `seconds` of wall
  time and cover every input instance, or until `MAX_STRETCH` x `seconds`
  have passed. Repetition k runs in directory rep<k> with inputs k (see
  `inputs_for`).
- trace: warm up, then alternate an untraced and a traced run on inputs 0
  (plus a traced single-chain run when the workload runs a pool), and
  derive per-layer metrics from the spans.

Warming up runs a short command on inputs 0 twice, in warm0 and warm1, so
that their outputs can be compared byte for byte. Every command's record
carries the `seed` and `instance` it ran with.

Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


OPENBLAS_SYMBOLS = [("scipy_openblas", "64_"), ("scipy_openblas", ""),
                    ("openblas", "64_"), ("openblas", "")]


# a repetition during which the hypervisor took more than this share of the
# CPUs' time is left out of the timing (it still counts as an operation)
STEAL_LIMIT = 0.05
# the timed loop gives up waiting for steal-free repetitions after this many x seconds
MAX_STRETCH = 1.25


def inputs_for(cfg: dict, index: int) -> dict:
    """CLI seed and input instance of argument set `index`.

    Chains use CLI seeds seed, seed + 1, ...; the stride keeps sets apart.
    """
    return {"seed": cfg["seed_base"] + cfg["seed_stride"] * index,
            "instance": index % cfg["instances"]}


def argv_for(template: list, inputs: dict) -> list:
    return [a.replace("{seed}", str(inputs["seed"]))
            .replace("{instance}", str(inputs["instance"])) for a in template]


def output_digest(directory: str) -> str:
    """SHA-256 over the names and bytes of every file a command wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_command(main, template: list, inputs: dict, directory: str, call=None) -> dict:
    """Run one CLI command in a fresh directory; an exception counts as a failure."""
    argv = argv_for(template, inputs)
    os.makedirs(directory)
    here = os.getcwd()
    os.chdir(directory)
    error = None
    steal, total = cpu_ticks()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        rc = call(main, argv) if call else main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    except Exception:
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    steal1, total1 = cpu_ticks()
    os.chdir(here)
    steal_frac = (steal1 - steal) / (total1 - total) if total1 > total else 0.0
    return dict(
        inputs,
        dir=directory,
        rc=rc,
        error=error,
        wall_s=wall,
        cpu_s=cpu,
        steal_frac=steal_frac,
        clean=steal_frac <= STEAL_LIMIT,
        sha256=output_digest(directory),
    )


def openblas_info() -> list:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        # scipy's wheels prefix the symbols and suffix the 64-bit-integer build
        for prefix, suffix in OPENBLAS_SYMBOLS:
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                found.append({"library": os.path.basename(path),
                              "config": config().decode(), "threads": threads()})
                break
    return found


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of all CPUs; steal is time the hypervisor took away."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def warm_up(main, cfg: dict) -> list:
    return [dict(run_command(main, cfg["warmup_argv"], inputs_for(cfg, 0), f"warm{i}"),
                 warm=True)
            for i in range(2)]


def mode_setup(cfg: dict) -> dict:
    from dikinwalk import cli

    os.makedirs(cfg["setup_dir"])
    os.chdir(cfg["setup_dir"])
    try:
        if cfg["setup_argv"] is None:
            cli.build_parser().parse_args(argv_for(cfg["argv"], inputs_for(cfg, 0)))
            rc = 0
        else:
            rc = cli.main(argv_for(cfg["setup_argv"], inputs_for(cfg, 0)))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    return {"setup_s": time.perf_counter() - T0, "rc": rc}


def mode_run(cfg: dict) -> dict:
    from dikinwalk import cli

    warm = warm_up(cli.main, cfg)
    reps = []
    steal0, total0 = cpu_ticks()
    start = time.perf_counter()

    def done() -> bool:
        clean = [r for r in reps if r["clean"]]
        if (len({r["instance"] for r in clean}) == cfg["instances"]
                and sum(r["wall_s"] for r in clean) >= cfg["seconds"]):
            return True
        return (time.perf_counter() - start >= MAX_STRETCH * cfg["seconds"]
                and len({r["instance"] for r in reps}) == cfg["instances"])

    while not done():
        k = len(reps)
        reps.append(dict(run_command(cli.main, cfg["argv"], inputs_for(cfg, k), f"rep{k}"),
                         index=k))
    steal1, total1 = cpu_ticks()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "reps": warm + reps,
        "peak_rss_mb": peak_kb / 1024.0,
        "steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
    }


def mode_trace(cfg: dict) -> dict:
    import numpy as np

    from dikinwalk import cli
    from spans import Tracer, layer_metrics, span_table

    tracer = Tracer()
    warm = warm_up(cli.main, cfg)
    argv, inputs = cfg["argv"], inputs_for(cfg, 0)
    single = cfg["single_chain_argv"]
    plain, traced, traced_single = [], [], []
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < cfg["seconds"]:
        plain.append(run_command(cli.main, argv, inputs, f"plain{cycle}"))
        tracer.install()
        try:
            rep = run_command(cli.main, argv, inputs, f"traced{cycle}",
                              lambda m, a: tracer.command(2 * cycle, m, a))
            traced.append(dict(rep, run=2 * cycle))
            if single is not None:
                rep = run_command(cli.main, single, inputs, f"single{cycle}",
                                  lambda m, a: tracer.command(2 * cycle + 1, m, a))
                traced_single.append(dict(rep, run=2 * cycle + 1, chains=1))
        finally:
            tracer.uninstall()
        cycle += 1
    metrics = layer_metrics(span_table(tracer, [r["run"] for r in traced]))
    plain_wall = float(np.median([r["wall_s"] for r in plain]))
    traced_wall = float(np.median([r["wall_s"] for r in traced]))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    if single is not None:
        # chains x the single-chain wall time over the pool's wall time
        single_wall = float(np.median([r["wall_s"] for r in traced_single]))
        metrics["cli.pool_efficiency"] = cfg["chains"] * single_wall / traced_wall
    else:
        metrics["cli.pool_efficiency"] = 1.0
    tracer.write_csv(cfg["spans_path"])
    return {
        "reps": warm + plain + traced + traced_single,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "layers": metrics,
        "absent_hooks": tracer.absent,
        "spans": len(tracer.spans),
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    os.chdir(cfg["workdir"])
    result = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}[cfg["mode"]](cfg)
    result["openblas"] = openblas_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
