"""In-memory span tracing of the dikinwalk CLI, hooked from outside the library.

`Tracer.install` replaces public module-level names (for example
`dikinwalk.walk.evaluate_metric`) with wrappers that record one span per
call: name, start, end, parent span, run id and thread. Names are looked up
where the caller finds them, so `dikinwalk.walk.contains` times the walk's
membership tests and `dikinwalk.diagnostics.contains` the certification's.
A hooked name that no longer exists is reported as absent, never as an error.
`Tracer.uninstall` puts the originals back. `layer_metrics` turns the spans
of one command into per-layer numbers.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
import time

import numpy as np

# (module, attribute, span name); a span name may be shared by several hooks
HOOKS = [
    ("dikinwalk.cli", "build_parser", "cli.build_parser"),
    ("dikinwalk.cli", "parse_polytope", "cli.parse_polytope"),
    ("dikinwalk.cli", "parse_gaussian", "cli.parse_gaussian"),
    ("dikinwalk.cli", "format_csv", "cli.format_csv"),
    ("dikinwalk.cli", "solve_modes", "planner.solve_modes"),
    ("dikinwalk.cli", "warm_start_ball", "planner.warm_start"),
    ("dikinwalk.cli", "sample_warm_start", "planner.warm_start"),
    ("dikinwalk.cli", "quadratic_target", "target.quadratic_target"),
    ("dikinwalk.cli", "contains", "polytope.contains"),
    ("dikinwalk.cli", "run", "walk.run"),
    ("dikinwalk.cli", "diagnose_corpus", "diagnostics.diagnose_corpus"),
    ("dikinwalk.walk", "step", "walk.step"),
    ("dikinwalk.walk", "propose", "walk.propose"),
    ("dikinwalk.walk", "contains", "polytope.contains"),
    ("dikinwalk.walk", "evaluate_metric", "metrics.evaluate_metric"),
    ("dikinwalk.metrics", "lewis_weights", "metrics.lewis_weights"),
    ("dikinwalk.diagnostics", "certify_ssc", "diagnostics.certify_ssc"),
    ("dikinwalk.diagnostics", "certify_symmetry", "diagnostics.certify_symmetry"),
    ("dikinwalk.diagnostics", "evaluate_metric", "metrics.evaluate_metric"),
    ("dikinwalk.diagnostics", "contains", "polytope.contains"),
]


def _gram_flops(args, result) -> float:
    """Computed flops of one metric evaluation: 2 m n^2 (Gram) + n^3 / 3 (Cholesky)."""
    P = args[0]
    return 2.0 * P.m * P.n * P.n + P.n**3 / 3.0


def _lewis_iterations(args, result) -> float:
    return float(result.iterations)


def _is_lewis(args, result) -> float:
    """1 for a certification of the Lewis metric, 0 for the soft-threshold one."""
    return 0.0 if type(args[2]).__name__ == "SoftThreshold" else 1.0


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # rows of (span id, parent id, run id, thread id, name id, start ns, end ns, value)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.run_id = 0
        self._root = -1
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args=(), kwargs=None, value=None):
        """Call fn(*args, **kwargs) inside a span; value(args, result) is stored with it."""
        name_id = self._name_id(name)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        # a span opened on a pool thread with nothing open there hangs off the command
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        result = ok = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            v = value(args, result) if ok and value is not None else 0.0
            self.spans.append(
                (span_id, parent, self.run_id, threading.get_ident(), name_id,
                 start, end, v)
            )

    def command(self, run_id: int, fn, *args):
        """Trace one CLI command as the root span of run `run_id`."""
        self.run_id = run_id
        with self._lock:
            self._root = self._next_id
            self._next_id += 1
        root = self._root
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.spans.append(
                (root, -1, run_id, threading.get_ident(), self._name_id("cli.main"),
                 start, end, 0.0)
            )
            self._root = -1

    def _wrap(self, name: str, fn, value=None):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, value)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        values = {
            "metrics.evaluate_metric": _gram_flops,
            "metrics.lewis_weights": _lewis_iterations,
            "diagnostics.certify_ssc": _is_lewis,
        }
        self.absent = []
        for module_name, attr, name in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name == "target.quadratic_target":
                traced = self._traced_target_factory(original)
            elif name == "cli.build_parser":
                traced = self._traced_parser_factory(original)
            else:
                traced = self._wrap(name, original, values.get(name))
            setattr(module, attr, traced)
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _traced_target_factory(self, factory):
        """Wrap the factory so the target it builds has a traced f."""
        tracer = self

        def traced(*args, **kwargs):
            target = tracer.span("target.quadratic_target", factory, args, kwargs)
            return dataclasses.replace(target, f=tracer._wrap("target.f", target.f))

        return traced

    def _traced_parser_factory(self, factory):
        """Wrap the factory so argument parsing on the parser it builds is traced."""
        tracer = self

        def traced(*args, **kwargs):
            parser = tracer.span("cli.build_parser", factory, args, kwargs)
            parser.parse_args = tracer._wrap("cli.parse_args", parser.parse_args)
            return parser

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,run,thread,name,start_ns,end_ns,value\n")
            for sid, parent, run, thread, name_id, start, end, v in self.spans:
                fh.write(
                    f"{sid},{parent},{run},{thread},{self.names[name_id]},"
                    f"{start},{end},{v!r}\n"
                )


def _union_ns(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclasses.dataclass
class SpanTable:
    """The spans of selected runs, grouped by name, with self times."""

    duration: dict  # name -> np.ndarray of durations in seconds
    self_time: dict  # name -> np.ndarray of self times in seconds
    value: dict  # name -> np.ndarray of recorded values
    has_child: dict  # name -> np.ndarray of bool, per span
    runs: int

    def total(self, *names: str) -> float:
        return float(sum(self.duration[n].sum() for n in names if n in self.duration))

    def self_total(self, name: str) -> float:
        return float(self.self_time[name].sum()) if name in self.self_time else 0.0

    def count(self, name: str) -> int:
        return int(self.duration[name].shape[0]) if name in self.duration else 0


def span_table(tracer: Tracer, run_ids) -> SpanTable:
    run_ids = set(run_ids)
    rows = [r for r in tracer.spans if r[2] in run_ids]
    children: dict[int, list] = {}
    for sid, parent, _, _, _, start, end, _ in rows:
        children.setdefault(parent, []).append((start, end))
    grouped: dict[str, list] = {}
    for sid, parent, _, _, name_id, start, end, v in rows:
        kids = children.get(sid, ())
        covered = _union_ns(
            (max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)
        )
        grouped.setdefault(tracer.names[name_id], []).append(
            ((end - start) * 1e-9, (end - start - covered) * 1e-9, v, bool(kids))
        )
    table = SpanTable({}, {}, {}, {}, len(run_ids))
    for name, items in grouped.items():
        arr = np.array(items, dtype=float)
        table.duration[name] = arr[:, 0]
        table.self_time[name] = arr[:, 1]
        table.value[name] = arr[:, 2]
        table.has_child[name] = arr[:, 3].astype(bool)
    return table


def layer_metrics(t: SpanTable) -> dict:
    """Per-layer metrics of the CLI, per command (totals divided by runs)."""
    per = 1.0 / max(t.runs, 1)
    steps = t.duration.get("walk.step", np.zeros(0))
    proposing = steps[t.has_child["walk.step"]] if steps.size else steps
    proposals = t.count("walk.propose")
    evals = t.count("metrics.evaluate_metric")
    eval_self = t.self_total("metrics.evaluate_metric")
    lewis_iters = t.value.get("metrics.lewis_weights", np.zeros(0))
    flops = float(t.value.get("metrics.evaluate_metric", np.zeros(0)).sum())
    ssc = t.duration.get("diagnostics.certify_ssc", np.zeros(0))
    ssc_lewis = t.value.get("diagnostics.certify_ssc", np.zeros(0)) == 1.0

    def pct(arr, q):
        return float(np.percentile(arr, q)) * 1e6 if arr.size else 0.0

    return {
        "cli.parse_s": per
        * t.total("cli.build_parser", "cli.parse_args", "cli.parse_polytope",
                  "cli.parse_gaussian"),
        "cli.format_csv_s": per * t.total("cli.format_csv"),
        "planner.solve_modes_s": per * t.total("planner.solve_modes"),
        "planner.warm_start_s": per * t.total("planner.warm_start"),
        "walk.step_p50_us": pct(proposing, 50),
        "walk.step_p99_us": pct(proposing, 99),
        "walk.step_samples": float(proposing.size),
        "walk.self_s": per * t.self_total("walk.step"),
        "walk.propose_s": per * t.total("walk.propose"),
        "polytope.contains_calls": per * t.count("polytope.contains"),
        "polytope.contains_s": per * t.total("polytope.contains"),
        "target.f_calls": per * t.count("target.f"),
        "target.f_s": per * t.total("target.f"),
        "metrics.evals": per * evals,
        "metrics.evals_per_proposal": evals / proposals if proposals else 0.0,
        "metrics.eval_s": per * eval_self,
        "metrics.eval_p50_us": pct(t.duration.get("metrics.evaluate_metric", np.zeros(0)), 50),
        # computed from the formula, not measured by hardware counters
        "metrics.gram_gflops": flops / eval_self * 1e-9 if eval_self > 0 else 0.0,
        "metrics.lewis_calls": per * lewis_iters.size,
        "metrics.lewis_iters_mean": float(lewis_iters.mean()) if lewis_iters.size else 0.0,
        "metrics.lewis_s": per * t.total("metrics.lewis_weights"),
        "diagnostics.ssc_soft_s": per * float(ssc[~ssc_lewis].sum()),
        "diagnostics.ssc_lewis_s": per * float(ssc[ssc_lewis].sum()),
        "diagnostics.symmetry_s": per * t.total("diagnostics.certify_symmetry"),
    }
