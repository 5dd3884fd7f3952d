"""Spans around the calls into each cfgdag layer, for the traced run.

The tracer replaces the public functions and methods in TARGETS at every
cfgdag module attribute that refers to them, which is where callers look
them up, and puts the originals back afterwards. Nothing inside ``src/`` is
changed. Spans are kept in memory as (name, start, end, parent, op, failed)
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path) of every wrapped function or method. A span is
# named "<module without the cfgdag. prefix>.<attribute path>".
TARGETS = [
    ("cfgdag.lang", "parse_program"),
    ("cfgdag.build", "build_cfg"),
    ("cfgdag.build", "cfg_from_source"),
    ("cfgdag.cfg", "prune_unreachable"),
    ("cfgdag.cfg", "ControlFlowGraph.from_json"),
    ("cfgdag.loops", "compute_dominators"),
    ("cfgdag.loops", "recover_loop_forest"),
    ("cfgdag.loops", "loop_regions"),
    ("cfgdag.decomposition", "partition_edges"),
    ("cfgdag.decomposition", "build_decomposition"),
    ("cfgdag.decomposition", "DagDecomposition.to_json"),
    ("cfgdag.validate", "validate_cfg_decomposition"),
    ("cfgdag.validate", "ValidationReport.to_json"),
    ("cfgdag.game", "brute_force_cop_number"),
    ("cfgdag.parity", "build_product_game"),
    ("cfgdag.parity", "lift_decomposition"),
    ("cfgdag.parity", "GameGraph.to_json"),
]
SOLVER = ("cfgdag.game", "PursuitSolver")
ROOT = "cli.main"

# Per-op counters: metric name -> (unit, the wrapped names it needs). Sizes
# are averaged over the ops that reached the span that records them, the
# other counters over every traced op.
SIZES = {"cfg.vertices", "cfg.edges", "loops.elements", "decomposition.arcs",
         "decomposition.width", "parity.game_vertices"}
COUNTERS = {
    "loops.compute_dominators.calls": ("count", ["loops.compute_dominators"]),
    "loops.loop_regions.failed": ("count", ["loops.loop_regions"]),
    "validate.validate_cfg_decomposition.maxrss_delta_mb": ("MiB", ["validate.validate_cfg_decomposition"]),
    "game.solver.states": ("count", ["game.PursuitSolver"]),
    "game.solver.k_max": ("count", ["game.PursuitSolver"]),
    "cfg.vertices": ("count", ["loops.loop_regions"]),
    "cfg.edges": ("count", ["loops.loop_regions"]),
    "loops.elements": ("count", ["loops.loop_regions"]),
    "decomposition.arcs": ("count", ["decomposition.build_decomposition"]),
    "decomposition.width": ("count", ["decomposition.build_decomposition"]),
    "parity.game_vertices": ("count", ["parity.build_product_game"]),
}


def span_name(module: str, path: str) -> str:
    return f"{module.removeprefix('cfgdag.')}.{path}"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.solvers: list = []
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = self._prepare()

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        return result

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as op number `op` under a root span."""
        self.op = op
        try:
            return self._call(ROOT, fn, args, {})
        finally:
            counts = self.counts[op]
            counts["game.solver.states"] += sum(len(s.memo) for s in self.solvers)
            counts["game.solver.k_max"] += max((s.k for s in self.solvers), default=0)
            self.solvers.clear()  # frees them within this op, outside the root span
            self.op = None

    # -- wrapping ----------------------------------------------------------

    def _observe(self, name: str, args, result, failed: bool, rss_before: float) -> None:
        """Counters and sizes, taken from a wrapped call's arguments and result."""
        counts = self.counts[self.op]
        if name == "loops.compute_dominators":
            counts["loops.compute_dominators.calls"] += 1
        elif name == "loops.loop_regions":
            counts["loops.loop_regions.failed"] += failed
            cfg, forest = args[0], args[1]
            counts["cfg.vertices"] += cfg.n_vertices
            counts["cfg.edges"] += cfg.n_edges
            counts["loops.elements"] += len(forest.elements)
        elif name == "decomposition.build_decomposition" and result is not None:
            counts["decomposition.arcs"] += len(result.arcs)
            counts["decomposition.width"] += result.width()
        elif name == "parity.build_product_game" and result is not None:
            counts["parity.game_vertices"] += len(result.state_of)
        elif name == "validate.validate_cfg_decomposition":
            counts["validate.validate_cfg_decomposition.maxrss_delta_mb"] += _maxrss_mb() - rss_before

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss = _maxrss_mb()
            index = len(self.spans)
            result = None
            try:
                result = self._call(name, fn, args, kwargs)
                return result
            finally:
                self._observe(name, args, result, self.spans[index][5], rss)
        return wrapper

    def _prepare(self):
        """Work out every (owner, attribute, replacement) once; record missing names."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cfgdag" or n.startswith("cfgdag.")]
        plan = []
        for module_name, path in TARGETS + [SOLVER]:
            name = span_name(module_name, path)
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for p in parents:
                    owner = getattr(owner, p)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if (module_name, path) == SOLVER:
                tracer = self

                class Tracked(original):
                    def __init__(self, *args, **kwargs):
                        super().__init__(*args, **kwargs)
                        tracer.solvers.append(self)
                replacement = Tracked
            elif isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            if parents:
                plan.append((owner, attr, replacement))
            else:
                plan.extend((m, a, replacement) for m in modules
                            for a, v in vars(m).items() if v is original)
        return plan

    def install(self) -> None:
        for owner, attr, replacement in self._wrappers:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, scales: dict[int, float]) -> tuple[dict[str, tuple[float, str]], float]:
        """Per-op means over the traced ops, and the self time summed over all spans (ms).

        Times are scaled by each op's factor in `scales`, as the run's op times are.
        """
        ops = sorted(self.counts)
        n = len(ops)
        self_ms: dict[str, float] = defaultdict(float)
        for name, start, end, parent, op, _ in self.spans:
            ms = (end - start) * 1e3 * scales[op]
            self_ms[name] += ms
            if parent >= 0:
                self_ms[self.spans[parent][0]] -= ms
        metrics: dict[str, tuple[float, str]] = {}
        for module_name, path in TARGETS:
            name = span_name(module_name, path)
            if name not in self.missing:
                metrics[f"{name}.ms"] = (self_ms.get(name, 0.0) / n, "ms")
        metrics["cli.other.ms"] = (self_ms.get(ROOT, 0.0) / n, "ms")
        for metric, (unit, needs) in COUNTERS.items():
            if any(need in self.missing for need in needs):
                continue
            seen = [self.counts[op][metric] for op in ops if metric in self.counts[op]]
            divisor = len(seen) if metric in SIZES else n
            metrics[metric] = (sum(seen) / divisor if seen else 0.0, unit)
        return metrics, sum(self_ms.values())

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "failed": failed}) + "\n")
