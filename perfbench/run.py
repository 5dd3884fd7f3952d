"""Benchmark of the cfgdag command line: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cfgdag from ``src/`` there.
Set-up writes every op's input file under ``.perfbench-work/``. Each op is
one in-process call to ``cfgdag.cli.main(argv)``, issued when the previous
one has returned; its output file is read back and checked outside the timed
region. The op count is fixed by the workload and ``--seconds``, not by the
clock, so every run of a seed does the same work. Times are reported at a
reference machine speed (see ReferenceClock).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` traces every
second op (see spans.py) and prints the per-layer metrics instead. The last
line of output is one JSON object; the lines before it repeat the metrics
and add diagnostics. See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_OPS = 25  # enough completed ops for op_tail_ms to have 10 samples beyond it


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _walk_graph() -> None:
    n = 1000
    succ = {i: [] for i in range(n)}
    for i in range(n):
        succ[i].append((i * 31 + 7) % n)
        succ[(i * 17) % n].append(i)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    json.dumps({str(k): v for k, v in succ.items()}, indent=2)


def _hash_integers(n: int) -> None:
    table, x = {}, 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 3, i & 7)
        table[key] = table.get(key, 0) + (x & (x - 1)).bit_length()
    sorted(table.items())


# Probe kernels: fixed pure-Python work that calls no cfgdag code, so a change
# to the program cannot change them. Each comes with its time in the fast
# phase of a 2-vCPU VM (Python 3.11.7), in ms; times are reported at that
# reference speed (see README.md). "graph" builds and walks a graph, writes it
# as JSON and hashes integers, like the graph workloads; "integer" only hashes
# integers into a small dict, like the pursuit solver, whose ops slow down
# less than graph building does in a slow phase.
PROBES = {
    "graph": (lambda: (_walk_graph(), _hash_integers(2000)), 4.5),
    "integer": (lambda: _hash_integers(4000), 4.4),
}


def probe_ms(kind: str) -> float:
    """Time one pass of a probe kernel, in ms."""
    t0 = time.perf_counter()
    PROBES[kind][0]()
    return (time.perf_counter() - t0) * 1e3


class ReferenceClock:
    """Times calls and scales them to the reference speed of one probe kernel.

    The probe runs once just before and once just after each call. A call's
    wall time is multiplied by the probe's reference time over the mean of
    those two runs, so it reads what the call would take on the machine at
    its reference speed. gc.collect() runs before each probe and before the
    call, all outside the timed region, so no probe runs on a call's
    garbage and every call starts on a collected heap; GC stays enabled
    inside the call.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.walls: list[float] = []
        self.probes: list[tuple[float, float]] = []  # (before, after) per call

    def _probe(self) -> float:
        gc.collect()
        return probe_ms(self.kind)

    def time(self, fn, *args):
        """Call fn(*args), timing it, and return its result."""
        before = self._probe()
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args)
        self.walls.append(time.perf_counter() - t0)
        self.probes.append((before, self._probe()))
        return result

    def scaled(self) -> list[float]:
        """The reference seconds of every call timed so far, in order."""
        ref = PROBES[self.kind][1]
        return [wall * ref * 2 / (before + after) for wall, (before, after) in zip(self.walls, self.probes)]


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least 10 samples above it (nearest rank)."""
    n = len(samples)
    p = 100 * (n - 10) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfgdag" / "__init__.py").is_file():
        print(f"error: {SRC / 'cfgdag'} not found; run from the root of a cfgdag checkout",
              file=sys.stderr)
        return 2

    def load():
        sys.path.insert(0, str(SRC))
        import cfgdag
        import spans
        import workloads
        return cfgdag, spans, workloads

    # The workload, and so its probe, is known only once this has run.
    import_clock = ReferenceClock("graph")
    cfgdag, spans, workloads = import_clock.time(load)
    import_s = import_clock.scaled()[0]
    if Path(cfgdag.__file__).resolve().parent != (SRC / "cfgdag").resolve():
        print(f"error: imported cfgdag from {cfgdag.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from cfgdag import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    n_ops = max(MIN_OPS, round(args.seconds / workload.nominal_op_s))
    clock = ReferenceClock(workload.probe)

    # -- set-up: input 0 is the warm-up op, inputs 1..n_ops are timed --------
    ops = [clock.time(workload.make, i) for i in range(n_ops + 1)]
    setup_problem = clock.time(workload.setup_check)

    def call(op):
        try:
            return cli.main(op.argv), None
        except (Exception, SystemExit) as err:  # any escape is a failed op
            return None, err

    def judge(op, rc, err):
        """-> (problem or None, name of the known bug or None, output bytes).

        The output is checked even after a nonzero exit code, so that an
        invalid report is named as such.
        """
        outputs = [path.read_bytes() if path.exists() else b"" for path in op.outputs]
        known = workload.known_failure(err) if err is not None else None
        if err is not None:
            return f"{type(err).__name__}: {err}", known, outputs
        try:
            problem = workload.check(op, outputs)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if rc != 0:
            problem = f"exit code {rc}" + (f", {problem}" if problem else "")
        return problem, None, outputs

    warmup, ops = ops[0], ops[1:]
    problem, known, _ = judge(warmup, *clock.time(call, warmup))
    if problem is not None and not known:
        setup_problem = setup_problem or f"warm-up op: {problem}"
    *corpus, check_s, warmup_s = clock.scaled()
    corpus_s = sum(corpus)
    setup_s = import_s + corpus_s + check_s + warmup_s
    setup_wall_s = time.perf_counter() - T_START

    # -- timed ops ----------------------------------------------------------
    tracer = spans.Tracer() if args.trace else None
    drift_before = statistics.median(probe_ms(workload.probe) for _ in range(15))
    digest = hashlib.sha256()
    problems: list[str | None] = []
    failures, wrong = Counter(), []
    clock = ReferenceClock(workload.probe)
    for i, op in enumerate(ops, 1):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
            rc, err = clock.time(tracer.run_op, i, call, op)
            tracer.uninstall()
        else:
            rc, err = clock.time(call, op)

        # Every failure makes the run incorrect, except the known bug.
        problem, known, outputs = judge(op, rc, err)
        if problem is not None and not known:
            wrong.append(f"op {i}: {problem}")
        digest.update(f"op {i}: {problem or 'ok'}\n".encode())
        for data in outputs:
            digest.update(data)

        problems.append(problem)
        if problem is not None:
            failures[known or problem.split(":")[0]] += 1
    drift_after = statistics.median(probe_ms(workload.probe) for _ in range(15))

    walls, times = clock.walls, clock.scaled()
    completed = [(dt, wall) for dt, wall, problem in zip(times, walls, problems) if problem is None]
    vertices_done = sum(op.vertices for op, problem in zip(ops, problems) if problem is None)

    # -- report -------------------------------------------------------------
    attempted, failed = len(ops), len(ops) - len(completed)
    mode = "traced every second op" if tracer else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {attempted} ops, {mode}")
    notes = [
        f"error_rate {failed / attempted:.4f} ({failed} failed of {attempted})",
        *(f"failures {count} x {reason}" for reason, count in failures.most_common()),
        f"output_digest sha256:{digest.hexdigest()}",
        f"probe_ms ({workload.probe}) before the ops {drift_before:.3f}, around each op (median) "
        f"{statistics.median(p for pair in clock.probes for p in pair):.3f}, after {drift_after:.3f}; "
        f"reference {PROBES[workload.probe][1]}",
        f"setup parts (reference s): import {import_s:.3f}, corpus {corpus_s:.3f}, "
        f"check {check_s:.3f}, warm-up {warmup_s:.3f}",
    ]
    if setup_problem:
        notes.append(f"set-up check failed: {setup_problem}")
    notes += [f"wrong output, {line}" for line in wrong[:5]]
    if len(completed) <= 10:
        for note in notes:
            print(f"diagnostic {note}")
        print(f"error: only {len(completed)} ops completed; op_tail_ms needs 11", file=sys.stderr)
        return 1

    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        ref_times, wall_times = [c[0] for c in completed], [c[1] for c in completed]
        p, tail_s = tail(ref_times)
        metrics["setup_s"] = (setup_s, "s")
        metrics["op_p50_ms"] = (statistics.median(ref_times) * 1e3, "ms")
        metrics["op_tail_ms"] = (tail_s * 1e3, "ms")
        metrics["vertices_per_s"] = (vertices_done / sum(times), "vertices/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        notes += [
            f"op_tail_ms is p{p} of {len(completed)} completed ops, 10 samples beyond it",
            f"wall clock: setup {setup_wall_s:.3f} s, op p50 {statistics.median(wall_times) * 1e3:.2f} ms, "
            f"op p{p} {tail(wall_times)[1] * 1e3:.2f} ms, {vertices_done / sum(walls):.1f} vertices/s",
        ]
    else:
        scales: dict[int, float] = {}        # op -> reference seconds per wall second
        per_vertex = {True: [], False: []}   # traced? -> op seconds per CFG vertex
        for i, (dt, wall, op) in enumerate(zip(times, walls, ops), 1):
            scales[i] = dt / wall
            per_vertex[i in tracer.counts].append(dt / op.vertices)
        traced_ms = sum(times[i - 1] for i in tracer.counts) * 1e3
        metrics, self_ms = tracer.layer_metrics(scales)
        overhead = statistics.median(per_vertex[True]) / statistics.median(per_vertex[False])
        metrics["trace.overhead_pct"] = ((overhead - 1) * 100, "%")
        spans_file = workdir / "spans.jsonl"
        tracer.write(spans_file)
        notes += [
            f"self times incl. cli.other sum {self_ms:.3f} ms, clock-measured traced op time "
            f"{traced_ms:.3f} ms, gap {traced_ms - self_ms:.3f} ms (time in the wrappers "
            f"outside the root span); spans (wall clock) in {spans_file.relative_to(ROOT)}",
            f"missing wrapped names: {', '.join(tracer.missing) or 'none'}",
            "spans: " + ", ".join(f"{name} {count}" for name, count
                                  in sorted(Counter(span[0] for span in tracer.spans).items())),
        ]
    for name, (value, unit) in metrics.items():
        print(f"  {name:<55} {value:14.4f} {unit}")

    for note in notes:
        print(f"diagnostic {note}")

    result = {
        "correct": setup_problem is None and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
