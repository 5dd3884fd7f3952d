"""The benchmark's four workloads: how each makes its inputs and checks its outputs.

Every op is one call to ``cfgdag.cli.main(argv)`` on an input file written
during set-up. The checks below are the benchmark's own; they do not call
``cfgdag.validate``. A check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from cfgdag.build import cfg_from_source
from cfgdag.randprog import generate_random_program


@dataclass
class Op:
    argv: list[str]
    outputs: list[Path]   # files the op writes, read back after it returns
    vertices: int         # CFG vertices after pruning
    edges: int
    vertex_digest: str    # sha256 of the sorted vertex ids


def _vertex_digest(ids) -> str:
    return hashlib.sha256(",".join(map(str, sorted(ids))).encode()).hexdigest()


def _acyclic(nodes, arcs) -> bool:
    """Kahn's algorithm over the decomposition's arcs."""
    succ = {n: [] for n in nodes}
    indeg = dict.fromkeys(nodes, 0)
    for i, j in arcs:
        succ[i].append(j)
        indeg[j] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return seen == len(indeg)


def check_decomposition(data: dict, op: Op, m: int = 1) -> str | None:
    """Decomposition JSON of op's CFG, lifted to groups of m game vertices when m > 1."""
    nodes = data["nodes"]
    if len(set(nodes)) != len(nodes) or _vertex_digest(nodes) != op.vertex_digest:
        return "node set differs from the CFG vertex set"
    bags = data["bags"]
    if set(bags) != {str(n) for n in nodes}:
        return "bags are not keyed by the nodes"
    for n in nodes:
        bag = set(bags[str(n)])
        own = {n * m + q for q in range(m)}
        if not own <= bag:
            return f"bag {n} lacks its own node"
        if len(bag) > 3 * m:
            return f"bag {n} has {len(bag)} vertices, more than {3 * m}"
    arcs = data["arcs"]
    if len(arcs) > op.edges:
        return f"{len(arcs)} arcs for {op.edges} edges"
    node_set = set(nodes)
    if any(i not in node_set or j not in node_set for i, j in arcs):
        return "arc to an unknown node"
    if not _acyclic(nodes, arcs):
        return "arcs have a cycle"
    return None


def _op(cfg, argv: list[str], outputs: list[Path]) -> Op:
    return Op(argv=argv, outputs=outputs, vertices=cfg.n_vertices, edges=cfg.n_edges,
              vertex_digest=_vertex_digest(cfg.vertex_ids()))


class Workload:
    """One kind of op on fixed-size inputs; subclasses say which op and which inputs."""

    name: str
    nominal_op_s: float  # sets the op count for a run of a given length
    probe = "graph"      # the probe kernel whose slowdowns track this workload's

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.sources: set[str] = set()

    def _programs(self, i: int, size: int):
        """Programs for input i, drawn from the seed, that no earlier input used."""
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        while True:
            text = generate_random_program(rng.getrandbits(48), size)
            if text not in self.sources:
                self.sources.add(text)
                yield text

    def _paths(self, i: int, *suffixes: str) -> list[Path]:
        return [self.workdir / f"op{i:05d}.{s}" for s in suffixes]

    def setup_check(self) -> str | None:
        return None

    def known_failure(self, err: BaseException) -> str | None:
        """The name of the known bug that err is, or None if err is a new failure."""
        return None

    def make(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, outputs: list[bytes]) -> str | None:
        raise NotImplementedError


class SourceDecompose(Workload):
    # decompose on 10^4-statement source programs: lang, build, prune,
    # syntactic regions, decomposition and its JSON; no dominators, no validator.
    name = "source-decompose"
    nominal_op_s = 0.45
    size = 10_000

    def make(self, i: int) -> Op:
        src, out = self._paths(i, "spl", "out.json")
        text = next(self._programs(i, self.size))
        src.write_text(text)
        return _op(cfg_from_source(text)[0], ["decompose", str(src), "--out", str(out)], [out])

    def check(self, op: Op, outputs: list[bytes]) -> str | None:
        return check_decomposition(json.loads(outputs[0]), op)


class CfgJsonValidate(Workload):
    # validate --kind cfg-json on the default path: from_json, dominators
    # (twice), loop-forest recovery, dominator regions and the full validator.
    name = "cfg-json-validate"
    nominal_op_s = 0.17
    size = 3_000

    def make(self, i: int) -> Op:
        src, out = self._paths(i, "cfg.json", "out.json")
        cfg, _ = cfg_from_source(next(self._programs(i, self.size)))
        src.write_text(cfg.to_json())
        return _op(cfg, ["validate", str(src), "--kind", "cfg-json", "--out", str(out)], [out])

    # The two ways the known loop-forest recovery bug shows: the recovered
    # forest nests an inner loop outside its outer one, so loop_regions finds a
    # vertex in two elements, or the outer loop's exit lands on the inner
    # loop's entry and partition_edges rejects it. See README.md.
    KNOWN_BUG = ("belongs to two loop elements", "is both a loop entry and a loop exit")

    def known_failure(self, err: BaseException) -> str | None:
        if isinstance(err, ValueError) and any(s in str(err) for s in self.KNOWN_BUG):
            return "known loop-forest recovery bug"
        return None

    def check(self, op: Op, outputs: list[bytes]) -> str | None:
        report = json.loads(outputs[0])
        if report["valid"] is not True:
            return f"report says invalid: {report['violations'][:3]}"
        if report["width"] > 3:
            return f"width {report['width']} > 3"
        return None


class PursuitOracle(Workload):
    # oracle on 10-statement programs whose pruned CFG has 13 vertices, the
    # most common size. The solver's cost grows about 3x per vertex, so a
    # corpus of mixed sizes would put its median on a size boundary and let
    # the seed decide it.
    name = "pursuit-oracle"
    nominal_op_s = 0.06
    probe = "integer"
    size = 10
    vertices = 13

    def make(self, i: int) -> Op:
        src, out = self._paths(i, "spl", "out.txt")
        for text in self._programs(i, self.size):
            cfg, _ = cfg_from_source(text)
            if cfg.n_vertices == self.vertices:
                break
        src.write_text(text)
        return _op(cfg, ["oracle", str(src), "--out", str(out)], [out])

    def setup_check(self) -> str | None:
        from cfgdag.gadgets import two_loop_cfg
        from cfgdag.game import brute_force_cop_number

        number = brute_force_cop_number(two_loop_cfg()[0])
        return None if number == 3 else f"two_loop_cfg cop number {number}, expected 3"

    def check(self, op: Op, outputs: list[bytes]) -> str | None:
        text = outputs[0].decode().strip()
        return None if text in {"1", "2", "3"} else f"cop number {text!r} not in 1..3"


class ProductLift(Workload):
    # lift --m 4 on 3x10^3-statement programs: the only workload that uses
    # parity, and its bags hold up to 12 game vertices.
    name = "product-lift"
    nominal_op_s = 0.55
    size = 3_000
    m = 4

    def make(self, i: int) -> Op:
        src, out, game = self._paths(i, "spl", "out.json", "game.json")
        text = next(self._programs(i, self.size))
        src.write_text(text)
        argv = ["lift", str(src), "--m", str(self.m), "--out", str(out), "--game-out", str(game)]
        return _op(cfg_from_source(text)[0], argv, [out, game])

    def check(self, op: Op, outputs: list[bytes]) -> str | None:
        game = json.loads(outputs[1])
        if len(game["vertices"]) != self.m * op.vertices:
            return f"game has {len(game['vertices'])} vertices, expected {self.m} x {op.vertices}"
        return check_decomposition(json.loads(outputs[0]), op, m=self.m)


WORKLOADS = {w.name: w for w in (SourceDecompose, CfgJsonValidate, PursuitOracle, ProductLift)}
