"""Control-flow graph type with tagged edges, contraction, pruning, and io.

Vertices are integers with string labels; start and stop are distinguished.
Every edge carries one EdgeKind telling which successor convention produced
it. JSON serialization is canonical (sorted vertices and edges), so a
load/dump round trip is byte identical.
"""

from __future__ import annotations

import json
from enum import Enum

from ._graph import reachable


class EdgeKind(str, Enum):
    OUT = "out"       # fall-through to the next statement or construct
    EXIT = "exit"     # break: jump to the nearest loop's exit point
    ENTRY = "entry"   # continue: jump to the nearest loop's entry point
    STOP = "stop"     # return: jump straight to program end


class ControlFlowGraph:
    def __init__(self):
        self.labels: dict[int, str] = {}
        self._succ: dict[int, list[int]] = {}
        self._pred: dict[int, list[int]] = {}
        self._kind: dict[tuple[int, int], EdgeKind] = {}
        self.start: int = -1
        self.stop: int = -1
        self.stop_reachable: bool = True
        self._next_id = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, label: str, vid: int | None = None) -> int:
        if vid is None:
            vid = self._next_id
        if vid in self.labels:
            raise ValueError(f"vertex {vid} already exists")
        self._next_id = max(self._next_id, vid + 1)
        self.labels[vid] = label
        self._succ[vid] = []
        self._pred[vid] = []
        return vid

    def add_edge(self, u: int, v: int, kind: EdgeKind = EdgeKind.OUT) -> None:
        if u not in self.labels or v not in self.labels:
            raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        if (u, v) in self._kind:
            return
        self._succ[u].append(v)
        self._pred[v].append(u)
        self._kind[(u, v)] = EdgeKind(kind)

    # -- queries -----------------------------------------------------------

    def vertex_ids(self) -> list[int]:
        return list(self.labels)

    def successors(self, v: int) -> list[int]:
        return self._succ[v]

    def predecessors(self, v: int) -> list[int]:
        return self._pred[v]

    def edges(self):
        return iter(self._kind)

    def edge_kind(self, u: int, v: int) -> EdgeKind:
        return self._kind[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._kind

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self._kind)

    def out_degree(self, v: int) -> int:
        return len(self._succ[v])

    def in_degree(self, v: int) -> int:
        return len(self._pred[v])

    def copy(self) -> "ControlFlowGraph":
        out = ControlFlowGraph()
        for v, label in self.labels.items():
            out.add_vertex(label, v)
        for (u, v), kind in self._kind.items():
            out.add_edge(u, v, kind)
        out.start, out.stop = self.start, self.stop
        out.stop_reachable = self.stop_reachable
        return out

    def reachable_from(self, v: int, blocked=()) -> set[int]:
        """Vertices reachable from v without entering a blocked vertex; v included."""
        return reachable(self._succ, v, blocked)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "label": self.labels[v]} for v in sorted(self.labels)],
            "edges": [
                {"from": u, "to": v, "kind": self._kind[(u, v)].value}
                for u, v in sorted(self._kind)
            ],
            "start": self.start,
            "stop": self.stop,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "ControlFlowGraph":
        cfg = cls()
        for rec in data["vertices"]:
            cfg.add_vertex(rec["label"], rec["id"])
        for rec in data["edges"]:
            cfg.add_edge(rec["from"], rec["to"], EdgeKind(rec["kind"]))
        cfg.start = data["start"]
        cfg.stop = data["stop"]
        cfg.stop_reachable = cfg.stop in cfg.reachable_from(cfg.start)
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ControlFlowGraph":
        return cls.from_json_dict(json.loads(text))

    def to_dot(self, backward: set[tuple[int, int]] | None = None) -> str:
        backward = backward or set()
        lines = ["digraph cfg {", "    node [shape=box];"]
        for v in sorted(self.labels):
            shape = ' shape=oval' if v in (self.start, self.stop) else ""
            lines.append(f'    n{v} [label="{self.labels[v]}"{shape}];')
        for u, v in sorted(self._kind):
            attrs = []
            if (u, v) in backward:
                attrs.append("style=dashed")
            if self._kind[(u, v)] is EdgeKind.STOP:
                attrs.append("color=gray")
            suffix = f' [{",".join(attrs)}]' if attrs else ""
            lines.append(f"    n{u} -> n{v}{suffix};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def prune_unreachable(cfg: ControlFlowGraph) -> ControlFlowGraph:
    """Drop vertices unreachable from start; stop is kept but flagged."""
    reachable = cfg.reachable_from(cfg.start)
    out = ControlFlowGraph()
    for v in sorted(cfg.labels):
        if v in reachable or v == cfg.stop:
            out.add_vertex(cfg.labels[v], v)
    for (u, v) in sorted(cfg._kind):
        if u in out.labels and v in out.labels and u in reachable:
            out.add_edge(u, v, cfg._kind[(u, v)])
    out.start, out.stop = cfg.start, cfg.stop
    out.stop_reachable = cfg.stop in reachable
    return out


def contract_basic_blocks(cfg: ControlFlowGraph, forest=None) -> ControlFlowGraph:
    """Merge straight-line chains into basic blocks.

    An edge (u, v) contracts when u has exactly one successor and v exactly
    one predecessor; v's statements join u's block. start never absorbs,
    and stop and loop entry/exit vertices are never absorbed, so they
    survive as the representatives of their blocks.
    """
    protected = {cfg.start, cfg.stop}
    if forest is not None:
        protected |= forest.protected_vertices()

    out = cfg.copy()
    changed = True
    while changed:
        changed = False
        for u in sorted(out.labels):
            if u not in out.labels or u == cfg.start:
                continue
            while True:
                succ = out._succ.get(u)
                if succ is None or len(succ) != 1:
                    break
                v = succ[0]
                if v == u or v in protected or out.in_degree(v) != 1:
                    break
                # fold v into u
                out.labels[u] = f"{out.labels[u]}; {out.labels[v]}"
                del out._kind[(u, v)]
                out._succ[u] = []
                for w in out._succ[v]:
                    kind = out._kind.pop((v, w))
                    out._pred[w].remove(v)
                    if (u, w) not in out._kind:
                        out._succ[u].append(w)
                        out._pred[w].append(u)
                        out._kind[(u, w)] = kind
                del out.labels[v]
                del out._succ[v]
                del out._pred[v]
                changed = True
    return out
