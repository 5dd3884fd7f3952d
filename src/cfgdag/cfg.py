"""Control-flow graph type with tagged edges, contraction, pruning, and io.

Vertices are integers with string labels; start and stop are distinguished.
Every edge carries one EdgeKind telling which successor convention produced
it. JSON serialization is canonical (sorted vertices and edges), so a
load/dump round trip is byte identical. Loading, build_cfg and pruning
write through _freeze, and so does contraction, so their graphs have their
vertices sorted and their adjacency frozen into sorted tuples.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from enum import Enum
from itertools import chain

from ._graph import reachable
from ._json import section


class EdgeKind(str, Enum):
    OUT = "out"       # fall-through to the next statement or construct
    EXIT = "exit"     # break: jump to the nearest loop's exit point
    ENTRY = "entry"   # continue: jump to the nearest loop's entry point
    STOP = "stop"     # return: jump straight to program end


# Each member and its value: add_edge and from_json_dict normalise a kind
# with one dict lookup.
_KINDS = {**{k: k for k in EdgeKind}, **{k.value: k for k in EdgeKind}}


class CfgJsonError(ValueError):
    """CFG JSON that does not describe a graph: a missing key, a vertex id,
    edge end, start or stop that is not an integer, a label that is not a
    string or holds a lone surrogate (which no UTF-8 output can write), a
    duplicate vertex id, an edge to an unknown vertex, an invalid edge
    kind, a start or stop that is not a vertex, or a return edge (kind
    stop) that does not end at stop."""


# One vertex and one edge record of ControlFlowGraph.to_json, for section.
_VERTEX = '{\n      "id": %d,\n      "label": %s\n    }'
_EDGE = '{\n      "from": %d,\n      "to": %d,\n      "kind": "%s"\n    }'
_encode = json.JSONEncoder().encode


class ControlFlowGraph:
    def __init__(self):
        self.labels: dict[int, str] = {}
        # Lists when add_vertex fills the graph; loading, build_cfg, pruning
        # and contraction write tuples.
        self._succ: dict[int, list[int] | tuple[int, ...]] = {}
        self._pred: dict[int, list[int] | tuple[int, ...]] = {}
        self._kind: dict[tuple[int, int], EdgeKind] = {}
        self.start: int = -1
        self.stop: int = -1
        self._next_id = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, label: str, vid: int | None = None) -> int:
        if vid is None:
            vid = self._next_id
        elif vid in self.labels:
            raise ValueError(f"vertex {vid} already exists")
        if vid >= self._next_id:
            self._next_id = vid + 1
        self.labels[vid] = label
        self._succ[vid] = []
        self._pred[vid] = []
        return vid

    def add_edge(self, u: int, v: int, kind: EdgeKind = EdgeKind.OUT) -> None:
        if u not in self.labels or v not in self.labels:
            raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        if (u, v) in self._kind:
            return
        self._kind[(u, v)] = _KINDS.get(kind) or EdgeKind(kind)
        # += extends a list in place, and replaces a tuple the graph froze.
        self._succ[u] += (v,)
        self._pred[v] += (u,)

    # -- queries -----------------------------------------------------------

    def vertex_ids(self) -> list[int]:
        return list(self.labels)

    def successors(self, v: int) -> Sequence[int]:
        return self._succ[v]

    def predecessors(self, v: int) -> Sequence[int]:
        return self._pred[v]

    def edges(self):
        return iter(self._kind)

    def edge_kind(self, u: int, v: int) -> EdgeKind:
        return self._kind[(u, v)]

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self._kind)

    def reachable_from(self, v: int, blocked=()) -> set[int]:
        """Vertices reachable from v without entering a blocked vertex; v included."""
        return reachable(self._succ, v, blocked)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """``json.dumps(indent=2)`` of the vertices in id order, the sorted
        edges, start and stop. Labels are strings, so ``%s`` of their JSON
        text is exact."""
        ids = sorted(self.labels)
        edges = sorted(self._kind)
        labels = map(_encode, map(self.labels.__getitem__, ids))
        kind = self._kind
        vertices = section([_VERTEX] * len(ids), tuple(chain.from_iterable(zip(ids, labels))))
        edges = section([_EDGE] * len(edges),
                        tuple(chain.from_iterable((u, v, kind[u, v].value) for u, v in edges)))
        return (f'{{\n  "vertices": {vertices},\n  "edges": {edges},\n'
                f'  "start": {self.start},\n  "stop": {self.stop}\n}}\n')

    @classmethod
    def from_json_dict(cls, data: dict) -> "ControlFlowGraph":
        """The graph in the form _freeze writes. Every edge record's kind is
        checked, and a return edge must end at stop; of two records of one
        edge, the first keeps its kind."""
        labels: dict[int, str] = {}
        returns: list[tuple[int, int]] = []  # return edges, checked once stop is read
        stop_kind = EdgeKind.STOP  # an enum member costs a lookup on every access
        try:
            for rec in data["vertices"]:
                vid = rec["id"]
                if type(vid) is not int:
                    raise ValueError(f"vertex id {vid!r} is not an integer")
                label = rec["label"]
                if type(label) is not str:
                    raise ValueError(f"label {label!r} of vertex {vid} is not a string")
                if vid in labels:
                    raise ValueError(f"vertex {vid} already exists")
                labels[vid] = label
            # A JSON escape can spell a lone surrogate, which no UTF-8 output
            # can write. One encode of all labels finds it.
            try:
                "".join(labels.values()).encode()
            except UnicodeEncodeError as err:
                at = err.start
                for vid, label in labels.items():
                    if at < len(label):
                        raise ValueError(
                            f"label of vertex {vid} holds the lone surrogate {label[at]!r}") from None
                    at -= len(label)
            out: dict[int, list] = {v: [] for v in sorted(labels)}  # a tuple would copy per edge
            for rec in data["edges"]:
                u, v = rec["from"], rec["to"]
                if type(u) is not int or type(v) is not int:
                    raise ValueError(f"edge ({u!r}, {v!r}) has an end that is not an integer")
                if u not in labels or v not in labels:
                    raise ValueError(f"edge ({u}, {v}) references a missing vertex")
                kind = rec["kind"]
                if type(kind) is not str:
                    raise ValueError(f"kind {kind!r} of edge ({u}, {v}) is not a string")
                kind = _KINDS.get(kind) or EdgeKind(kind)
                if kind is stop_kind:
                    returns.append((u, v))
                out[u] += (v, kind)
            start, stop = data["start"], data["stop"]
            for name, v in (("start", start), ("stop", stop)):
                if type(v) is not int:
                    raise ValueError(f"{name} {v!r} is not an integer")
            if start not in labels or stop not in labels:
                raise ValueError(f"start {start!r} or stop {stop!r} is not a vertex")
            for u, v in returns:
                if v != stop:
                    raise ValueError(f"return edge ({u}, {v}) does not end at stop {stop}")
        except KeyError as err:
            raise CfgJsonError(f"missing key {err}") from None
        except (TypeError, ValueError) as err:
            raise CfgJsonError(str(err)) from None
        return _freeze({v: labels[v] for v in out}, out, max(out) + 1, start, stop)

    @classmethod
    def from_json(cls, text: str) -> "ControlFlowGraph":
        return cls.from_json_dict(json.loads(text))

    def to_dot(self, backward: set[tuple[int, int]] | None = None) -> str:
        """DOT text; a label's backslashes, quotes and line breaks are escaped."""
        backward = backward or set()
        lines = ["digraph cfg {", "    node [shape=box];"]
        for v in sorted(self.labels):
            shape = ' shape=oval' if v in (self.start, self.stop) else ""
            label = self.labels[v].replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            lines.append(f'    n{v} [label="{label}"{shape}];')
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
    """Drop vertices unreachable from start; stop is always kept, and loses
    its out-edges when it is unreachable. The result is in _freeze's form."""
    reachable = cfg.reachable_from(cfg.start)
    keep = sorted(v for v in cfg.labels if v in reachable or v == cfg.stop)
    succ, kind = cfg._succ, cfg._kind
    # Every successor of a reachable vertex is reachable too.
    out = {v: [x for w in succ[v] for x in (w, kind[v, w])] if v in reachable else ()
           for v in keep}
    return _freeze({v: cfg.labels[v] for v in keep}, out, keep[-1] + 1 if keep else 0,
                   cfg.start, cfg.stop)


def _freeze(labels: dict[int, str], out: dict[int, Sequence], next_id: int, start: int,
            stop: int) -> ControlFlowGraph:
    """The graph whose adjacency comes from out, which maps each vertex, in
    ascending order, to its out-edges as one flat sequence (target, kind,
    target, kind, ...): its successor and predecessor tuples ascend and its
    edge kinds run in sorted (u, v) order. Of two edges u -> v, the one
    listed first keeps its kind, as add_edge keeps it. Tuples are smaller
    than lists, and the cyclic collector untracks a tuple of ints.

    One out-edge, or two to distinct targets, is written straight; the
    first-kind dict and the sort serve only repeated targets and three or
    more edges."""
    succ: dict[int, tuple[int, ...]] = {}
    kinds: dict[tuple[int, int], EdgeKind] = {}
    preds: dict[int, list[int]] = {v: [] for v in out}
    for u, edges in out.items():  # ascending, so every predecessor list is too
        n = len(edges)
        if n == 2:
            w, k = edges
            succ[u] = (w,)
            kinds[u, w] = k
            preds[w].append(u)
            continue
        if n == 4:
            w, k, x, j = edges
            if w != x:
                if x < w:
                    w, k, x, j = x, j, w, k
                succ[u] = (w, x)
                kinds[u, w] = k
                kinds[u, x] = j
                preds[w].append(u)
                preds[x].append(u)
                continue
        first: dict[int, EdgeKind] = {}
        for w, k in zip(edges[::2], edges[1::2]):
            first.setdefault(w, k)
        succ[u] = ws = tuple(sorted(first))
        for w in ws:
            kinds[u, w] = first[w]
            preds[w].append(u)
    g = ControlFlowGraph()
    g.labels, g._next_id, g.start, g.stop = labels, next_id, start, stop
    g._succ, g._pred, g._kind = succ, {v: tuple(us) for v, us in preds.items()}, kinds
    return g


def contract_basic_blocks(cfg: ControlFlowGraph, forest=None) -> ControlFlowGraph:
    """Merge straight-line chains into basic blocks, in one pass.

    A vertex v is absorbed when its only predecessor u is not v, is not
    start and has no other successor. start, stop and loop entry/exit
    vertices are never absorbed. Every other vertex heads a block that runs
    along its chain of absorbed successors: the block keeps the head's id,
    joins the labels in chain order and takes the out-edges of the chain's
    last vertex. A cycle of absorbed vertices, which only an unpruned graph
    holds, becomes one block at its smallest id with a self-loop. The
    result is in _freeze's form.
    """
    protected = {cfg.start, cfg.stop}
    if forest is not None:
        protected.update(x for elem in forest.elements for x in (elem.entry, elem.exit))
    succ, pred, names = cfg._succ, cfg._pred, cfg.labels
    absorbed = {v for v, us in pred.items() if len(us) == 1 and v not in protected
                and us[0] not in (v, cfg.start) and len(succ[us[0]]) == 1}

    chained: set[int] = set()  # vertices in a block so far
    blocks: dict[int, tuple[str, int]] = {}  # head -> (label, last vertex)

    # An absorbed vertex that no chain has reached by its turn is the
    # smallest id of a cycle without a head.
    for h in [v for v in names if v not in absorbed] + sorted(absorbed):
        if h in chained:
            continue
        parts, v = [names[h]], h
        chained.add(h)
        while len(succ[v]) == 1 and succ[v][0] in absorbed and succ[v][0] != h:
            v = succ[v][0]
            chained.add(v)
            parts.append(names[v])
        blocks[h] = ("; ".join(parts), v)

    kind = cfg._kind
    labels, out = {}, {}
    for h in sorted(blocks):
        labels[h], last = blocks[h]
        # Each successor of a chain's last vertex heads a block of its own.
        out[h] = [x for w in succ[last] for x in (w, kind[last, w])]
    return _freeze(labels, out, cfg._next_id, cfg.start, cfg.stop)
