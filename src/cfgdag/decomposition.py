"""Width-3 DAG decompositions of structured control-flow graphs.

The decomposition DAG mirrors the graph one node per vertex. Backward edges
and edges into loop exits are dropped, edges into a loop entry from outside
are re-routed to that loop's exit, and each loop entered from outside gets
an exit-to-entry arc. Bags hold at most a vertex plus the entry and exit of
the loop element it belongs to, so the width never exceeds three. The whole
construction is a constant number of passes over the vertices and edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ._graph import toposort
from .cfg import ControlFlowGraph
from .loops import LoopElement, LoopForest

Edge = tuple[int, int]


@dataclass
class EdgePartition:
    """Disjoint split of the graph edges by their role in the construction."""

    backward: list[Edge] = field(default_factory=list)        # dropped
    into_exit: list[Edge] = field(default_factory=list)       # dropped (breaks, condition-false)
    into_entry: list[tuple[Edge, LoopElement]] = field(default_factory=list)   # re-routed
    entry_to_exit: list[tuple[Edge, LoopElement]] = field(default_factory=list)  # reversed
    plain: list[Edge] = field(default_factory=list)           # kept as arcs

    def categories(self) -> dict[str, list[Edge]]:
        return {
            "backward": list(self.backward),
            "into_exit": list(self.into_exit),
            "into_entry": [e for e, _ in self.into_entry],
            "entry_to_exit": [e for e, _ in self.entry_to_exit],
            "plain": list(self.plain),
        }


def partition_edges(cfg: ControlFlowGraph, forest: LoopForest) -> EdgePartition:
    """Split E into backward / into-exit / into-entry / entry-to-exit / plain.

    Requires loop regions to be filled in. Raises when an edge matches two
    categories at once, which signals a malformed graph (for example a
    vertex serving as both an entry and an exit).
    """
    by_entry = forest.entries()
    by_exit = forest.exits()
    part = EdgePartition()

    for u, v in cfg.edges():
        entry_elems = by_entry.get(v)
        exit_elem = by_exit.get(v)
        if entry_elems and exit_elem:
            raise ValueError(f"vertex {v} is both a loop entry and a loop exit")

        if entry_elems and any(u in elem.belongs for elem in entry_elems):
            part.backward.append((u, v))
            continue

        if exit_elem is not None:
            if u in exit_elem.belongs:
                part.into_exit.append((u, v))
            elif u == exit_elem.entry:
                part.entry_to_exit.append(((u, v), exit_elem))
            else:
                part.plain.append((u, v))
            continue

        if entry_elems:
            # Outermost element the edge enters from outside.
            target = None
            for elem in entry_elems:
                if u not in elem.inside and u != elem.exit:
                    target = elem
                    break
            if target is not None and target.exit is not None:
                part.into_entry.append(((u, v), target))
            else:
                part.plain.append((u, v))
            continue

        part.plain.append((u, v))

    total = (
        len(part.backward)
        + len(part.into_exit)
        + len(part.into_entry)
        + len(part.entry_to_exit)
        + len(part.plain)
    )
    if total != cfg.n_edges:
        raise ValueError("edge partition lost or duplicated edges")
    return part


@dataclass
class DagDecomposition:
    """DAG over the graph's vertices with a bag of at most width vertices each."""

    nodes: list[int]
    arcs: list[Edge]
    bags: dict[int, frozenset[int]]

    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0)

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {n: [] for n in self.nodes}
        for i, j in self.arcs:
            succ[i].append(j)
        return succ

    def topological_order(self) -> list[int] | None:
        """Kahn order, or None when the arc set has a cycle."""
        return toposort(sorted(self.nodes), self.successors())

    def to_json_dict(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "arcs": [list(a) for a in sorted(self.arcs)],
            "bags": {str(n): sorted(self.bags[n]) for n in sorted(self.nodes)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "DagDecomposition":
        return cls(
            nodes=list(data["nodes"]),
            arcs=[tuple(a) for a in data["arcs"]],
            bags={int(n): frozenset(b) for n, b in data["bags"].items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "DagDecomposition":
        return cls.from_json_dict(json.loads(text))

    def to_dot(self) -> str:
        lines = ["digraph decomposition {", "    node [shape=box];"]
        for n in sorted(self.nodes):
            bag = ",".join(str(v) for v in sorted(self.bags[n]))
            lines.append(f'    n{n} [label="{n}: {{{bag}}}"];')
        for i, j in sorted(self.arcs):
            lines.append(f"    n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_decomposition(
    cfg: ControlFlowGraph,
    forest: LoopForest,
    partition: EdgePartition | None = None,
) -> DagDecomposition:
    """Run the construction; the result always passes the full validator."""
    part = partition if partition is not None else partition_edges(cfg, forest)

    arcs: set[Edge] = set(part.plain)
    entered_from_outside: set[int] = set()  # ids of elements fed by re-routed edges
    for (u, _v), elem in part.into_entry:
        arcs.add((u, elem.exit))
        entered_from_outside.add(id(elem))
    for (_u, _v), elem in part.entry_to_exit:
        arcs.add((elem.exit, elem.entry))
    for elem in forest.elements:
        # Entry edges were re-routed to the exit, so the entry must hang
        # below the exit for them to stay covered.
        if id(elem) in entered_from_outside:
            arcs.add((elem.exit, elem.entry))

    bags: dict[int, frozenset[int]] = {}
    for v in cfg.vertex_ids():
        elem = forest.element_of(v)
        bag = {v}
        if elem.entry is not None:
            bag.add(elem.entry)
        if elem.exit is not None:
            bag.add(elem.exit)
        bags[v] = frozenset(bag)

    decomp = DagDecomposition(nodes=list(cfg.vertex_ids()), arcs=sorted(arcs), bags=bags)
    if decomp.topological_order() is None:
        raise ValueError("decomposition arcs contain a cycle; input is not structured")
    return decomp
