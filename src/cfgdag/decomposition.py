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
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import add

from ._graph import postorder
from ._json import PAIR, section
from .cfg import ControlFlowGraph
from .loops import LoopElement, LoopForest, NotStructuredError

Edge = tuple[int, int]


@dataclass
class EdgePartition:
    """Disjoint split of the graph edges by their role in the construction."""

    backward: list[Edge] = field(default_factory=list)        # dropped
    into_exit: list[Edge] = field(default_factory=list)       # dropped (breaks, condition-false)
    into_entry: list[tuple[Edge, LoopElement]] = field(default_factory=list)   # re-routed
    plain: list[Edge] = field(default_factory=list)           # kept as arcs

    def categories(self) -> dict[str, list[Edge]]:
        return {
            "backward": list(self.backward),
            "into_exit": list(self.into_exit),
            "into_entry": [e for e, _ in self.into_entry],
            "plain": list(self.plain),
        }


def partition_edges(cfg: ControlFlowGraph, forest: LoopForest) -> EdgePartition:
    """Split E into backward / into-exit / into-entry / plain edges. Reads
    membership from the owner map, where each loop owns its entry (build_cfg
    makes it under the loop, _forest_from_exits opens a loop there), and each
    vertex's one loop from LoopForest.ends, which raises NotStructuredError
    for two loops at one end or a vertex that is an entry and an exit.
    """
    by_entry, by_exit = forest.ends()
    owner = forest.owner
    part = EdgePartition()

    for edge in cfg.edges():
        u, v = edge
        entry_elem = by_entry.get(v)
        exit_elem = by_exit.get(v)
        if owner[u] is entry_elem:
            part.backward.append(edge)
        elif owner[u] is exit_elem:
            part.into_exit.append(edge)
        elif (entry_elem is not None and entry_elem.exit is not None
              and u != entry_elem.exit and not forest.contains(entry_elem, u)):
            part.into_entry.append((edge, entry_elem))
        else:
            part.plain.append(edge)

    return part


class DecompositionJsonError(ValueError):
    """Decomposition JSON that does not describe a decomposition: a missing
    key, a node id, arc end or bag member that is not an integer, a node
    listed twice, an arc to an unknown node, a node without a bag or a bag
    without a node, or a record of the wrong shape."""


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

    def to_json(self) -> str:
        """``json.dumps(indent=2)`` of nodes, arcs and bags, each sorted, the
        bags keyed by their node's id as a string."""
        order = sorted(self.nodes)
        arcs = sorted(self.arcs)
        values, lengths = [], []
        for n in order:
            bag = sorted(self.bags[n])
            values.append(n)
            values += bag
            lengths.append(len(bag))
        # One template per bag length: the node's key, then its members.
        record = {k: '"%d": [\n      ' + ",\n      ".join(["%d"] * k) + "\n    ]" if k
                  else '"%d": []' for k in set(lengths)}
        nodes = section(["%d"] * len(order), tuple(order))
        arcs = section([PAIR] * len(arcs), tuple(chain.from_iterable(arcs)))
        bags = section(list(map(record.__getitem__, lengths)), tuple(values), "{}")
        return f'{{\n  "nodes": {nodes},\n  "arcs": {arcs},\n  "bags": {bags}\n}}\n'

    @classmethod
    def from_json_dict(cls, data: dict) -> "DagDecomposition":
        try:
            nodes = list(data["nodes"])
            for n in nodes:
                if type(n) is not int:
                    raise ValueError(f"node id {n!r} is not an integer")
            arcs = [tuple(a) for a in data["arcs"]]
            bags = {}
            for key, members in data["bags"].items():
                for v in members:
                    if type(v) is not int:
                        raise ValueError(f"bag {key} holds {v!r}, which is not an integer")
                n = int(key)
                if str(n) != key:  # "01" or " 1" would replace the bag of 1
                    raise ValueError(f"bag key {key!r} does not spell a node id exactly")
                bags[n] = frozenset(members)
            known = set(nodes)
            if len(known) != len(nodes):
                n = next(n for n, count in Counter(nodes).items() if count > 1)
                raise ValueError(f"node {n} is listed twice")
            for arc in arcs:
                if not {int}.issuperset(map(type, arc)):
                    raise ValueError(f"arc {list(arc)} has an end that is not an integer")
                if len(arc) != 2 or not known.issuperset(arc):
                    raise ValueError(f"arc {list(arc)} references a missing node")
            if known != set(bags):
                n = min(known ^ set(bags))
                raise ValueError(f"node {n} has no bag" if n in known else f"bag {n} has no node")
        except KeyError as err:
            raise DecompositionJsonError(f"missing key {err}") from None
        except (AttributeError, TypeError, ValueError) as err:
            raise DecompositionJsonError(str(err)) from None
        return cls(nodes=nodes, arcs=arcs, bags=bags)

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


def build_decomposition(cfg: ControlFlowGraph, forest: LoopForest) -> DagDecomposition:
    """Run the construction. The result passes the full validator when the
    forest is the builder's, or recovered from a structured program's graph;
    a forest given whole need only pass assign_owners, which does not make it so."""
    part = partition_edges(cfg, forest)

    nodes = cfg.vertex_ids()
    # Arc heads bucketed by tail: sorting each short bucket orders the arcs
    # without a global sort, and the buckets double as the cycle check's
    # successor map.
    succ: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in part.plain:
        succ[u].append(v)
    for (u, _v), elem in part.into_entry:
        # Re-routed to the exit: the entry hangs below the exit, so the
        # edge stays covered.
        succ[u].append(elem.exit)
        succ[elem.exit].append(elem.entry)

    order = sorted(nodes)
    arcs: list[Edge] = []
    add_arc = arcs.append
    for u in order:
        heads = succ[u]
        if len(heads) > 1:
            heads[:] = sorted(set(heads))
        for w in heads:
            add_arc((u, w))

    # Each bag is a vertex plus the entry and exit of its element.
    ends = {
        elem: tuple(x for x in (elem.entry, elem.exit) if x is not None)
        for elem in (forest.phi, *forest.elements)
    }
    bags = dict(zip(nodes, map(frozenset, map(
        add, zip(nodes), map(ends.__getitem__, map(forest.owner.__getitem__, nodes))))))

    if not postorder(order, succ)[1]:
        raise NotStructuredError("decomposition arcs contain a cycle")
    return DagDecomposition(nodes=nodes, arcs=arcs, bags=bags)
