"""Width-3 DAG decompositions of structured control-flow graphs.

The decomposition DAG mirrors the graph one node per vertex. Backward edges
and edges into loop exits are dropped, edges into a loop entry from outside
are re-routed to that loop's exit, and each loop entered from outside gets
an exit-to-entry arc. Bags hold at most a vertex plus the entry and exit of
the loop element it belongs to, so the width never exceeds three. The whole
construction is a constant number of passes over the vertices and edges.
The arcs are the graph's own edge tuples of the kept edges plus the two
arcs of each re-routed edge, sorted once, with repeats dropped.

The arcs are proved acyclic by a rank certificate: rank(v) = 2v, except
that each loop's exit gets 2 * entry - 1, just ahead of its entry; only
the exits' ranks are kept in a map. Arcs that all climb the rank close no
cycle. Under the builder's forests and those recovered from a structured
program's graph every arc climbs; when one does not, as under relabelled
vertex ids or a bad given forest, the successor lists are built and one
DFS (_graph.postorder) decides, so the verdict is exact either way.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import add

from ._graph import postorder
from ._json import emit, pairs, section
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
        loop = owner[u]
        entry_elem = by_entry.get(v)
        if entry_elem is None:  # an entry is never an exit
            if loop is by_exit.get(v):
                part.into_exit.append(edge)
            else:
                part.plain.append(edge)
        elif loop is entry_elem:
            part.backward.append(edge)
        elif (entry_elem.exit is not None and u != entry_elem.exit
              and not forest.contains(entry_elem, u)):
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
    """DAG over the graph's vertices with a bag of at most width vertices each.

    Each bag is a strictly ascending tuple, which every maker of a
    decomposition keeps: to_json and to_dot write the members as they stand.
    """

    nodes: list[int]
    arcs: list[Edge]
    bags: dict[int, tuple[int, ...]]

    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0)

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {n: [] for n in self.nodes}
        for i, j in self.arcs:
            succ[i].append(j)
        return succ

    def to_json(self, write=None) -> str | None:
        """``json.dumps(indent=2)`` of nodes, arcs and bags, each sorted, the
        bags keyed by their node's id as a string, sent to ``write`` in
        pieces, or returned without it."""
        order, bags = sorted(self.nodes), self.bags

        def nodes(part):
            return ["%d"] * len(part), tuple(part)

        def bag_records(part):
            members = list(map(bags.__getitem__, part))
            lengths = list(map(len, members))
            # One template per bag length: the node's key, then its members.
            record = {k: '"%d": [\n      ' + ",\n      ".join(["%d"] * k) + "\n    ]" if k
                      else '"%d": []' for k in set(lengths)}
            values = chain.from_iterable(map(add, zip(part), members))  # each node, then its bag
            return list(map(record.__getitem__, lengths)), tuple(values)

        return emit(chain(
            ('{\n  "nodes": ',), section(order, nodes),
            (',\n  "arcs": ',), section(sorted(self.arcs), pairs),
            (',\n  "bags": ',), section(order, bag_records, "{}"), ("\n}\n",),
        ), write)

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
                bags[n] = tuple(sorted(set(members)))
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
            bag = ",".join(map(str, self.bags[n]))
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

    # The graph's own edge tuples (sorted already on a frozen graph), then
    # each re-routed edge's two arcs: to the loop's exit, and from it to the
    # entry, which hangs below the exit so the edge stays covered. Only a
    # re-routed arc can repeat; the stable sort puts it after its twin, and
    # the first of each run is kept.
    arcs = part.plain
    for (u, _v), elem in part.into_entry:
        arcs += (u, elem.exit), (elem.exit, elem.entry)
    arcs.sort()
    if part.into_entry:
        arcs = [a for a, b in zip(arcs, chain((None,), arcs)) if a != b]

    # The rank certificate (see the module docstring), and the DFS only
    # when an arc does not climb.
    nodes = cfg.vertex_ids()
    rank = {elem.exit: 2 * elem.entry - 1 for elem in forest.elements if elem.exit is not None}.get
    if not all(rank(u, u + u) < rank(w, w + w) for u, w in arcs):
        succ: dict[int, list[int]] = {v: [] for v in nodes}
        for u, w in arcs:
            succ[u].append(w)
        if not postorder(sorted(nodes), succ)[1]:
            raise NotStructuredError("decomposition arcs contain a cycle")

    # Each bag is a vertex merged into the sorted ends of its element.
    ends = {elem: tuple(sorted(x for x in (elem.entry, elem.exit) if x is not None))
            for elem in (forest.phi, *forest.elements)}
    bags: dict[int, tuple[int, ...]] = {}
    for v, e in zip(nodes, map(ends.__getitem__, map(forest.owner.__getitem__, nodes))):
        if not e or v < e[0]:
            bags[v] = (v, *e)
        elif v in e:
            bags[v] = e
        elif v < e[-1]:
            bags[v] = (e[0], v, e[1])
        else:
            bags[v] = (*e, v)
    return DagDecomposition(nodes=nodes, arcs=arcs, bags=bags)
