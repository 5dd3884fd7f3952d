"""Product game graphs over a control-flow graph and a formula skeleton.

A skeleton abstracts a specification formula down to what the product
construction needs: its size m, an edge pattern within each group of m game
vertices, a pattern applied across every graph transition, and a priority
count. Each graph vertex s yields a group V_s of m game vertices; edges
between different groups exist only along graph transitions. A width-w
decomposition of the graph lifts to a width w*m decomposition of the
product by replacing every vertex in every bag with its whole group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from ._json import PAIR, section
from .decomposition import DagDecomposition


@dataclass(frozen=True)
class FormulaSkeleton:
    """Shape of a formula with m parts and d priorities.

    intra_edges: (q, q') pairs instantiated inside every group.
    cross_edges: (q, q') pairs instantiated along every graph transition.
    """

    m: int
    intra_edges: tuple[tuple[int, int], ...]
    cross_edges: tuple[tuple[int, int], ...]
    d: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("skeleton size m must be at least 1")
        if self.d < 2:
            raise ValueError("at least 2 priorities are required")
        for q, p in (*self.intra_edges, *self.cross_edges):
            if not (0 <= q < self.m and 0 <= p < self.m):
                raise ValueError(f"edge pattern ({q}, {p}) is out of range for m={self.m}")

    @classmethod
    def chain(cls, m: int, d: int = 2) -> "FormulaSkeleton":
        """Evaluate the m parts in order, then follow a transition."""
        intra = tuple((q, q + 1) for q in range(m - 1))
        cross = ((m - 1, 0),)
        return cls(m=m, intra_edges=intra, cross_edges=cross, d=d)


# One vertex record of GameGraph.to_json, for section.
_VERTEX = ('{\n      "id": %d,\n      "state": %d,\n      "part": %d,'
           '\n      "owner": %d,\n      "priority": %d\n    }')


@dataclass
class GameGraph:
    """Two-player priority game arena grouped by originating graph vertex."""

    m: int
    groups: dict[int, list[int]]              # graph vertex -> its game vertices
    state_of: dict[int, tuple[int, int]]      # game vertex -> (graph vertex, part)
    owner: dict[int, int] = field(default_factory=dict)
    priority: dict[int, int] = field(default_factory=dict)
    edges: list[tuple[int, int]] = field(default_factory=list)
    transitions: set[tuple[int, int]] = field(default_factory=set)
    _succ: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def vertex_ids(self) -> list[int]:
        return list(self.state_of)

    def successors(self, v: int) -> list[int]:
        return list(self._succ.get(v, ()))

    def add_edge(self, u: int, v: int) -> None:
        su, sv = self.state_of[u][0], self.state_of[v][0]
        if su != sv and (su, sv) not in self.transitions:
            raise ValueError(
                f"edge between groups {su} and {sv} requested, but that is not a transition"
            )
        succ = self._succ.setdefault(u, [])
        if v not in succ:
            succ.append(v)
            self.edges.append((u, v))

    def to_json(self) -> str:
        """``json.dumps(indent=2)`` of m, one record per vertex in id order
        and the sorted edges."""
        ids = sorted(self.state_of)
        states = list(map(self.state_of.__getitem__, ids))
        vertices = chain.from_iterable(zip(
            ids, map(itemgetter(0), states), map(itemgetter(1), states),
            map(self.owner.__getitem__, ids), map(self.priority.__getitem__, ids)))
        edges = sorted(self.edges)
        return '{\n  "m": %d,\n  "vertices": %s,\n  "edges": %s\n}\n' % (
            self.m,
            section([_VERTEX] * len(ids), tuple(vertices)),
            section([PAIR] * len(edges), tuple(chain.from_iterable(edges))),
        )


def _below(rng: random.Random, n: int):
    """Endless ``rng.randrange(n)`` draws, by randrange's own rule on getrandbits."""
    bits, k = rng.getrandbits, n.bit_length()
    while True:
        r = bits(k)
        if r < n:
            yield r


def build_product_game(cfg, skeleton: FormulaSkeleton, seed: int = 0) -> GameGraph:
    """One group of skeleton.m game vertices per graph vertex, and the edges
    that add_edge would keep, in its order. Owners and priorities are not
    constrained by the construction, so they are drawn reproducibly from the seed.
    """
    m = skeleton.m
    states = sorted(cfg.vertex_ids())
    groups = {s: list(range(s * m, s * m + m)) for s in states}
    state_of = {s * m + q: (s, q) for s in states for q in range(m)}
    rng = random.Random(seed)
    owner, priority = {}, {}
    # zip draws each vertex's owner, then its priority, as randrange did.
    for v, o, p in zip(state_of, _below(rng, 2), _below(rng, skeleton.d)):
        owner[v] = o
        priority[v] = p

    # Repeats can only come from a repeated pattern pair, or from a self-loop
    # transition whose cross pair is also an intra pair.
    intra = list(dict.fromkeys(skeleton.intra_edges))
    cross = list(dict.fromkeys(skeleton.cross_edges))
    self_cross = [e for e in cross if e not in intra]
    transitions = set(cfg.edges())
    edges = [(b + q, b + p) for b in [s * m for s in states] for q, p in intra]
    edges += [(s * m + q, t * m + p) for s, t in sorted(transitions)
              for q, p in (cross if s != t else self_cross)]
    succ: dict[int, list[int]] = {u: [] for u, _ in edges}
    for u, v in edges:
        succ[u].append(v)
    return GameGraph(m=m, groups=groups, state_of=state_of, owner=owner, priority=priority,
                     edges=edges, transitions=transitions, _succ=succ)


def lift_decomposition(decomp: DagDecomposition, game: GameGraph) -> DagDecomposition:
    """Replace every vertex in every bag by its group; the DAG is unchanged."""
    group = game.groups.__getitem__
    try:
        bags = {node: frozenset(chain.from_iterable(map(group, bag)))
                for node, bag in decomp.bags.items()}
    except KeyError as err:
        raise ValueError(f"bag vertex {err.args[0]} has no group in the product game") from None
    return DagDecomposition(nodes=list(decomp.nodes), arcs=list(decomp.arcs), bags=bags)
