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
from functools import cached_property
from itertools import chain, cycle, islice
from operator import getitem

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


# One vertex record of GameGraph.to_json with its part, owner and priority
# filled in, for section: only the id and the state are left to fill.
_VERTEX = ('{\n      "id": %%d,\n      "state": %%d,\n      "part": %d,'
           '\n      "owner": %d,\n      "priority": %d\n    }')


@dataclass
class GameGraph:
    """Two-player priority game arena: game vertex s*m + q is part q of the
    group of graph vertex s.

    owner and priority hold one entry per game vertex, in id order: an
    owner is 0 or 1, and a priority is at least 0.
    """

    m: int
    states: list[int]                         # graph vertices, ascending
    owner: list[int] = field(default_factory=list)
    priority: list[int] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)

    def vertex_ids(self) -> list[int]:
        m = self.m
        return [b + q for b in [s * m for s in self.states] for q in range(m)]

    @cached_property
    def state_of(self) -> dict[int, tuple[int, int]]:
        """game vertex -> (graph vertex, part)"""
        m = self.m
        return {s * m + q: (s, q) for s in self.states for q in range(m)}

    def to_json(self) -> str:
        """``json.dumps(indent=2)`` of m, one record per vertex in id order
        and the sorted edges."""
        m, d = self.m, max(self.priority, default=0) + 1
        # record[q][o][p]: the template of a vertex of part q, owner o and
        # priority p. Vertex i in id order has part i % m.
        record = [[[_VERTEX % (q, o, p) for p in range(d)] for o in (0, 1)] for q in range(m)]
        items = list(map(getitem, map(getitem, cycle(record), self.owner), self.priority))
        values = [0] * (2 * len(items))
        values[0::2] = self.vertex_ids()
        values[1::2] = chain.from_iterable(zip(*[self.states] * m))  # each state m times
        edges = sorted(self.edges)
        vertices = section(items, tuple(values))
        edges = section([PAIR] * len(edges), tuple(chain.from_iterable(edges)))
        return f'{{\n  "m": {m},\n  "vertices": {vertices},\n  "edges": {edges}\n}}\n'


def _below(rng: random.Random, n: int):
    """Endless ``rng.randrange(n)`` draws, by randrange's own rule on getrandbits."""
    bits, k = rng.getrandbits, n.bit_length()
    while True:
        r = bits(k)
        if r < n:
            yield r


def build_product_game(cfg, skeleton: FormulaSkeleton, seed: int = 0) -> GameGraph:
    """One group of skeleton.m game vertices per graph vertex, and the edges
    of the add-edge construction, in its order: the intra pattern in every
    group, then the cross pattern along every transition, each pair once.
    Owners and priorities are not constrained by the construction, so they
    are drawn reproducibly from the seed.
    """
    m = skeleton.m
    states = sorted(cfg.vertex_ids())
    # zip draws each vertex's owner, then its priority, as randrange did.
    rng = random.Random(seed)
    draws = list(chain.from_iterable(islice(
        zip(_below(rng, 2), _below(rng, skeleton.d)), len(states) * m)))

    # Repeats can only come from a repeated pattern pair, or from a self-loop
    # transition whose cross pair is also an intra pair.
    intra = list(dict.fromkeys(skeleton.intra_edges))
    cross = list(dict.fromkeys(skeleton.cross_edges))
    self_cross = [e for e in cross if e not in intra]
    edges = [(b + q, b + p) for b in [s * m for s in states] for q, p in intra]
    edges += [(s * m + q, t * m + p) for s, t in sorted(cfg.edges())
              for q, p in (cross if s != t else self_cross)]
    return GameGraph(m=m, states=states, owner=draws[0::2], priority=draws[1::2], edges=edges)


def lift_decomposition(decomp: DagDecomposition, game: GameGraph) -> DagDecomposition:
    """Replace every vertex in every bag by its group; the DAG is unchanged."""
    # Group s is the m consecutive ids s*m, ..., s*m + m - 1.
    group = dict(zip(game.states, zip(*[iter(game.vertex_ids())] * game.m))).__getitem__
    try:
        bags = {node: frozenset(chain.from_iterable(map(group, bag)))
                for node, bag in decomp.bags.items()}
    except KeyError as err:
        raise ValueError(f"bag vertex {err.args[0]} has no group in the product game") from None
    return DagDecomposition(nodes=list(decomp.nodes), arcs=list(decomp.arcs), bags=bags)
