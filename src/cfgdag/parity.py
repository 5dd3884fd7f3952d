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

from ._json import dumps
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

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "vertices": [
                {
                    "id": v,
                    "state": self.state_of[v][0],
                    "part": self.state_of[v][1],
                    "owner": self.owner[v],
                    "priority": self.priority[v],
                }
                for v in sorted(self.state_of)
            ],
            "edges": [list(e) for e in sorted(self.edges)],
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict())


def build_product_game(cfg, skeleton: FormulaSkeleton, seed: int = 0) -> GameGraph:
    """One group of skeleton.m game vertices per graph vertex.

    Owners and priorities are not constrained by the construction, so they
    are drawn reproducibly from the seed.
    """
    rng = random.Random(seed)
    m = skeleton.m
    groups: dict[int, list[int]] = {}
    state_of: dict[int, tuple[int, int]] = {}
    for s in sorted(cfg.vertex_ids()):
        groups[s] = [s * m + q for q in range(m)]
        for q in range(m):
            state_of[s * m + q] = (s, q)

    game = GameGraph(m=m, groups=groups, state_of=state_of,
                     transitions=set(cfg.edges()))
    for v in sorted(state_of):
        game.owner[v] = rng.randrange(2)
        game.priority[v] = rng.randrange(skeleton.d)

    for s in sorted(groups):
        for q, p in skeleton.intra_edges:
            game.add_edge(s * m + q, s * m + p)
    for s, t in sorted(game.transitions):
        for q, p in skeleton.cross_edges:
            game.add_edge(s * m + q, t * m + p)
    return game


def lift_decomposition(decomp: DagDecomposition, game: GameGraph) -> DagDecomposition:
    """Replace every vertex in every bag by its group; the DAG is unchanged."""
    bags = {}
    for node, bag in decomp.bags.items():
        lifted = set()
        for s in bag:
            if s not in game.groups:
                raise ValueError(f"bag vertex {s} has no group in the product game")
            lifted.update(game.groups[s])
        bags[node] = frozenset(lifted)
    return DagDecomposition(nodes=list(decomp.nodes), arcs=list(decomp.arcs), bags=bags)
