"""Checks for DAG decompositions: coverage, connectivity, edge covering.

Two formulations of the edge-covering condition are implemented. The
per-arc/per-source form asks that whenever a vertex u is introduced at a
node j, every graph edge (u, v) has v in some bag at or below j. The
guarding form asks that for every arc (i, j) the intersection of the two
bags guards everything at or below j that is missing from bag i. They are
equivalent on decompositions satisfying connectivity; the test suite checks
the equivalence empirically on valid and randomly damaged samples.

All set work runs on integer bitmasks, one bit per graph vertex, so
validation stays near linear in the decomposition size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._graph import VertexBits
from ._json import dumps
from .decomposition import DagDecomposition


@dataclass
class ValidationReport:
    acyclic: bool
    vertices_covered: bool
    connectivity: bool
    edges_covered_3a: bool  # source bags cover their vertices' edges
    edges_covered_3b: bool  # arcs cover their introduced vertices' edges
    d3_original: bool | None  # guarding form; None when not evaluated
    width: int
    violations: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return (
            self.acyclic
            and self.vertices_covered
            and self.connectivity
            and self.edges_covered_3a
            and self.edges_covered_3b
        )

    def to_json_dict(self) -> dict:
        return {
            "acyclic": self.acyclic,
            "vertices_covered": self.vertices_covered,
            "connectivity": self.connectivity,
            "edges_covered_3a": self.edges_covered_3a,
            "edges_covered_3b": self.edges_covered_3b,
            "d3_original": self.d3_original,
            "width": self.width,
            "valid": self.valid,
            "violations": [[kind, list(w)] for kind, w in self.violations],
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict())


def _closure(decomp: DagDecomposition, order: list[int], edges) -> tuple[VertexBits, dict[int, int]]:
    """Bits over the bag vertices and edge endpoints, and for each node the
    union of bags over all nodes reachable from it."""
    universe = set().union(*decomp.bags.values())
    for e in edges:
        universe.update(e)
    bits = VertexBits(universe)
    succ = decomp.successors()
    reach: dict[int, int] = {}
    for n in reversed(order):
        m = bits.of(decomp.bags[n])
        for s in succ[n]:
            m |= reach[s]
        reach[n] = m
    return bits, reach


def _sources(decomp: DagDecomposition) -> list[int]:
    has_pred = {j for _, j in decomp.arcs}
    return [n for n in decomp.nodes if n not in has_pred]


def check_vertices_covered(decomp: DagDecomposition, vertices) -> bool:
    return set().union(*decomp.bags.values()) == set(vertices)


def check_connectivity(decomp: DagDecomposition) -> bool:
    """Bags containing any given vertex must be convex under reachability."""
    order = decomp.topological_order()
    return order is not None and not _connectivity(decomp, *_closure(decomp, order, ()))


def _connectivity(decomp: DagDecomposition, bits: VertexBits, reach: dict[int, int]) -> list:
    violations = []
    # Once a vertex is dropped along an arc it may never reappear below:
    # a reappearance at k with i -> j on a path i..k shows X_i and X_k
    # sharing a vertex that bag j lacks.
    for i, j in decomp.arcs:
        dropped = bits.of(decomp.bags[i]) & ~bits.of(decomp.bags[j])
        bad = dropped & reach[j]
        if bad:
            for v in sorted(bits.set_of(bad)):
                violations.append(("connectivity", (i, j, v)))
    return violations


def check_edges_covered(decomp: DagDecomposition, edges) -> tuple[bool, bool]:
    """(source condition, arc condition); see the module docstring."""
    order = decomp.topological_order()
    if order is None:
        return False, False
    edges = list(edges)
    ok_a, ok_b, _ = _edges_covered(decomp, edges, *_closure(decomp, order, edges))
    return ok_a, ok_b


def _edges_covered(decomp: DagDecomposition, edges, bits: VertexBits, reach: dict[int, int]):
    out_edges: dict[int, list[int]] = {}
    for u, v in edges:
        out_edges.setdefault(u, []).append(v)

    violations = []
    ok_a = True
    for j in _sources(decomp):
        for u in decomp.bags[j]:
            for v in out_edges.get(u, ()):
                if not (reach[j] >> bits.index[v]) & 1:
                    ok_a = False
                    violations.append(("edges_covered_3a", (j, u, v)))

    ok_b = True
    for i, j in decomp.arcs:
        introduced = decomp.bags[j] - decomp.bags[i]
        for u in introduced:
            for v in out_edges.get(u, ()):
                if not (reach[j] >> bits.index[v]) & 1:
                    ok_b = False
                    violations.append(("edges_covered_3b", (i, j, u, v)))
    return ok_a, ok_b, violations


def check_d3(decomp: DagDecomposition, edges) -> bool:
    """Original guarding form of the edge-covering condition.

    For every arc (i, j): bags(i) intersect bags(j) guards everything in
    bags at or below j minus bag i. For every source j: the union of bags
    at or below j is guarded by the empty set.
    """
    order = decomp.topological_order()
    if order is None:
        return False
    edges = list(edges)
    return _d3(decomp, edges, order, *_closure(decomp, order, edges))


def _d3(decomp: DagDecomposition, edges: list, order: list[int],
        bits: VertexBits, reach: dict[int, int]) -> bool:
    """The guarding condition (w guards vp: every edge leaving vp lands back
    in vp or in w) for every source and arc, on bitmasks.

    hit[n] is the union of the out-neighbourhoods of the vertices at or
    below n, so hit[j] & ~(vp | w) holds every target that can break the
    guard at j. Only edges out of the excluded bag i can reach such a target
    without breaking it, so it breaks the guard iff one of its predecessors
    lies in vp = reach[j] & ~bag(i).
    """
    index = bits.index
    out_mask: dict[int, int] = {}
    preds: dict[int, list[int]] = {}
    for u, v in edges:
        out_mask[u] = out_mask.get(u, 0) | 1 << index[v]
        preds.setdefault(v, []).append(u)
    succ = decomp.successors()
    hit: dict[int, int] = {}
    for n in reversed(order):
        m = 0
        for u in decomp.bags[n]:
            m |= out_mask.get(u, 0)
        for s in succ[n]:
            m |= hit[s]
        hit[n] = m

    def guarded(j: int, excluded: frozenset, w: frozenset) -> bool:
        vp = reach[j] & ~bits.of(excluded)
        loose = hit[j] & ~(vp | bits.of(w))
        return not any(vp >> index[u] & 1
                       for v in bits.set_of(loose) for u in preds[v])

    empty: frozenset = frozenset()
    return (all(guarded(j, empty, empty) for j in _sources(decomp))
            and all(guarded(j, decomp.bags[i], decomp.bags[i] & decomp.bags[j])
                    for i, j in decomp.arcs))


def validate_decomposition(
    decomp: DagDecomposition,
    vertices,
    edges,
    with_d3: bool = False,
) -> ValidationReport:
    """Run every check against the given graph and collect witnesses."""
    edges = list(edges)
    order = decomp.topological_order()
    acyclic = order is not None
    width = decomp.width()
    covered = check_vertices_covered(decomp, vertices)
    violations: list[tuple[str, tuple]] = []
    if not covered:
        missing = set(vertices) - set().union(*decomp.bags.values())
        extra = set().union(*decomp.bags.values()) - set(vertices)
        for v in sorted(missing):
            violations.append(("vertices_covered_missing", (v,)))
        for v in sorted(extra):
            violations.append(("vertices_covered_extra", (v,)))

    if acyclic:
        bits, reach = _closure(decomp, order, edges)
        conn_viol = _connectivity(decomp, bits, reach)
        conn_ok = not conn_viol
        violations.extend(conn_viol)
        ok_a, ok_b, edge_viol = _edges_covered(decomp, edges, bits, reach)
        violations.extend(edge_viol)
        d3 = _d3(decomp, edges, order, bits, reach) if with_d3 else None
    else:
        conn_ok = ok_a = ok_b = False
        d3 = False if with_d3 else None
        violations.append(("acyclic", ()))

    return ValidationReport(
        acyclic=acyclic,
        vertices_covered=covered,
        connectivity=conn_ok,
        edges_covered_3a=ok_a,
        edges_covered_3b=ok_b,
        d3_original=d3,
        width=width,
        violations=violations,
    )


def validate_cfg_decomposition(decomp: DagDecomposition, cfg, with_d3: bool = False) -> ValidationReport:
    return validate_decomposition(decomp, cfg.vertex_ids(), cfg.edges(), with_d3=with_d3)
