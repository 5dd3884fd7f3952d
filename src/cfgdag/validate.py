"""Checks for DAG decompositions: coverage, connectivity, edge covering.

Two formulations of the edge-covering condition are implemented. The
per-arc/per-source form asks that whenever a vertex u is introduced at a
node j, every graph edge (u, v) has v in some bag at or below j. The
guarding form asks that for every arc (i, j) the intersection of the two
bags guards everything at or below j that is missing from bag i. They are
equivalent on decompositions satisfying connectivity; the test suite checks
the equivalence empirically on valid and randomly damaged samples.

Connectivity and the per-arc/per-source form ask one question many times:
does node j reach, itself included, a node whose bag holds v? One DFS over
the arcs finds any cycle and gives each node a reverse-postorder position,
and for each vertex v the last position of a bag holding v is kept. A
query answers no at once when j comes after that last bag. Otherwise it
looks in bag j and its direct successors' bags, and then searches from j
through the nodes placed no later than the last bag. A node placed after
it cannot lie on a path from j to a bag holding v, so the answer is exact
for any decomposition, a damaged one included; the order is only a cost
heuristic. On constructions a search visits a few nodes, but a crafted
decomposition can make every query visit the whole DAG, so the time is
O(queries x (nodes + arcs)) at worst. The memory stays linear.

The guarding form needs the union of the bags below each node at once. It
keeps two masks of V bits per node, so its time and memory are quadratic.
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


def _dfs_order(decomp: DagDecomposition) -> tuple[dict[int, list[int]], list[int] | None]:
    """Successor lists and the postorder of one iterative DFS that takes
    roots in descending id and successors highest first; the postorder is
    None when the arcs have a cycle (an arc back to a node on the DFS path).

    A node id listed twice also gives None, the verdict of a Kahn count.
    """
    succ = decomp.successors()
    for heads in succ.values():
        if len(heads) > 1:
            heads.sort()
    if len(succ) != len(decomp.nodes):
        return succ, None
    # Every node starts on the stack as a root and is pushed again for each
    # arc into it; the highest is popped first. On entry a node goes back on
    # the stack under its successors, and it is finished when it surfaces.
    finished: dict[int, bool] = {}  # False while on the DFS path
    post: list[int] = []
    stack = sorted(succ)
    while stack:
        n = stack.pop()
        done = finished.get(n)
        if done is None:
            finished[n] = False
            stack.append(n)
            heads = succ[n]
            for s in heads:
                if finished.get(s) is False:
                    return succ, None
            stack.extend(heads)
        elif not done:
            finished[n] = True
            post.append(n)
    return succ, post


def _reach_query(bags: dict[int, frozenset], succ: dict[int, list[int]], post: list[int]):
    """reaches(j, v): does node j reach, itself included, a node whose bag
    holds v? Needs the DFS postorder of an acyclic decomposition."""
    top = len(post) - 1
    pos = {n: top - k for k, n in enumerate(post)}  # reverse postorder
    last: dict[int, int] = {}  # vertex -> largest pos of a bag holding it
    for n in post:
        p = pos[n]
        for v in bags[n]:
            if v not in last:
                last[v] = p

    def reaches(j: int, v: int) -> bool:
        limit = last.get(v, -1)
        if pos[j] > limit:
            return False
        if v in bags[j]:
            return True
        heads = succ[j]
        for s in heads:
            if v in bags[s]:
                return True
        # Every node on a path from j to a bag holding v lies between the
        # two in the order, so nodes after the last such bag are skipped.
        stack = [s for s in heads if pos[s] <= limit]
        seen = set(stack)
        while stack:
            for s in succ[stack.pop()]:
                if s not in seen and pos[s] <= limit:
                    if v in bags[s]:
                        return True
                    seen.add(s)
                    stack.append(s)
        return False

    return reaches


def _queries(decomp: DagDecomposition):
    """The reach query of an acyclic decomposition, or None."""
    succ, post = _dfs_order(decomp)
    return None if post is None else _reach_query(decomp.bags, succ, post)


def _sources(decomp: DagDecomposition) -> list[int]:
    has_pred = {j for _, j in decomp.arcs}
    return [n for n in decomp.nodes if n not in has_pred]


def check_vertices_covered(decomp: DagDecomposition, vertices) -> bool:
    return set().union(*decomp.bags.values()) == set(vertices)


def check_connectivity(decomp: DagDecomposition) -> bool:
    """Bags containing any given vertex must be convex under reachability."""
    reaches = _queries(decomp)
    return reaches is not None and not _connectivity(decomp, reaches)


def _connectivity(decomp: DagDecomposition, reaches) -> list:
    violations = []
    bags = decomp.bags
    # Once a vertex is dropped along an arc it may never reappear below:
    # a reappearance at k with i -> j on a path i..k shows X_i and X_k
    # sharing a vertex that bag j lacks.
    for i, j in decomp.arcs:
        bag_j = bags[j]
        for v in bags[i]:
            if v not in bag_j and reaches(j, v):
                # Rare: list every violation of the arc, in vertex order.
                for w in sorted(bags[i] - bag_j):
                    if reaches(j, w):
                        violations.append(("connectivity", (i, j, w)))
                break
    return violations


def check_edges_covered(decomp: DagDecomposition, edges) -> tuple[bool, bool]:
    """(source condition, arc condition); see the module docstring."""
    reaches = _queries(decomp)
    if reaches is None:
        return False, False
    ok_a, ok_b, _ = _edges_covered(decomp, edges, reaches)
    return ok_a, ok_b


def _edges_covered(decomp: DagDecomposition, edges, reaches):
    out_edges: dict[int, list[int]] = {}
    for u, v in edges:
        out_edges.setdefault(u, []).append(v)

    violations = []
    ok_a = True
    for j in _sources(decomp):
        for u in decomp.bags[j]:
            for v in out_edges.get(u, ()):
                if not reaches(j, v):
                    ok_a = False
                    violations.append(("edges_covered_3a", (j, u, v)))

    ok_b = True
    for i, j in decomp.arcs:
        introduced = decomp.bags[j] - decomp.bags[i]
        for u in introduced:
            for v in out_edges.get(u, ()):
                if not reaches(j, v):
                    ok_b = False
                    violations.append(("edges_covered_3b", (i, j, u, v)))
    return ok_a, ok_b, violations


def check_d3(decomp: DagDecomposition, edges) -> bool:
    """Original guarding form of the edge-covering condition.

    For every arc (i, j): bags(i) intersect bags(j) guards everything in
    bags at or below j minus bag i. For every source j: the union of bags
    at or below j is guarded by the empty set.
    """
    succ, post = _dfs_order(decomp)
    return post is not None and _d3(decomp, list(edges), succ, post)


def _d3(decomp: DagDecomposition, edges: list, succ: dict[int, list[int]], post: list[int]) -> bool:
    """The guarding condition (w guards vp: every edge leaving vp lands back
    in vp or in w) for every source and arc, on bitmasks of V bits per node.

    reach[n] is the union of the bags at or below n, and hit[n] the union of
    the out-neighbourhoods of their vertices, so hit[j] & ~(vp | w) holds
    every target that can break the guard at j. Only edges out of the
    excluded bag i can reach such a target without breaking it, so it breaks
    the guard iff one of its predecessors lies in vp = reach[j] & ~bag(i).
    """
    universe = set().union(*decomp.bags.values())
    for e in edges:
        universe.update(e)
    bits = VertexBits(universe)
    index = bits.index
    out_mask: dict[int, int] = {}
    preds: dict[int, list[int]] = {}
    for u, v in edges:
        out_mask[u] = out_mask.get(u, 0) | 1 << index[v]
        preds.setdefault(v, []).append(u)
    reach: dict[int, int] = {}
    hit: dict[int, int] = {}
    for n in post:  # successors come first
        bag = decomp.bags[n]
        r = bits.of(bag)
        m = 0
        for u in bag:
            m |= out_mask.get(u, 0)
        for s in succ[n]:
            r |= reach[s]
            m |= hit[s]
        reach[n] = r
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
    succ, post = _dfs_order(decomp)
    acyclic = post is not None
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
        reaches = _reach_query(decomp.bags, succ, post)
        conn_viol = _connectivity(decomp, reaches)
        conn_ok = not conn_viol
        violations.extend(conn_viol)
        ok_a, ok_b, edge_viol = _edges_covered(decomp, edges, reaches)
        violations.extend(edge_viol)
        d3 = _d3(decomp, edges, succ, post) if with_d3 else None
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
