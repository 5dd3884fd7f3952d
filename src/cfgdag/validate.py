r"""Checks for DAG decompositions: coverage, connectivity, edge covering.

Two formulations of the edge-covering condition are implemented. The
per-arc/per-source form asks that whenever a vertex u is introduced at a
node j, every graph edge (u, v) has v in some bag at or below j. The
guarding form asks that for every arc (i, j) the intersection of the two
bags guards everything at or below j that is missing from bag i; it is
condition (D3) of Berwanger et al. Every validation decides both, and the
report gives the guarding form as d3_original. They are equivalent on
decompositions satisfying connectivity; the test suite checks the
equivalence empirically on valid and randomly damaged samples.

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

The guarding form is answered by the same queries. Fix an acyclic
decomposition, let B_n be the bag of node n and R(j) the union of the bags
at or below j, and call a dropped target an arc (i, j), a vertex v in
B_i \ B_j and a graph edge (u, v) with u not in B_i and reaches(j, u).
Then the guarding form holds iff 3a and 3b hold and there is no dropped
target.

- Only if. The guard at a source j says that R(j) is closed under
  out-edges, which gives 3a. The guard at an arc (i, j), applied to a
  vertex u of B_j \ B_i, puts every out-neighbour of u in R(j), which gives
  3b. A dropped target breaks the guard at its arc: u lies in R(j) \ B_i,
  and v lies in neither R(j) \ B_i nor B_i & B_j.
- If. The guard at an arc (i, j) breaks iff some edge (u, v) has u in
  R(j) \ B_i and either v in B_i \ B_j, which is a dropped target, or v in
  neither B_i nor R(j). 3b rules out the second way. On any path from j to
  a bag holding u, the first node whose bag holds u is j itself, where the
  arc (i, j) introduces u, or a node entered along an arc that introduces
  u; either way 3b puts v in R(j). The same argument, where the first node
  may be the source itself and 3a applies, gives the guards at the sources.

The same argument shows that, once 3b holds, the v of a dropped target lies
in R(j), so (i, j, v) is a connectivity violation. Only those are scanned,
one query per predecessor of v. On a connected decomposition there are
none, so the two forms agree there and the guarding form costs nothing
beyond 3a and 3b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._graph import postorder
from ._json import dumps
from .decomposition import DagDecomposition


@dataclass
class ValidationReport:
    acyclic: bool
    vertices_covered: bool
    connectivity: bool
    edges_covered_3a: bool  # source bags cover their vertices' edges
    edges_covered_3b: bool  # arcs cover their introduced vertices' edges
    d3_original: bool  # guarding form of edge covering (D3)
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
    """Successor lists and the DFS postorder that takes roots in descending
    id and successors lowest first; the postorder is None when the arcs
    have a cycle.

    Entering the lowest successor first finishes a loop's body before the
    later vertices beside it, so those are placed ahead of the body and a
    query for a vertex they hold stops short of it. Taken highest first, a
    query inside nested do loops would search every deeper body, which is
    quadratic in the nesting depth.

    A node id listed twice also gives None. from_json_dict rejects such a
    file, so this covers decompositions built in code only.
    """
    succ = decomp.successors()
    for heads in succ.values():
        if len(heads) > 1:
            heads.sort(reverse=True)
    if len(succ) != len(decomp.nodes):
        return succ, None
    post, acyclic = postorder(sorted(succ), succ)
    return succ, post if acyclic else None


def _reach_query(bags: dict[int, tuple[int, ...]], succ: dict[int, list[int]], post: list[int]):
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


def _sources(decomp: DagDecomposition) -> list[int]:
    has_pred = {j for _, j in decomp.arcs}
    return [n for n in decomp.nodes if n not in has_pred]


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
                for w in bags[i]:
                    if w not in bag_j and reaches(j, w):
                        violations.append(("connectivity", (i, j, w)))
                break
    return violations


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
    bags = decomp.bags
    for i, j in decomp.arcs:
        bag_i = bags[i]
        for u in bags[j]:
            if u in bag_i:
                continue
            for v in out_edges.get(u, ()):
                if not reaches(j, v):
                    ok_b = False
                    violations.append(("edges_covered_3b", (i, j, u, v)))
    return ok_a, ok_b, violations


def _dropped_target(decomp: DagDecomposition, edges: list, reaches, conn_violations: list) -> bool:
    """Does some connectivity violation (i, j, v) have an edge (u, v) with u
    outside bag i and reaches(j, u)? Once 3b holds, every dropped target is
    such a violation."""
    if not conn_violations:
        return False
    preds: dict[int, list[int]] = {}
    for u, v in edges:
        preds.setdefault(v, []).append(u)
    bags = decomp.bags
    return any(u not in bags[i] and reaches(j, u)
               for _, (i, j, v) in conn_violations for u in preds.get(v, ()))


def validate_decomposition(decomp: DagDecomposition, vertices, edges) -> ValidationReport:
    """Run every check against the given graph and collect witnesses."""
    edges = list(edges)
    succ, post = _dfs_order(decomp)
    acyclic = post is not None
    width = decomp.width()
    union, vertices = set().union(*decomp.bags.values()), set(vertices)
    violations: list[tuple[str, tuple]] = [
        ("vertices_covered_missing", (v,)) for v in sorted(vertices - union)]
    violations += [("vertices_covered_extra", (v,)) for v in sorted(union - vertices)]
    covered = not violations

    if acyclic:
        reaches = _reach_query(decomp.bags, succ, post)
        conn_viol = _connectivity(decomp, reaches)
        conn_ok = not conn_viol
        violations.extend(conn_viol)
        ok_a, ok_b, edge_viol = _edges_covered(decomp, edges, reaches)
        violations.extend(edge_viol)
        d3 = ok_a and ok_b and not _dropped_target(decomp, edges, reaches, conn_viol)
    else:
        conn_ok = ok_a = ok_b = d3 = False
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


def validate_cfg_decomposition(decomp: DagDecomposition, cfg) -> ValidationReport:
    return validate_decomposition(decomp, cfg.vertex_ids(), cfg.edges())
