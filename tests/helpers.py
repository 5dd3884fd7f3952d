"""Independent oracles the tests check the library against.

These deliberately use different machinery from the implementation:
plain path enumeration, transitive closures, and brute-force triple
scans instead of dominator trees and bitmask sweeps.
"""

from __future__ import annotations

from cfgdag import cfg_from_source, compute_dominators, loop_regions


def pipeline(src, contract=False):
    """parse -> build -> prune (-> contract) -> dominator-based regions."""
    cfg, forest = cfg_from_source(src, contract=contract)
    dom = compute_dominators(cfg)
    loop_regions(cfg, forest, dom)
    return cfg, forest, dom


def bfs_reachable(succ: dict, start) -> set:
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def succ_map(cfg) -> dict:
    return {v: list(cfg.successors(v)) for v in cfg.vertex_ids()}


def all_simple_paths(succ: dict, src, dst, limit: int = 200000) -> list[list]:
    """Every simple directed path src..dst; guard against blowups."""
    paths: list[list] = []
    path = [src]
    on_path = {src}

    def walk(v):
        if len(paths) > limit:
            raise RuntimeError("path enumeration exploded")
        if v == dst:
            paths.append(list(path))
            return
        for w in succ[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                walk(w)
                path.pop()
                on_path.remove(w)

    walk(src)
    return paths


def dominators_by_paths(cfg) -> dict:
    """v -> set of vertices on every start-to-v simple path."""
    succ = succ_map(cfg)
    doms = {}
    for v in cfg.vertex_ids():
        paths = all_simple_paths(succ, cfg.start, v)
        if not paths:
            doms[v] = None
            continue
        common = set(paths[0])
        for p in paths[1:]:
            common &= set(p)
        doms[v] = common
    return doms


def dist_by_enumeration(cfg, elem, v) -> int | None:
    """Longest |path-vertices in belongs(L)| over simple paths to the exit.

    Paths stay within inside(L) plus the exit and may not pass through the
    entry except as the starting vertex.
    """
    if elem.exit is None:
        return None
    allowed = set(elem.inside) | {elem.exit}
    succ = {
        u: [w for w in cfg.successors(u) if w in allowed and w != elem.entry]
        for u in allowed
    }
    best = None
    for path in all_simple_paths(succ, v, elem.exit):
        count = sum(1 for x in path if x in elem.belongs)
        if best is None or count > best:
            best = count
    return best


def closure(decomp) -> dict:
    """node -> set of nodes reachable from it (including itself)."""
    succ = decomp.successors()
    out = {}
    for n in decomp.nodes:
        seen = {n}
        stack = [n]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        out[n] = seen
    return out


def connectivity_by_triples(decomp) -> bool:
    """Direct scan over ordered triples i <= k <= j in the DAG order."""
    reach = closure(decomp)
    for i in decomp.nodes:
        for k in reach[i]:
            for j in reach[k]:
                if not (decomp.bags[i] & decomp.bags[j]) <= decomp.bags[k]:
                    return False
    return True


def edges_covered_by_defn(decomp, edges) -> tuple[bool, bool]:
    """(source condition, arc condition) straight from the definitions."""
    reach = closure(decomp)
    out_edges: dict = {}
    for u, v in edges:
        out_edges.setdefault(u, []).append(v)

    def covered(j, u):
        for v in out_edges.get(u, ()):
            if not any(v in decomp.bags[k] for k in reach[j]):
                return False
        return True

    with_pred = {j for _, j in decomp.arcs}
    ok_sources = all(
        covered(j, u) for j in decomp.nodes if j not in with_pred for u in decomp.bags[j]
    )
    ok_arcs = all(
        covered(j, u) for i, j in decomp.arcs for u in decomp.bags[j] - decomp.bags[i]
    )
    return ok_sources, ok_arcs


def guards_by_scan(w: set, vp: set, edges) -> bool:
    """The guarding condition by a scan of every graph edge."""
    return all(u not in vp or v in vp or v in w for u, v in edges)


def guard_pairs(decomp) -> list[tuple[set, set]]:
    """(w, vp) for every source (empty, bags at or below it) and every arc
    (i, j) (bag i & bag j, bags at or below j minus bag i), from explicit
    vertex sets."""
    succ = decomp.successors()

    def below(j):
        return set().union(*(decomp.bags[n] for n in bfs_reachable(succ, j)))

    has_pred = {j for _, j in decomp.arcs}
    pairs = [(set(), below(j)) for j in decomp.nodes if j not in has_pred]
    pairs += [(set(decomp.bags[i] & decomp.bags[j]), below(j) - decomp.bags[i])
              for i, j in decomp.arcs]
    return pairs


def d3_by_scan(decomp, edges) -> bool:
    """Guarding form of edge covering; the decomposition must be acyclic."""
    return all(guards_by_scan(w, vp, edges) for w, vp in guard_pairs(decomp))
