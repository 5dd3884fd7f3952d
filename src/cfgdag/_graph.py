"""Graph primitives shared by the package: one DFS postorder that also
tells whether the graph is acyclic, strongly connected components from
that postorder and reachability, and reachability and breadth-first
layers around blocked vertices. Successor maps are plain mappings from a
vertex to an iterable of vertices.

Two walks keep their own loops: loops._dominator_tree needs the DFS
tree's parents and preorder numbers, and validate._reach_query stops at
its first hit.
"""

from __future__ import annotations


def postorder(nodes, succ) -> tuple[list, bool]:
    """(post, acyclic): the postorder of one iterative DFS over succ, and
    whether succ has no cycle (no arc back to a node on the DFS path).

    Roots are taken from the end of nodes and successors from the end of
    their lists, so the last listed is entered first. An arc back onto the
    path clears acyclic and is passed over, so a cyclic graph is ordered too.
    """
    # Every node starts on the stack as a root and is pushed again for each
    # arc into it. On entry a node goes back on the stack under its
    # successors, and it is finished when it surfaces.
    finished: dict = {}  # False while on the DFS path
    post = []
    acyclic = True
    stack = list(nodes)
    while stack:
        n = stack.pop()
        done = finished.get(n)
        if done is None:
            finished[n] = False
            stack.append(n)
            heads = succ[n]
            for s in heads:
                if finished.get(s) is False:
                    acyclic = False
                    heads = [h for h in heads if finished.get(h) is not False]
                    break
            stack.extend(heads)
        elif not done:
            finished[n] = True
            post.append(n)
    return post, acyclic


def components(nodes, succ) -> list[list]:
    """Strongly connected components of succ, by Kosaraju's two passes: one
    postorder, then reachable over the reversed arcs from each vertex in
    reverse postorder that no component holds yet.

    A component is listed when a DFS that enters roots in the order of nodes
    and successors in list order finishes it, so it comes after every
    component it reaches.
    """
    post, _ = postorder(list(nodes)[::-1], {v: list(heads)[::-1] for v, heads in succ.items()})
    pred: dict = {v: [] for v in post}
    for u in post:
        for w in succ[u]:
            pred[w].append(u)
    held: set = set()
    comps = []
    for v in reversed(post):
        if v not in held:
            comps.append(reachable(pred, v, held))
            held |= comps[-1]
    return [list(comp) for comp in reversed(comps)]


def reachable(succ, src, blocked=()) -> set:
    """Vertices reachable from src without entering a blocked vertex; src included."""
    seen = {src}
    stack = [src]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def layers(succ, src, blocked=()):
    """Yield, for each distance from src in turn, the list of vertices at
    that distance, reached without entering a blocked vertex; src alone first."""
    seen, layer = {src}, [src]
    while layer:
        yield layer
        layer = list(dict.fromkeys(w for v in layer for w in succ[v]
                                   if w not in seen and w not in blocked))
        seen.update(layer)
