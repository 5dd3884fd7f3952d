"""Graph primitives shared by the package: a DFS postorder that finds
cycles, and reachability and breadth-first layers around blocked vertices.

Successor maps are plain mappings from a vertex to an iterable of vertices.
"""

from __future__ import annotations


def postorder(nodes, succ) -> list | None:
    """Postorder of one iterative DFS over succ, or None when succ has a
    cycle (an arc back to a node on the DFS path).

    Roots are taken from the end of nodes and successors from the end of
    their lists, so the last listed is entered first.
    """
    # Every node starts on the stack as a root and is pushed again for each
    # arc into it. On entry a node goes back on the stack under its
    # successors, and it is finished when it surfaces.
    finished: dict = {}  # False while on the DFS path
    post = []
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
                    return None
            stack.extend(heads)
        elif not done:
            finished[n] = True
            post.append(n)
    return post


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
