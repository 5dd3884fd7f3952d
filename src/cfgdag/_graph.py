"""Graph primitives shared by the package: a DFS postorder that finds
cycles, strongly connected components, and reachability and breadth-first
layers around blocked vertices.

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


def components(nodes, succ) -> list[list]:
    """Strongly connected components of succ, by one iterative Tarjan walk.

    A component is listed when the walk closes it, so it comes after every
    component it reaches. Roots are taken in the order of nodes.
    """
    num: dict = {}  # entry number of each entered node
    low: dict = {}  # open nodes only: least entry number seen below them
    path = []  # open nodes, in entry order
    comps = []
    for root in nodes:
        if root in num:
            continue
        num[root] = low[root] = len(num)
        path.append(root)
        walk = [(root, iter(succ[root]))]
        while walk:
            v, heads = walk[-1]
            for w in heads:
                if w not in num:
                    num[w] = low[w] = len(num)
                    path.append(w)
                    walk.append((w, iter(succ[w])))
                    break
                if w in low and low[w] < low[v]:
                    low[v] = low[w]
            else:
                walk.pop()
                if low[v] == num[v]:
                    comp = []
                    while True:
                        w = path.pop()
                        del low[w]
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                elif low[v] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[v]
    return comps


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
