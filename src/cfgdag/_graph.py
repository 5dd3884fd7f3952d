"""Graph primitives shared by the package: Kahn order, reachability, vertex
bitsets, and child lists of a parent-map tree.

Successor maps are plain mappings from a vertex to an iterable of vertices.
"""

from __future__ import annotations


def toposort(nodes, succ) -> list | None:
    """Kahn order of nodes under succ, or None when succ has a cycle.

    Ready nodes are taken last in, first out, starting from the sources in
    their order in nodes.
    """
    indeg = dict.fromkeys(nodes, 0)
    for n in indeg:
        for m in succ[n]:
            indeg[m] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return order if len(order) == len(nodes) else None


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


class VertexBits:
    """Vertex set <-> bitmask translation over one fixed vertex universe.

    Bit i stands for the i-th smallest vertex.
    """

    def __init__(self, vertices):
        self.order = sorted(vertices)
        self.index = {v: i for i, v in enumerate(self.order)}

    def of(self, vertices) -> int:
        index = self.index
        m = 0
        for v in vertices:
            m |= 1 << index[v]
        return m

    def set_of(self, mask: int) -> set:
        # Linear in the mask's size. Peeling the lowest bit copies the whole
        # mask, so only a mask of a few bits is peeled; a denser one is read
        # in one pass over its binary digits, with find running in C.
        order = self.order
        out = set()
        if mask.bit_count() <= 8:
            while mask:
                b = mask & -mask
                mask ^= b
                out.add(order[b.bit_length() - 1])
            return out
        digits = bin(mask)
        top = len(digits) - 1  # digits[top - i] is bit i
        i = digits.find("1", 2)
        while i >= 0:
            out.add(order[top - i])
            i = digits.find("1", i + 1)
        return out


def tree_children(parent: dict) -> dict[int, list[int]]:
    """Child lists of a tree given as a parent map; the root is its own parent."""
    kids: dict[int, list[int]] = {v: [] for v in parent}
    for v, p in parent.items():
        if v != p:
            kids[p].append(v)
    return kids
