"""Dominators, loop forests and loop regions.

A loop element pairs an entry vertex with an exit vertex, and a vertex ends
at most one element (LoopForest.ends). An element is a loop only if an edge
closes it: a vertex it owns has an edge into its entry. Every forest carries
one owner map: vertex -> the innermost element it belongs to, under a
virtual root element (phi) that owns start, stop, and everything outside all
loops. An element records only its parent, so a forest holds no reference
cycle, and the forest lists its elements once, in preorder with siblings by
entry id, the one order every reader and writer uses. The builder records
the map as it expands the source; any other forest, recovered or given,
follows from its entries and exits by one preorder walk of the dominator
tree in which a loop opens at its entry and closes, with every loop inside
it, at its exit.
The map is the only record of membership: v belongs to L when L owns v, and
v lies inside L when L is the owner of v or one of its ancestors
(LoopForest.contains); the forest JSON holds only each loop's entry, exit
and parent. By definition inside(L) holds the vertices dominated by the
entry and not by the exit; the tests keep that definition as their oracle.
The backward edges of a loop, from the vertices it owns to its entry, are
tagged in one place, decomposition.partition_edges.

Dominators take one Semi-NCA pass (Georgiadis, Tarjan & Werneck, "Finding
dominators in practice", 2006): near-linear time, and iterative throughout,
so no graph is too deep for it. Loop recovery finds every natural body in
one union-find pass (Tarjan, "Testing flow graph reducibility", 1974;
Havlak, "Nesting of reducible and irreducible loops", 1997), and each
loop's exit where the live targets of the edges leaving its body meet, so
it needs no post-dominator tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from ._graph import postorder, reachable
from ._json import dumps
from .cfg import ControlFlowGraph, EdgeKind


class NotStructuredError(ValueError):
    """The graph is not the control-flow graph of a structured program: its
    loops do not nest, or a loop is entered other than through its entry."""


class LoopForestJsonError(ValueError):
    """Loop forest JSON that does not describe a forest of the graph: a
    missing key, an entry or exit that is not a vertex id, a parent that is
    not the index of an earlier record, a record of the wrong shape, nesting
    against dominance, or a loop that no edge closes."""


@dataclass(eq=False)
class LoopElement:
    entry: int | None
    exit: int | None
    parent: "LoopElement | None" = None

    @property
    def is_root(self) -> bool:
        return self.entry is None

    def __repr__(self):
        if self.is_root:
            return "LoopElement(root)"
        return f"LoopElement(entry={self.entry}, exit={self.exit})"


class LoopForest:
    """Nesting forest of loop elements under a virtual root element."""

    def __init__(self):
        self.phi = LoopElement(None, None, None)
        # in preorder: each element after its parent, siblings by entry id,
        # and each subtree in one run; new_element appends
        self.elements: list[LoopElement] = []
        # vertex -> innermost element it belongs to (phi included), filled
        # where the forest is made
        self.owner: dict[int, LoopElement] = {}

    def new_element(self, parent: LoopElement | None = None) -> LoopElement:
        elem = LoopElement(None, None, parent or self.phi)
        self.elements.append(elem)
        return elem

    def contains(self, elem: LoopElement, v: int) -> bool:
        """True iff v lies inside elem: elem owns v or an element nested in it does.

        The walk up from v's owner gives up at elem's parent, which lies
        above elem; a vertex owned just outside elem costs one step.
        """
        e, above = self.owner[v], elem.parent
        while e is not elem:
            if e is None or e is above:
                return False
            e = e.parent
        return True

    def ends(self) -> tuple[dict[int, LoopElement], dict[int, LoopElement]]:
        """(entry -> element, exit -> element). A vertex that is the entry
        of two elements, the exit of two, or an entry and an exit fits no
        structured program: NotStructuredError."""
        by_entry: dict[int, LoopElement] = {}
        by_exit: dict[int, LoopElement] = {}
        for elem in self.elements:
            if elem.entry in by_entry:
                raise NotStructuredError(f"vertex {elem.entry} is the entry of two loop elements")
            by_entry[elem.entry] = elem
            if elem.exit is not None:
                if elem.exit in by_exit:
                    raise NotStructuredError(f"vertex {elem.exit} is the exit of two loop elements")
                by_exit[elem.exit] = elem
        both = by_entry.keys() & by_exit.keys()
        if both:
            raise NotStructuredError(f"vertex {min(both)} is both a loop entry and a loop exit")
        return by_entry, by_exit

    def to_json_dict(self) -> dict:
        index = {elem: i for i, elem in enumerate(self.elements)}
        return {"loops": [{"entry": e.entry, "exit": e.exit, "parent": index.get(e.parent)}
                          for e in self.elements]}

    def to_json(self) -> str:
        return dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LoopForest":
        """The nesting of a forest JSON. Any other key of a record, such as
        the inside and belongs lists of older files, is ignored: assign_owners
        derives membership from the graph."""
        forest = cls()
        try:
            for i, rec in enumerate(data["loops"]):
                parent, entry, exit_ = rec["parent"], rec["entry"], rec["exit"]
                if parent is not None and (type(parent) is not int or not 0 <= parent < i):
                    raise ValueError(f"loop {i}: parent {parent!r} is not an earlier loop")
                if type(entry) is not int or not (exit_ is None or type(exit_) is int):
                    raise ValueError(f"loop {i}: entry {entry!r} or exit {exit_!r} is not a vertex id")
                elem = forest.new_element(forest.phi if parent is None else forest.elements[parent])
                elem.entry, elem.exit = entry, exit_
        except KeyError as err:
            raise LoopForestJsonError(f"missing key {err}") from None
        except (AttributeError, TypeError, ValueError) as err:
            raise LoopForestJsonError(str(err)) from None
        # A record need only follow its parent.
        forest.elements = _in_preorder(forest.phi, forest.elements)
        return forest


def _in_preorder(phi: LoopElement, elements: list[LoopElement]) -> list[LoopElement]:
    """The elements put into preorder under phi, siblings by entry id."""
    kids: dict[LoopElement, list[LoopElement]] = {elem: [] for elem in (phi, *elements)}
    for elem in sorted(elements, key=lambda e: e.entry):
        kids[elem.parent].append(elem)
    # postorder enters the last child first, so its order read backwards,
    # phi (last) dropped, is the preorder with siblings ascending by entry.
    post, _ = postorder([phi], kids)
    return post[-2::-1]


@dataclass
class DominatorInfo:
    """Immediate dominators from start, and preorder stamps of their tree."""

    idom: dict[int, int]
    _tin: dict[int, int] = field(default_factory=dict, repr=False)
    _tout: dict[int, int] = field(default_factory=dict, repr=False)

    def dominates(self, u: int, v: int) -> bool:
        """True iff u lies on every path from start to v (reflexive)."""
        return self._tin[u] <= self._tin[v] and self._tout[v] <= self._tout[u]


def _dominator_tree(root: int, succ, pred):
    """Semi-NCA dominator tree of the vertices reachable from root.

    Georgiadis, Tarjan & Werneck, "Finding dominators in practice" (2006).
    succ(v) and pred(v) list the neighbours of v. One DFS numbers the
    vertices in preorder; semidominators follow in reverse preorder, each
    found by a path-compressed walk up the forest of vertices already done;
    then each immediate dominator is the nearest ancestor of the DFS parent
    whose number is at most the semidominator's. Every walk runs on an
    explicit stack over arrays indexed by preorder number, so neither the
    depth of the graph nor that of the tree meets the recursion limit.

    Returns idom, keyed in reverse postorder with the root as its own idom,
    and the entry and exit stamps of a preorder walk of the dominator tree
    that takes each vertex's children in reverse postorder.
    """
    num = {root: 0}
    vert = [root]
    parent = [0]
    post = []
    stack = [(0, iter(succ(root)))]
    while stack:
        i, it = stack[-1]
        for w in it:
            if w not in num:
                j = num[w] = len(vert)
                vert.append(w)
                parent.append(i)
                stack.append((j, iter(succ(w))))
                break
        else:
            stack.pop()
            post.append(i)

    # Vertices numbered above w are done and linked into a forest by anc;
    # any other vertex is a forest root. low[x] is the least semidominator
    # on x's forest path below its root.
    n = len(vert)
    semi = [0] * n
    low = [0] * n
    anc = parent[:]
    for w in range(n - 1, 0, -1):
        s = parent[w]
        for v in pred(vert[w]):
            u = num.get(v)
            if u is None:
                continue
            if u > w:
                path = []
                while anc[u] > w:
                    path.append(u)
                    u = anc[u]
                top, m = anc[u], low[u]
                for x in reversed(path):
                    anc[x] = top
                    if low[x] > m:
                        low[x] = m
                    else:
                        m = low[x]
                u = m
            if u < s:
                s = u
        semi[w] = low[w] = s

    idom = parent
    for w in range(1, n):
        d = idom[w]
        while d > semi[w]:
            d = idom[d]
        idom[w] = d

    # A dominator is a proper DFS ancestor: it has the smaller number and
    # comes first in reverse postorder, so subtree sizes add up in reverse
    # preorder and stamps are handed out in reverse postorder.
    size = [1] * n
    for w in range(n - 1, 0, -1):
        size[idom[w]] += size[w]
    post.reverse()
    tin = [0] * n
    free = [1] * n  # next stamp for a child of each vertex
    for w in post[1:]:
        d = idom[w]
        t = tin[w] = free[d]
        free[d] = t + size[w]
        free[w] = t + 1
    # Both stamp maps outlive this call; they share one int per value.
    stamp = list(range(n + 1))
    return (
        {vert[w]: vert[idom[w]] for w in post},
        {v: stamp[t] for v, t in zip(vert, tin)},
        {v: stamp[t + k] for v, t, k in zip(vert, tin, size)},
    )


def compute_dominators(cfg: ControlFlowGraph) -> DominatorInfo:
    """Dominators from start. Raises ValueError when start does not reach a
    vertex other than a stop with no out-edges; prune first."""
    idom, tin, tout = _dominator_tree(cfg.start, cfg.successors, cfg.predecessors)
    if len(idom) < cfg.n_vertices:
        missing = [v for v in cfg.vertex_ids() if v not in idom]
        if missing != [cfg.stop] or cfg.successors(cfg.stop):
            raise ValueError(f"unreachable vertices {sorted(missing)}; prune the graph first")
    return DominatorInfo(idom, tin, tout)


def loop_regions(cfg: ControlFlowGraph, forest: LoopForest) -> LoopForest:
    """Check that the forest's owner map covers exactly the graph's vertices.

    Readers take membership from the map itself (LoopForest.owner,
    LoopForest.contains), so a forest is usable without this call.
    """
    if forest.owner.keys() != cfg.labels.keys():
        missing = sorted(cfg.labels.keys() - forest.owner.keys())
        raise ValueError(f"no loop owner for vertices {missing[:10]}")
    return forest


def _forest_from_exits(cfg: ControlFlowGraph, dom: DominatorInfo, exits: dict) -> LoopForest:
    """The forest whose loops open at the keys of exits and close at their
    values, owner map filled, elements in the order they open.

    One walk of the dominator tree in reverse postorder, the key order of
    dom.idom: each vertex comes after its immediate dominator and starts in
    the loop that owns it. Reaching the exit of an open loop closes it and
    every loop inside it; then a loop that starts at the vertex opens under
    the one open there and owns it. stop always stays with the root.
    """
    forest = LoopForest()
    closes: dict[int, LoopElement] = {}  # exit -> element, for elements opened so far
    owner = forest.owner
    phi = forest.phi
    for v, d in dom.idom.items():
        loop = phi if v == d else owner[d]
        closing = closes.get(v)
        if closing is not None:
            elem = loop
            while elem is not None and elem is not closing:
                elem = elem.parent
            if elem is closing:  # open here: close it with the loops inside it
                loop = closing.parent
        if v in exits and v != cfg.stop:
            loop = forest.new_element(loop)
            loop.entry, loop.exit = v, exits[v]
            if loop.exit is not None:
                closes[loop.exit] = loop
        owner[v] = loop
    owner[cfg.stop] = phi
    return forest


def assign_owners(cfg: ControlFlowGraph, dom: DominatorInfo, forest: LoopForest) -> LoopForest:
    """Fill the owner map of a forest given whole, such as one read from JSON,
    from the forest that _forest_from_exits makes of its entries and exits.

    Raises LoopForestJsonError when LoopForest.ends does (two elements
    share an entry or an exit, or an entry is an exit), when an element's
    parent is not the loop open at its entry, or when no edge closes an
    element, its entry never reached included. Raises it too when an entry,
    or an exit that is set, is not a vertex of cfg.
    """
    try:
        by_entry = forest.ends()[0]
    except NotStructuredError as err:
        raise LoopForestJsonError(str(err)) from None
    for elem in forest.elements:
        for end, v in (("entry", elem.entry), ("exit", elem.exit)):
            if v is not None and v not in cfg.labels:
                raise LoopForestJsonError(f"loop at entry {elem.entry}: {end} {v} is not a vertex of the graph")

    made = _forest_from_exits(cfg, dom, {e.entry: e.exit for e in forest.elements})
    # The two nestings agree up to the first loop, in opening order, that misfits.
    for elem in made.elements:
        given, open_there = by_entry[elem.entry], by_entry.get(elem.parent.entry, forest.phi)
        if given.parent is not open_there:
            raise LoopForestJsonError(f"loop at entry {elem.entry} is nested under {given.parent!r}, "
                                      f"but the loop open there is {open_there!r}; input is not structured")
    forest.owner = {v: by_entry.get(e.entry, forest.phi) for v, e in made.owner.items()}
    for elem in forest.elements:
        # A loop that never opened owns no vertex.
        if not any(forest.owner[u] is elem for u in cfg.predecessors(elem.entry)):
            raise LoopForestJsonError(f"no edge closes the loop at entry {elem.entry}")
    return forest


def recover_loop_forest(cfg: ControlFlowGraph, dom: DominatorInfo) -> LoopForest:
    """Rebuild a loop forest, owner map included, for a graph loaded without one.

    Entries are heads of backward edges (the head dominates the tail). A
    loop's natural body is its entry and every vertex that reaches a tail
    without passing it. Heads go innermost first, in reverse dominator
    preorder, and each collapses into itself what a predecessor walk from
    its tails finds, inner bodies whole: an edge into a body from outside
    ends at its head, so the walk passes an inner loop by its head alone.

    The same pass collects each loop's targets: the heads of edges that
    leave its body and are neither return edges nor backward, together
    with the live targets of the loops collapsed into it. A target is live
    when it reaches stop without a return edge; for an entry that does not
    reach stop that way, when it lies in the body of the innermost loop
    holding that entry, or, where no loop holds it, always. A loop's exit is
    where its live targets meet: the target first in reverse postorder
    advances to its live successors, a loop entry standing for what follows
    that loop's exit, until one vertex is left that is no loop entry. So no
    post-dominator tree is needed, and a loop finds its exit even where the
    program ends in a return or an endless loop. Loops nest by the
    dominator-tree walk of _forest_from_exits. Only the head of a
    backward edge opens a loop: none is recovered that no edge closes.
    """
    succ, pred, kind = cfg.successors, cfg.predecessors, cfg.edge_kind
    returns = EdgeKind.STOP  # an enum member costs a lookup on every access
    tin, tout = dom._tin, dom._tout
    tails: dict[int, list[int]] = {}
    returned_to: set[int] = set()  # heads of return edges
    for (u, v), k in cfg._kind.items():
        if tin[v] <= tin[u] and tout[u] <= tout[v]:  # v dominates u
            tails.setdefault(v, []).append(u)
        if k is returns:
            returned_to.add(v)

    def leaving(qs) -> list[int]:
        """Heads of the out-edges of qs that are neither return edges nor backward."""
        return [w for q in qs for w in succ(q)
                if not (w in returned_to and kind(q, w) is returns)
                and not (w in tails and dom.dominates(w, q))]

    # The vertices that reach stop without a return edge.
    reach: set[int] = set()
    if tails and cfg.stop in dom.idom:
        rev = dict(cfg._pred)
        for v in returned_to:
            rev[v] = [u for u in rev[v] if kind(u, v) is not returns]
        reach = reachable(rev, cfg.stop)

    up: dict[int, int] = {}  # toward the head of the outermost body found so far

    def find(x: int) -> int:
        top = x
        while top in up:
            top = up[top]
        while x != top:
            up[x], x = top, up[x]
        return top

    targets: dict[int, list[int]] = {}  # for each head done and not yet settled
    exits: dict[int, int | None] = {}
    rpo: dict[int, int] = {}  # reverse postorder numbers, on first need

    def settle(head: int, live) -> list[int]:
        """Set head's exit from its targets that pass live; return those."""
        found = [t for t in targets.pop(head) if live(t)]
        if not rpo:
            rpo.update(zip(dom.idom, range(len(dom.idom))))
        heap = [(rpo[t], t) for t in found]
        heapify(heap)
        seen = set(found)
        while heap:
            r, v = heappop(heap)
            if not heap and v not in exits:
                exits[head] = v
                return found
            v = exits.get(v, v)  # a loop's entry advances from its exit
            if v is not None:
                for w in leaving((v,)):
                    if w not in seen and live(w) and rpo[w] > r:
                        seen.add(w)
                        heappush(heap, (rpo[w], w))
        exits[head] = None
        return found

    order = sorted(tails, key=tin.__getitem__, reverse=True)
    for head in order:
        plain, inner = [head], []  # what collapses into head: vertices, and heads done before
        stack = tails[head]
        while stack:
            q = find(stack.pop())
            if q != head:
                up[q] = head
                (inner if q in targets else plain).append(q)
                stack.extend(pred(q))
        out = leaving(plain)
        # The body is whole, so each loop it holds can settle. A loop met on
        # the way to another's exit lies below that one's entry in the
        # dominator tree, so it settles first.
        inner.sort(key=tin.__getitem__, reverse=True)
        for q in inner:
            out += settle(q, reach.__contains__ if q in reach else lambda t: find(t) == head)
        targets[head] = [t for t in dict.fromkeys(out) if up.get(t) != head and find(t) != head]
    for head in order:
        if head not in up:  # held by no loop
            settle(head, reach.__contains__ if head in reach else lambda t: True)

    forest = _forest_from_exits(cfg, dom, exits)
    forest.elements = _in_preorder(forest.phi, forest.elements)
    return forest
