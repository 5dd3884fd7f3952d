"""Dominators, loop forests, loop regions, and backward/forward edge classification.

A loop element pairs an entry vertex with an exit vertex. Every forest
carries one owner map: vertex -> the innermost element it belongs to, under
a virtual root element (phi) that owns start, stop, and everything outside
all loops. The builder records the map as it expands the source; a forest
recovered from a bare graph, or given whole, gets it from one preorder walk
of the dominator tree in which a loop opens at its entry and closes, with
every loop inside it, at its exit. loop_regions derives the belongs and
inside sets from the map. By definition inside(L) holds the vertices
dominated by the entry and not by the exit; the tests keep that definition
as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._graph import tree_children
from ._json import dumps
from .cfg import ControlFlowGraph, EdgeKind

BACKWARD = "backward"
FORWARD = "forward"


@dataclass(eq=False)
class LoopElement:
    entry: int | None
    exit: int | None
    parent: "LoopElement | None" = None
    children: list["LoopElement"] = field(default_factory=list)
    inside: set[int] = field(default_factory=set)
    belongs: set[int] = field(default_factory=set)

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
        self.elements: list[LoopElement] = []
        # vertex -> innermost element it belongs to (phi included), filled
        # where the forest is made
        self.owner: dict[int, LoopElement] = {}

    def new_element(self, parent: LoopElement | None = None) -> LoopElement:
        elem = LoopElement(None, None, parent or self.phi)
        elem.parent.children.append(elem)
        self.elements.append(elem)
        return elem

    def element_of(self, v: int) -> LoopElement:
        """Innermost element that v belongs to."""
        return self.owner[v]

    def protected_vertices(self) -> set[int]:
        out = set()
        for elem in self.elements:
            if elem.entry is not None:
                out.add(elem.entry)
            if elem.exit is not None:
                out.add(elem.exit)
        return out

    def entries(self) -> dict[int, list[LoopElement]]:
        """Entry vertex -> elements using it, outermost first."""
        by_entry: dict[int, list[LoopElement]] = {}
        for elem in self._preorder():
            by_entry.setdefault(elem.entry, []).append(elem)
        return by_entry

    def exits(self) -> dict[int, LoopElement]:
        out: dict[int, LoopElement] = {}
        for elem in self.elements:
            if elem.exit is None:
                continue
            if elem.exit in out:
                raise ValueError(f"vertex {elem.exit} is the exit of two loop elements")
            out[elem.exit] = elem
        return out

    def _preorder(self) -> list[LoopElement]:
        order, stack = [], list(reversed(self.phi.children))
        while stack:
            elem = stack.pop()
            order.append(elem)
            stack.extend(reversed(elem.children))
        return order

    def restricted_to(self, cfg: ControlFlowGraph) -> "LoopForest":
        """Drop elements whose entry did not survive pruning; clear dead exits."""
        alive = set(cfg.vertex_ids())
        out = LoopForest()
        mapping = {self.phi: out.phi}
        for elem in self._preorder():
            if elem.parent not in mapping:
                continue  # ancestor dropped
            if elem.entry not in alive:
                continue
            new = out.new_element(mapping[elem.parent])
            new.entry = elem.entry
            new.exit = elem.exit if elem.exit in alive else None
            mapping[elem] = new
        out.owner = {v: mapping.get(e, out.phi) for v, e in self.owner.items() if v in alive}
        return out

    def to_json_dict(self) -> dict:
        loops = []
        index = {}
        order = self._preorder()
        for i, elem in enumerate(order):
            index[elem] = i
        for elem in order:
            loops.append(
                {
                    "entry": elem.entry,
                    "exit": elem.exit,
                    "parent": index.get(elem.parent),
                    "inside": sorted(elem.inside),
                    "belongs": sorted(elem.belongs),
                }
            )
        return {"loops": loops}

    def to_json(self) -> str:
        return dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LoopForest":
        forest = cls()
        made: list[LoopElement] = []
        for rec in data["loops"]:
            parent = made[rec["parent"]] if rec["parent"] is not None else forest.phi
            elem = forest.new_element(parent)
            elem.entry = rec["entry"]
            elem.exit = rec["exit"]
            elem.inside = set(rec.get("inside", ()))
            elem.belongs = set(rec.get("belongs", ()))
            made.append(elem)
        return forest


@dataclass
class DominatorInfo:
    """Immediate dominators from start, immediate post-dominators toward stop.

    Post-dominators ignore return edges (EdgeKind.STOP), so vertices on
    return-only paths may have no post-dominator entry.
    """

    idom: dict[int, int]
    ipdom: dict[int, int]
    rpo: list[int]
    _tin: dict[int, int] = field(default_factory=dict, repr=False)
    _tout: dict[int, int] = field(default_factory=dict, repr=False)
    _ptin: dict[int, int] = field(default_factory=dict, repr=False)
    _ptout: dict[int, int] = field(default_factory=dict, repr=False)

    def dominates(self, u: int, v: int) -> bool:
        """True iff u lies on every path from start to v (reflexive)."""
        return self._tin[u] <= self._tin[v] and self._tout[v] <= self._tout[u]

    def post_dominates(self, u: int, v: int) -> bool:
        """True iff u lies on every return-free path from v to stop."""
        if v not in self._ptin or u not in self._ptin:
            return False
        return self._ptin[u] <= self._ptin[v] and self._ptout[v] <= self._ptout[u]


def _ancestry_stamps(root: int, children: dict[int, list[int]]):
    tin, tout = {}, {}
    clock = 0
    stack = [(root, False)]
    while stack:
        v, closing = stack.pop()
        if closing:
            tout[v] = clock
            continue
        tin[v] = clock
        clock += 1
        stack.append((v, True))
        for c in reversed(children.get(v, ())):
            stack.append((c, False))
    return tin, tout


def _rpo(start: int, succ) -> list[int]:
    seen = {start}
    post: list[int] = []
    stack: list[tuple[int, int]] = [(start, 0)]
    while stack:
        v, i = stack.pop()
        nxt = succ(v)
        if i < len(nxt):
            stack.append((v, i + 1))
            w = nxt[i]
            if w not in seen:
                seen.add(w)
                stack.append((w, 0))
        else:
            post.append(v)
    post.reverse()
    return post


def _idom_tree(order: list[int], preds) -> dict[int, int]:
    # Standard iterative scheme: intersect predecessor dominators in
    # reverse postorder until a fixed point.
    index = {v: i for i, v in enumerate(order)}
    idom: dict[int, int] = {order[0]: order[0]}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = None
            for p in preds(v):
                if p in idom:
                    new = p if new is None else intersect(new, p)
            if new is not None and idom.get(v) != new:
                idom[v] = new
                changed = True
    return idom


def compute_dominators(cfg: ControlFlowGraph) -> DominatorInfo:
    """Dominators from start plus post-dominators toward stop.

    Raises ValueError when a vertex other than an already-flagged stop is
    unreachable; prune first.
    """
    order = _rpo(cfg.start, cfg.successors)
    reached = set(order)
    missing = [v for v in cfg.vertex_ids() if v not in reached]
    if missing and missing != [cfg.stop]:
        raise ValueError(f"unreachable vertices {sorted(missing)}; prune the graph first")

    idom = _idom_tree(order, cfg.predecessors)

    # Post-dominators: reversed graph, return edges removed.
    fwd: dict[int, list[int]] = {v: [] for v in reached}
    for u, v in cfg.edges():
        if cfg.edge_kind(u, v) is EdgeKind.STOP:
            continue
        if u in fwd and v in fwd:
            fwd[u].append(v)
    if cfg.stop in fwd:
        rev: dict[int, list[int]] = {v: [] for v in fwd}
        for u, vs in fwd.items():
            for v in vs:
                rev[v].append(u)
        porder = _rpo(cfg.stop, lambda v: rev[v])
        ipdom = _idom_tree(porder, lambda v: fwd[v])
    else:
        ipdom = {}

    info = DominatorInfo(idom=idom, ipdom=ipdom, rpo=order)
    info._tin, info._tout = _ancestry_stamps(order[0], tree_children(idom))
    if ipdom:
        info._ptin, info._ptout = _ancestry_stamps(cfg.stop, tree_children(ipdom))
    return info


def loop_regions(cfg: ControlFlowGraph, forest: LoopForest) -> LoopForest:
    """Fill belongs and inside of every element from the forest's owner map.

    belongs(L) is the set of vertices L owns, so the belongs sets partition
    V; inside(L) adds the inside of every child. The tests check the result
    against the dominator definition of the regions.
    """
    all_vertices = set(cfg.vertex_ids())
    if forest.owner.keys() != all_vertices:
        missing = sorted(all_vertices - forest.owner.keys())
        raise ValueError(f"no loop owner for vertices {missing[:10]}")
    for elem in [forest.phi, *forest.elements]:
        elem.belongs = set()
    for v, elem in forest.owner.items():
        elem.belongs.add(v)
    for elem in reversed(forest._preorder()):
        elem.inside = elem.belongs.union(*(child.inside for child in elem.children))
    forest.phi.inside = all_vertices
    return forest


def _fill_owners(cfg: ControlFlowGraph, dom: DominatorInfo, forest: LoopForest, open_at) -> None:
    """One preorder walk of the dominator tree that fills forest.owner.

    The walk carries the innermost open loop. Reaching the exit of an open
    loop closes it and every loop inside it; then open_at(v, loop) opens
    the loops that start at v and returns the innermost loop open at v,
    which owns v. stop always stays with the root.
    """
    kids = tree_children(dom.idom)
    closes: dict[int, LoopElement] = {}  # exit -> element, for elements opened so far
    owner = forest.owner
    stack = [(cfg.start, forest.phi)]
    while stack:
        v, loop = stack.pop()
        closing = closes.get(v)
        if closing is not None:
            elem = loop
            while elem is not None and elem is not closing:
                elem = elem.parent
            if elem is closing:  # open here: close it with the loops inside it
                loop = closing.parent
        if v != cfg.stop:
            inner = open_at(v, loop)
            elem = inner
            while elem is not loop:
                if elem.exit is not None:
                    closes[elem.exit] = elem
                elem = elem.parent
            loop = inner
        owner[v] = loop
        stack.extend((c, loop) for c in kids[v])
    owner[cfg.stop] = forest.phi


def assign_owners(cfg: ControlFlowGraph, dom: DominatorInfo, forest: LoopForest) -> LoopForest:
    """Fill the owner map of a forest given whole, such as one read from JSON.

    Raises ValueError when an element's parent is not the loop open at its
    entry, or when its entry is never reached.
    """
    by_entry = forest.entries()
    opened: set[LoopElement] = set()

    def open_at(v: int, loop: LoopElement) -> LoopElement:
        for elem in by_entry.get(v, ()):
            if elem.parent is not loop:
                raise ValueError(
                    f"loop at entry {v} is nested under {elem.parent!r}, "
                    f"but the loop open there is {loop!r}; input is not structured"
                )
            opened.add(elem)
            loop = elem
        return loop

    _fill_owners(cfg, dom, forest, open_at)
    for elem in forest.elements:
        if elem not in opened:
            raise ValueError(f"loop entry {elem.entry} fell outside its own region")
    return forest


def classify_edges(
    cfg: ControlFlowGraph, forest: LoopForest, dom: DominatorInfo | None = None
) -> dict[tuple[int, int], str]:
    """Tag each edge backward/forward: backward edges run from belongs(L) to L's entry.

    Passing dominator info cross-checks against the head-dominates-tail
    definition and raises on any disagreement.
    """
    by_entry = forest.entries()
    classes: dict[tuple[int, int], str] = {}
    for u, v in cfg.edges():
        backward = any(u in elem.belongs for elem in by_entry.get(v, ()))
        classes[(u, v)] = BACKWARD if backward else FORWARD
        if dom is not None:
            dom_backward = dom.dominates(v, u)
            if dom_backward != backward:
                raise ValueError(
                    f"edge ({u}, {v}): region classification says "
                    f"{classes[(u, v)]} but domination says "
                    f"{BACKWARD if dom_backward else FORWARD}; input is not structured"
                )
    return classes


def recover_loop_forest(cfg: ControlFlowGraph, dom: DominatorInfo) -> LoopForest:
    """Rebuild a loop forest, owner map included, for a graph loaded without one.

    Entries are heads of backward edges (the head dominates the tail). A
    loop's exit is the nearest post-dominator of its entry outside its
    natural body; where that chain meets another loop's entry it skips the
    whole loop and goes on from the post-dominator of that loop's exit.
    Loops nest by the dominator-tree walk that fills the owner map. Loops
    with no backward edge cannot be seen in a bare graph and are not
    recovered.
    """
    tails: dict[int, set[int]] = {}
    for u, v in cfg.edges():
        if dom.dominates(v, u):
            tails.setdefault(v, set()).add(u)

    bodies: dict[int, set[int]] = {}
    for head, ts in tails.items():
        body = {head} | set(ts)
        stack = list(ts)
        while stack:
            v = stack.pop()
            if v == head:
                continue
            for p in cfg.predecessors(v):
                if p not in body:
                    body.add(p)
                    stack.append(p)
        bodies[head] = body

    # A loop met on the chain post-dominates the head, so it comes earlier
    # in post-dominator preorder and its exit is already known.
    ipdom = dom.ipdom
    exits: dict[int, int | None] = {}
    for head in sorted(bodies, key=lambda h: dom._ptin.get(h, -1)):
        body = bodies[head]
        x = ipdom.get(head)
        while x in body or x in exits:
            step = x if x in body else exits[x]
            up = ipdom.get(step)
            x = None if up == step else up
        exits[head] = x

    forest = LoopForest()

    def open_at(v: int, loop: LoopElement) -> LoopElement:
        if v not in exits:
            return loop
        elem = forest.new_element(loop)
        elem.entry, elem.exit = v, exits[v]
        return elem

    _fill_owners(cfg, dom, forest, open_at)
    for elem in [forest.phi, *forest.elements]:
        elem.children.sort(key=lambda c: (-len(bodies[c.entry]), c.entry))
    return forest
