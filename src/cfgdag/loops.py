"""Dominators, loop regions, nesting, and backward/forward edge classification.

A loop element pairs an entry vertex with an exit vertex. The region of an
element is derived from the dominator tree: inside(L) holds the vertices
dominated by the entry and not by the exit, and every vertex belongs to the
nearest element whose inside contains it. The whole graph sits under a
virtual root element (phi) that owns start, stop, and everything outside
all loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._graph import tree_children
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
        # vertex -> innermost element per the region computation (phi included)
        self.owner: dict[int, LoopElement] = {}
        # vertex -> element active at construction time, for cross-checks
        self.syntactic_owner: dict[int, LoopElement] = {}

    def new_element(self, parent: LoopElement | None = None) -> LoopElement:
        elem = LoopElement(None, None, parent or self.phi)
        elem.parent.children.append(elem)
        self.elements.append(elem)
        return elem

    def element_of(self, v: int) -> LoopElement:
        """Innermost element that v belongs to (requires loop_regions)."""
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
        out.syntactic_owner = {
            v: mapping.get(e, out.phi) for v, e in self.syntactic_owner.items() if v in alive
        }
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


def loop_regions(cfg: ControlFlowGraph, forest: LoopForest, dom: DominatorInfo | None = None) -> LoopForest:
    """Fill inside/belongs for every element; belongs sets partition V.

    With dominator info the regions follow the definitions: inside(L) is
    dominated by the entry and not by the exit (stop always stays with the
    root element). Without it the builder's syntactic record is used, which
    is what keeps large pipelines linear; the test suite checks the two
    agree on generated programs.
    """
    if dom is None:
        return _loop_regions_syntactic(cfg, forest)
    kids = tree_children(dom.idom)
    stop = cfg.stop

    for elem in forest._preorder():
        entry, exit_ = elem.entry, elem.exit
        inside: set[int] = set()
        stack = [entry]
        while stack:
            v = stack.pop()
            if v == exit_ or v == stop:
                continue
            inside.add(v)
            stack.extend(kids.get(v, ()))
        elem.inside = inside
        if entry not in inside:
            raise ValueError(f"loop entry {entry} fell outside its own region")

    all_vertices = set(cfg.vertex_ids())
    forest.phi.inside = set(all_vertices)
    for elem in forest._preorder():
        elem.belongs = elem.inside - {v for c in elem.children for v in c.inside}
    forest.phi.belongs = all_vertices - {v for c in forest.phi.children for v in c.inside}

    owner: dict[int, LoopElement] = {}
    total = 0
    for elem in [forest.phi, *forest.elements]:
        total += len(elem.belongs)
        for v in elem.belongs:
            if v in owner:
                raise ValueError(f"vertex {v} belongs to two loop elements; input is not structured")
            owner[v] = elem
    if total != len(all_vertices):
        missing = all_vertices - set(owner)
        raise ValueError(f"belongs sets do not partition the vertices; missing {sorted(missing)}")
    forest.owner = owner
    return forest


def _loop_regions_syntactic(cfg: ControlFlowGraph, forest: LoopForest) -> LoopForest:
    all_vertices = set(cfg.vertex_ids())
    if set(forest.syntactic_owner) != all_vertices:
        raise ValueError("no construction-time loop record for this graph; pass dominators")

    belongs: dict[LoopElement, set[int]] = {forest.phi: set()}
    for elem in forest.elements:
        belongs[elem] = set()
    for v, elem in forest.syntactic_owner.items():
        belongs[elem].add(v)

    for elem in forest._preorder():
        elem.belongs = belongs[elem]
    forest.phi.belongs = belongs[forest.phi]
    for elem in reversed(forest._preorder()):
        inside = set(elem.belongs)
        for child in elem.children:
            inside |= child.inside
        elem.inside = inside
    forest.phi.inside = set(all_vertices)
    forest.owner = dict(forest.syntactic_owner)
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


def simple_cycles(cfg: ControlFlowGraph, limit: int = 12) -> list[list[int]]:
    """All simple directed cycles; exponential, guarded by a vertex limit."""
    vertices = sorted(cfg.vertex_ids())
    if len(vertices) > limit:
        raise ValueError(f"cycle enumeration capped at {limit} vertices, got {len(vertices)}")
    cycles: list[list[int]] = []
    for root in vertices:
        # Search only through vertices >= root so each cycle is found once,
        # rooted at its smallest vertex.
        path = [root]
        on_path = {root}

        def dfs(v: int):
            for w in cfg.successors(v):
                if w == root:
                    cycles.append(list(path))
                elif w > root and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    dfs(w)
                    path.pop()
                    on_path.remove(w)

        dfs(root)
    return cycles


def check_cycle_corollary(cfg: ControlFlowGraph, forest: LoopForest, limit: int = 12) -> list[tuple]:
    """Every cycle inside L that meets belongs(L) must pass through L's entry.

    Returns violation witnesses (empty on structured inputs). Exhaustively
    enumerates cycles, so only suitable for small graphs.
    """
    violations = []
    for cycle in simple_cycles(cfg, limit=limit):
        members = set(cycle)
        for elem in forest.elements:
            if members <= elem.inside and members & elem.belongs and elem.entry not in members:
                violations.append((tuple(cycle), elem))
    return violations


def recover_loop_forest(cfg: ControlFlowGraph, dom: DominatorInfo) -> LoopForest:
    """Rebuild a loop forest for a graph loaded without one.

    Entries are heads of backward edges; each loop's exit is the unique
    target of edges leaving its natural-loop body (return edges aside).
    Raises when exits are ambiguous; only structured graphs are supported.
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

    exits: dict[int, int] = {}
    for head, body in bodies.items():
        targets = set()
        for u in body:
            for v in cfg.successors(u):
                if v in body or v == cfg.stop and cfg.edge_kind(u, v) is EdgeKind.STOP:
                    continue
                targets.add(v)
        # Branch arms that only fall out of the loop sit outside its natural
        # body and show up as extra targets; the exit is the target every
        # return-free path from the head must cross.
        candidates = {t for t in targets if dom.post_dominates(t, head)}
        if len(candidates) > 1:
            raise ValueError(f"loop at {head} has several exit targets {sorted(candidates)}")
        exits[head] = candidates.pop() if candidates else None

    forest = LoopForest()
    order = sorted(bodies, key=lambda h: (-len(bodies[h]), h))
    made: dict[int, LoopElement] = {}
    for head in order:
        parent = forest.phi
        for other in order:
            if other == head:
                break
            if head in bodies[other]:
                parent = made[other]  # innermost seen so far wins; order is by size
        elem = forest.new_element(parent)
        elem.entry = head
        elem.exit = exits[head]
        made[head] = elem
    return forest
