"""Expand a structured AST into its pruned control-flow graph plus its loop forest.

One vertex per assignment and per branch/loop condition, plus start and
stop. A statement's successors follow the usual conventions: fall-through
edges, break to the nearest loop's exit, continue to the nearest loop's
entry, return straight to stop. Each loop gets a fresh synthetic exit
vertex so every loop element has distinct entry and exit points; a loop
that starts before the first vertex of the do loop around it gives that do
loop a "skip" vertex as its own entry.

The walk is iterative, with an explicit stack of open statements, so no
nesting depth is too deep for it. It decides reachability from start as it
goes, in the manner of Java's unreachable-statement rules (JLS 14.22), and
writes only reachable vertices: the graph is the one prune_unreachable
would make of the full expansion, with the same ids, because a dead
statement still takes its id. Pruning stays for CFG JSON input that holds
dead vertices. As every forest must, the forest keeps only loops that an
edge closes: a while loop's body end or a continue reaches its condition;
a do loop's condition is live and not 0, or a continue made after its
entry reaches it. Any other loop leaves its vertices and inner loops to
its nearest kept ancestor.

Every edge into a vertex comes from a vertex made before it, except the
back edges and continue edges into a loop's entry, whose sources the entry
reaches first. So a vertex is live iff a live source waits for it when it
is made. A do loop's entry is the first vertex its body makes, or its
condition vertex if the body makes none; a continue met before that vertex
waits for it too. An exit is live iff a live break reaches it or a live
condition that can be false does. stop is always kept.
"""

from __future__ import annotations

from . import lang
from .cfg import ControlFlowGraph, EdgeKind, _freeze
from .lang import Assign, Break, Continue, DoWhile, If, Return, StructuredAst, While
from .loops import LoopElement, LoopForest

OUT, EXIT, ENTRY, STOP = EdgeKind.OUT, EdgeKind.EXIT, EdgeKind.ENTRY, EdgeKind.STOP


class _Loop:
    """An open loop: its element, the first id it takes, a do loop's entry
    once made, and the live sources waiting for its exit and for its entry."""

    __slots__ = ("node", "element", "first", "entry", "breaks", "continues")

    def __init__(self, node, element: LoopElement, first: int):
        self.node = node
        self.element = element
        self.first = first
        self.entry: int | None = None
        self.breaks: list[int] = []
        self.continues: list[int] = []


class _Branch:
    """An open if statement: its condition vertex, and the live sources
    leaving its then branch once that branch is done."""

    __slots__ = ("node", "cond", "then_out")

    def __init__(self, node: If, cond: int | None):
        self.node = node
        self.cond = cond
        self.then_out: list[int] | None = None


def build_cfg(ast: StructuredAst) -> tuple[ControlFlowGraph, LoopForest]:
    """Expand the AST; returns the pruned graph, its adjacency frozen into
    sorted tuples, and the syntactic loop forest of its closed loops."""
    forest = LoopForest()
    phi = forest.phi
    labels: dict[int, str] = {}
    owner: dict[int, LoopElement] = {}
    # Live vertex -> its out-edges in the order made, as one flat tuple
    # (target, kind, target, kind, ...): a vertex has at most two, and a
    # tuple is smaller than a list of pairs.
    out: dict[int, tuple] = {}
    next_id = 0
    loops: list[_Loop] = []  # open loops, innermost last
    waiting: _Loop | None = None  # the open do loop whose body has made no vertex yet
    dropped: dict[LoopElement, LoopElement] = {}  # element no edge closes -> its heir
    spans: list[range] = []  # the ids of the outermost dropped elements so far
    returns: list[int] = []

    def vertex(label: str, elem: LoopElement, sources: list[int], kind: EdgeKind = OUT,
               live: bool = False) -> int | None:
        """Take the next id. The vertex is live if it must be or if a live
        source waits for it; then record it, attach the sources, and return it."""
        nonlocal next_id, waiting
        v = next_id
        next_id += 1
        live = live or bool(sources)
        if waiting is not None:
            live = live or bool(waiting.continues)
            waiting.entry = v if live else None
            waiting = None
        if not live:
            return None
        labels[v] = label
        owner[v] = elem
        out[v] = ()
        attach(sources, v, kind)
        return v

    def attach(sources: list[int], v: int, kind: EdgeKind) -> None:
        for u in sources:
            out[u] += (v, kind)

    start = vertex("start", phi, [], live=True)
    pending = [start]  # live sources falling through to the next vertex
    inner = phi  # the element of the innermost open loop
    work: list[tuple] = [(iter(ast.root.body), None)]  # statements left, and whose they are
    while work:
        stmts, opener = work[-1]
        for node in stmts:
            kind = type(node)
            if kind is Assign:
                v = vertex(node.label, inner, pending)
                pending = [] if v is None else [v]
            elif kind is If:
                c = vertex(node.cond, inner, pending)
                pending = [] if c is None else [c]
                work.append((iter(node.then.body), _Branch(node, c)))
                break
            elif kind is While or kind is DoWhile:
                if waiting is not None:
                    # This loop's entry would also be the entry of the do
                    # loop around it; give that do loop a vertex of its own.
                    s = vertex("skip", inner, pending)
                    pending = [] if s is None else [s]
                elem = forest.new_element(inner)
                loop = _Loop(node, elem, next_id)
                if kind is While:
                    c = elem.entry = vertex(str(node.cond), elem, pending)
                    pending = [c] if c is not None and node.cond != 0 else []
                else:
                    waiting = loop
                loops.append(loop)
                inner = elem
                work.append((iter(node.body.body), loop))
                break
            elif kind is Break:
                loops[-1].breaks += pending
                pending = []
            elif kind is Continue:
                loops[-1].continues += pending
                pending = []
            elif kind is Return:
                returns += pending
                pending = []
            else:
                raise TypeError(f"unknown statement {node!r}")
        else:  # the statements ran out: finish what opened them
            work.pop()
            if opener is None:
                continue
            if type(opener) is _Branch:
                c, orelse = opener.cond, opener.node.orelse
                fallthrough = [] if c is None else [c]
                # Each source in pending has an edge list of its own, so
                # their order does not matter: the shorter list joins the
                # longer, and nested branches stay linear in their depth.
                if orelse is not None and opener.then_out is None:
                    opener.then_out = pending
                    pending = fallthrough
                    work.append((iter(orelse.body), opener))
                    continue
                joined = fallthrough if orelse is None else opener.then_out
                if len(pending) < len(joined):
                    pending, joined = joined, pending
                pending += joined
                continue
            loop, elem, cond = opener, opener.element, opener.node.cond
            loops.pop()
            inner = loops[-1].element if loops else phi
            if type(loop.node) is While:
                c = entry = elem.entry
                attach(loop.continues, entry, ENTRY)
                attach(pending, entry, OUT)
                closed = bool(pending)
            else:
                c = vertex(str(cond), elem, pending)
                entry = elem.entry = loop.entry
                attach(loop.continues, entry, ENTRY)
                closed = c is not None and cond != 0
                if closed:
                    out[c] += (entry, OUT)
            # Continues met before a do loop's entry come from outside and wait
            # first: one from inside leaves the last source >= entry, if live.
            if not (closed or loop.continues and loop.continues[-1] >= entry):
                dropped[elem] = elem.parent
                # The ids it spans hold its vertices and its inner loops' spans.
                while spans and spans[-1].start >= loop.first:
                    spans.pop()
                spans.append(range(loop.first, next_id))
            # The exit belongs to the enclosing loop. The condition vertex
            # falls through to it unless the condition is a nonzero constant.
            falls = c is not None and (type(cond) is not int or cond == 0)
            x = elem.exit = vertex(f"exit({cond})", inner, loop.breaks, EXIT, live=falls)
            pending = [] if x is None else [x]
            if falls:
                out[c] += (x, OUT)
    stop = vertex("stop", phi, pending, live=True)
    attach(returns, stop, STOP)

    g = _freeze(labels, out, next_id, start, stop)

    if dropped:
        # Each heir becomes the nearest kept ancestor, a parent's first (preorder).
        for e in forest.elements:
            e.parent = dropped.get(e.parent, e.parent)
            if e in dropped:
                dropped[e] = e.parent
        forest.elements = [e for e in forest.elements if e not in dropped]
        for span in spans:
            for v in span:
                if owner.get(v) in dropped:
                    owner[v] = dropped[owner[v]]
    forest.owner = owner
    return g, forest


def cfg_from_source(source: str) -> tuple[ControlFlowGraph, LoopForest]:
    """parse -> build in one call; the build already prunes."""
    return build_cfg(lang.parse_program(source))
