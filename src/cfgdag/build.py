"""Expand a structured AST into a control-flow graph plus its loop forest.

One vertex per assignment and per branch/loop condition, plus start and
stop. A statement's successors follow the usual conventions: fall-through
edges, break to the nearest loop's exit, continue to the nearest loop's
entry, return straight to stop. Each while loop gets a fresh synthetic
exit vertex so every loop element has distinct entry and exit points.
"""

from __future__ import annotations

from . import lang
from .cfg import ControlFlowGraph, EdgeKind, contract_basic_blocks, prune_unreachable
from .lang import StructuredAst
from .loops import LoopElement, LoopForest

# (source vertex, kind) pairs waiting for their target vertex.
Pending = list[tuple[int, EdgeKind]]


class _LoopCtx:
    __slots__ = ("element", "entry_target", "breaks", "first_vertex")

    def __init__(self, element: LoopElement, entry_target):
        self.element = element
        self.entry_target = entry_target  # vertex id, or the Pending edges waiting for it
        self.breaks: Pending = []
        self.first_vertex: int | None = None


def _opens_with_loop(seq: lang.Sequence) -> bool:
    """Does control entering this block hit a loop construct first?"""
    for stmt in seq.body:
        if isinstance(stmt, (lang.While, lang.DoWhile)):
            return True
        if isinstance(stmt, lang.Sequence):
            if stmt.body:
                return _opens_with_loop(stmt)
            continue
        return False
    return False


class _Builder:
    def __init__(self):
        self.g = ControlFlowGraph()
        self.forest = LoopForest()
        self.stack: list[_LoopCtx] = []
        self.returns: Pending = []

    def vertex(self, label: str, owner: LoopElement | None = None) -> int:
        v = self.g.add_vertex(label)
        if owner is None:
            owner = self.stack[-1].element if self.stack else self.forest.phi
        self.forest.owner[v] = owner
        # The contexts with no first vertex yet are always the top of the stack.
        for ctx in reversed(self.stack):
            if ctx.first_vertex is not None:
                break
            ctx.first_vertex = v
        return v

    def attach(self, pending: Pending, target: int) -> None:
        for u, kind in pending:
            self.g.add_edge(u, target, kind)

    def divert(self, pending: Pending, waiting: Pending, kind: EdgeKind) -> None:
        waiting.extend((u, kind) for u, _ in pending)

    def block(self, seq: lang.Sequence, pending: Pending) -> Pending:
        for stmt in seq.body:
            pending = self.statement(stmt, pending)
        return pending

    def statement(self, node, pending: Pending) -> Pending:
        if isinstance(node, lang.Assign):
            v = self.vertex(node.label)
            self.attach(pending, v)
            return [(v, EdgeKind.OUT)]
        if isinstance(node, lang.Sequence):
            return self.block(node, pending)
        if isinstance(node, lang.If):
            c = self.vertex(node.cond)
            self.attach(pending, c)
            out = self.block(node.then, [(c, EdgeKind.OUT)])
            if node.orelse is not None:
                out += self.block(node.orelse, [(c, EdgeKind.OUT)])
            else:
                out += [(c, EdgeKind.OUT)]
            return out
        if isinstance(node, lang.While):
            return self.while_loop(node, pending)
        if isinstance(node, lang.DoWhile):
            return self.do_while_loop(node, pending)
        if isinstance(node, lang.Break):
            self.divert(pending, self.stack[-1].breaks, EdgeKind.EXIT)
            return []
        if isinstance(node, lang.Continue):
            ctx = self.stack[-1]
            if isinstance(ctx.entry_target, list):
                self.divert(pending, ctx.entry_target, EdgeKind.ENTRY)
            else:
                self.attach([(u, EdgeKind.ENTRY) for u, _ in pending], ctx.entry_target)
            return []
        if isinstance(node, lang.Return):
            self.divert(pending, self.returns, EdgeKind.STOP)
            return []
        raise TypeError(f"unknown statement {node!r}")

    def while_loop(self, node: lang.While, pending: Pending) -> Pending:
        elem = self.forest.new_element(self.stack[-1].element if self.stack else None)
        c = self.vertex(str(node.cond), owner=elem)
        self.attach(pending, c)
        elem.entry = c

        enters_body = not isinstance(node.cond, int) or node.cond != 0
        self.stack.append(_LoopCtx(elem, entry_target=c))
        body_out = self.block(node.body, [(c, EdgeKind.OUT)] if enters_body else [])
        self.attach(body_out, c)
        ctx = self.stack.pop()

        return self.exit_vertex(node.cond, elem, c, ctx.breaks)

    def do_while_loop(self, node: lang.DoWhile, pending: Pending) -> Pending:
        elem = self.forest.new_element(self.stack[-1].element if self.stack else None)
        continues: Pending = []
        self.stack.append(_LoopCtx(elem, entry_target=continues))

        if _opens_with_loop(node.body):
            # A nested loop would otherwise share its entry vertex with
            # this loop; give the body its own landing vertex.
            s = self.vertex("skip")
            self.attach(pending, s)
            body_pending: Pending = [(s, EdgeKind.OUT)]
        else:
            body_pending = pending
        body_out = self.block(node.body, body_pending)

        c = self.vertex(str(node.cond))
        self.attach(body_out, c)
        ctx = self.stack.pop()
        entry = ctx.first_vertex  # at worst the condition vertex itself
        elem.entry = entry
        self.attach(continues, entry)

        if node.cond != 0:  # a label may loop back; the constant 0 never does
            self.g.add_edge(c, entry, EdgeKind.OUT)

        return self.exit_vertex(node.cond, elem, c, ctx.breaks)

    def exit_vertex(self, cond: str | int, elem: LoopElement, c: int, breaks: Pending) -> Pending:
        """Add the loop's exit vertex; the condition vertex c falls through to
        it unless the condition is a nonzero constant."""
        x = self.vertex(f"exit({cond})", owner=elem.parent)
        elem.exit = x
        self.attach(breaks, x)
        if not isinstance(cond, int) or cond == 0:
            self.g.add_edge(c, x, EdgeKind.OUT)
        return [(x, EdgeKind.OUT)]


def build_cfg(ast: StructuredAst) -> tuple[ControlFlowGraph, LoopForest]:
    """Expand the AST; returns the graph and the syntactic loop forest."""
    b = _Builder()
    start = b.vertex("start", owner=b.forest.phi)
    b.g.start = start
    out = b.block(ast.root, [(start, EdgeKind.OUT)])
    stop = b.vertex("stop", owner=b.forest.phi)
    b.g.stop = stop
    b.attach(out, stop)
    b.attach(b.returns, stop)
    return b.g, b.forest


def cfg_from_source(source: str, contract: bool = False) -> tuple[ControlFlowGraph, LoopForest]:
    """parse -> build -> prune (-> contract) in one call."""
    cfg, forest = build_cfg(lang.parse_program(source))
    cfg = prune_unreachable(cfg)
    forest = forest.restricted_to(cfg)
    if contract:
        cfg = contract_basic_blocks(cfg, forest)
        forest = forest.restricted_to(cfg)
    return cfg, forest
