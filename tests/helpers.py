"""Independent oracles the tests check the library against.

These deliberately use different machinery from the implementation:
plain path enumeration, transitive closures, brute-force triple scans and
the iterative dominator fixed point instead of dominator trees, bitmask
sweeps and Semi-NCA; a Kahn order and a reach mask per decomposition node
instead of a DFS postorder and pruned reachability queries; every guard
scanned against every edge instead of the dropped-target rule; a pursuit
solver keyed by the robber's vertex instead of its region; a tokenizer that
counts lines and columns as it goes instead of on error, and a recursive
descent parser over its tokens instead of one loop with a stack of open
blocks; a recursive builder that expands every statement, dead or live,
with its forest fitted to the pruned graph afterwards (restricted_to),
instead of one that decides liveness as it walks; a prune that rebuilds
through add_vertex/add_edge, and a CFG JSON loader that fills the graph one
record at a time through them, instead of writing sorted tuples in one
pass; a basic-block contraction by repeated sweeps that fold one edge at a
time; a product game held in dicts keyed by game vertex and built one
add_edge and one randrange call at a time, instead of lists worked out by
group arithmetic; robber moves by one breadth-first walk per frontier or
per cop instead of shared breadth-first layers; dict trees for json.dumps
instead of the template writers of CFG, decomposition and product game
JSON; loop recovery that
grows one natural body set per head and takes each exit from the
post-dominator tree, instead of one union-find pass that takes it where
the live targets leaving a body meet. post_dominator_tree builds that tree
over a return-free reversed graph; the library computes no post-dominators.
The edge partition lists the loops at each entry and searches the list for
the outermost one entered from outside, and its decomposition adds each
entered loop's exit-to-entry arc in a pass over the forest, instead of
reading one loop per entry and per exit. Backward edges are checked
against dominance, where the head dominates the tail, instead of read from
the owner map. Cop numbers are searched over the whole graph instead of
one strongly connected component at a time, with one cop decided by a Kahn
order, and the components themselves are classes of mutual reachability
instead of the closings of a Tarjan walk.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import combinations

from cfgdag import (
    ControlFlowGraph,
    EdgeKind,
    LoopElement,
    LoopForest,
    build_decomposition,
    cfg_from_source,
    compute_dominators,
    contract_basic_blocks,
    recover_loop_forest,
    two_loop_cfg,
    validate_cfg_decomposition,
)
from cfgdag.cfg import CfgJsonError
from cfgdag.decomposition import DagDecomposition, EdgePartition
from cfgdag.game import PursuitSolver, SearchBudgetError, VertexBits, _adjacency
from cfgdag import lang
from cfgdag.loops import NotStructuredError, _dominator_tree, _forest_from_exits, _in_preorder
from cfgdag.lang import KEYWORDS, ParseError
from cfgdag.validate import ValidationReport


# One cycle, a <-> b, with two entries from start: the CFG JSON of no
# structured program.
IRREDUCIBLE_CFG_JSON = {
    "vertices": [{"id": v, "label": label} for v, label in enumerate(["start", "a", "b", "stop"])],
    "edges": [{"from": u, "to": v, "kind": "out"} for u, v in [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3)]],
    "start": 0,
    "stop": 3,
}


# The forest of two_loop_cfg, written by hand: the outer loop (entry 1,
# exit 3) holds the two inner loops 5..8 and 9..12. TWO_LOOP_OWNERS maps
# each vertex to the entry of its innermost loop (None for phi).
TWO_LOOP_FOREST_JSON = {"loops": [
    {"entry": 1, "exit": 3, "parent": None},
    {"entry": 5, "exit": 8, "parent": 0},
    {"entry": 9, "exit": 12, "parent": 0},
]}
TWO_LOOP_OWNERS = {0: None, 1: 1, 2: 1, 3: None, 5: 5, 6: 5, 7: 5, 8: 1,
                   9: 9, 10: 9, 11: 9, 12: 1, 13: None}


def _cfg_json(labels: list[str], edges: list[tuple[int, int, str]], stop: int) -> dict:
    return {
        "vertices": [{"id": v, "label": label} for v, label in enumerate(labels)],
        "edges": [{"from": u, "to": v, "kind": kind} for u, v, kind in edges],
        "start": 0,
        "stop": stop,
    }


# A while loop beside vertices that start does not reach: d (id 3, between
# live ids) enters the loop body, and the dead cycle e <-> f leaves for stop.
DEAD_CFG_JSON = _cfg_json(
    ["start", "c", "a", "d", "exit(c)", "e", "f", "stop"],
    [(0, 1, "out"), (1, 2, "out"), (2, 1, "out"), (1, 4, "out"), (4, 7, "out"),
     (3, 2, "out"), (5, 6, "out"), (6, 5, "entry"), (6, 7, "stop")],
    stop=7,
)

# while 1 { a; if p { continue; } b; } with its dead exit kept, and an edge
# out of the unreachable stop, which only CFG JSON can give it.
UNREACHABLE_STOP_CFG_JSON = _cfg_json(
    ["start", "1", "a", "p", "b", "stop", "exit(1)"],
    [(0, 1, "out"), (1, 2, "out"), (2, 3, "out"), (3, 4, "out"), (3, 1, "entry"),
     (4, 1, "out"), (5, 2, "out"), (6, 5, "out")],
    stop=5,
)

# A self-loop at start, which no builder graph has: no edge of a builder
# graph enters start. Every command refuses it as not structured.
START_SELF_LOOP_CFG_JSON = _cfg_json(
    ["start", "a", "stop"], [(0, 0, "out"), (0, 1, "out"), (1, 2, "out")], stop=2,
)


# An edge out of stop, on the cycle 1 -> 2 -> 3 -> 1; and a vertex other than
# stop, 3, with no out-edge. No builder graph has either fault, and every
# command refuses each as not structured.
STOP_OUT_EDGE_CFG_JSON = _cfg_json(
    ["start", "a", "b", "stop"], [(0, 2, "out"), (1, 2, "out"), (2, 3, "out"), (3, 1, "out")], stop=3,
)
DEAD_END_CFG_JSON = _cfg_json(
    ["start", "a", "b", "c", "d", "stop"],
    [(0, 1, "out"), (1, 2, "out"), (1, 4, "out"), (2, 1, "out"), (2, 3, "out"), (4, 3, "out"),
     (4, 4, "out"), (4, 5, "out")],
    stop=5,
)

# Programs at the edges of the liveness rules: a do loop whose body makes no
# vertex, breaks before and after dead code, a loop after a return, loops on
# the constants 0 and 1, an empty branch, and do loops whose body opens with
# a continue and then a loop, which need the skip vertex.
CORNER_CASES = {
    "corner-do-continue-while-1": "do { continue; } while 1; b;\n",
    "corner-do-break": "do { break; } while c;\n",
    "corner-do-break-dead": "do { break; a; } while c;\n",
    "corner-return-while-1": "return; while 1 { a; b; }\n",
    "corner-while-0": "while 0 { a; }\n",
    "corner-do-while-0": "do { a; } while 0;\n",
    "corner-empty-then": "if c { } a;\n",
    "corner-do-continue-while": "do { continue; while d { a; } } while c; b;\n",
    "corner-do-continue-do": "do { continue; do { a; } while c; } while d;\n",
    # No vertex reaches stop without a return edge, or none reaches it at
    # all, so post-dominators give these loops no exit. Loop recovery finds
    # each exit where the loop's live targets meet, and the CFG JSON route
    # writes what the source route writes.
    "cfg-json-return-after-nested-while": "while c { while d { a; } } return;\n",
    "cfg-json-while-1-empty-while": "while 1 { while c { } a; }\n",
    "cfg-json-while-1-do-in-if": "while 1 { if p { do { if p { a; } } while c; } a; }\n",
}


def with_jumps(rng, depth=0, in_loop=False):
    """A small program with jumps anywhere, empty blocks, and loops on the
    constants 0 and 1: a do body may open with a continue or a break."""
    stmts = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if depth > 3 or roll < 0.3:
            stmts.append(f"{rng.choice('abc')};")
        elif roll < 0.5:
            stmts.append(rng.choice(["break;", "continue;", "return;"] if in_loop else ["return;"]))
        elif roll < 0.65:
            branch = f"if p {{ {with_jumps(rng, depth + 1, in_loop)} }}"
            if rng.random() < 0.5:
                branch += f" else {{ {with_jumps(rng, depth + 1, in_loop)} }}"
            stmts.append(branch)
        elif roll < 0.82:
            stmts.append(f"while {rng.choice('c01')} {{ {with_jumps(rng, depth + 1, True)} }}")
        else:
            stmts.append(f"do {{ {with_jumps(rng, depth + 1, True)} }} while {rng.choice('c01')};")
    return " ".join(stmts)


def pipeline(src, contract=False):
    """parse -> build (-> contract, as the CLI does) -> owner map from the
    dominator definitions."""
    cfg, forest = cfg_from_source(src)
    if contract:
        cfg = contract_basic_blocks(cfg, forest)
        forest = restricted_to(forest, cfg)
    dom = compute_dominators(cfg)
    dominator_regions(cfg, forest, dom)
    return cfg, forest, dom


def tree_children(parent: dict) -> dict[int, list[int]]:
    """Child lists of a tree given as a parent map; the root is its own parent."""
    kids: dict[int, list[int]] = {v: [] for v in parent}
    for v, p in parent.items():
        if v != p:
            kids[p].append(v)
    return kids


def owner_regions(forest):
    """Element (phi included) -> (belongs, inside), read off the owner map.

    belongs(L) is the set of vertices L owns; inside(L) adds the inside of
    every child, gathered over the preorder elements in reverse.
    """
    belongs = {e: set() for e in (forest.phi, *forest.elements)}
    for v, elem in forest.owner.items():
        belongs[elem].add(v)
    inside = {e: set(own) for e, own in belongs.items()}
    for elem in reversed(forest.elements):  # each before its parent
        inside[elem.parent] |= inside[elem]
    return {e: (belongs[e], inside[e]) for e in belongs}


def dominator_regions(cfg, forest, dom):
    """Regions straight from the definitions: element (phi included) ->
    (belongs, inside), in the form of owner_regions.

    inside(L) is dominated by the entry and not by the exit (stop always
    stays with the root element); belongs(L) is inside(L) minus the inside
    of L's children. Replaces the forest's owner map with the one these
    regions imply, and raises when the belongs sets do not partition V.
    """
    kids = tree_children(dom.idom)
    stop = cfg.stop

    all_vertices = set(cfg.vertex_ids())
    inside_of = {forest.phi: set(all_vertices)}
    for elem in forest.elements:
        entry, exit_ = elem.entry, elem.exit
        inside: set[int] = set()
        stack = [entry]
        while stack:
            v = stack.pop()
            if v == exit_ or v == stop:
                continue
            inside.add(v)
            stack.extend(kids.get(v, ()))
        inside_of[elem] = inside
        if entry not in inside:
            raise ValueError(f"loop entry {entry} fell outside its own region")

    nested: dict[LoopElement, set[int]] = {}  # element -> the inside of its children
    for elem in forest.elements:
        nested.setdefault(elem.parent, set()).update(inside_of[elem])
    regions = {
        elem: (inside - nested.get(elem, set()), inside)
        for elem, inside in inside_of.items()
    }

    owner = {}
    total = 0
    for elem, (belongs, _) in regions.items():
        total += len(belongs)
        for v in belongs:
            if v in owner:
                raise ValueError(f"vertex {v} belongs to two loop elements; input is not structured")
            owner[v] = elem
    if total != len(all_vertices):
        missing = all_vertices - set(owner)
        raise ValueError(f"belongs sets do not partition the vertices; missing {sorted(missing)}")
    forest.owner = owner
    return regions


def simple_cycles(cfg, limit: int = 12) -> list[list[int]]:
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


def check_cycle_corollary(cfg, forest, limit: int = 12) -> list[tuple]:
    """Every cycle inside L that meets belongs(L) must pass through L's entry.

    Returns violation witnesses (empty on structured inputs). Exhaustively
    enumerates cycles, so only suitable for small graphs.
    """
    regions = owner_regions(forest)
    violations = []
    for cycle in simple_cycles(cfg, limit=limit):
        members = set(cycle)
        for elem in forest.elements:
            belongs, inside = regions[elem]
            if members <= inside and members & belongs and elem.entry not in members:
                violations.append((tuple(cycle), elem))
    return violations


def exit_distances(cfg, forest, elem) -> dict[int, int | None]:
    """Longest-path distance from each vertex of inside(L) to L's exit.

    Only vertices of belongs(L) count toward the length; whole nested loops
    collapse to single zero-weight nodes, which keeps the graph acyclic.
    Paths may start at the entry but never pass through it. None marks
    vertices with no such path.
    """
    regions = owner_regions(forest)
    belongs, inside = regions[elem]
    if elem.exit is None:
        return {v: None for v in inside}

    node_of: dict[int, object] = {v: v for v in belongs}
    for child in (c for c in forest.elements if c.parent is elem):
        for v in regions[child][1]:
            node_of[v] = child
    node_of[elem.exit] = elem.exit

    succ: dict[object, set] = {n: set() for n in set(node_of.values())}
    for u, v in cfg.edges():
        nu, nv = node_of.get(u), node_of.get(v)
        if nu is None or nv is None or nu == nv:
            continue
        if v == elem.entry:
            continue  # paths must not pass through the entry
        succ[nu].add(nv)

    # longest path to the exit over the collapsed DAG
    order = toposort(succ, succ)
    if order is None:
        raise ValueError("loop interior is cyclic away from its entry; input is not structured")

    dp: dict[object, int | None] = {n: None for n in succ}
    dp[elem.exit] = 0
    for n in reversed(order):
        if n == elem.exit:
            continue
        best = None
        for m in succ[n]:
            if dp[m] is not None:
                best = dp[m] if best is None else max(best, dp[m])
        if best is not None:
            weight = 1 if isinstance(n, int) and n in belongs else 0
            dp[n] = best + weight

    return {v: dp[node_of[v]] for v in inside}


def distance_to_exit(cfg, forest, elem, v) -> int:
    """Chase distance of v; 0 when no exit-reaching path exists."""
    d = exit_distances(cfg, forest, elem).get(v)
    return 0 if d is None else d


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


def components_by_reachability(nodes, succ) -> list[set]:
    """The strongly connected components of succ as sets: two nodes share
    one iff each reaches the other."""
    reach = {v: bfs_reachable(succ, v) for v in nodes}
    return [set(c) for c in {frozenset(w for w in reach[v] if v in reach[w]) for v in nodes}]


def components_in_finish_order(nodes, succ) -> list[set]:
    """The classes of components_by_reachability, each listed when a
    recursive DFS finishes its last vertex. The DFS enters roots in the
    order of nodes and successors in list order; recursive, so for small
    graphs only."""
    finish: dict = {}
    entered = set()

    def visit(v):
        entered.add(v)
        for w in succ[v]:
            if w not in entered:
                visit(w)
        finish[v] = len(finish)

    for root in nodes:
        if root not in entered:
            visit(root)
    return sorted(components_by_reachability(nodes, succ), key=lambda c: max(map(finish.get, c)))


def succ_map(cfg) -> dict:
    return {v: list(cfg.successors(v)) for v in cfg.vertex_ids()}


def has_edge(cfg, u, v) -> bool:
    """u -> v is an edge of cfg: it has a kind."""
    return (u, v) in set(cfg.edges())


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<lbrace>\{)"
    r"|(?P<rbrace>\})"
    r"|(?P<semi>;)"
)


def tokenize_with_positions(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) tokens, the position kept by a running counter
    over every token, comments and whitespace included; raises ParseError at
    the first character no token matches."""
    tokens = []
    pos, line, col = 0, 1, 1
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "ident" and text in KEYWORDS:
            kind = text
        if kind not in ("ws", "comment"):
            tokens.append((kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


_JUMPS = {"break": lang.Break, "continue": lang.Continue, "return": lang.Return}


class _DescentParser:
    """Recursive descent over tokenize_with_positions; a ParseError carries
    the line and column of the token it is raised at."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.loop_depth = 0

    def _cur(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str):
        tok = self._cur()
        if tok[0] != kind:
            self._error(f"expected {what}, found {tok[1] or 'end of input'!r}")
        return self._advance()

    def _error(self, message: str):
        _, _, line, col = self._cur()
        raise ParseError(message, line, col)

    def program(self) -> lang.Sequence:
        root = lang.Sequence()
        while self._cur()[0] != "eof":
            root.body.append(self.statement())
        return root

    def block(self) -> lang.Sequence:
        self._expect("lbrace", "'{'")
        seq = lang.Sequence()
        while self._cur()[0] != "rbrace":
            if self._cur()[0] == "eof":
                self._error("unterminated block")
            seq.body.append(self.statement())
        self._advance()
        return seq

    def condition(self) -> str | int:
        tok = self._cur()
        if tok[0] == "ident":
            self._advance()
            return tok[1]
        if tok[0] == "int":
            self._advance()
            return int(tok[1])
        self._error("expected a condition label")

    def statement(self):
        kind, text, _, _ = self._cur()
        if kind == "ident":
            self._advance()
            self._expect("semi", "';'")
            return lang.Assign(text)
        if kind == "if":
            self._advance()
            cond = self.condition()
            if isinstance(cond, int):
                self._error("if conditions must be labels")
            then = self.block()
            orelse = None
            if self._cur()[0] == "else":
                self._advance()
                orelse = self.block()
            return lang.If(cond, then, orelse)
        if kind == "while":
            self._advance()
            cond = self.condition()
            self.loop_depth += 1
            body = self.block()
            self.loop_depth -= 1
            return lang.While(cond, body)
        if kind == "do":
            self._advance()
            self.loop_depth += 1
            body = self.block()
            self.loop_depth -= 1
            self._expect("while", "'while'")
            cond = self.condition()
            self._expect("semi", "';'")
            return lang.DoWhile(cond, body)
        if kind in _JUMPS:
            if kind != "return" and self.loop_depth == 0:
                self._error(f"{kind} outside loop")
            self._advance()
            self._expect("semi", "';'")
            return _JUMPS[kind]()
        self._error(f"unexpected {text!r}")


def parse_by_descent(source: str) -> lang.StructuredAst:
    """parse_program by recursive descent over tokenize_with_positions."""
    return lang.StructuredAst(_DescentParser(tokenize_with_positions(source)).program())


class _LoopCtx:
    __slots__ = ("element", "entry_target", "breaks", "first_vertex")

    def __init__(self, element: LoopElement, entry_target):
        self.element = element
        self.entry_target = entry_target  # vertex id, or the pending edges waiting for it
        self.breaks = []
        self.first_vertex: int | None = None


class _UnprunedBuilder:
    """Expands every statement, reachable or not, one add_vertex and
    add_edge call at a time."""

    def __init__(self):
        self.g = ControlFlowGraph()
        self.forest = LoopForest()
        self.stack: list[_LoopCtx] = []
        self.returns = []

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

    def attach(self, pending, target: int) -> None:
        for u, kind in pending:
            self.g.add_edge(u, target, kind)

    def divert(self, pending, waiting, kind: EdgeKind) -> None:
        waiting.extend((u, kind) for u, _ in pending)

    def skip(self, pending):
        """A loop that starts before the first vertex of the do loop around
        it gets a skip vertex of that do loop, as the do loop's entry."""
        if not self.stack:
            return pending
        ctx = self.stack[-1]
        if ctx.first_vertex is not None or not isinstance(ctx.entry_target, list):
            return pending
        s = self.vertex("skip")
        self.attach(pending, s)
        return [(s, EdgeKind.OUT)]

    def block(self, seq: lang.Sequence, pending):
        for stmt in seq.body:
            pending = self.statement(stmt, pending)
        return pending

    def statement(self, node, pending):
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

    def while_loop(self, node: lang.While, pending):
        pending = self.skip(pending)
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

    def do_while_loop(self, node: lang.DoWhile, pending):
        pending = self.skip(pending)
        elem = self.forest.new_element(self.stack[-1].element if self.stack else None)
        continues = []
        self.stack.append(_LoopCtx(elem, entry_target=continues))

        body_out = self.block(node.body, pending)

        c = self.vertex(str(node.cond))
        self.attach(body_out, c)
        ctx = self.stack.pop()
        entry = ctx.first_vertex  # at worst the condition vertex itself
        elem.entry = entry
        self.attach(continues, entry)

        if node.cond != 0:  # a label may loop back; the constant 0 never does
            self.g.add_edge(c, entry, EdgeKind.OUT)

        return self.exit_vertex(node.cond, elem, c, ctx.breaks)

    def exit_vertex(self, cond, elem: LoopElement, c: int, breaks):
        x = self.vertex(f"exit({cond})", owner=elem.parent)
        elem.exit = x
        self.attach(breaks, x)
        if not isinstance(cond, int) or cond == 0:
            self.g.add_edge(c, x, EdgeKind.OUT)
        return [(x, EdgeKind.OUT)]


def build_unpruned(ast: lang.StructuredAst) -> tuple[ControlFlowGraph, LoopForest]:
    """The graph and forest of every statement, reachable or not, with lists
    for adjacency: build_cfg before pruning."""
    b = _UnprunedBuilder()
    b.g.start = b.vertex("start", owner=b.forest.phi)
    out = b.block(ast.root, [(b.g.start, EdgeKind.OUT)])
    b.g.stop = b.vertex("stop", owner=b.forest.phi)
    b.attach(out, b.g.stop)
    b.attach(b.returns, b.g.stop)
    return b.g, b.forest


def restricted_to(forest, cfg) -> LoopForest:
    """A copy of the forest fitted to a subgraph after the fact, where the
    library makes each forest for its own graph: each element whose entry
    or an ancestor's entry is gone is dropped, an exit that is gone is
    cleared, and each vertex that remains keeps its owner, or goes to the
    root where that owner was dropped."""
    alive = set(cfg.vertex_ids())
    out = LoopForest()
    mapping = {forest.phi: out.phi}
    for elem in forest.elements:
        if elem.parent not in mapping or elem.entry not in alive:
            continue
        new = out.new_element(mapping[elem.parent])
        new.entry = elem.entry
        new.exit = elem.exit if elem.exit in alive else None
        mapping[elem] = new
    out.owner = {v: mapping.get(e, out.phi) for v, e in forest.owner.items() if v in alive}
    return out


def without_unclosed_loops(cfg, forest) -> LoopForest:
    """The forest less each element that no edge closes, by a scan of the
    whole graph afterwards, where build_cfg decides it as each loop closes.
    Innermost first, an element goes when no vertex it owns has an edge into
    its entry, and leaves its children and vertices to its parent."""
    for elem in reversed(forest.elements[:]):
        if any(forest.owner[u] is elem for u in cfg.predecessors(elem.entry)):
            continue
        forest.elements.remove(elem)
        for e in forest.elements:
            if e.parent is elem:
                e.parent = elem.parent
        for v, e in forest.owner.items():
            if e is elem:
                forest.owner[v] = elem.parent
    return forest


def prune_by_rebuild(cfg):
    """prune_unreachable by one add_vertex / add_edge call per kept element,
    vertices sorted and edges in sorted (u, v) order."""
    reachable = cfg.reachable_from(cfg.start)
    out = ControlFlowGraph()
    for v in sorted(cfg.labels):
        if v in reachable or v == cfg.stop:
            out.add_vertex(cfg.labels[v], v)
    for (u, v) in sorted(cfg._kind):
        if u in out.labels and v in out.labels and u in reachable:
            out.add_edge(u, v, cfg._kind[(u, v)])
    out.start, out.stop = cfg.start, cfg.stop
    return out


def predecessors_by_edges(cfg) -> dict[int, tuple[int, ...]]:
    """Each vertex's predecessors as an ascending tuple, in vertex order:
    the index _freeze built eagerly, read off the sorted edges."""
    pred: dict[int, list[int]] = {v: [] for v in cfg.labels}
    for u, v in sorted(cfg.edges()):
        pred[v].append(u)
    return {v: tuple(us) for v, us in pred.items()}


def cfg_from_json_by_add_edge(data: dict) -> ControlFlowGraph:
    """ControlFlowGraph.from_json_dict by one add_vertex call per vertex
    record and one add_edge call per edge record, in file order, with the
    same checks, except that add_edge ignores a repeated edge's kind."""
    cfg = ControlFlowGraph()
    try:
        for rec in data["vertices"]:
            vid = rec["id"]
            if type(vid) is not int:
                raise ValueError(f"vertex id {vid!r} is not an integer")
            label = rec["label"]
            if type(label) is not str:
                raise ValueError(f"label {label!r} of vertex {vid} is not a string")
            cfg.add_vertex(label, vid)
        for vid, label in cfg.labels.items():
            for ch in label:
                if "\ud800" <= ch <= "\udfff":
                    raise ValueError(f"label of vertex {vid} holds the lone surrogate {ch!r}")
        for rec in data["edges"]:
            u, v = rec["from"], rec["to"]
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has an end that is not an integer")
            cfg.add_edge(u, v, rec["kind"])
        cfg.start = data["start"]
        cfg.stop = data["stop"]
        for name, v in (("start", cfg.start), ("stop", cfg.stop)):
            if type(v) is not int:
                raise ValueError(f"{name} {v!r} is not an integer")
        if cfg.start not in cfg.labels or cfg.stop not in cfg.labels:
            raise ValueError(f"start {cfg.start!r} or stop {cfg.stop!r} is not a vertex")
        for rec in data["edges"]:
            if rec["kind"] == "stop" and rec["to"] != cfg.stop:
                raise ValueError(f"return edge ({rec['from']}, {rec['to']}) does not end at stop {cfg.stop}")
    except KeyError as err:
        raise CfgJsonError(f"missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise CfgJsonError(str(err)) from None
    return cfg


def contract_by_fixpoint(cfg, forest=None):
    """contract_basic_blocks by sorted sweeps over a list-adjacency rebuild of
    the graph, each folding one edge at a time, until a sweep folds nothing."""
    protected = {cfg.start, cfg.stop}
    if forest is not None:
        protected |= set().union(*forest.ends())

    out = ControlFlowGraph()
    for v, label in cfg.labels.items():
        out.add_vertex(label, v)
    for (u, v), kind in cfg._kind.items():
        out.add_edge(u, v, kind)
    out.start, out.stop = cfg.start, cfg.stop
    changed = True
    while changed:
        changed = False
        for u in sorted(out.labels):
            if u not in out.labels or u == cfg.start:
                continue
            while True:
                succ = out._succ.get(u)
                if succ is None or len(succ) != 1:
                    break
                v = succ[0]
                if v == u or v in protected or len(out._pred[v]) != 1:
                    break
                # fold v into u
                out.labels[u] = f"{out.labels[u]}; {out.labels[v]}"
                del out._kind[(u, v)]
                out._succ[u] = []
                for w in out._succ[v]:
                    kind = out._kind.pop((v, w))
                    out._pred[w].remove(v)
                    if (u, w) not in out._kind:
                        out._succ[u].append(w)
                        out._pred[w].append(u)
                        out._kind[(u, w)] = kind
                del out.labels[v]
                del out._succ[v]
                del out._pred[v]
                changed = True
    return out


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


def reverse_postorder(start, succ) -> list:
    """Reverse postorder of a DFS from start; succ(v) lists v's successors."""
    seen = {start}
    post = []
    stack = [(start, 0)]
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


def idom_by_iteration(order, preds) -> dict:
    """Immediate dominators by the Cooper-Harvey-Kennedy fixed point.

    "A Simple, Fast Dominance Algorithm" (2001): intersect the dominators of
    each vertex's predecessors, in reverse postorder, until nothing
    changes. order is a reverse postorder from the root; quadratic on deep
    dominator trees.
    """
    index = {v: i for i, v in enumerate(order)}
    idom = {order[0]: order[0]}

    def intersect(a, b):
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


def dominators_by_iteration(cfg) -> tuple[dict, dict]:
    """(idom, ipdom) of a graph whose vertices other than stop are reachable.

    Post-dominators run on the reversed graph of the vertices reached from
    start, with return edges (EdgeKind.STOP) removed; ipdom is empty when
    stop is not reached.
    """
    order = reverse_postorder(cfg.start, cfg.successors)
    idom = idom_by_iteration(order, cfg.predecessors)
    if cfg.stop not in idom:
        return idom, {}
    fwd = {v: [] for v in order}
    for u, v in cfg.edges():
        if cfg.edge_kind(u, v) is not EdgeKind.STOP and u in fwd and v in fwd:
            fwd[u].append(v)
    rev = {v: [] for v in fwd}
    for u, vs in fwd.items():
        for v in vs:
            rev[v].append(u)
    porder = reverse_postorder(cfg.stop, rev.__getitem__)
    return idom, idom_by_iteration(porder, fwd.__getitem__)


def post_dominator_tree(cfg) -> tuple[dict, dict, dict]:
    """(ipdom, tin, tout) of the post-dominator tree: loops._dominator_tree
    run from stop over the reversed graph with return edges (EdgeKind.STOP)
    removed, or three empty maps when start does not reach stop."""
    if cfg.stop not in cfg.reachable_from(cfg.start):
        return {}, {}, {}

    ids, stop = cfg.vertex_ids(), EdgeKind.STOP
    into = {v: [u for u in cfg.predecessors(v) if cfg.edge_kind(u, v) is not stop] for v in ids}
    out_of = {v: [w for w in cfg.successors(v) if cfg.edge_kind(v, w) is not stop] for v in ids}
    return _dominator_tree(cfg.stop, into.__getitem__, out_of.__getitem__)


def post_dominates(pdom, u, v) -> bool:
    """u lies on every return-free path from v to stop: u is an ancestor of
    v in the post-dominator tree pdom (from post_dominator_tree), by the
    entry and exit stamps of its walk."""
    _, tin, tout = pdom
    if v not in tin or u not in tin:
        return False
    return tin[u] <= tin[v] and tout[v] <= tout[u]


def recover_loop_forest_by_bodies(cfg, dom) -> LoopForest:
    """Loop recovery by post-dominators, with one natural body per head: each
    body is its own set, grown by a predecessor walk from the tails, so
    nested loops hold O(depth^2) vertices. A loop's exit is the first vertex
    outside its body on its entry's post-dominator chain (from
    post_dominator_tree); a loop entry met there is skipped to what follows
    that loop's exit. On a graph whose return edges end at stop, as CFG
    JSON requires, where every entry reaches stop without a return edge and
    this forest's decomposition validates, loops.recover_loop_forest gives
    the same forest."""
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
    ipdom, ptin, _ = post_dominator_tree(cfg)
    exits: dict[int, int | None] = {}
    for head in sorted(bodies, key=lambda h: ptin.get(h, -1)):
        body = bodies[head]
        x = ipdom.get(head)
        while x in body or x in exits:
            step = x if x in body else exits[x]
            up = ipdom.get(step)
            x = None if up == step else up
        exits[head] = x

    forest = _forest_from_exits(cfg, dom, exits)
    forest.elements = _in_preorder(forest.phi, forest.elements)
    return forest


def dist_by_enumeration(cfg, forest, elem, v) -> int | None:
    """Longest |path-vertices in belongs(L)| over simple paths to the exit.

    Paths stay within inside(L) plus the exit and may not pass through the
    entry except as the starting vertex.
    """
    if elem.exit is None:
        return None
    belongs, inside = owner_regions(forest)[elem]
    allowed = inside | {elem.exit}
    succ = {
        u: [w for w in cfg.successors(u) if w in allowed and w != elem.entry]
        for u in allowed
    }
    best = None
    for path in all_simple_paths(succ, v, elem.exit):
        count = sum(1 for x in path if x in belongs)
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


def validate_by_masks(decomp, vertices, edges, with_d3=False) -> ValidationReport:
    """validate_decomposition from a Kahn order and one reach mask per node:
    the union of the bags at or below it, as a bitmask over the bag vertices
    and edge endpoints. The guarding form comes from d3_by_scan."""
    edges = list(edges)
    bags = decomp.bags
    order = toposort(sorted(decomp.nodes), decomp.successors())
    union = set().union(*bags.values())
    violations = [("vertices_covered_missing", (v,)) for v in sorted(set(vertices) - union)]
    violations += [("vertices_covered_extra", (v,)) for v in sorted(union - set(vertices))]
    report = ValidationReport(acyclic=order is not None, vertices_covered=not violations,
                              connectivity=False, edges_covered_3a=False, edges_covered_3b=False,
                              d3_original=False if with_d3 else None, width=decomp.width(),
                              violations=violations)
    if order is None:
        violations.append(("acyclic", ()))
        return report
    if with_d3:
        report.d3_original = d3_by_scan(decomp, edges)

    bits = VertexBits(union.union(*edges))
    succ = decomp.successors()
    reach: dict = {}
    for n in reversed(order):
        m = bits.of(bags[n])
        for s in succ[n]:
            m |= reach[s]
        reach[n] = m

    conn = []
    for i, j in decomp.arcs:
        bad = bits.of(bags[i]) & ~bits.of(bags[j]) & reach[j]
        conn += [("connectivity", (i, j, v)) for v in sorted(bits.set_of(bad))]
    report.connectivity = not conn
    violations += conn

    out_edges: dict = {}
    for u, v in edges:
        out_edges.setdefault(u, []).append(v)

    def missed(j, u):
        return [v for v in out_edges.get(u, ()) if not reach[j] >> bits.index[v] & 1]

    has_pred = {j for _, j in decomp.arcs}
    miss_a = [("edges_covered_3a", (j, u, v)) for j in decomp.nodes if j not in has_pred
              for u in bags[j] for v in missed(j, u)]
    miss_b = [("edges_covered_3b", (i, j, u, v)) for i, j in decomp.arcs
              for u in bags[j] - bags[i] for v in missed(j, u)]
    report.edges_covered_3a, report.edges_covered_3b = not miss_a, not miss_b
    violations += miss_a + miss_b
    return report


def partition_edges_by_entry_lists(cfg, forest) -> EdgePartition:
    """partition_edges over an entry -> list of loops index, outermost
    first: an edge into an entry goes to the outermost loop at that entry
    that it enters from outside. Raises NotStructuredError for two loops
    with one exit, or for an edge into a vertex that is an entry and an exit."""
    by_entry: dict[int, list[LoopElement]] = {}
    by_exit: dict[int, LoopElement] = {}
    for elem in forest.elements:
        by_entry.setdefault(elem.entry, []).append(elem)
        if elem.exit is not None:
            if elem.exit in by_exit:
                raise NotStructuredError(f"vertex {elem.exit} is the exit of two loop elements")
            by_exit[elem.exit] = elem
    owner = forest.owner
    part = EdgePartition()
    for u, v in cfg.edges():
        entry_elems, exit_elem = by_entry.get(v, []), by_exit.get(v)
        if entry_elems and exit_elem:
            raise NotStructuredError(f"vertex {v} is both a loop entry and a loop exit")
        if owner[u] in entry_elems:
            part.backward.append((u, v))
        elif exit_elem is not None:
            if owner[u] is exit_elem:
                part.into_exit.append((u, v))
            else:
                part.plain.append((u, v))
        else:
            outside = [e for e in entry_elems if u != e.exit and not forest.contains(e, u)]
            if outside and outside[0].exit is not None:
                part.into_entry.append(((u, v), outside[0]))
            else:
                part.plain.append((u, v))
    return part


def dominance_backward(cfg, dom) -> set[tuple[int, int]]:
    """The edges whose head dominates their tail."""
    return {(u, v) for u, v in cfg.edges() if dom.dominates(v, u)}


def dominance_clash(cfg, forest, dom) -> tuple[int, int] | None:
    """The first edge (u, v) on which the owner map's backward rule, that
    the loop entered at v owns u, disagrees with dominance, that v dominates
    u (Tarjan, "Testing flow graph reducibility", 1974); None if none does."""
    by_entry = {elem.entry: elem for elem in forest.elements}
    for u, v in cfg.edges():
        if (forest.owner[u] is by_entry.get(v)) != dom.dominates(v, u):
            return (u, v)
    return None


def decomposition_by_entry_lists(cfg, forest) -> DagDecomposition:
    """build_decomposition from partition_edges_by_entry_lists, with the arcs
    in one set and the exit-to-entry arc of each loop that a re-routed edge
    enters added in a pass over the forest. No cycle check."""
    part = partition_edges_by_entry_lists(cfg, forest)
    arcs = set(part.plain)
    entered = set()
    for (u, _v), elem in part.into_entry:
        arcs.add((u, elem.exit))
        entered.add(elem)
    for elem in forest.elements:
        if elem in entered:
            arcs.add((elem.exit, elem.entry))
    owner = forest.owner
    bags = {v: frozenset(x for x in (v, owner[v].entry, owner[v].exit) if x is not None)
            for v in cfg.vertex_ids()}
    return DagDecomposition(nodes=cfg.vertex_ids(), arcs=list(arcs), bags=bags)


def recovery_facts(cfg, forest, decomp) -> dict:
    """Recover the loops of a built graph from its CFG JSON alone and compare.

    forest is the builder's forest, decomp the decomposition built from it. A builder loop is seen when an edge into its
    entry starts inside it; only seen loops can be recovered, and a seen
    loop's parent is taken to be its nearest seen ancestor. "dominators"
    says whether the loaded graph's idom and ipdom (from post_dominator_tree)
    equal the iterative oracle's. Returns {"error": message} when recovery raises.
    """
    seen = {e.entry: e for e in forest.elements
            if any(forest.contains(e, u) for u in cfg.predecessors(e.entry))}

    def seen_parent(elem):
        elem = elem.parent
        while elem is not forest.phi and elem.entry not in seen:
            elem = elem.parent
        return elem.entry

    graph = ControlFlowGraph.from_json(cfg.to_json())
    try:
        dom = compute_dominators(graph)
        recovered = recover_loop_forest(graph, dom)
        again = build_decomposition(graph, recovered)
    except ValueError as err:
        return {"error": str(err)}
    entries = {r.entry for r in recovered.elements} == set(seen)
    return {
        "error": None,
        "dominators": (dom.idom, post_dominator_tree(graph)[0]) == dominators_by_iteration(graph),
        "valid": again.width() <= 3 and validate_cfg_decomposition(again, graph).valid,
        "entries": entries,
        "exits": entries and all(r.exit == seen[r.entry].exit for r in recovered.elements),
        "parents": entries and all(r.parent.entry == seen_parent(seen[r.entry])
                                   for r in recovered.elements),
        "all_seen": len(seen) == len(forest.elements),
        "identical": again.to_json() == decomp.to_json(),
    }


class PursuitSolverByVertex:
    """The exact solver keyed by the robber's vertex: the oracle for
    game.PursuitSolver, which keys its memo by the robber's region.

    Exhaustive search over (cops, robber, vacated) with memoisation.

    Monotonicity means cops may never return to a vacated vertex, so every
    cop move either vacates something or adds a cop: the search is acyclic
    and plain memoisation is sound. A robber that can reach any vacated
    vertex wins outright, because no cop may ever land there again.
    Skipping stand-still cop moves is safe: they help only the robber.
    """

    def __init__(self, vertices: list[int], succ: dict[int, list[int]], k: int,
                 max_states: int = 4_000_000):
        self.bits = VertexBits(vertices)
        self.n = len(self.bits.order)
        self.k = k
        self.max_states = max_states
        self.full = (1 << self.n) - 1
        self.succ_mask = [0] * self.n
        for v, ws in succ.items():
            self.succ_mask[self.bits.index[v]] = self.bits.of(ws)
        self.memo: dict[tuple[int, int, int], bool] = {}
        self._move_cache: dict[int, tuple[int, ...]] = {}

    def _reach(self, src: int, blocked: int) -> int:
        reach = src
        frontier = src
        succ_mask = self.succ_mask
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= succ_mask[b.bit_length() - 1]
            nxt &= ~blocked & ~reach
            reach |= nxt
            frontier = nxt
        return reach

    def _moves(self, allowed: int) -> tuple[int, ...]:
        cached = self._move_cache.get(allowed)
        if cached is None:
            bits = []
            m = allowed
            while m:
                b = m & -m
                m ^= b
                bits.append(b)
            masks = [0]
            for size in range(1, self.k + 1):
                for combo in combinations(bits, size):
                    acc = 0
                    for b in combo:
                        acc |= b
                    masks.append(acc)
            cached = tuple(masks)
            self._move_cache[allowed] = cached
        return cached

    # -- game values -------------------------------------------------------

    def cops_win(self, x: int, r: int, f: int) -> bool:
        """Cop player to move at (cops x, robber index r, vacated f)."""
        key = (x, r, f)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if (x >> r) & 1:
            self.memo[key] = True
            return True
        if len(self.memo) >= self.max_states:
            raise SearchBudgetError(
                f"memo exceeded {self.max_states} states at k={self.k}"
            )
        result = False
        for x2 in self._ordered_moves(x, r, f):
            if self._move_wins(x, r, f, x2):
                result = True
                break
        self.memo[key] = result
        return result

    def winning_moves(self, x: int, r: int, f: int):
        """Yield cop moves from which the cops force capture."""
        for x2 in self._ordered_moves(x, r, f):
            if self._move_wins(x, r, f, x2):
                yield x2

    def _ordered_moves(self, x: int, r: int, f: int):
        moves = self._moves(self.full & ~f)
        rbit = 1 << r
        for x2 in moves:  # capture attempts first
            if x2 != x and x2 & rbit:
                yield x2
        for x2 in moves:
            if x2 != x and not (x2 & rbit):
                yield x2

    def _move_wins(self, x: int, r: int, f: int, x2: int) -> bool:
        stay = x & x2
        f2 = f | (x & ~x2)
        dests = self._reach(1 << r, stay) & ~x2
        if dests == 0:
            return True  # the robber has nowhere left to stand
        if dests & f2:
            return False  # the robber slips onto forbidden ground
        d = dests
        while d:
            b = d & -d
            d ^= b
            if not self.cops_win(x2, b.bit_length() - 1, f2):
                return False
        return True

    def robber_safe_somewhere(self) -> bool:
        return any(not self.cops_win(0, i, 0) for i in range(self.n))


def brute_force_cop_number_by_vertex(graph, k_max: int = 4) -> int:
    """Fewest cops with a cop-monotone winning strategy, by the vertex-keyed solver."""
    vertices, succ = _adjacency(graph)
    for k in range(1, k_max + 1):
        if not PursuitSolverByVertex(vertices, succ, k).robber_safe_somewhere():
            return k
    raise SearchBudgetError(f"no cop-monotone win with up to {k_max} cops")


def cop_number_whole_graph(graph, k_max: int = 4, max_states: int = 4_000_000) -> int:
    """Fewest cops with a cop-monotone winning strategy, by the region solver
    on the whole graph, the search once run in place of the one per strongly
    connected component. One cop wins iff the graph without its self-loops is
    acyclic, which a Kahn order decides."""
    vertices, succ = _adjacency(graph)
    loopless = {v: [w for w in ws if w != v] for v, ws in succ.items()}
    if k_max >= 1 and toposort(vertices, loopless) is not None:
        return 1
    for k in range(2, k_max + 1):
        if not PursuitSolver(vertices, succ, k, max_states=max_states).robber_safe_somewhere():
            return k
    raise SearchBudgetError(f"no cop-monotone win with up to {k_max} cops")


def hops(succ: dict, src: int, dst: int) -> int:
    """Breadth-first distance from src to dst, or len(succ) + 1 when dst is
    out of reach."""
    if src == dst:
        return 0
    seen = {src}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w == dst:
                    return d
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(succ) + 1


def lazy_move_by_walk(succ: dict, r: int, cops, stationary, tie: str) -> int:
    """LazyRobber's move: stay off the cops, else run to the nearest free
    vertex around the stationary cops, smallest id first (largest with
    tie="high"), or stay when trapped."""
    if r not in cops:
        return r
    seen = {r}
    frontier = [r]
    while frontier:
        nxt = []
        free = []
        for v in frontier:
            for w in succ[v]:
                if w in stationary or w in seen:
                    continue
                seen.add(w)
                nxt.append(w)
                if w not in cops:
                    free.append(w)
        if free:
            return min(free) if tie == "low" else max(free)
        frontier = nxt
    return r


def two_loop_cfg_in_loops(depth: int) -> ControlFlowGraph:
    """two_loop_cfg nested in depth while loops, as build lays them out:
    start -> w0 -> ... -> w(depth-1) -> the gadget, whose exit returns to
    w(depth-1); each wi also leaves to exit(wi), which returns to w(i-1),
    and exit(w0) goes on to stop."""
    gadget, _ = two_loop_cfg()
    g = ControlFlowGraph()
    g.start = g.add_vertex("start")
    ids = {v: g.add_vertex(gadget.labels[v]) for v in sorted(gadget.labels)
           if v not in (gadget.start, gadget.stop)}
    for u, v in gadget.edges():
        if u in ids and v in ids:
            g.add_edge(ids[u], ids[v])
    (entry,), (exit_,) = gadget.successors(gadget.start), gadget.predecessors(gadget.stop)
    entry, exit_ = ids[entry], ids[exit_]
    for i in reversed(range(depth)):
        w, x = g.add_vertex(f"w{i}"), g.add_vertex(f"exit(w{i})")
        g.add_edge(w, entry)
        g.add_edge(exit_, w)
        g.add_edge(w, x)
        entry, exit_ = w, x
    g.stop = g.add_vertex("stop")
    g.add_edge(g.start, entry)
    g.add_edge(exit_, g.stop)
    return g


@dataclass
class DictGame:
    """The product game as dicts keyed by game vertex, filled one edge at a time."""

    m: int
    groups: dict[int, list[int]]              # graph vertex -> its game vertices
    state_of: dict[int, tuple[int, int]]      # game vertex -> (graph vertex, part)
    transitions: set[tuple[int, int]]
    owner: dict[int, int] = field(default_factory=dict)
    priority: dict[int, int] = field(default_factory=dict)
    edges: list[tuple[int, int]] = field(default_factory=list)
    succ: dict[int, list[int]] = field(default_factory=dict)

    def add_edge(self, u: int, v: int) -> None:
        """Keep (u, v) once; an edge between groups must follow a transition."""
        su, sv = self.state_of[u][0], self.state_of[v][0]
        if su != sv and (su, sv) not in self.transitions:
            raise ValueError(
                f"edge between groups {su} and {sv} requested, but that is not a transition"
            )
        succ = self.succ.setdefault(u, [])
        if v not in succ:
            succ.append(v)
            self.edges.append((u, v))


def product_game_by_add_edge(cfg, skeleton, seed: int = 0) -> DictGame:
    """build_product_game through DictGame.add_edge, which checks every
    cross edge against the transitions and drops repeats, with owners and
    priorities from randrange."""
    rng = random.Random(seed)
    m = skeleton.m
    groups: dict[int, list[int]] = {}
    state_of: dict[int, tuple[int, int]] = {}
    for s in sorted(cfg.vertex_ids()):
        groups[s] = [s * m + q for q in range(m)]
        for q in range(m):
            state_of[s * m + q] = (s, q)

    game = DictGame(m=m, groups=groups, state_of=state_of, transitions=set(cfg.edges()))
    for v in sorted(state_of):
        game.owner[v] = rng.randrange(2)
        game.priority[v] = rng.randrange(skeleton.d)

    for s in sorted(groups):
        for q, p in skeleton.intra_edges:
            game.add_edge(s * m + q, s * m + p)
    for s, t in sorted(game.transitions):
        for q, p in skeleton.cross_edges:
            game.add_edge(s * m + q, t * m + p)
    return game


def cfg_json_dict(cfg) -> dict:
    """What ControlFlowGraph.to_json writes, as the tree json.dumps reads."""
    return {
        "vertices": [{"id": v, "label": cfg.labels[v]} for v in sorted(cfg.labels)],
        "edges": [
            {"from": u, "to": v, "kind": cfg.edge_kind(u, v).value}
            for u, v in sorted(cfg.edges())
        ],
        "start": cfg.start,
        "stop": cfg.stop,
    }


def decomposition_json_dict(decomp) -> dict:
    """What DagDecomposition.to_json writes, as the tree json.dumps reads."""
    return {
        "nodes": sorted(decomp.nodes),
        "arcs": [list(a) for a in sorted(decomp.arcs)],
        "bags": {str(n): sorted(decomp.bags[n]) for n in sorted(decomp.nodes)},
    }


def game_json_dict(game: DictGame) -> dict:
    """What GameGraph.to_json writes for the game of the same graph, skeleton
    and seed, as the tree json.dumps reads."""
    return {
        "m": game.m,
        "vertices": [
            {
                "id": v,
                "state": game.state_of[v][0],
                "part": game.state_of[v][1],
                "owner": game.owner[v],
                "priority": game.priority[v],
            }
            for v in sorted(game.state_of)
        ],
        "edges": [list(e) for e in sorted(game.edges)],
    }
