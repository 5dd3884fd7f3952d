"""Helicopter pursuit on directed graphs, specialised to control-flow graphs.

The cop player lifts up to k cops and lands them anywhere; the robber then
runs along any directed path that avoids the cops that stayed put. The cops
win when the robber ends a round on an occupied vertex; an endless play
goes to the robber.

Two things certify the width bound. A three-cop guard strategy wins on
every structured control-flow graph: one cop holds the current loop's
entry, one holds its exit, and the third either chases within the loop's
own vertices or seals off a nested loop before the guards move in. And an
exact solver for the cop-monotone game (cops never revisit a vertex)
provides the matching lower bound on small graphs.

Trace annotations name the strategy steps: "1" initial placement, "2a"
chase onto the robber, "2b" seal a nested loop's exit, "5" advance the
entry guard into a nested loop, "4b" chase to stop, "4a" capture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from ._graph import VertexBits, reachable, toposort
from .cfg import ControlFlowGraph
from .loops import LoopElement, LoopForest


class StrategyError(RuntimeError):
    """The pursuit invariant broke (robber escaped its supposed region)."""


class IllegalMoveError(RuntimeError):
    """A robber strategy returned a move with no cop-free path."""

    def __init__(self, step: int, src: int, dst: int):
        super().__init__(f"step {step}: no cop-free path from {src} to {dst}")
        self.step = step


class SearchBudgetError(RuntimeError):
    """The exact solver exceeded its state budget; bounds are partial."""


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TraceStep:
    cops: tuple  # (guard of entry, guard of exit, chaser); None = unplaced
    robber: int
    note: str

    def cop_set(self) -> frozenset:
        return frozenset(x for x in self.cops if x is not None)


@dataclass
class GameTrace:
    steps: list[TraceStep]
    outcome: str  # "CopsWin" | "RobberWins(cutoff)"
    end_note: str | None = None

    def cop_sets(self) -> list[frozenset]:
        return [s.cop_set() for s in self.steps]

    def rounds(self) -> int:
        return len(self.steps) - 1

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {
                    "cops": [x for x in s.cops if x is not None],
                    "robber": s.robber,
                    "note": s.note,
                }
                for s in self.steps
            ],
            "outcome": self.outcome,
            "end_note": self.end_note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def cop_monotone_violations(trace: GameTrace) -> list[tuple[int, int]]:
    """(vertex, step) pairs where a cop reoccupied a vacated vertex."""
    last_seen: dict[int, int] = {}
    active: set[int] = set()
    violations = []
    for i, cops in enumerate(trace.cop_sets()):
        for v in cops:
            if v in last_seen and v not in active:
                violations.append((v, i))
            last_seen[v] = i
        active = cops
    return violations


def check_cop_monotone(trace: GameTrace) -> bool:
    """True iff no cop ever returns to a vertex it left."""
    return not cop_monotone_violations(trace)


# ---------------------------------------------------------------------------
# the distance that drives the chase


def exit_distances(cfg: ControlFlowGraph, forest: LoopForest, elem: LoopElement) -> dict[int, int | None]:
    """Longest-path distance from each vertex of inside(L) to L's exit.

    Only vertices of belongs(L) count toward the length; whole nested loops
    collapse to single zero-weight nodes, which keeps the graph acyclic.
    Paths may start at the entry but never pass through it. None marks
    vertices with no such path.
    """
    if elem.exit is None:
        return {v: None for v in elem.inside}

    node_of: dict[int, object] = {v: v for v in elem.belongs}
    for child in elem.children:
        for v in child.inside:
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
            weight = 1 if isinstance(n, int) and n in elem.belongs else 0
            dp[n] = best + weight

    return {v: dp[node_of[v]] for v in elem.inside}


def distance_to_exit(cfg: ControlFlowGraph, forest: LoopForest, elem: LoopElement, v: int) -> int:
    """Chase distance of v; 0 when no exit-reaching path exists."""
    d = exit_distances(cfg, forest, elem).get(v)
    return 0 if d is None else d


# ---------------------------------------------------------------------------
# cop strategies


class LoopGuardStrategy:
    """Three cops: entry guard, exit guard, and a chaser.

    The invariant between rounds: the current loop's entry and exit are
    held (virtual root aside) and the robber sits inside the loop. The
    chaser lands on the robber while it stays among the loop's own
    vertices; when the robber hides in a nested loop the chaser seals that
    loop's exit, the entry guard advances, and the sealed loop becomes
    current with the two cops swapping duties.
    """

    def __init__(self, cfg: ControlFlowGraph, forest: LoopForest):
        if not forest.owner:
            raise ValueError("loop regions not computed; run loop_regions first")
        self.cfg = cfg
        self.forest = forest
        self.loop = forest.phi
        self.x1: int | None = None  # entry guard
        self.x2: int | None = None  # exit guard
        self.x3: int | None = None  # chaser
        self.pending_child: LoopElement | None = None
        self.entering = False
        self.log: list[tuple[str, LoopElement]] = []

    def _roles(self) -> tuple:
        return (self.x1, self.x2, self.x3)

    def _emit(self, note: str) -> tuple[tuple, str]:
        self.log.append((note, self.loop))
        return self._roles(), note

    def _child_with(self, r: int) -> LoopElement:
        elem = self.forest.owner[r]
        while elem.parent is not None and elem.parent is not self.loop:
            elem = elem.parent
        if elem.parent is not self.loop:
            raise StrategyError(f"robber at {r} is not inside the current loop")
        return elem

    def move(self, r: int) -> tuple[tuple, str]:
        if self.entering:
            # The entry guard has landed and the robber replied; the sealed
            # loop becomes current. Its exit guard is the old chaser, and
            # the old exit guard is free to chase.
            child = self.pending_child
            self.loop = child
            if child.exit is not None:
                self.x2, self.x3 = self.x3, self.x2
            self.pending_child = None
            self.entering = False

        if r == self.cfg.stop:
            self.pending_child = None
            self.x3 = self.cfg.stop
            return self._emit("4b")

        if not self.loop.is_root and r not in self.loop.inside:
            raise StrategyError(f"robber at {r} escaped the current loop")

        if self.pending_child is not None and r in self.pending_child.inside:
            # Sealed loop still holds the robber: advance the entry guard.
            self.x1 = self.pending_child.entry
            self.entering = True
            return self._emit("5")

        self.pending_child = None
        if r in self.loop.belongs:
            self.x3 = r
            return self._emit("2a")

        child = self._child_with(r)
        self.pending_child = child
        if child.exit is None:
            # Nothing to seal; the loop has no way out. Advance directly.
            self.x1 = child.entry
            self.entering = True
            return self._emit("5")
        self.x3 = child.exit
        return self._emit("2b")


class OptimalCops:
    """Solver-backed cop player for small graphs; flails when losing."""

    def __init__(self, graph, k: int, solver: "PursuitSolver | None" = None):
        self.vertices, succ = _adjacency(graph)
        self.solver = solver or PursuitSolver(self.vertices, succ, k)
        self.k = k
        self.slots: list[int | None] = [None] * k
        self.vacated: set[int] = set()

    def _placed(self) -> frozenset:
        return frozenset(x for x in self.slots if x is not None)

    def move(self, r: int) -> tuple[tuple, str]:
        s = self.solver
        bits = s.bits
        placed = self._placed()
        x = bits.of(placed)
        f = bits.of(self.vacated)
        best = None
        for x2 in s.winning_moves(x, bits.index[r], f):
            best = x2
            break
        if best is None:
            # No winning move exists; land on the robber when allowed to
            # at least force it to run.
            if r not in self.vacated and r not in placed:
                target = placed | {r}
                while len(target) > self.k:
                    dropped = max(target - {r})
                    target = target - {dropped}
                best = bits.of(target)
        if best is not None:
            new = bits.set_of(best)
            self.vacated |= placed - new
            self._assign(new)
        return tuple(self.slots), "search"

    def _assign(self, new: set) -> None:
        keep = [x if x in new else None for x in self.slots]
        incoming = sorted(new - {x for x in keep if x is not None})
        for i, x in enumerate(keep):
            if x is None and incoming:
                keep[i] = incoming.pop()
        self.slots = keep


# ---------------------------------------------------------------------------
# robber strategies


class LazyRobber:
    """Stays put until a cop lands on it, then runs to the nearest free vertex.

    Ties between equally close destinations go to the smallest vertex id,
    or the largest with tie="high".
    """

    def __init__(self, cfg: ControlFlowGraph, start: int | None = None, tie: str = "low"):
        self.cfg = cfg
        self.start = cfg.start if start is None else start
        if tie not in ("low", "high"):
            raise ValueError("tie must be 'low' or 'high'")
        self.tie = tie

    def initial(self) -> int:
        return self.start

    def move(self, r: int, cops: frozenset, stationary: frozenset) -> int:
        if r not in cops:
            return r
        seen = {r}
        frontier = [r]
        while frontier:
            nxt = []
            free = []
            for v in frontier:
                for w in self.cfg.successors(v):
                    if w in stationary or w in seen:
                        continue
                    seen.add(w)
                    nxt.append(w)
                    if w not in cops:
                        free.append(w)
            if free:
                return min(free) if self.tie == "low" else max(free)
            frontier = nxt
        return r  # trapped


class OptimalRobber:
    """Plays the exact cop-monotone game; evades forever when possible.

    Assumes a cop-monotone opponent. When every option is losing it falls
    back to maximising distance from the cops, preferring larger escape
    regions.
    """

    def __init__(self, graph, k: int, solver: "PursuitSolver | None" = None):
        self.vertices, self.succ = _adjacency(graph)
        self.solver = solver or PursuitSolver(self.vertices, self.succ, k)
        self.prev: frozenset = frozenset()
        self.vacated: set[int] = set()

    def initial(self) -> int:
        s = self.solver
        safe = [v for v in self.vertices if not s.cops_win(0, s.bits.index[v], 0)]
        if safe:
            return min(safe)
        return min(self.vertices)

    def move(self, r: int, cops: frozenset, stationary: frozenset) -> int:
        self.vacated |= set(self.prev) - set(cops)
        self.prev = cops
        s = self.solver
        bits = s.bits

        reach = reachable(self.succ, r, stationary)
        options = sorted(v for v in reach if v not in cops)
        if not options:
            return r
        x = bits.of(cops)
        f = bits.of(self.vacated)
        for v in options:
            if v in self.vacated or not s.cops_win(x, bits.index[v], f):
                return v
        # All options lose; stall as far from the cops as possible.
        def score(v):
            dist = min((_hops(self.succ, v, c) for c in cops), default=0)
            region = len(reachable(self.succ, v, cops))
            return (dist, region, -v)

        return max(options, key=score)


def _hops(succ: dict, src: int, dst: int) -> int:
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
    return len(succ) + 1  # unreachable: effectively infinite


# ---------------------------------------------------------------------------
# the play loop


def play_game(
    cfg: ControlFlowGraph,
    cop_strategy,
    robber,
    robber_start: int | None = None,
    max_rounds: int | None = None,
) -> GameTrace:
    """Alternate cop placements and robber runs until capture or cutoff.

    Robber moves are checked: a move must follow a directed path avoiding
    the cops that stayed on the board.
    """
    if max_rounds is None:
        max_rounds = 4 * cfg.n_vertices
    r = robber.initial() if robber_start is None else robber_start
    steps = [TraceStep((None, None, None), r, "1")]
    prev: frozenset = frozenset()
    outcome = "RobberWins(cutoff)"
    end_note = None

    for _ in range(max_rounds):
        roles, note = cop_strategy.move(r)
        placed = frozenset(x for x in roles if x is not None)
        stationary = prev & placed
        r2 = robber.move(r, placed, stationary)
        if r2 != r and r2 not in cfg.reachable_from(r, stationary):
            raise IllegalMoveError(len(steps), r, r2)
        steps.append(TraceStep(tuple(roles), r2, note))
        if r2 in placed:
            outcome, end_note = "CopsWin", "4a"
            break
        prev, r = placed, r2

    return GameTrace(steps=steps, outcome=outcome, end_note=end_note)


# ---------------------------------------------------------------------------
# exact solver for the cop-monotone game


def _adjacency(graph) -> tuple[list[int], dict[int, list[int]]]:
    if isinstance(graph, dict):
        return sorted(graph), {v: list(ws) for v, ws in graph.items()}
    vertices = sorted(graph.vertex_ids())
    return vertices, {v: list(graph.successors(v)) for v in vertices}


class PursuitSolver:
    """Exhaustive search over (cops, robber, vacated) with memoisation.

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


def brute_force_cop_number(graph, k_max: int = 4, max_states: int = 4_000_000) -> int:
    """Fewest cops with a cop-monotone winning strategy, by exhaustive search."""
    vertices, succ = _adjacency(graph)
    for k in range(1, k_max + 1):
        solver = PursuitSolver(vertices, succ, k, max_states=max_states)
        try:
            if not solver.robber_safe_somewhere():
                return k
        except SearchBudgetError as err:
            raise SearchBudgetError(f"budget exceeded; cop number > {k - 1} known. {err}") from err
    raise ValueError(f"no cop-monotone win with up to {k_max} cops")
