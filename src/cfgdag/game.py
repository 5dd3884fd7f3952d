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

from dataclasses import dataclass
from itertools import combinations, starmap

from ._graph import components, layers, reachable
from ._json import dumps
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
    """The exact solver exceeded its state budget or its cop limit; bounds
    are partial."""


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
        return dumps(self.to_json_dict())


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
            raise ValueError("loop forest has no owner map; run assign_owners or recover_loop_forest first")
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

        if not self.loop.is_root and not self.forest.contains(self.loop, r):
            raise StrategyError(f"robber at {r} escaped the current loop")

        if self.pending_child is not None and self.forest.contains(self.pending_child, r):
            # Sealed loop still holds the robber: advance the entry guard.
            self.x1 = self.pending_child.entry
            self.entering = True
            return self._emit("5")

        self.pending_child = None
        if self.forest.owner[r] is self.loop:
            self.x3 = r
            return self._emit("2a")

        # r is not stop, lies inside the loop and is not its own: climb to
        # the child of the loop that holds it.
        child = self.forest.owner[r]
        while child.parent is not self.loop:
            child = child.parent
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
        bits = self.solver.bits
        placed = self._placed()
        wins = self.solver.winning_moves(bits.of(placed), bits.index[r], bits.of(self.vacated))
        if wins:
            new = bits.set_of(wins[0])
        elif r not in self.vacated and r not in placed:
            # No winning move: land on the robber to at least force it to run.
            new = {r, *sorted(placed)[:self.k - 1]}
        else:
            new = placed
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
        _, self.succ = _adjacency(cfg)
        self.start = cfg.start if start is None else start
        if tie not in ("low", "high"):
            raise ValueError("tie must be 'low' or 'high'")
        self.tie = tie

    def initial(self) -> int:
        return self.start

    def move(self, r: int, cops: frozenset, stationary: frozenset) -> int:
        if r not in cops:
            return r
        for layer in layers(self.succ, r, stationary):
            free = [w for w in layer if w not in cops]
            if free:
                return min(free) if self.tie == "low" else max(free)
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
        # All options lose; stall as far from the cops as possible. The
        # nearest cop is in the first layer that meets one; with none in
        # reach it counts as farther than any path, and as 0 with no cops.
        def score(v):
            dist = next((d for d, layer in enumerate(layers(self.succ, v))
                         if not cops.isdisjoint(layer)), len(self.succ) + 1 if cops else 0)
            region = len(reachable(self.succ, v, cops))
            return (dist, region, -v)

        return max(options, key=score)


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
    the cops that stayed on the board. The check searches outward from the
    robber and stops at its destination, so a round costs at most the
    region walked up to there.
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
        if r2 != r and not any(r2 in layer for layer in layers(cfg._succ, r, stationary)):
            raise IllegalMoveError(len(steps), r, r2)
        steps.append(TraceStep(tuple(roles), r2, note))
        if r2 in placed:
            outcome, end_note = "CopsWin", "4a"
            break
        prev, r = placed, r2

    return GameTrace(steps=steps, outcome=outcome, end_note=end_note)


# ---------------------------------------------------------------------------
# exact solver for the cop-monotone game


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
        return {self.order[i] for i in _bits(mask)}


def _bits(mask: int):
    """Indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _adjacency(graph) -> tuple[list[int], dict[int, list[int]]]:
    if isinstance(graph, dict):
        return sorted(graph), {v: list(ws) for v, ws in graph.items()}
    vertices = sorted(graph.vertex_ids())
    return vertices, {v: list(graph.successors(v)) for v in vertices}


class PursuitSolver:
    """Exhaustive search over (cops, robber region) with memoisation.

    The search keeps robber regions, not vertices, as in the helicopter game
    of Berwanger, Dawar, Hunter, Kreutzer & Obdrzalek ("The DAG-width of
    directed graphs", 2012). A free robber at r, facing cops x, can be
    anywhere in its region R = reach(r, x). Every stay set S of a cop move
    lies within x, so reach(r, S) = reach(R, S), and the value depends on r
    only through R. The cops' value is also monotone in the region, by
    induction on the acyclic game: a smaller region leaves the robber a
    subset of destinations after every move. So once the cops beat the
    robber at b after their move to x2, every other destination in
    reach(b, x2) is beaten as well and is not searched. Skipping stand-still
    cop moves is safe: they help only the robber.

    Monotonicity forbids the cops to land on a vacated vertex. Four facts
    take the vacated set f out of the search, which is keyed by (x, R):
    1. If R meets f, the robber wins at once: every stay set lies within x,
       so the robber still reaches a vertex of f, runs there, and no cop may
       ever land on it again.
    2. Otherwise, landings outside R | x never help, and the value does not
       depend on f. A run that leaves R must pass a vertex of x. If that cop
       has lifted, the robber stops there and wins, as in 1; if it stayed,
       the run is blocked. So every later region lies inside R, and a cop
       outside R | x blocks no run and captures nothing: dropping it from a
       winning strategy leaves a winning strategy. With landings in R | x,
       every vertex the cops vacate lies outside R, so no later move lands
       on it, and it matters only as a vertex a cop just left.
    3. With landings in R | x, the pair (|R|, |x|) falls lexicographically
       on every move that leaves the robber in play: a landing on v in R
       takes v out of every later region, and a move that only lifts cops
       keeps the region within R (by 2) and shrinks x. So the search is
       acyclic, plain memoisation is sound, and the cops' play is monotone
       by itself.
    4. A stay set S loses at once when reach(r, S) meets x - S: the robber
       runs onto a vertex that a cop just left, as in 1. So a move is a stay
       set that passes this test, then landings off x (in R, by 2).

    Only cops_win and winning_moves, where a caller enters the game, read f.
    winning_moves lists the winning moves, landings outside R | x too, by
    (not a capture, number of cops, ascending vertex bits).

    max_states bounds the memo, counted in (cops, robber region) states.
    """

    def __init__(self, vertices: list[int], succ: dict[int, list[int]], k: int,
                 max_states: int = 4_000_000):
        self.bits = VertexBits(vertices)
        self.n = len(self.bits.order)
        self.k = k
        self.max_states = max_states
        self.succ_mask = [0] * self.n
        for v, ws in succ.items():
            self.succ_mask[self.bits.index[v]] = self.bits.of(ws)
        self.memo: dict[tuple[int, int], bool] = {}
        # (robber index, blocked mask) -> reach, for the pairs walked so far
        self._reaches: dict[tuple[int, int], int] = {}

    def _reach(self, r: int, blocked: int) -> int:
        """Vertices the robber at index r reaches on paths avoiding blocked."""
        if reach := self._reaches.get((r, blocked)):
            return reach
        reach = frontier = 1 << r
        succ_mask = self.succ_mask
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= succ_mask[b.bit_length() - 1]
            frontier = nxt & ~blocked & ~reach
            reach |= frontier
        self._reaches[r, blocked] = reach
        return reach

    # -- game values -------------------------------------------------------

    def cops_win(self, x: int, r: int, f: int = 0) -> bool:
        """Cop player to move at (cops x, robber index r, vacated f)."""
        if (x >> r) & 1:
            return True
        region = self._reach(r, x)
        if region & f:
            return False
        key = (x, region)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if len(self.memo) >= self.max_states:
            raise SearchBudgetError(
                f"memo exceeded {self.max_states} (cops, robber region) states at k={self.k}"
            )
        self.memo[key] = result = any(starmap(self._move_wins, self._ordered_moves(x, r, region)))
        return result

    def winning_moves(self, x: int, r: int, f: int) -> list[int]:
        """Cop moves from which the cops force capture, in the order above."""
        if self._reach(r, x) & f:
            return []
        land = ~(f | x) & ((1 << self.n) - 1)
        wins = [x2 for x2, dests in self._ordered_moves(x, r, land) if self._move_wins(x2, dests)]
        return sorted(wins, key=lambda x2: (not x2 >> r & 1, x2.bit_count(), list(_bits(x2))))

    def _ordered_moves(self, x: int, r: int, land: int):
        """Yield (x2, where the robber may stand next) for each cop move x2 other
        than x: a stay set that passes fact 4, then landings on land, captures first."""
        stays, s = [], 0
        while True:  # each S within x, ascending
            if not (reach := self._reach(r, s)) & x & ~s:
                stays.append((s, reach))
            if s == x:
                break
            s = (s - x) & x
        rbit = 1 << r
        others = []  # the landings other than r, listed on first use
        for capture in ((rbit, 0) if land & rbit else (0,)):
            for s, reach in stays:
                x2 = s | capture
                room = self.k - x2.bit_count()
                if x2 != x and room >= 0:
                    yield x2, reach & ~x2
                for size in range(1, room + 1):
                    others = others or [1 << i for i in _bits(land & ~rbit)]
                    for c in combinations(others, size):
                        x3 = x2 | sum(c)
                        yield x3, reach & ~x3

    def _move_wins(self, x2: int, dests: int) -> bool:
        """True iff the cops at x2 beat the robber at every vertex of dests
        (with none, it has nowhere left to stand)."""
        while dests:
            b = (dests & -dests).bit_length() - 1
            if not self.cops_win(x2, b):
                return False
            dests &= ~self._reach(b, x2)  # regions within b's are beaten too
        return True

    def robber_safe_somewhere(self) -> bool:
        return any(not self.cops_win(0, i, 0) for i in range(self.n))


def brute_force_cop_number(graph, k_max: int = 4, max_states: int = 4_000_000) -> int:
    """Fewest cops with a cop-monotone winning strategy, by exhaustive search
    of each strongly connected component alone.

    The cop number is the largest over the components, as for DAG-width
    (Berwanger, Dawar, Hunter, Kreutzer & Obdrzalek, JCTB 2012).
    - No component needs more cops than the graph. Keep only the cops that
      a winning strategy on the graph puts in a component C. A run inside
      C avoids the cops of C that stayed exactly when it avoids all that
      stayed, so every play on C alone is a play on the graph, and the
      kept cops catch the robber there without returning to a vertex.
    - The graph needs no more than its hardest component. The cops play
      the winning strategy of the robber's component C from an empty
      board. A run that ends outside C ends in a component D that C
      reaches, and the robber never gets back to C, since that would put
      C and D in one component. So the cops lift off C and land nowhere in
      C again: monotonicity holds. They go on with D's strategy from an
      empty board, whose first move keeps no cop, as their move off C
      does, so the robber's choices are the same. Each change of component
      moves down the acyclic order of the components, so the robber is
      caught.

    One cop wins iff every component is a single vertex: a self-loop is no
    escape, as a cop that lands on the robber's vertex leaves it no
    destination there.
    - A cycle of two or more vertices beats one cop. Two distinct placements
      of at most one cop are disjoint, so no cop ever stays put and the
      robber's runs are never blocked. The robber stands on the cycle, and
      when the cop lands on its vertex it runs on to the next vertex of the
      cycle.
    - With no cycle but self-loops, one cop wins by landing on the
      robber's vertex. The robber must run to a vertex it reaches from
      there, so its reach set shrinks strictly. The cop vacates only
      vertices the robber left, and the robber never gets back to one. So
      it is caught within n rounds.
    So the search covers only components of two or more vertices. Each
    starts at the most cops found so far, two at least, since the answer
    is never below that.

    max_states bounds each solver's memo of (cops, robber region) states,
    one solver per component and number of cops."""
    vertices, succ = _adjacency(graph)
    comps = [comp for comp in components(vertices, succ) if len(comp) > 1]
    k = 2 if comps else 1
    for comp in comps:
        inside = set(comp)
        induced = {v: [w for w in succ[v] if w in inside] for v in comp}
        while k <= k_max:
            solver = PursuitSolver(comp, induced, k, max_states=max_states)
            try:
                if not solver.robber_safe_somewhere():
                    break
            except SearchBudgetError as err:
                raise SearchBudgetError(f"budget exceeded; cop number > {k - 1} known. {err}") from err
            k += 1
    if k > k_max:
        raise SearchBudgetError(f"no cop-monotone win with up to {k_max} cops")
    return k
