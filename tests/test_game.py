import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import (
    ControlFlowGraph,
    IllegalMoveError,
    LazyRobber,
    LoopForest,
    LoopGuardStrategy,
    OptimalCops,
    OptimalRobber,
    PursuitSolver,
    SearchBudgetError,
    brute_force_cop_number,
    build_decomposition,
    cfg_from_source,
    check_cop_monotone,
    compute_dominators,
    generate_random_program,
    play_game,
    recover_loop_forest,
    two_loop_cfg,
    validate_cfg_decomposition,
)
from cfgdag._graph import components, reachable
from cfgdag.game import _adjacency, cop_monotone_violations
from helpers import (
    PursuitSolverByVertex,
    brute_force_cop_number_by_vertex,
    cop_number_whole_graph,
    dist_by_enumeration,
    distance_to_exit,
    exit_distances,
    hops,
    lazy_move_by_walk,
    owner_regions,
    pipeline,
    toposort,
    two_loop_cfg_in_loops,
    with_jumps,
)

# Reference pursuits on the two-loop graph, frozen from first principles:
# role order is (entry guard, exit guard, chaser), None = unplaced.
TRACE_TOGGLE_RIGHT = [
    ((None, None, None), 0, "1"),
    ((None, None, 0), 1, "2a"),
    ((None, None, 3), 1, "2b"),
    ((1, None, 3), 2, "5"),
    ((1, 3, 2), 9, "2a"),
    ((1, 3, 12), 9, "2b"),
    ((9, 3, 12), 10, "5"),
    ((9, 12, 10), 11, "2a"),
    ((9, 12, 11), 11, "2a"),
]

TRACE_TOGGLE_LEFT = [
    ((None, None, None), 0, "1"),
    ((None, None, 0), 1, "2a"),
    ((None, None, 3), 1, "2b"),
    ((1, None, 3), 2, "5"),
    ((1, 3, 2), 5, "2a"),
    ((1, 3, 8), 5, "2b"),
    ((5, 3, 8), 6, "5"),
    ((5, 8, 6), 7, "2a"),
    ((5, 8, 7), 7, "2a"),
]


def fixture_with_regions():
    cfg, forest = two_loop_cfg()
    return cfg, forest


# -- distances ---------------------------------------------------------------


def test_distance_counts_only_own_vertices():
    cfg, forest, _ = pipeline("while c { a; b; }", contract=True)
    (elem,) = forest.elements
    dists = exit_distances(cfg, forest, elem)
    assert dists[elem.entry] == 1  # straight to the exit, counting the entry
    body = next(v for v in owner_regions(forest)[elem][1] if v != elem.entry)
    assert dists[body] is None  # the only way onward runs through the entry
    assert distance_to_exit(cfg, forest, elem, body) == 0


def test_distance_last_vertex_before_exit_is_one():
    cfg, forest, _ = pipeline("while c { b; }")
    (elem,) = forest.elements
    d = exit_distances(cfg, forest, elem)
    assert d[elem.entry] == 1


def test_nested_loop_contributes_nothing():
    cfg, forest, _ = pipeline("while c1 { a; while c2 { b; } d; }")
    outer, inner = forest.elements
    dists = exit_distances(cfg, forest, outer)
    for v in owner_regions(forest)[inner][1]:
        assert dists[v] == dists[inner.exit], cfg.labels[v]


@pytest.mark.parametrize("seed", range(30))
def test_distance_matches_enumeration_oracle(seed):
    cfg, forest, _ = pipeline(generate_random_program(seed, 14))
    regions = owner_regions(forest)
    for elem in forest.elements:
        inside = regions[elem][1]
        if len(inside) + 1 > 8:
            continue
        dists = exit_distances(cfg, forest, elem)
        for v in inside:
            assert dists[v] == dist_by_enumeration(cfg, forest, elem, v), (seed, v)


def test_exitless_loop_distances_are_flagged():
    cfg, forest, _ = pipeline("while 1 { a; }")
    (elem,) = forest.elements
    assert set(exit_distances(cfg, forest, elem).values()) == {None}


# -- reference pursuits ---------------------------------------------------------


@pytest.mark.parametrize(
    "tie,expected",
    [("high", TRACE_TOGGLE_RIGHT), ("low", TRACE_TOGGLE_LEFT)],
    ids=["right-loop-first", "left-loop-first"],
)
def test_reference_pursuits_reproduced_exactly(tie, expected):
    cfg, forest = fixture_with_regions()
    trace = play_game(cfg, LoopGuardStrategy(cfg, forest), LazyRobber(cfg, start=0, tie=tie))
    got = [(s.cops, s.robber, s.note) for s in trace.steps]
    assert got == expected
    assert trace.outcome == "CopsWin"
    assert trace.end_note == "4a"


def test_robber_fleeing_to_stop_is_chased_down():
    cfg, forest, _ = pipeline("a; b;")
    trace = play_game(cfg, LoopGuardStrategy(cfg, forest), LazyRobber(cfg, start=cfg.stop))
    assert trace.outcome == "CopsWin"
    assert trace.steps[-1].note == "4b"


def test_lazy_robber_stays_until_attacked():
    cfg, forest = fixture_with_regions()
    robber = LazyRobber(cfg, start=6)
    assert robber.move(6, frozenset({5}), frozenset()) == 6
    assert robber.move(6, frozenset({6}), frozenset()) in (7, 8)


def test_lazy_robber_trapped_reports_capture():
    cfg, forest, _ = pipeline("a;")
    robber = LazyRobber(cfg, start=cfg.stop)
    assert robber.move(cfg.stop, frozenset({cfg.stop}), frozenset()) == cfg.stop


def test_constructors_refuse_a_forest_without_owners_and_an_unknown_tie():
    """A forest read from JSON has no owner map until assign_owners runs."""
    cfg, _, _ = pipeline("while c { a; }")
    with pytest.raises(ValueError, match="loop forest has no owner map"):
        LoopGuardStrategy(cfg, LoopForest())
    with pytest.raises(ValueError, match=r"^tie must be 'low' or 'high'$"):
        LazyRobber(cfg, tie="mid")


@st.composite
def robber_positions(draw):
    """A random digraph as a CFG, self-loops and unreachable parts included,
    a robber vertex, up to three cops, which hold the robber half of the
    time, and the cops among them that stayed put."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    cfg = ControlFlowGraph()
    for v in range(n):
        cfg.add_vertex(f"v{v}", v)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        cfg.add_edge(u, v)
    cfg.start, cfg.stop = 0, n - 1
    r = draw(vertex)
    cops = set(draw(st.lists(vertex, max_size=3)))
    if draw(st.booleans()):
        cops.add(r)
    stationary = draw(st.sets(st.sampled_from(sorted(cops)))) if cops else set()
    return cfg, r, frozenset(cops), frozenset(stationary)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(robber_positions())
def test_robbers_move_as_the_breadth_first_walks(drawn):
    """LazyRobber, under either tie rule, runs where a walk frontier by
    frontier sends it. OptimalRobber, told that every option loses, stalls
    where the nearest-cop distance of one walk per cop sends it."""
    cfg, r, cops, stationary = drawn
    _, succ = _adjacency(cfg)
    for tie in ("low", "high"):
        got = LazyRobber(cfg, tie=tie).move(r, cops, stationary)
        assert got == lazy_move_by_walk(succ, r, cops, stationary, tie), tie

    def score(v):
        dist = min((hops(succ, v, c) for c in cops), default=0)
        return dist, len(reachable(succ, v, cops)), -v

    robber = OptimalRobber(cfg, k=1)
    robber.solver.cops_win = lambda *args: True
    options = reachable(succ, r, stationary) - cops
    assert robber.move(r, cops, stationary) == (max(options, key=score) if options else r)


def test_play_game_rejects_teleporting_robber():
    cfg, forest = fixture_with_regions()

    class Teleporter:
        def initial(self):
            return 11

        def move(self, r, cops, stationary):
            return 0  # vertex 0 has no incoming path from 11


    with pytest.raises(IllegalMoveError):
        play_game(cfg, LoopGuardStrategy(cfg, forest), Teleporter())


# -- strategy properties over random programs -------------------------------------


def _games_for(seed, size=40):
    cfg, forest, _ = pipeline(generate_random_program(seed, size))
    starts = {cfg.start, max(cfg.vertex_ids())}
    for start in sorted(starts):
        strategy = LoopGuardStrategy(cfg, forest)
        trace = play_game(cfg, strategy, LazyRobber(cfg, start=start))
        yield cfg, forest, strategy, trace


@pytest.mark.parametrize("seed", range(40))
def test_guard_strategy_wins_and_stays_monotone(seed):
    for cfg, forest, strategy, trace in _games_for(seed):
        assert trace.outcome == "CopsWin"
        assert check_cop_monotone(trace), cop_monotone_violations(trace)


@pytest.mark.parametrize("seed", range(20))
def test_round_count_bound(seed):
    for cfg, forest, strategy, trace in _games_for(seed):
        depth = 0
        for elem in forest.elements:
            d, e = 1, elem
            while e.parent is not None:
                d, e = d + 1, e.parent
            depth = max(depth, d)
        assert trace.rounds() <= 2 * cfg.n_vertices + 2 * depth


@pytest.mark.parametrize("seed", range(20))
def test_robber_confined_and_distance_monotone(seed):
    """Chase moves never increase the robber's distance to the current exit."""
    for cfg, forest, strategy, trace in _games_for(seed):
        dist_cache = {}
        for i, (note, loop) in enumerate(strategy.log):
            r_before = trace.steps[i].robber
            r_after = trace.steps[i + 1].robber
            if loop.is_root or note not in ("2a", "2b"):
                continue
            assert forest.contains(loop, r_after) or r_after == cfg.stop  # confinement
            if r_after == cfg.stop or loop.exit is None:
                continue
            key = id(loop)
            if key not in dist_cache:
                dist_cache[key] = exit_distances(cfg, forest, loop)
            dists = dist_cache[key]
            d_before, d_after = dists[r_before], dists[r_after]
            if d_before is None:
                # cut off from the exit, and every onward move stays cut off
                assert d_after is None, (seed, i)
                continue
            eff_after = 0 if d_after is None else d_after
            assert eff_after <= d_before, (seed, i)
            if forest.owner[r_before] is loop and r_after != r_before:
                assert eff_after < d_before, (seed, i)


def test_robber_slipping_past_the_landing_exit_guard():
    """A robber may run through the exit while the chaser is still landing
    on it; the strategy must fall back to a plain chase in the outer loop."""
    cfg, forest, _ = pipeline("while c1 { a; while c2 { b; } d; }")
    ids = {cfg.labels[v]: v for v in cfg.vertex_ids()}

    class SlipOut:
        # sits at b until the inner exit gets sealed, then darts to d
        def initial(self):
            return ids["b"]

        def move(self, r, cops, stationary):
            if r == ids["b"] and ids["exit(c2)"] in cops and ids["exit(c2)"] not in stationary:
                return ids["d"]
            if r not in cops:
                return r
            free = [v for v in cfg.vertex_ids()
                    if v not in cops and v in cfg.reachable_from(r, stationary)]
            return min(free) if free else r

    strategy = LoopGuardStrategy(cfg, forest)
    trace = play_game(cfg, strategy, SlipOut())
    assert trace.outcome == "CopsWin"
    assert check_cop_monotone(trace)
    # outer seal, descend, inner seal (slipped past), then a plain chase
    # in the outer loop corners the robber at d
    assert [s.note for s in trace.steps] == ["1", "2b", "5", "2b", "2a"]
    assert trace.steps[-1].robber == ids["d"]


def test_strategy_handles_exitless_loops():
    cfg, forest, _ = pipeline("while 1 { a; if c { b; } }")
    for start in sorted(cfg.vertex_ids()):
        if start == cfg.stop and cfg.stop not in cfg.reachable_from(cfg.start):
            continue
        trace = play_game(cfg, LoopGuardStrategy(cfg, forest), LazyRobber(cfg, start=start))
        assert trace.outcome == "CopsWin", start
        assert check_cop_monotone(trace)


# -- the exact solver ---------------------------------------------------------------


def test_dag_needs_one_cop():
    cfg, forest, _ = pipeline("a; if c { b; } d;")
    assert brute_force_cop_number(cfg, 3) == 1


def test_while_loop_needs_two_cops():
    cfg, forest, _ = pipeline("while c { b; }")
    n = brute_force_cop_number(cfg, 3)
    assert 2 <= n <= 3
    assert n == 2  # frozen exact value


def test_single_vertex_immediate_capture():
    solver = PursuitSolver([0], {0: []}, k=1)
    assert not solver.robber_safe_somewhere()


def test_fixture_needs_exactly_three_cops():
    cfg, _ = two_loop_cfg()
    assert brute_force_cop_number(cfg, 4) == 3


def test_cop_number_never_exceeds_three_on_cfgs():
    checked = 0
    seed = 0
    while checked < 12:
        seed += 1
        cfg, forest, _ = pipeline(generate_random_program(seed, 10))
        if cfg.n_vertices > 11:
            continue
        n = brute_force_cop_number(cfg, 4)
        assert n <= 3, seed
        d = build_decomposition(cfg, forest)
        assert n <= max(d.width(), 1), seed  # the certificate is never beaten
        checked += 1


def test_cop_number_never_exceeds_three_beyond_eleven_vertices():
    sizes = []
    seed = 0
    while len(sizes) < 20:
        seed += 1
        cfg, forest, _ = pipeline(generate_random_program(seed, 8 + seed % 12))
        if not 14 <= cfg.n_vertices <= 25:
            continue
        n = brute_force_cop_number(cfg, 4)
        assert n <= 3, seed
        assert n <= max(build_decomposition(cfg, forest).width(), 1), seed
        sizes.append(cfg.n_vertices)
    assert max(sizes) >= 20, sizes


def test_cop_number_never_exceeds_the_width_at_forty_to_sixty_vertices():
    sizes = []
    seed = 0
    while len(sizes) < 40:
        seed += 1
        cfg, forest, _ = pipeline(generate_random_program(seed, 30 + seed % 26))
        if not 40 <= cfg.n_vertices <= 60:
            continue
        n = brute_force_cop_number(cfg, 4)
        assert n <= max(build_decomposition(cfg, forest).width(), 1), seed
        sizes.append(cfg.n_vertices)
    assert min(sizes) <= 45 and max(sizes) >= 55, sizes


@pytest.mark.parametrize("depth", [1, 2])
def test_two_loop_gadget_nested_in_loops_needs_three_cops(depth):
    cfg = two_loop_cfg_in_loops(depth)
    assert cfg.n_vertices == 13 + 2 * depth
    forest = recover_loop_forest(cfg, compute_dominators(cfg))
    decomp = build_decomposition(cfg, forest)
    assert validate_cfg_decomposition(decomp, cfg).valid
    assert brute_force_cop_number(cfg, 4) == 3 == decomp.width()


# Programs whose cop number is 2. A search at k = 1 spent 270,419 states on
# the first and ran out of its 4,000,000 on the second; at k = 2, a memo
# keyed by every vacated vertex needs 1,305 and 712 states.
@pytest.mark.parametrize("seed, size, vertices", [(2 * 7919 + 40, 34, 41), (5 * 7919 + 37, 37, 43)])
def test_cop_number_two_at_forty_vertices_in_few_states(seed, size, vertices):
    cfg, _ = cfg_from_source(generate_random_program(seed, size))
    assert cfg.n_vertices == vertices
    assert brute_force_cop_number(cfg, 4, max_states=200) == 2


def test_losing_search_on_the_gadget_in_two_loops_stays_small():
    """Landing cops only where the robber can go keeps the losing k = 2
    search small; a memo keyed by vacated vertices needed 75,794 states."""
    solver = PursuitSolver(*_adjacency(two_loop_cfg_in_loops(2)), k=2, max_states=1_000)
    assert solver.robber_safe_somewhere()


def test_two_gadgets_in_series_need_three_cops():
    """Two copies of two_loop_cfg, the first's stop joined to the second's
    start; a memo keyed by vacated vertices went past 300,000 states at k = 2."""
    cfg, _ = two_loop_cfg()
    vertices, succ = _adjacency(cfg)
    n = max(vertices) + 1
    graph = {v: list(ws) for v, ws in succ.items()}
    graph |= {v + n: [w + n for w in ws] for v, ws in succ.items()}
    graph[cfg.stop].append(cfg.start + n)
    assert len(graph) == 26
    assert brute_force_cop_number(graph, 4, max_states=20_000) == 3


def test_budget_error_reports_partial_bound():
    """The losing k = 2 search of the 14-vertex component in two loops needs
    more than 100 states."""
    with pytest.raises(SearchBudgetError, match="cop number > 1"):
        brute_force_cop_number(two_loop_cfg_in_loops(2), 4, max_states=100)


def test_region_solver_decides_the_fixture_in_few_states():
    cfg, _ = two_loop_cfg()
    solver = PursuitSolver(*_adjacency(cfg), k=3)
    assert solver.robber_safe_somewhere() is False
    assert len(solver.memo) <= 64  # the robber-vertex search needs 14,707


def _cop_number_up_to_three(cop_number, graph):
    try:
        return cop_number(graph, 3)
    except SearchBudgetError:
        return None


def _assert_solvers_agree(graph, k, data):
    """Game values, winning-move lists and cop numbers of the region solver
    equal the robber-vertex solver's at random (cops, vacated), for every robber."""
    vertices, succ = _adjacency(graph)
    n = len(vertices)
    by_region = PursuitSolver(vertices, succ, k)
    by_vertex = PursuitSolverByVertex(vertices, succ, k)
    for _ in range(4):
        x = sum(1 << i for i in data.draw(st.sets(st.integers(0, n - 1), max_size=k)))
        f = data.draw(st.integers(0, (1 << n) - 1)) & ~x
        for r in range(n):
            assert by_region.cops_win(x, r, f) == by_vertex.cops_win(x, r, f), (x, r, f)
            assert list(by_region.winning_moves(x, r, f)) == list(by_vertex.winning_moves(x, r, f))
    assert (_cop_number_up_to_three(brute_force_cop_number, graph)
            == _cop_number_up_to_three(brute_force_cop_number_by_vertex, graph))


@st.composite
def digraphs(draw):
    """Up to 9 vertices and any arcs, self-loops and cycles included."""
    n = draw(st.integers(1, 9))
    arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return {v: sorted(w for u, w in arcs if u == v) for v in range(n)}


@st.composite
def small_programs(draw):
    """Control-flow graphs of at most 13 vertices."""
    size = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 10**6))
    while True:
        cfg, _ = cfg_from_source(generate_random_program(seed, size))
        if cfg.n_vertices <= 13:
            return cfg
        seed += 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs(), st.integers(1, 3), st.data())
def test_region_solver_equals_the_vertex_solver_on_digraphs(graph, k, data):
    _assert_solvers_agree(graph, k, data)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs())
def test_one_cop_wins_iff_the_graph_without_self_loops_is_acyclic(graph):
    """The search at k = 1 agrees with the rule that brute_force_cop_number
    runs in its place, every component a single vertex; Kahn's order is the
    oracle."""
    loopless = {v: [w for w in ws if w != v] for v, ws in graph.items()}
    acyclic = toposort(list(graph), loopless) is not None
    assert PursuitSolver(*_adjacency(graph), k=1).robber_safe_somewhere() is not acyclic


@st.composite
def digraphs_in_parts(draw):
    """1-7 vertices in up to three parts in a row: any arcs, self-loops
    included, within a part, and arcs only forward from part to part, so
    that most graphs have several components."""
    n = draw(st.integers(1, 7))
    part = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return {v: sorted(w for u, w in arcs if u == v and part[u] <= part[w]) for v in range(n)}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(digraphs_in_parts())
@example({0: [0]})
@example({0: [1], 1: [0, 1, 2], 2: [2, 3], 3: [2]})
@example({0: [1], 1: [2], 2: [0, 3], 3: [4], 4: [5], 5: [6], 6: [4]})
@example({0: [1, 2], 1: [0, 2], 2: [0, 1, 3], 3: [4, 5], 4: [3, 5], 5: [3, 4]})
@example({v: [w for w in range(4) if w != v] for v in range(4)})
def test_cop_number_equals_the_whole_graph_search_on_digraphs(graph):
    for k_max in (1, 2, 4):
        try:
            expected = cop_number_whole_graph(graph, k_max)
        except SearchBudgetError as err:
            with pytest.raises(SearchBudgetError, match=re.escape(str(err))):
                brute_force_cop_number(graph, k_max)
        else:
            assert brute_force_cop_number(graph, k_max) == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_cop_number_equals_the_whole_graph_search_on_programs_with_jumps(seed):
    """One to three with_jumps programs in a row, of at most 40 vertices."""
    while True:
        rng = random.Random(seed)
        cfg, _ = cfg_from_source(" ".join(with_jumps(rng) for _ in range(rng.randint(1, 3))))
        if cfg.n_vertices <= 40:
            break
        seed += 1
    assert brute_force_cop_number(cfg) == cop_number_whole_graph(cfg)


G = "while c { if p { while d { if q { break; } a; } } else { while e { if r { break; } b; } } }"


@pytest.mark.parametrize("copies, vertices", [(8, 90), (16, 178)])
def test_copies_of_g_in_series_need_three_cops_in_few_states(copies, vertices):
    """Each copy is a component of its own, searched alone; the search over
    the whole graph took 35 s on 8 copies (Python 3.11, shared 2-vCPU VM)."""
    cfg, _ = cfg_from_source(" ".join([G] * copies))
    assert cfg.n_vertices == vertices
    assert brute_force_cop_number(cfg, 4, max_states=1_000) == 3


def test_copies_of_g_inside_one_while_need_three_cops_in_few_states(monkeypatch):
    """Eight copies of G inside one while form one 89-vertex component.
    Refuting two cops there took 8.2 s while every state scanned a table of
    all placements (Python 3.11, shared 2-vCPU VM)."""
    import cfgdag.game as game

    solvers = []

    class Recording(PursuitSolver):
        def __init__(self, vertices, succ, k, **kwargs):
            super().__init__(vertices, succ, k, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(game, "PursuitSolver", Recording)
    cfg, _ = cfg_from_source(f"while z {{ {' '.join([G] * 8)} }}")
    assert brute_force_cop_number(cfg, 4, max_states=10_000) == 3
    assert [(s.n, s.k, len(s.memo)) for s in solvers] == [(89, 2, 6_238), (89, 3, 89)]


def test_solver_builds_no_table_of_placements():
    """A 200-vertex cycle has 1,333,501 placements of at most three cops;
    listing them all took 73.7 MiB."""
    vertices, succ = _adjacency({v: [(v + 1) % 200] for v in range(200)})
    tracemalloc.start()
    try:
        PursuitSolver(vertices, succ, k=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_solver_keeps_only_the_reaches_it_walks():
    """Six copies of G inside one while form one 67-vertex component. Keeping
    a list of one reach per vertex for every blocked mask met held 1.9 MiB
    there after refuting two cops."""
    vertices, succ = _adjacency(cfg_from_source(f"while z {{ {' '.join([G] * 6)} }}")[0])
    [comp] = [comp for comp in components(vertices, succ) if len(comp) > 1]
    induced = {v: [w for w in succ[v] if w in comp] for v in comp}
    tracemalloc.start()
    try:
        solver = PursuitSolver(comp, induced, 2)
        assert solver.robber_safe_somewhere()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (solver.n, len(solver.memo)) == (67, 3_559)
    assert live < 1.4 * (1 << 20), live / (1 << 20)


def test_each_component_search_starts_at_the_most_cops_so_far(monkeypatch):
    """G's component comes first and needs three cops, so the loop after it
    is searched at three, not two."""
    import cfgdag.game as game

    searched = []

    class Recording(PursuitSolver):
        def __init__(self, vertices, succ, k, **kwargs):
            super().__init__(vertices, succ, k, **kwargs)
            searched.append((len(vertices), k))

    monkeypatch.setattr(game, "PursuitSolver", Recording)
    cfg, _ = cfg_from_source(f"while z {{ a; }} {G}")
    assert brute_force_cop_number(cfg) == 3
    assert searched == [(10, 2), (10, 3), (2, 3)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_programs(), st.integers(1, 3), st.data())
def test_region_solver_equals_the_vertex_solver_on_programs(cfg, k, data):
    _assert_solvers_agree(cfg, k, data)


@st.composite
def small_programs_with_jumps(draw):
    """Control-flow graphs of at most 13 vertices from with_jumps programs."""
    seed = draw(st.integers(0, 10**6))
    while True:
        cfg, _ = cfg_from_source(with_jumps(random.Random(seed)))
        if cfg.n_vertices <= 13:
            return cfg
        seed += 1


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_programs_with_jumps(), st.integers(1, 3), st.data())
def test_region_solver_equals_the_vertex_solver_on_programs_with_jumps(cfg, k, data):
    _assert_solvers_agree(cfg, k, data)


# -- solver-backed players ------------------------------------------------------------


def test_optimal_robber_escapes_two_cops_on_fixture():
    cfg, _ = two_loop_cfg()
    cops = OptimalCops(cfg, 2)
    robber = OptimalRobber(cfg, 2, solver=cops.solver)
    trace = play_game(cfg, cops, robber, max_rounds=200)
    assert trace.outcome == "RobberWins(cutoff)"
    assert trace.rounds() == 200


def test_optimal_robber_finds_an_eternal_refuge():
    """Against two monotone cops the robber either keeps switching regions
    or settles on ground the cops may never touch again."""
    cfg, _ = two_loop_cfg()
    cops = OptimalCops(cfg, 2)
    robber = OptimalRobber(cfg, 2, solver=cops.solver)
    trace = play_game(cfg, cops, robber, max_rounds=120)
    assert trace.outcome == "RobberWins(cutoff)"
    visited = {s.robber for s in trace.steps}
    toggled = bool(visited & {5, 6, 7}) and bool(visited & {9, 10, 11})
    seated_on_vacated = trace.steps[-1].robber in robber.vacated
    assert toggled or seated_on_vacated


# Graphs with their cop number k, at which OptimalCops has a winning move.
COP_NUMBER_GRAPHS = {
    "two-loop": (lambda: two_loop_cfg()[0], 3),
    "while-if-else": (lambda: cfg_from_source("while c { if p { a; } else { b; } } d;")[0], 2),
}


@pytest.mark.parametrize("robber", ["optimal", "lazy"])
@pytest.mark.parametrize("name", list(COP_NUMBER_GRAPHS))
def test_optimal_cops_catch_both_robbers_at_the_cop_number(name, robber):
    make, k = COP_NUMBER_GRAPHS[name]
    cfg = make()
    assert brute_force_cop_number(cfg) == k
    cops = OptimalCops(cfg, k)
    runner = OptimalRobber(cfg, k, solver=cops.solver) if robber == "optimal" else LazyRobber(cfg)
    trace = play_game(cfg, cops, runner)
    assert trace.outcome == "CopsWin"
    assert check_cop_monotone(trace)


def test_guard_strategy_beats_optimal_robber_on_fixture():
    cfg, forest = two_loop_cfg()
    trace = play_game(cfg, LoopGuardStrategy(cfg, forest), OptimalRobber(cfg, 3))
    assert trace.outcome == "CopsWin"
    assert check_cop_monotone(trace)


@pytest.mark.parametrize("seed", [3, 11, 17, 29])
def test_guard_strategy_beats_optimal_robber_on_small_programs(seed):
    cfg, forest, _ = pipeline(generate_random_program(seed, 9))
    trace = play_game(cfg, LoopGuardStrategy(cfg, forest), OptimalRobber(cfg, 3))
    assert trace.outcome == "CopsWin"
    assert check_cop_monotone(trace)


# -- trace bookkeeping ------------------------------------------------------------------


def test_trace_json_shape():
    cfg, forest = two_loop_cfg()
    trace = play_game(cfg, LoopGuardStrategy(cfg, forest), LazyRobber(cfg, start=0))
    data = trace.to_json_dict()
    assert data["outcome"] == "CopsWin"
    assert data["steps"][0] == {"cops": [], "robber": 0, "note": "1"}
    assert all(set(s) == {"cops", "robber", "note"} for s in data["steps"])


def test_monotone_checker_flags_revisits():
    trace_steps = [
        ((None, None, None), 5, "1"),
        ((1, None, None), 5, "x"),
        ((2, None, None), 5, "x"),
        ((1, None, None), 5, "x"),  # cop returns to vertex 1
    ]
    from cfgdag.game import GameTrace, TraceStep

    trace = GameTrace(steps=[TraceStep(*s) for s in trace_steps], outcome="RobberWins(cutoff)")
    assert not check_cop_monotone(trace)
    assert cop_monotone_violations(trace) == [(1, 3)]


def test_monotone_checker_accepts_short_traces():
    from cfgdag.game import GameTrace, TraceStep

    assert check_cop_monotone(GameTrace(steps=[], outcome="RobberWins(cutoff)"))
    one = GameTrace(steps=[TraceStep((None, None, None), 4, "1")], outcome="RobberWins(cutoff)")
    assert check_cop_monotone(one)
