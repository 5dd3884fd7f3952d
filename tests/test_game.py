import pytest

from cfgdag import (
    IllegalMoveError,
    LazyRobber,
    LoopGuardStrategy,
    OptimalCops,
    OptimalRobber,
    PursuitSolver,
    brute_force_cop_number,
    build_decomposition,
    check_cop_monotone,
    cop_monotone_violations,
    distance_to_exit,
    exit_distances,
    generate_random_program,
    play_game,
    two_loop_cfg,
)
from helpers import dist_by_enumeration, pipeline

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
    body = next(v for v in elem.inside if v != elem.entry)
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
    for v in inner.inside:
        assert dists[v] == dists[inner.exit], cfg.labels[v]


@pytest.mark.parametrize("seed", range(30))
def test_distance_matches_enumeration_oracle(seed):
    cfg, forest, _ = pipeline(generate_random_program(seed, 14))
    for elem in forest.elements:
        if len(elem.inside) + 1 > 8:
            continue
        dists = exit_distances(cfg, forest, elem)
        for v in elem.inside:
            assert dists[v] == dist_by_enumeration(cfg, elem, v), (seed, v)


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
            assert r_after in loop.inside or r_after == cfg.stop  # confinement
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
            if r_before in loop.belongs and r_after != r_before:
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
        if start == cfg.stop and not cfg.stop_reachable:
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


def test_budget_error_reports_partial_bound():
    cfg, _ = two_loop_cfg()
    from cfgdag import SearchBudgetError

    with pytest.raises(SearchBudgetError, match="cop number > 1"):
        brute_force_cop_number(cfg, 4, max_states=200)


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


def test_guard_strategy_beats_optimal_robber_on_fixture():
    cfg, forest = two_loop_cfg()
    trace = play_game(cfg, LoopGuardStrategy(cfg, forest), OptimalRobber(cfg, 3))
    assert trace.outcome == "CopsWin"
    assert check_cop_monotone(trace)


@pytest.mark.parametrize("seed", [3, 11, 17, 29])
def test_guard_strategy_beats_optimal_robber_on_small_programs(seed):
    cfg, forest, _ = pipeline(generate_random_program(seed, 9))
    if cfg.n_vertices > 11:
        pytest.skip("solver state space")
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
    from cfgdag import GameTrace, TraceStep

    trace = GameTrace(steps=[TraceStep(*s) for s in trace_steps], outcome="RobberWins(cutoff)")
    assert not check_cop_monotone(trace)
    assert cop_monotone_violations(trace) == [(1, 3)]


def test_monotone_checker_accepts_short_traces():
    from cfgdag import GameTrace, TraceStep

    assert check_cop_monotone(GameTrace(steps=[], outcome="RobberWins(cutoff)"))
    one = GameTrace(steps=[TraceStep((None, None, None), 4, "1")], outcome="RobberWins(cutoff)")
    assert check_cop_monotone(one)
