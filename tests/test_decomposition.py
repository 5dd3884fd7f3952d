import gc
import json
import random
import time
import tracemalloc
from operator import lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import (
    ControlFlowGraph,
    DagDecomposition,
    FormulaSkeleton,
    LazyRobber,
    LoopForest,
    LoopGuardStrategy,
    NotStructuredError,
    OptimalRobber,
    assign_owners,
    build_decomposition,
    build_product_game,
    cfg_from_source,
    compute_dominators,
    generate_random_program,
    lift_decomposition,
    loop_regions,
    partition_edges,
    play_game,
    recover_loop_forest,
    two_loop_cfg,
    validate_cfg_decomposition,
)
from cfgdag import decomposition
from cfgdag._graph import postorder
from helpers import (
    IRREDUCIBLE_CFG_JSON,
    TWO_LOOP_FOREST_JSON,
    decomposition_by_entry_lists,
    decomposition_json_dict,
    partition_edges_by_entry_lists,
    pipeline,
    relabelled,
    toposort,
    with_jumps,
)


def by_label(cfg):
    return {cfg.labels[v]: v for v in cfg.vertex_ids()}


# -- edge partition -----------------------------------------------------------


def test_loop_free_all_plain():
    cfg, forest, _ = pipeline("a; if c { b; } d;")
    part = partition_edges(cfg, forest)
    cats = part.categories()
    assert sorted(cats["plain"]) == sorted(cfg.edges())
    assert not cats["backward"] and not cats["into_exit"] and not cats["into_entry"]


def test_while_partition():
    cfg, forest, _ = pipeline("while c { b; }")
    ids = by_label(cfg)
    cats = partition_edges(cfg, forest).categories()
    assert cats["backward"] == [(ids["b"], ids["c"])]
    assert cats["into_exit"] == [(ids["c"], ids["exit(c)"])]
    assert cats["into_entry"] == [(ids["start"], ids["c"])]


def test_fixture_partition():
    cfg, forest = two_loop_cfg()
    cats = partition_edges(cfg, forest).categories()
    assert set(cats["backward"]) == {(7, 5), (11, 9), (8, 1), (12, 1)}
    assert set(cats["into_entry"]) >= {(2, 5), (2, 9), (0, 1)}
    assert (2, 3) in cats["into_exit"]


def test_partition_is_a_partition():
    for seed in range(40):
        cfg, forest, _ = pipeline(generate_random_program(seed, 70))
        cats = partition_edges(cfg, forest).categories()
        combined = [e for group in cats.values() for e in group]
        assert len(combined) == cfg.n_edges
        assert len(set(combined)) == len(combined)


def test_partition_rejects_entry_exit_collision():
    cfg, forest, _ = pipeline("while c { b; }")
    (elem,) = forest.elements
    elem.exit = elem.entry  # forge a vertex serving as both
    with pytest.raises(NotStructuredError, match="both"):
        partition_edges(cfg, forest)


def test_an_edge_into_an_entry_from_a_loop_inside_it_is_plain():
    """Loop (2, 4) nests in loop (1, 5), and 3, in the inner loop, jumps to
    the outer entry: no structured program has that edge, so it is not
    re-routed, and the arcs keep the cycle it closes."""
    graph = {
        "vertices": [{"id": v, "label": f"v{v}"} for v in range(7)],
        "edges": [{"from": u, "to": v, "kind": "out"} for u, v in
                  [(0, 1), (1, 2), (2, 3), (3, 2), (3, 1), (2, 4), (4, 1), (1, 5), (5, 6)]],
        "start": 0,
        "stop": 6,
    }
    cfg = ControlFlowGraph.from_json_dict(graph)
    given = LoopForest.from_json_dict({"loops": [{"entry": 1, "exit": 5, "parent": None},
                                                 {"entry": 2, "exit": 4, "parent": 0}]})
    forest = assign_owners(cfg, compute_dominators(cfg), given)
    cats = partition_edges(cfg, forest).categories()
    assert (3, 1) in cats["plain"]
    assert cats["into_entry"] == [(0, 1), (1, 2)]
    with pytest.raises(NotStructuredError, match="cycle"):
        build_decomposition(cfg, forest)


@st.composite
def built_or_recovered(draw):
    """The builder's forest of a random program, plain or contracted, or
    the forest recovered from the CFG JSON of a with_jumps program."""
    if draw(st.booleans()):
        src = generate_random_program(draw(st.integers(0, 10**6)), draw(st.integers(1, 60)))
        cfg, forest, _ = pipeline(src, contract=draw(st.booleans()))
        return cfg, forest
    built, _ = cfg_from_source(with_jumps(random.Random(draw(st.integers(0, 10**6)))))
    cfg = ControlFlowGraph.from_json(built.to_json())
    return cfg, recover_loop_forest(cfg, compute_dominators(cfg))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(built_or_recovered())
def test_one_loop_per_entry_partitions_as_the_entry_lists_do(drawn):
    """Every part of the partition, each re-routed edge's loop included,
    and the decomposition's JSON equal what the list of loops at each entry
    gives, searched for the outermost loop entered from outside."""
    cfg, forest = drawn
    assert partition_edges(cfg, forest) == partition_edges_by_entry_lists(cfg, forest)
    assert build_decomposition(cfg, forest).to_json() == decomposition_by_entry_lists(cfg, forest).to_json()


def test_irreducible_graph_is_not_structured():
    cfg = ControlFlowGraph.from_json_dict(IRREDUCIBLE_CFG_JSON)
    forest = recover_loop_forest(cfg, compute_dominators(cfg))
    assert forest.elements == []  # neither entry of the cycle dominates the other
    with pytest.raises(NotStructuredError, match="cycle"):
        build_decomposition(cfg, forest)


# -- the construction -----------------------------------------------------------


def test_loop_free_decomposition_is_the_graph():
    cfg, forest, _ = pipeline("a; if c { b; } d;")
    d = build_decomposition(cfg, forest)
    assert sorted(d.arcs) == sorted(cfg.edges())
    assert all(set(d.bags[v]) == frozenset([v]) for v in d.nodes)
    assert d.width() == 1


def test_while_decomposition():
    cfg, forest, _ = pipeline("while c { b; }")
    ids = by_label(cfg)
    d = build_decomposition(cfg, forest)
    start, c, b, x, stop = ids["start"], ids["c"], ids["b"], ids["exit(c)"], ids["stop"]
    assert sorted(d.arcs) == sorted([(start, x), (x, c), (c, b), (x, stop)])
    assert set(d.bags[c]) == frozenset({c, x})
    assert set(d.bags[b]) == frozenset({b, c, x})
    assert d.width() == 3


def test_single_loop_program_width_three():
    for src in ("while c { b; }", "do { a; } while c;", "while c { a; b; d; }"):
        cfg, forest, _ = pipeline(src)
        assert build_decomposition(cfg, forest).width() == 3


def test_fixture_decomposition_valid_width_three():
    cfg, forest = two_loop_cfg()
    d = build_decomposition(cfg, forest)
    assert d.width() == 3
    report = validate_cfg_decomposition(d, cfg)
    assert report.valid and report.d3_original


def test_node_and_arc_counts():
    for seed in range(40):
        cfg, forest, _ = pipeline(generate_random_program(seed, 80))
        d = build_decomposition(cfg, forest)
        assert len(d.nodes) == cfg.n_vertices
        assert len(d.arcs) <= cfg.n_edges


def test_every_arc_introduces_exactly_its_node():
    for seed in range(40):
        cfg, forest, _ = pipeline(generate_random_program(seed, 80))
        d = build_decomposition(cfg, forest)
        for i, j in d.arcs:
            assert set(d.bags[j]) - set(d.bags[i]) == frozenset([j]), (seed, i, j)


def test_decomposition_acyclic_on_many_programs():
    for seed in range(60):
        cfg, forest, _ = pipeline(generate_random_program(seed, 100))
        d = build_decomposition(cfg, forest)
        assert toposort(sorted(d.nodes), d.successors()) is not None


def test_arcs_under_builder_and_recovered_forests_climb_the_rank(monkeypatch):
    """The rank certificate alone proves the arcs acyclic, without the DFS,
    under the builder's forest and the recovered one of 300 random and 300
    with_jumps programs."""
    def no_dfs(*args):
        raise AssertionError("an arc does not climb the rank")

    monkeypatch.setattr(decomposition, "postorder", no_dfs)
    sources = [generate_random_program(seed, 1 + seed % 60) for seed in range(300)]
    sources += [with_jumps(random.Random(seed)) for seed in range(300)]
    for source in sources:
        cfg, forest = cfg_from_source(source)
        build_decomposition(cfg, forest)
        build_decomposition(cfg, recover_loop_forest(cfg, compute_dominators(cfg)))


@st.composite
def built_recovered_or_relabelled(draw):
    """What built_or_recovered draws, or a random program's CFG JSON with its
    vertex ids permuted under the recovered forest, whose arcs mostly fail
    the rank certificate."""
    if draw(st.booleans()):
        return draw(built_or_recovered())
    source = generate_random_program(draw(st.integers(0, 10**6)), draw(st.integers(1, 40)))
    data = json.loads(cfg_from_source(source)[0].to_json())
    ids = [rec["id"] for rec in data["vertices"]]
    cfg = ControlFlowGraph.from_json_dict(relabelled(data, dict(zip(ids, draw(st.permutations(ids))))))
    return cfg, recover_loop_forest(cfg, compute_dominators(cfg))


def test_plain_arcs_are_the_graphs_own_edge_tuples(monkeypatch):
    """The arc of each plain edge is the tuple that keys the edge in the
    graph, not a copy, and the arcs ascend strictly, whether the rank
    certificate holds or the DFS decides."""
    fallbacks = []

    def counted_postorder(*args):
        fallbacks.append(args)
        return postorder(*args)

    monkeypatch.setattr(decomposition, "postorder", counted_postorder)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(built_recovered_or_relabelled())
    def check(drawn):
        cfg, forest = drawn
        arcs = build_decomposition(cfg, forest).arcs
        plain = set(partition_edges(cfg, forest).plain)
        own = set(map(id, cfg.edges()))
        from_plain = [a for a in arcs if a in plain]
        assert len(from_plain) == len(plain)
        assert from_plain == [a for a in arcs if id(a) in own]
        assert all(map(lt, arcs, arcs[1:]))

    check()
    assert len(fallbacks) > 20


def hand_built(n: int, edges, loops) -> tuple[ControlFlowGraph, LoopForest]:
    """The graph on vertices 0 .. n-1, start 0 and stop n-1, filled by
    add_vertex and add_edge in the order given, under the given loops."""
    cfg = ControlFlowGraph()
    for v in range(n):
        cfg.add_vertex(f"v{v}")
    cfg.start, cfg.stop = 0, n - 1
    for u, v in edges:
        cfg.add_edge(u, v)
    given = LoopForest.from_json_dict({"loops": [{"entry": entry, "exit": exit_, "parent": None}
                                                 for entry, exit_ in loops]})
    return cfg, assign_owners(cfg, compute_dominators(cfg), given)


@pytest.mark.parametrize("order", [1, -1], ids=["edges-in-id-order", "edges-reversed"])
@pytest.mark.parametrize("n,edges,loops,twice", [
    # 2 and 3 both enter the loop at 4: each re-routed edge makes (6, 4).
    (8, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 4), (4, 6), (6, 7)], [(4, 6)], (6, 4)),
    # 1 goes to the loop's entry 2 and to its exit 4: (1, 4) is plain and re-routed.
    (6, [(0, 1), (1, 2), (1, 4), (2, 3), (3, 2), (2, 4), (4, 5)], [(2, 4)], (1, 4)),
], ids=["two-tails-enter-one-loop", "one-tail-to-entry-and-exit"])
def test_an_arc_made_twice_is_kept_once(n, edges, loops, twice, order):
    cfg, forest = hand_built(n, edges[::order], loops)
    d = build_decomposition(cfg, forest)
    expected = decomposition_by_entry_lists(cfg, forest)
    assert d.arcs.count(twice) == 1
    assert d.arcs == sorted(expected.arcs)
    assert d.to_json() == expected.to_json()


def test_the_construction_allocates_little_beyond_what_it_keeps():
    """At 10^5 statements the peak that build_decomposition traces above
    what its result keeps stays under half of that result: the arcs reuse
    the graph's edge tuples, and no tail buckets or rank of every vertex
    are made along the way."""
    cfg, forest = cfg_from_source(generate_random_program(424242, 10**5))
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        decomp = build_decomposition(cfg, forest)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(decomp.nodes) == cfg.n_vertices
    assert peak - kept < kept / 2, (peak, kept)


def ascending(bags: dict) -> bool:
    """Is every bag a strictly ascending tuple?"""
    return all(type(bag) is tuple and all(map(lt, bag, bag[1:])) for bag in bags.values())


def test_built_and_lifted_bags_are_strictly_ascending_tuples():
    sources = [generate_random_program(seed, 60) for seed in range(30)]
    sources += [with_jumps(random.Random(seed)) for seed in range(30)]
    for k, source in enumerate(sources):
        cfg, forest, dom = pipeline(source)
        for f in (forest, recover_loop_forest(cfg, dom)):
            d = build_decomposition(cfg, f)
            assert ascending(d.bags), source
            game = build_product_game(cfg, FormulaSkeleton.chain(1 + k % 4), seed=k)
            assert ascending(lift_decomposition(d, game).bags), source


def test_infinite_loop_decomposition():
    cfg, forest, _ = pipeline("while 1 { a; }")
    d = build_decomposition(cfg, forest)
    assert d.width() == 2  # no exit vertex survives, bags are {v, entry}
    assert validate_cfg_decomposition(d, cfg).valid


def test_loop_exited_only_by_break():
    cfg, forest, _ = pipeline("while 1 { a; if c { break; } b; }")
    d = build_decomposition(cfg, forest)
    assert d.width() == 3
    assert validate_cfg_decomposition(d, cfg).valid


def test_deep_nesting_stays_width_three():
    src = "while a { b0; while b { b1; while c { b2; while d { b3; } } } }"
    cfg, forest, _ = pipeline(src)
    d = build_decomposition(cfg, forest)
    assert d.width() == 3
    assert validate_cfg_decomposition(d, cfg).valid


@pytest.mark.parametrize(
    "src,loops,width",
    [
        ("do { break; } while x;  a;", 0, 1),   # body never reaches the condition
        ("do { continue; } while x;", 1, 2),    # entry falls back to the condition
        ("while 0 { a; } b;", 0, 1),            # body unreachable: no edge closes it
        ("do { a; } while 0;  b;", 0, 1),       # runs exactly once: no edge closes it
        ("while 1 { if p { break; } q; } r;", 1, 3),  # exit reachable only via break
        ("do { while p { q; } } while x; z;", 2, 3),  # skip vertex keeps entries apart
        ("do { do { a; } while b; } while x; z;", 2, 3),
    ],
)
def test_degenerate_loops_stay_valid(src, loops, width):
    cfg, forest, _ = pipeline(src)
    d = build_decomposition(cfg, forest)
    assert len(forest.elements) == loops
    assert d.width() == width
    assert validate_cfg_decomposition(d, cfg).valid


def test_contracted_graphs_decompose_too():
    for seed in range(25):
        cfg, forest, _ = pipeline(generate_random_program(seed, 80), contract=True)
        d = build_decomposition(cfg, forest)
        assert d.width() <= 3
        assert validate_cfg_decomposition(d, cfg).valid, seed


# -- serialization ----------------------------------------------------------------


def test_decomposition_json_round_trip():
    cfg, forest, _ = pipeline("while c1 { while c2 { a; } b; }")
    d = build_decomposition(cfg, forest)
    text = d.to_json()
    again = DagDecomposition.from_json(text)
    assert again.to_json() == text
    data = decomposition_json_dict(again)
    assert json.loads(text) == data
    assert set(data) == {"nodes", "arcs", "bags"}


def written_by_json_dumps(decomp) -> str:
    return json.dumps(decomposition_json_dict(decomp), indent=2) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.builds(generate_random_program, st.integers(0, 10**6), st.integers(1, 60)),
       st.integers(1, 5))
@example("while c { }", 5)
def test_json_of_constructions_and_their_lifts_is_what_json_dumps_writes(source, m):
    cfg, forest, _ = pipeline(source)
    d = build_decomposition(cfg, forest)
    assert d.to_json() == written_by_json_dumps(d)
    lifted = lift_decomposition(d, build_product_game(cfg, FormulaSkeleton.chain(m), seed=m))
    assert lifted.width() == m * d.width()  # bags of up to 15 at m = 5
    assert lifted.to_json() == written_by_json_dumps(lifted)


@st.composite
def decomposition_json(draw):
    """Decomposition JSON with nodes and arcs in any order, empty bags, repeated
    bag members and arcs, and ids of any sign and size."""
    ids = st.one_of(st.integers(-5, 40), st.integers(-(10**30), 10**30))
    nodes = draw(st.lists(ids, unique=True, max_size=12))
    arcs = draw(st.lists(st.lists(st.sampled_from(nodes), min_size=2, max_size=2),
                         max_size=20)) if nodes else []
    return {"nodes": nodes, "arcs": arcs,
            "bags": {str(n): draw(st.lists(ids, max_size=16)) for n in draw(st.permutations(nodes))}}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(decomposition_json())
@example({"nodes": [], "arcs": [], "bags": {}})
@example({"nodes": [7, 2], "arcs": [[7, 2], [2, 7], [7, 2]], "bags": {"2": [], "7": [9, 9, -1, 8]}})
def test_json_of_loaded_decompositions_is_what_json_dumps_writes(data):
    d = DagDecomposition.from_json(json.dumps(data))
    assert d.to_json() == written_by_json_dumps(d)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(decomposition_json())
@example({"nodes": [7, 2], "arcs": [], "bags": {"2": [5, 5, 5], "7": [9, 9, -1, 8, -1]}})
def test_loaded_bags_are_strictly_ascending_tuples_of_their_members(data):
    d = DagDecomposition.from_json_dict(data)
    assert ascending(d.bags)
    assert {n: set(bag) for n, bag in d.bags.items()} == {int(k): set(v) for k, v in data["bags"].items()}


def test_decomposition_dot_contains_bags():
    cfg, forest, _ = pipeline("while c { b; }")
    d = build_decomposition(cfg, forest)
    dot = d.to_dot()
    assert "digraph" in dot and "{1,3}" in dot.replace(", ", ",")


# -- membership from the owner map alone --------------------------------------------

# A second backward edge, from a continue inside a branch.
CONTINUE_SRC = "while p { a; if q { continue; } b; }"
ORDER_SOURCES = [CONTINUE_SRC, "while c1 { while c2 { a; } b; } d;",
                 *(generate_random_program(seed, 60) for seed in range(10))]


def _recovered(src):
    cfg, _ = cfg_from_source(src)
    return cfg, recover_loop_forest(cfg, compute_dominators(cfg))


def _given(src):
    cfg, forest = cfg_from_source(src)
    given = LoopForest.from_json_dict(forest.to_json_dict())
    return cfg, assign_owners(cfg, compute_dominators(cfg), given)


FOREST_ROUTES = {"source": cfg_from_source, "recovered": _recovered, "given": _given}


def _cops_win(cfg, forest):
    games = [LazyRobber(cfg, start=v) for v in sorted({cfg.start, max(cfg.vertex_ids())})]
    if cfg.n_vertices <= 20:
        games.append(OptimalRobber(cfg, 3))
    return all(play_game(cfg, LoopGuardStrategy(cfg, forest), robber).outcome == "CopsWin"
               for robber in games)


@pytest.mark.parametrize("route", FOREST_ROUTES)
def test_a_forest_needs_no_loop_regions_call(route):
    make = FOREST_ROUTES[route]
    for src in ORDER_SOURCES:
        cfg, fresh = make(src)
        checked = loop_regions(*make(src))
        assert (partition_edges(cfg, fresh).categories()
                == partition_edges(cfg, checked).categories()), src
        decomp = build_decomposition(cfg, fresh)
        assert decomp.width() <= 3 and validate_cfg_decomposition(decomp, cfg).valid, src
        assert _cops_win(cfg, fresh), src
    if route == "source":
        return  # no source program builds the two-loop graph
    graph, _ = two_loop_cfg()
    dom = compute_dominators(graph)
    forest = (assign_owners(graph, dom, LoopForest.from_json_dict(TWO_LOOP_FOREST_JSON))
              if route == "given" else recover_loop_forest(graph, dom))
    assert _cops_win(graph, forest)


@pytest.mark.parametrize("source", [
    "while c { " * 10**4 + "a;" + " }" * 10**4,
    "do { " * 10**4 + "a;" + " } while c;" * 10**4,
], ids=["while", "do"])
def test_partition_is_linear_in_the_nesting_depth(source):
    """partition_edges asks LoopForest.contains once per loop entry. A walk
    from the entry's predecessor up to the root would make that quadratic
    in the depth; at depth 10^4 the partition takes less time than building
    the graph. Best of three, with the collector paused as the CLI runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        build = partition = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            cfg, forest = cfg_from_source(source)
            t1 = time.perf_counter()
            partition_edges(cfg, forest)
            t2 = time.perf_counter()
            build, partition = min(build, t1 - t0), min(partition, t2 - t1)
    finally:
        if enabled:
            gc.enable()
    assert partition < build, (partition, build)
