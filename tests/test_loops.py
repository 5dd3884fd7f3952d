import functools
import gc
import random
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import (
    ControlFlowGraph,
    EdgeKind,
    LoopForest,
    NotStructuredError,
    assign_owners,
    build_decomposition,
    cfg_from_source,
    compute_dominators,
    contract_basic_blocks,
    generate_random_program,
    loop_regions,
    parse_program,
    partition_edges,
    prune_unreachable,
    recover_loop_forest,
    two_loop_cfg,
    validate_cfg_decomposition,
)
from cfgdag.loops import LoopForestJsonError
from helpers import (
    TWO_LOOP_FOREST_JSON,
    TWO_LOOP_OWNERS,
    build_unpruned,
    check_cycle_corollary,
    dominance_backward,
    dominator_regions,
    dominators_by_iteration,
    dominators_by_paths,
    owner_regions,
    pipeline,
    post_dominates,
    post_dominator_tree,
    recover_loop_forest_by_bodies,
    restricted_to,
    simple_cycles,
    with_jumps,
)
from test_golden import PROGRAMS


def by_label(cfg):
    return {cfg.labels[v]: v for v in cfg.vertex_ids()}


# -- loop ends ----------------------------------------------------------------


@st.composite
def loop_end_forests(draw):
    """Up to six loops, each nested in an earlier one or in the root, with
    entries and exits drawn from five vertices, so ends often repeat."""
    forest = LoopForest()
    for _ in range(draw(st.integers(0, 6))):
        elem = forest.new_element(draw(st.sampled_from([forest.phi, *forest.elements])))
        elem.entry, elem.exit = draw(st.integers(0, 4)), draw(st.none() | st.integers(0, 4))
    return forest


@settings(derandomize=True, max_examples=300, deadline=None)
@given(loop_end_forests())
def test_ends_raises_exactly_when_a_vertex_ends_two_loops_or_is_entry_and_exit(forest):
    entries = [e.entry for e in forest.elements]
    exits = [e.exit for e in forest.elements if e.exit is not None]
    faults = ({f"vertex {v} is the entry of two loop elements" for v in entries if entries.count(v) > 1}
              | {f"vertex {v} is the exit of two loop elements" for v in exits if exits.count(v) > 1}
              | {f"vertex {v} is both a loop entry and a loop exit" for v in set(entries) & set(exits)})
    if faults:
        with pytest.raises(NotStructuredError) as err:
            forest.ends()
        assert str(err.value) in faults
    else:
        assert forest.ends() == ({e.entry: e for e in forest.elements},
                                 {e.exit: e for e in forest.elements if e.exit is not None})


# -- dominators ---------------------------------------------------------------


def test_chain_dominators():
    cfg, _ = cfg_from_source("a;")
    dom = compute_dominators(cfg)
    ids = by_label(cfg)
    assert dom.idom[ids["a"]] == ids["start"]
    assert dom.idom[ids["stop"]] == ids["a"]


def test_diamond_dominators():
    cfg, _ = cfg_from_source("if c { a; } else { b; } ")
    dom = compute_dominators(cfg)
    ids = by_label(cfg)
    assert dom.idom[ids["stop"]] == ids["c"]  # neither branch dominates the join
    assert dom.dominates(ids["c"], ids["a"])
    assert not dom.dominates(ids["a"], ids["stop"])


def test_while_condition_dominates_body_and_exit():
    cfg, _ = cfg_from_source("while c { b; }")
    dom = compute_dominators(cfg)
    ids = by_label(cfg)
    assert dom.dominates(ids["c"], ids["b"])
    assert dom.dominates(ids["c"], ids["exit(c)"])


@pytest.mark.parametrize("seed", range(25))
def test_dominators_match_path_enumeration_oracle(seed):
    cfg, _ = cfg_from_source(generate_random_program(seed, 9))
    if cfg.n_vertices > 14:
        pytest.skip("oracle too slow")
    dom = compute_dominators(cfg)
    oracle = dominators_by_paths(cfg)
    for v in cfg.vertex_ids():
        if oracle[v] is None:
            assert v == cfg.stop and v not in cfg.reachable_from(cfg.start)
            continue
        for u in cfg.vertex_ids():
            if oracle[u] is not None:
                assert dom.dominates(u, v) == (u in oracle[v]), (u, v)


def test_unreachable_vertex_rejected():
    ast = parse_program("a; return; b;")
    cfg, _ = build_unpruned(ast)
    with pytest.raises(ValueError, match="prune"):
        compute_dominators(cfg)


def test_post_dominators_ignore_return_edges():
    cfg, forest, _ = pipeline("while c { if x { return; } a; } d;")
    pdom = post_dominator_tree(cfg)
    ids = by_label(cfg)
    (elem,) = forest.elements
    # ignoring the return edge, the loop exit post-dominates the whole inside
    for v in owner_regions(forest)[elem][1]:
        assert post_dominates(pdom, elem.exit, v), cfg.labels[v]
    assert post_dominates(pdom, ids["stop"], ids["a"])


def _graph(n, edges, stop):
    cfg = ControlFlowGraph()
    for v in range(n):
        cfg.add_vertex(f"v{v}", v)
    for u, v, kind in edges:
        cfg.add_edge(u, v, kind)
    cfg.start, cfg.stop = 0, stop
    return cfg


@st.composite
def digraphs(draw):
    """Every vertex but stop reachable from start 0 by a random tree; extra
    edges of any kind run in any direction, so a cycle can have several
    entries, but a return edge ends at stop, as CFG JSON requires. stop is
    reached by an ordinary edge, not at all, or only by return edges."""
    n = draw(st.integers(2, 40))
    stop = n - 1
    jumps = st.sampled_from([k for k in EdgeKind if k is not EdgeKind.STOP])
    edges = [(draw(st.integers(0, v - 1)), v, draw(jumps)) for v in range(1, stop)]
    extra = draw(st.lists(st.tuples(st.integers(0, stop), st.integers(0, stop),
                                    st.sampled_from(EdgeKind)), max_size=n))
    edges += [(u, stop if k is EdgeKind.STOP else v, k) for u, v, k in extra]
    into_stop = draw(st.sampled_from(["ordinary", "none", "returns"]))
    edges = [e for e in edges if e[1] != stop or into_stop == "ordinary"]
    if into_stop != "none":
        tails = draw(st.lists(st.integers(0, stop - 1), min_size=1, max_size=3))
        kind = EdgeKind.OUT if into_stop == "ordinary" else EdgeKind.STOP
        edges += [(u, stop, kind) for u in tails]
    return _graph(n, edges, stop)


@st.composite
def programs(draw):
    src = generate_random_program(draw(st.integers(0, 10**6)), draw(st.integers(1, 60)))
    cfg, forest = cfg_from_source(src)
    return contract_basic_blocks(cfg, forest) if draw(st.booleans()) else cfg


# two entries into the cycle 1 <-> 2
@example(_graph(4, [(0, 1, "out"), (0, 2, "out"), (1, 2, "out"), (2, 1, "out"), (2, 3, "out")], 3))
# idom(5) needs a semidominator carried down a compressed path
@example(_graph(6, [(0, 1, "out"), (0, 2, "out"), (0, 3, "out"), (3, 4, "out"), (4, 5, "out"),
                    (1, 5, "out"), (4, 2, "out")], 5))
# stop reached only by return edges, and not at all
@example(_graph(3, [(0, 1, "out"), (1, 2, "stop"), (0, 2, "stop")], 2))
@example(_graph(3, [(0, 1, "out"), (1, 0, "out"), (2, 1, "out")], 2))
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(programs(), digraphs()))
def test_dominators_equal_the_iterative_oracle(cfg):
    """Both trees equal the Cooper-Harvey-Kennedy fixed point's, and the
    dominance queries equal ancestry in them. The post-dominator tree is
    the one the per-head bodies oracle reads: Semi-NCA from stop over the
    reversed graph without return edges. A graph whose unreachable stop has
    an out-edge is refused, and its pruned graph compared."""
    if cfg.stop not in cfg.reachable_from(cfg.start) and cfg.successors(cfg.stop):
        with pytest.raises(ValueError, match=rf"unreachable vertices \[{cfg.stop}\]; prune"):
            compute_dominators(cfg)
        cfg = prune_unreachable(cfg)
    dom = compute_dominators(cfg)
    pdom = post_dominator_tree(cfg)
    idom, ipdom = dominators_by_iteration(cfg)
    assert dom.idom == idom
    assert pdom[0] == ipdom
    for tree, holds in ((idom, dom.dominates), (ipdom, functools.partial(post_dominates, pdom))):
        for v in tree:
            above, x = {v}, v
            while tree[x] != x:
                x = tree[x]
                above.add(x)
            for u in tree:
                assert holds(u, v) == (u in above), (u, v)


def test_dominators_of_a_deep_graph_need_no_recursion():
    # start 0 -> 1 -> 2 -> ... -> n-1 -> stop n, a back edge n-1 -> 1 and a
    # branch 1 -> n-1 that skips the chain: both trees are ~n deep.
    n = 10**5
    assert sys.getrecursionlimit() < n
    edges = [(v, v + 1, "out") for v in range(n)] + [(n - 1, 1, "out"), (1, n - 1, "out")]
    cfg = _graph(n + 1, edges, n)
    dom, pdom = compute_dominators(cfg), post_dominator_tree(cfg)
    chain = range(2, n - 1)
    assert dom.idom == {0: 0, 1: 0, **{v: v - 1 for v in chain}, n - 1: 1, n: n - 1}
    assert pdom[0] == {n: n, n - 1: n, **{v: v + 1 for v in chain}, 1: n - 1, 0: 1}
    assert dom.dominates(1, n) and not dom.dominates(n // 2, n - 1)
    assert post_dominates(pdom, n - 1, 0) and not post_dominates(pdom, n // 2, 1)


# -- regions ------------------------------------------------------------------


def test_loop_free_program_belongs_to_root():
    cfg, forest, _ = pipeline("a; if c { b; } d;")
    assert forest.elements == []
    assert owner_regions(forest)[forest.phi][0] == set(cfg.vertex_ids())


def test_while_regions():
    cfg, forest, _ = pipeline("while c { b; }")
    ids = by_label(cfg)
    (elem,) = forest.elements
    regions = owner_regions(forest)
    assert regions[elem] == ({ids["c"], ids["b"]}, {ids["c"], ids["b"]})
    assert regions[forest.phi][0] == {ids["start"], ids["exit(c)"], ids["stop"]}


def test_loop_regions_refuse_an_owner_map_with_a_hole():
    cfg, forest = cfg_from_source("while c { a; }")
    del forest.owner[2]
    with pytest.raises(ValueError, match=r"^no loop owner for vertices \[2\]$"):
        loop_regions(cfg, forest)


def test_entry_inside_exit_outside():
    for seed in range(30):
        cfg, forest, _ = pipeline(generate_random_program(seed, 60))
        regions = owner_regions(forest)
        for elem in forest.elements:
            inside = regions[elem][1]
            assert elem.entry in inside
            assert elem.exit is None or elem.exit not in inside


def test_belongs_partition():
    for seed in range(40):
        cfg, forest, dom = pipeline(generate_random_program(seed, 80))
        regions = dominator_regions(cfg, forest, dom)
        assert sum(len(belongs) for belongs, _ in regions.values()) == cfg.n_vertices


def test_nesting_iff_exit_in_parent_belongs():
    for seed in range(30):
        _, forest, _ = pipeline(generate_random_program(seed, 80))
        for elem in forest.elements:
            if elem.exit is not None:
                assert forest.owner[elem.exit] is elem.parent


def test_do_while_entry_is_first_body_vertex():
    cfg, forest, _ = pipeline("do { a; b; } while c;")
    ids = by_label(cfg)
    (elem,) = forest.elements
    assert elem.entry == ids["a"]
    assert owner_regions(forest)[elem][1] == {ids["a"], ids["b"], ids["c"]}


def test_do_while_opening_with_loop_gets_skip_entry():
    cfg, forest, _ = pipeline("do { while c { b; } a; } while d;")
    ids = by_label(cfg)
    outer, inner = forest.elements
    assert outer.entry == ids["skip"]
    assert inner.entry == ids["c"]
    assert inner.parent is outer
    entries = [e.entry for e in forest.elements]
    assert len(entries) == len(set(entries))


def test_stop_belongs_to_root_even_with_returns_inside_loops():
    cfg, forest, _ = pipeline("while c { if x { return; } a; }")
    assert forest.owner[cfg.stop] is forest.phi


def test_syntactic_regions_equal_dominator_regions():
    for seed in range(60):
        src = generate_random_program(seed, 50)
        cfg, forest = cfg_from_source(src)
        syntactic = loop_regions(cfg, restricted_to(forest, cfg))
        reference = dominator_regions(cfg, forest, compute_dominators(cfg))
        assert len(syntactic.elements) == len(forest.elements)
        ours = owner_regions(syntactic)
        for a, b in zip(syntactic.elements, forest.elements):
            assert (a.entry, a.exit) == (b.entry, b.exit)
            assert ours[a] == reference[b]
        assert ours[syntactic.phi][0] == reference[forest.phi][0]


# -- edge classification --------------------------------------------------------


def test_while_backward_edge():
    cfg, forest, _ = pipeline("while c { b; }")
    ids = by_label(cfg)
    assert partition_edges(cfg, forest).backward == [(ids["b"], ids["c"])]


def test_loop_free_has_no_backward_edges():
    cfg, forest, _ = pipeline("a; if c { b; } d;")
    assert partition_edges(cfg, forest).backward == []


def test_classification_cross_check_runs_on_random_programs():
    for seed in range(50):
        cfg, forest, dom = pipeline(generate_random_program(seed, 70))
        assert set(partition_edges(cfg, forest).backward) == dominance_backward(cfg, dom), seed


def test_removing_backward_edges_leaves_acyclic_graph():
    for seed in range(40):
        cfg, forest, _ = pipeline(generate_random_program(seed, 60))
        backward = set(partition_edges(cfg, forest).backward)
        succ = {v: [] for v in cfg.vertex_ids()}
        for u, v in cfg.edges():
            if (u, v) not in backward:
                succ[u].append(v)
        # Kahn
        indeg = {v: 0 for v in succ}
        for u in succ:
            for v in succ[u]:
                indeg[v] += 1
        ready = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            v = ready.pop()
            seen += 1
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        assert seen == cfg.n_vertices, seed


def test_fixture_backward_edges():
    cfg, forest = two_loop_cfg()
    backs = set(partition_edges(cfg, forest).backward)
    assert backs == {(7, 5), (11, 9), (8, 1), (12, 1)}
    assert backs == dominance_backward(cfg, compute_dominators(cfg))


def test_fixture_regions():
    _, forest = two_loop_cfg()
    outer, left, right = forest.elements
    regions = owner_regions(forest)
    assert regions[left][0] == {5, 6, 7}
    assert regions[right][0] == {9, 10, 11}
    assert regions[outer][0] >= {1, 2, 8, 12}


# -- cycles ---------------------------------------------------------------------


def test_cycle_corollary_on_while():
    cfg, forest, _ = pipeline("while c { b; }")
    assert check_cycle_corollary(cfg, forest) == []
    cycles = simple_cycles(cfg)
    ids = by_label(cfg)
    assert [sorted(c) for c in cycles] == [sorted([ids["c"], ids["b"]])]


def test_cycle_corollary_on_fixture():
    cfg, forest = two_loop_cfg()
    assert check_cycle_corollary(cfg, forest, limit=14) == []
    cycles = {tuple(sorted(c)) for c in simple_cycles(cfg, limit=14)}
    assert (5, 6, 7) in cycles


def test_cycle_corollary_on_nested_loops():
    cfg, forest, _ = pipeline("while c1 { a; while c2 { b; } }")
    assert check_cycle_corollary(cfg, forest) == []


def test_cycle_corollary_flags_forged_forest():
    cfg, forest, _ = pipeline("while c { b; }")
    (elem,) = forest.elements
    real_entry = elem.entry
    elem.entry = elem.exit  # forge: the entry is no longer on the cycle
    assert forest.contains(elem, real_entry)
    violations = check_cycle_corollary(cfg, forest)
    assert violations


# -- forest io and recovery -------------------------------------------------------


def test_forest_json_round_trip():
    cfg, forest, dom = pipeline("while c1 { while c2 { a; } b; } d;")
    data = forest.to_json_dict()
    again = assign_owners(cfg, dom, LoopForest.from_json_dict(data))
    assert again.to_json_dict() == data
    assert {v: e.entry for v, e in again.owner.items()} == {v: e.entry for v, e in forest.owner.items()}
    assert [e.entry for e in again.elements] == [e.entry for e in forest.elements]


def test_recover_loop_forest_from_fixture_graph():
    cfg, _ = two_loop_cfg()
    dom = compute_dominators(cfg)
    recovered = recover_loop_forest(cfg, dom)
    assert recovered.to_json_dict() == TWO_LOOP_FOREST_JSON
    assert {v: e.entry for v, e in recovered.owner.items()} == TWO_LOOP_OWNERS
    given = assign_owners(cfg, dom, LoopForest.from_json_dict(TWO_LOOP_FOREST_JSON))
    assert {v: e.entry for v, e in given.owner.items()} == TWO_LOOP_OWNERS


def _regions(forest, regions):
    return ([(e.entry, e.exit, *regions[e]) for e in forest.elements],
            regions[forest.phi][0])


@pytest.mark.parametrize("seed", range(40))
def test_recovered_regions_equal_dominator_regions(seed):
    cfg, _ = cfg_from_source(generate_random_program(seed, 60))
    dom = compute_dominators(cfg)
    recovered = loop_regions(cfg, recover_loop_forest(cfg, dom))
    from_owners = _regions(recovered, owner_regions(recovered))
    assert _regions(recovered, dominator_regions(cfg, recovered, dom)) == from_owners


def test_given_forest_gets_the_builders_owners():
    for seed in range(40):
        cfg, forest = cfg_from_source(generate_random_program(seed, 60))
        given = LoopForest.from_json_dict(forest.to_json_dict())
        assign_owners(cfg, compute_dominators(cfg), given)
        assert {v: e.entry for v, e in given.owner.items()} == {
            v: e.entry for v, e in forest.owner.items()}, seed


# Forests that the given-forest fuzz below lets through with an invalid
# decomposition: (seed of the graph, loop records). Each has a loop that an
# edge closes but whose exit is wrong.
GIVEN_FORESTS_BUILT_INVALID = [
    (25, [{"entry": 2, "exit": 7, "parent": None}]),
    (23, [{"entry": 1, "exit": 8, "parent": None}]),
]


def test_given_forests_are_refused_or_decompose_validly():
    """6,000 forests of one to three loops, entries, exits and parents drawn
    uniformly, over the built graphs of 8-statement programs, loaded as the
    CLI loads a --forest file: each is refused as bad forest JSON or as not
    structured, or its decomposition validates, but for the pinned ones.
    Every loop of a forest that assign_owners accepts owns its entry."""
    graphs = []
    for seed in range(31):
        cfg, _ = cfg_from_source(generate_random_program(seed, 8))
        graphs.append((cfg, compute_dominators(cfg), sorted(cfg.labels)))
    rng = random.Random(7)
    invalid = []
    for _ in range(6000):
        seed = rng.randrange(31)
        cfg, dom, vertices = graphs[seed]
        loops = [{"entry": rng.choice(vertices), "exit": rng.choice([*vertices, None]),
                  "parent": rng.choice([None, *range(i)])} for i in range(rng.randint(1, 3))]
        try:
            forest = assign_owners(cfg, dom, LoopForest.from_json_dict({"loops": loops}))
            assert all(forest.owner[e.entry] is e for e in forest.elements), (seed, loops)
            decomp = build_decomposition(cfg, forest)
        except (LoopForestJsonError, NotStructuredError):
            continue
        if not validate_cfg_decomposition(decomp, cfg).valid:
            invalid.append((seed, loops))
    assert invalid == GIVEN_FORESTS_BUILT_INVALID


def _forests_of(source):
    """The builder's forest of a program given as source, and the forest
    recovered from its CFG JSON as the CLI loads it, each also contracted as
    by --contract."""
    made = []
    if isinstance(source, str):
        made.append(cfg_from_source(source))
        source = made[0][0]
    cfg = ControlFlowGraph.from_json(source.to_json())
    try:
        dom = compute_dominators(cfg)
    except ValueError:  # dead vertices, which the CLI prunes first
        cfg = prune_unreachable(cfg)
        dom = compute_dominators(cfg)
    made.append((cfg, recover_loop_forest(cfg, dom)))
    for cfg, forest in list(made):
        made.append((None, restricted_to(forest, contract_basic_blocks(cfg, forest))))
    return [forest for _cfg, forest in made]


def test_every_loop_owns_its_entry():
    """partition_edges reads an edge from a loop's entry to its exit as into
    the exit, which holds because each loop owns its entry: in the builder's,
    the recovered and the contracted forests of the golden corpus and of 300
    with_jumps programs. (The given forests are checked in the fuzz above.)"""
    sources = [*PROGRAMS.values(), *(with_jumps(random.Random(i)) for i in range(300))]
    for source in sources:
        for forest in _forests_of(source):
            assert all(forest.owner[e.entry] is e for e in forest.elements), source


def test_forests_are_freed_without_the_collector():
    """A forest holds no reference cycle: once the builder's, the recovered
    and the given forest are dropped, reference counting alone has freed
    every element."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cfg, built = cfg_from_source("while p { while r { a; } do { b; } while s; } while t { e; }")
        dom = compute_dominators(cfg)
        forests = [built, recover_loop_forest(cfg, dom),
                   assign_owners(cfg, dom, LoopForest.from_json_dict(built.to_json_dict()))]
        assert all(len(f.elements) == 4 for f in forests)
        refs = [weakref.ref(e) for f in forests for e in (f.phi, *f.elements)]
        del built, forests
        assert [r() for r in refs if r() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_reaching_an_exit_closes_the_loops_inside_it():
    # 2 leaves both loops at once for the outer exit 4; the inner loop has
    # no exit of its own, so 4 must close it along with the outer loop. The
    # edge 6 -> 1 closes the outer loop from a vertex it owns.
    cfg = ControlFlowGraph()
    for v in range(7):
        cfg.add_vertex(f"v{v}", v)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 2), (3, 1), (2, 4), (4, 5), (1, 6), (6, 1)]:
        cfg.add_edge(u, v)
    cfg.start, cfg.stop = 0, 5
    forest = LoopForest()
    outer = forest.new_element()
    outer.entry, outer.exit = 1, 4
    inner = forest.new_element(outer)
    inner.entry = 2
    regions = owner_regions(loop_regions(cfg, assign_owners(cfg, compute_dominators(cfg), forest)))
    assert (regions[outer][0], regions[inner][0], regions[forest.phi][0]) == ({1, 6}, {2, 3}, {0, 4, 5})


def test_recover_matches_builder_on_random_programs():
    for seed in range(30):
        cfg, forest, dom = pipeline(generate_random_program(seed, 50))
        recovered = recover_loop_forest(cfg, dom)
        backward = set(partition_edges(cfg, forest).backward)
        assert backward == dominance_backward(cfg, dom), seed
        heads = {v for _, v in backward}
        got = {(e.entry, e.exit) for e in recovered.elements}
        want = {(e.entry, e.exit) for e in forest.elements if e.entry in heads}
        assert got == want, seed


# Two programs whose graphs are one graph under A_TO_B but for one edge kind:
# A's 1 -> 2 is "out" where B's 1 -> 3 is "exit". The builder gives A's do
# loop no exit and B's the exit 3; recovery, which reads no edge kind but
# "stop", gives both the same forest. So no recovery blind to the "out" and
# "exit" kinds matches the builder on both, and the with_jumps exit cases of
# the two-route test stay.
EXIT_KIND_PAIR = (
    "do { if p { b; while 1 { if p { c; } else { a; b; } } } } while 1; return;",
    "do { if p { break; } } while 1; while 1 { if p { c; } else { a; b; } } return;",
)
A_TO_B = {0: 0, 1: 1, 9: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 8, 11: 10}


def test_the_exit_cases_need_the_out_and_exit_kinds():
    (cfg_a, built_a), (cfg_b, built_b) = map(cfg_from_source, EXIT_KIND_PAIR)
    assert sorted(map(A_TO_B.get, cfg_a.vertex_ids())) == sorted(cfg_b.vertex_ids())
    assert (A_TO_B[cfg_a.start], A_TO_B[cfg_a.stop]) == (cfg_b.start, cfg_b.stop)
    kinds_a = {(A_TO_B[u], A_TO_B[v]): cfg_a.edge_kind(u, v) for u, v in cfg_a.edges()}
    kinds_b = {(u, v): cfg_b.edge_kind(u, v) for u, v in cfg_b.edges()}
    assert kinds_a.keys() == kinds_b.keys()
    assert {e: (kinds_a[e], kinds_b[e]) for e in kinds_b if kinds_a[e] is not kinds_b[e]} == {
        (1, 3): (EdgeKind.OUT, EdgeKind.EXIT)}

    def ends(forest, rename=lambda v: v):
        return [(rename(e.entry), rename(e.exit)) for e in forest.elements]  # None stays None

    def recovered(cfg):
        loaded = ControlFlowGraph.from_json(cfg.to_json())
        return recover_loop_forest(loaded, compute_dominators(loaded))

    found_a, found_b = recovered(cfg_a), recovered(cfg_b)
    assert (ends(built_a), ends(built_b)) == ([(1, None), (3, None)], [(1, 3), (4, None)])
    assert (ends(found_a), ends(found_b)) == ([(1, 2), (3, None)], [(1, 3), (4, None)])
    assert ends(found_a, A_TO_B.get) == ends(found_b)
    assert ends(built_a, A_TO_B.get) != ends(built_b)


def _forest_facts(forest):
    """(entry, exit, parent index) of each element in order, and the owner
    map as element indices (None for the root)."""
    index = {elem: i for i, elem in enumerate(forest.elements)}
    index[forest.phi] = None
    return ([(e.entry, e.exit, index[e.parent]) for e in forest.elements],
            {v: index[e] for v, e in forest.owner.items()})


# Loop 2 leaves for 3 alone. Loop 1's one target is the entry 2, which
# stands for what follows loop 2's exit 3, and nothing does, so loop 1 gets
# no exit; the outer loop 0 takes the target 3 that loop 2 hands up.
SEPARATES_LEFT_FROM_EXIT = _graph(
    4, [(0, 1, "out"), (1, 1, "out"), (1, 2, "out"), (2, 0, "out"), (2, 2, "out"), (2, 3, "out")], 3)


def test_an_inner_loop_is_skipped_to_its_first_vertex_outside_it():
    cfg = SEPARATES_LEFT_FROM_EXIT
    forest = recover_loop_forest(cfg, compute_dominators(cfg))
    assert [(e.entry, e.exit) for e in forest.elements] == [(0, 3), (1, None), (2, 3)]


@st.composite
def jumpy_programs(draw):
    """with_jumps programs, contracted or not: a loop may end in a return,
    an endless loop or a break, so its entry need not reach stop."""
    cfg, forest = cfg_from_source(with_jumps(random.Random(draw(st.integers(0, 10**6)))))
    return contract_basic_blocks(cfg, forest) if draw(st.booleans()) else cfg


def _validates(cfg, forest) -> bool:
    try:
        decomp = build_decomposition(cfg, forest)
    except ValueError:  # not structured, or two loops with one exit
        return False
    return validate_cfg_decomposition(decomp, cfg).valid


@example((SEPARATES_LEFT_FROM_EXIT, False))
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(programs().map(lambda g: (g, True)), jumpy_programs().map(lambda g: (g, True)),
                 digraphs().map(lambda g: (g, False))))
def test_recovery_equals_the_per_head_bodies_oracle(drawn):
    """The per-head bodies oracle takes each exit from the post-dominator
    tree. Both find the same entries on every graph. Where every entry
    reaches stop without a return edge and the oracle's decomposition
    validates, the forests are equal: entries, exits, parents, element order
    (siblings by entry id) and owner map. Every program's recovered
    decomposition validates. An edge out of an unreachable stop would have
    no dominator stamps, so compute_dominators rejects that graph."""
    cfg, is_program = drawn
    if cfg.stop not in cfg.reachable_from(cfg.start) and cfg.successors(cfg.stop):
        with pytest.raises(ValueError, match="prune the graph first"):
            compute_dominators(cfg)
        return
    dom = compute_dominators(cfg)
    got, want = recover_loop_forest(cfg, dom), recover_loop_forest_by_bodies(cfg, dom)
    assert len(got.elements) == len(want.elements)
    assert {e.entry for e in got.elements} == {e.entry for e in want.elements}
    reaches_stop = post_dominator_tree(cfg)[0]
    if all(e.entry in reaches_stop for e in want.elements) and _validates(cfg, want):
        assert _forest_facts(got) == _forest_facts(want)
    if is_program:
        assert _validates(cfg, got)


def test_an_edge_out_of_an_unreachable_stop_asks_for_a_prune():
    """compute_dominators refuses the graph, whose stop 2 is unreachable but
    has the edge 2 -> 1, as the pruned graph is the one recovery can read."""
    cfg = _graph(3, [(0, 1, "out"), (1, 0, "out"), (2, 1, "out")], 2)
    with pytest.raises(ValueError, match=r"unreachable vertices \[2\]; prune the graph first"):
        compute_dominators(cfg)
    pruned = prune_unreachable(cfg)
    forest = recover_loop_forest(pruned, compute_dominators(pruned))
    assert [(e.entry, e.exit) for e in forest.elements] == [(0, None)]


def _predecessor_calls(recover, depth: int) -> int:
    """cfg.predecessors calls that recover makes on depth nested do loops."""
    cfg, _ = cfg_from_source("do { a; " * depth + "b; " + "} while c; " * depth)
    dom = compute_dominators(cfg)
    calls, predecessors = 0, cfg.predecessors

    def counted(v):
        nonlocal calls
        calls += 1
        return predecessors(v)

    cfg.predecessors = counted
    assert len(recover(cfg, dom).elements) == depth
    return calls


def test_recovery_work_grows_linearly_with_nesting_depth():
    """Doubling the depth at most about doubles the predecessor lists read;
    the per-head oracle, whose bodies hold O(depth^2) vertices, grows about
    4x per doubling."""
    assert _predecessor_calls(recover_loop_forest, 2000) <= 2.2 * _predecessor_calls(
        recover_loop_forest, 1000)
    by_bodies = [_predecessor_calls(recover_loop_forest_by_bodies, d) for d in (250, 500)]
    assert by_bodies[1] > 3 * by_bodies[0]
