import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import (
    ControlFlowGraph,
    EdgeKind,
    build_cfg,
    build_decomposition,
    cfg_from_source,
    compute_dominators,
    contract_basic_blocks,
    generate_random_program,
    loop_regions,
    parse_program,
    prune_unreachable,
    recover_loop_forest,
    validate_cfg_decomposition,
)
from cfgdag.cfg import CfgJsonError
from helpers import (
    CORNER_CASES,
    bfs_reachable,
    build_unpruned,
    cfg_from_json_by_add_edge,
    cfg_json_dict,
    contract_by_fixpoint,
    has_edge,
    pipeline,
    predecessors_by_edges,
    prune_by_rebuild,
    restricted_to,
    succ_map,
    with_jumps,
    without_unclosed_loops,
)
from test_golden import programs
from test_json import text


def labels_of(cfg):
    return {cfg.labels[v] for v in cfg.vertex_ids()}


def edge_set(cfg, by_label=True):
    if not by_label:
        return set(cfg.edges())
    return {(cfg.labels[u], cfg.labels[v]) for u, v in cfg.edges()}


def test_single_statement_cfg():
    cfg, forest = cfg_from_source("a;")
    assert labels_of(cfg) == {"start", "a", "stop"}
    assert edge_set(cfg) == {("start", "a"), ("a", "stop")}
    assert forest.elements == []


def test_while_loop_shape():
    cfg, forest = cfg_from_source("while c { b; }")
    assert sorted(cfg.labels.items()) == [
        (0, "start"), (1, "c"), (2, "b"), (3, "exit(c)"), (4, "stop"),
    ]
    assert sorted(cfg.edges()) == [(0, 1), (1, 2), (1, 3), (2, 1), (3, 4)]
    (elem,) = forest.elements
    assert (elem.entry, elem.exit) == (1, 3)


def test_nested_while_forest():
    _, forest = cfg_from_source("while c1 { while c2 { a; } b; }")
    outer, inner = forest.elements
    assert inner.parent is outer
    assert outer.parent is forest.phi


def test_start_is_source_stop_is_sink():
    for seed in range(40):
        cfg, _ = cfg_from_source(generate_random_program(seed, 40))
        assert len(cfg.predecessors(cfg.start)) == 0
        assert len(cfg.successors(cfg.stop)) == 0


def test_every_edge_has_one_kind():
    cfg, _ = cfg_from_source("while c { if x { break; } if y { continue; } if z { return; } a; }")
    kinds = {cfg.edge_kind(u, v) for u, v in cfg.edges()}
    assert kinds == {EdgeKind.OUT, EdgeKind.EXIT, EdgeKind.ENTRY, EdgeKind.STOP}
    for u, v in cfg.edges():
        assert isinstance(cfg.edge_kind(u, v), EdgeKind)


def test_break_targets_nearest_exit():
    cfg, forest = cfg_from_source("while c1 { while c2 { if d { break; } } }")
    outer, inner = forest.elements
    exit_edges = [(u, v) for u, v in cfg.edges() if cfg.edge_kind(u, v) is EdgeKind.EXIT]
    assert exit_edges == [(inner.entry + 1, inner.exit)]
    assert cfg.labels[inner.entry + 1] == "d"


def test_return_goes_straight_to_stop():
    cfg, _ = cfg_from_source("while c { if x { return; } a; }")
    stop_edges = [(u, v) for u, v in cfg.edges() if cfg.edge_kind(u, v) is EdgeKind.STOP]
    assert len(stop_edges) == 1
    assert stop_edges[0][1] == cfg.stop
    assert cfg.labels[stop_edges[0][0]] == "x"


def test_deterministic_build():
    src = generate_random_program(7, 120)
    a, _ = cfg_from_source(src)
    b, _ = cfg_from_source(src)
    assert sorted(a.labels.items()) == sorted(b.labels.items())
    assert sorted(a.edges()) == sorted(b.edges())


# -- pruning ----------------------------------------------------------------


def test_prune_keeps_fully_reachable_graph():
    cfg, _ = cfg_from_source("a; if c { b; } d;")
    pruned = prune_unreachable(cfg)
    assert sorted(pruned.labels.items()) == sorted(cfg.labels.items())
    assert sorted(pruned.edges()) == sorted(cfg.edges())


def test_prune_removes_code_after_return():
    ast = parse_program("a; return; b; c;")
    cfg, _ = build_unpruned(ast)
    reach = bfs_reachable(succ_map(cfg), cfg.start)
    pruned = prune_unreachable(cfg)
    assert set(pruned.vertex_ids()) == reach | {cfg.stop}
    assert "b" not in labels_of(pruned)


def test_prune_infinite_loop_drops_exit_flags_stop():
    ast = parse_program("while 1 { a; }")
    cfg, forest = build_unpruned(ast)
    pruned = prune_unreachable(cfg)
    assert "exit(1)" not in labels_of(pruned)
    assert pruned.stop in pruned.vertex_ids()
    assert pruned.stop not in pruned.reachable_from(pruned.start)
    restricted = restricted_to(forest, pruned)
    (elem,) = restricted.elements
    assert elem.exit is None  # the exit vertex is gone


def test_prune_matches_reachability_oracle():
    for seed in range(60):
        ast = parse_program(generate_random_program(seed, 50))
        cfg, _ = build_unpruned(ast)
        pruned = prune_unreachable(cfg)
        reach = bfs_reachable(succ_map(cfg), cfg.start)
        assert set(pruned.vertex_ids()) == reach | {cfg.stop}


def with_dead_code(rng, source):
    """Make some loop conditions the constants 0 or 1 and put unguarded
    returns after some assignments, so parts of the graph become unreachable."""
    lines = []
    for line in source.splitlines():
        stmt = line.strip()
        if stmt.startswith("while ") and rng.random() < 0.3:
            line = line.replace(stmt, f"while {rng.choice((0, 1))} {{")
        elif stmt.startswith("} while ") and rng.random() < 0.3:
            line = line.replace(stmt, f"}} while {rng.choice((0, 1))};")
        lines.append(line)
        if stmt.startswith("a") and rng.random() < 0.05:
            lines.append("return;")
    return "\n".join(lines)


def assert_builds_the_pruned_oracle(source):
    """build_cfg equals prune_unreachable of the unpruned oracle, and its
    forest equals the oracle's forest restricted to that graph, less the
    loops no edge closes: labels, adjacency tuples and edge kinds in order,
    ids, elements and owners."""
    ast = parse_program(source)
    got, forest = build_cfg(ast)
    full, full_forest = build_unpruned(ast)
    want = prune_unreachable(full)
    want_forest = without_unclosed_loops(want, restricted_to(full_forest, want))
    assert list(got.labels.items()) == list(want.labels.items())
    assert list(got._succ.items()) == list(want._succ.items())
    assert list(got._pred.items()) == list(want._pred.items())
    assert list(got._kind.items()) == list(want._kind.items())
    assert (got._next_id, got.start, got.stop) == (want._next_id, want.start, want.stop)

    def shape(f):
        index = {e: i for i, e in enumerate(f.elements)}
        index[f.phi] = None
        return ([(e.entry, e.exit, index[e.parent]) for e in f.elements],
                [(v, index[e]) for v, e in f.owner.items()])

    assert shape(forest) == shape(want_forest)


@pytest.mark.parametrize("source", [
    *CORNER_CASES.values(),
    "do { break; while d { a; } } while c;",
    "do { continue; while d { a; } } while c; b;",
    "do { continue; do { a; } while c; } while d;",
    "do { continue; a; } while c;",
    "while c { if d { continue; } }",
    "while 1 { if c { break; } } x;",
    "if c { return; }",
])
def test_build_writes_the_pruned_graph_on_corner_cases(source):
    assert_builds_the_pruned_oracle(source)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 80), st.booleans())
def test_build_writes_the_pruned_graph_of_the_oracle(seed, size, jumpy):
    rng = random.Random(seed)
    if jumpy:
        assert_builds_the_pruned_oracle(with_jumps(rng))
    else:
        assert_builds_the_pruned_oracle(with_dead_code(rng, generate_random_program(seed, size)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**6).map(lambda seed: with_jumps(random.Random(seed))))
@example("do { continue; while d { a; } } while c; b;")
@example("do { continue; do { a; } while c; } while d;")
@example("do { continue; do { } while c; a; } while 0; return;")
def test_the_decomposition_built_from_source_validates(source):
    """Both routes, on programs with jumps anywhere: the source route, and the
    CFG JSON that cfgdag build writes, read back with its loops recovered."""
    cfg, forest = cfg_from_source(source)
    loop_regions(cfg, forest)
    report = validate_cfg_decomposition(build_decomposition(cfg, forest), cfg)
    assert report.valid, report.violations
    graph = ControlFlowGraph.from_json(cfg.to_json())
    recovered = loop_regions(graph, recover_loop_forest(graph, compute_dominators(graph)))
    report = validate_cfg_decomposition(build_decomposition(graph, recovered), graph)
    assert report.valid, report.violations


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 80))
def test_prune_fills_the_graph_as_the_rebuild_does(seed, size):
    source = with_dead_code(random.Random(seed), generate_random_program(seed, size))
    cfg, _ = build_unpruned(parse_program(source))
    for graph in (cfg, contract_basic_blocks(cfg)):
        got, want = prune_unreachable(graph), prune_by_rebuild(graph)
        assert got.labels == want.labels
        assert got.vertex_ids() == want.vertex_ids()
        assert list(got.edges()) == list(want.edges())
        for v in want.vertex_ids():
            assert list(got.successors(v)) == sorted(want.successors(v))
            assert list(got.predecessors(v)) == want.predecessors(v)
        for u, v in want.edges():
            assert got.edge_kind(u, v) is want.edge_kind(u, v)
        assert (got._next_id, got.start, got.stop) == (want._next_id, want.start, want.stop)


def test_prune_drops_the_out_edges_of_an_unreachable_stop():
    g = ControlFlowGraph()
    start, a, stop = g.add_vertex("start"), g.add_vertex("a"), g.add_vertex("stop")
    g.add_edge(start, a)
    g.add_edge(a, a)
    g.add_edge(stop, a)  # only CFG JSON can give stop a successor
    g.start, g.stop = start, stop
    pruned = prune_unreachable(g)
    assert list(pruned.edges()) == list(prune_by_rebuild(g).edges()) == [(start, a), (a, a)]
    assert list(pruned.predecessors(a)) == [start, a]
    assert stop not in pruned.reachable_from(start)


def test_prune_freezes_the_adjacency_and_add_edge_still_extends_it():
    built, forest = cfg_from_source("while c { a; } b;")
    for graph in (built, contract_basic_blocks(built, forest)):  # contraction freezes too
        assert all(type(ws) is tuple for ws in (*graph._succ.values(), *graph._pred.values()))
        start, c = graph.start, graph.successors(graph.start)[0]
        a = graph.successors(c)[0]
        x = graph.add_vertex("x")
        graph.add_edge(start, x)
        graph.add_edge(x, c, "entry")
        assert list(graph.successors(start)) == [c, x] and list(graph.successors(x)) == [c]
        assert list(graph.predecessors(c)) == [start, a, x]
        assert graph.edge_kind(x, c) is EdgeKind.ENTRY


def frozen_graphs(program):
    """The graphs _freeze writes for a program of the corpus, source text or
    graph: built, loaded from CFG JSON, pruned from the unpruned expansion
    or the loaded graph, and contracted as --contract does. Each is yielded
    before the next is made, which may read its predecessors."""
    if isinstance(program, ControlFlowGraph):
        yield (loaded := ControlFlowGraph.from_json(program.to_json()))
        yield (pruned := prune_unreachable(loaded))
        yield contract_basic_blocks(pruned)
        return
    built, forest = cfg_from_source(program)
    yield built
    yield ControlFlowGraph.from_json(built.to_json())
    yield prune_unreachable(build_unpruned(parse_program(program))[0])
    yield contract_basic_blocks(built, forest)


def test_the_predecessor_index_equals_the_eager_oracle():
    """On every graph of the golden corpus and of with_jumps programs 0-299,
    _pred, unbuilt until read, holds what _freeze used to build eagerly."""
    for program in [*programs().values(), *(with_jumps(random.Random(i)) for i in range(300))]:
        for graph in frozen_graphs(program):
            assert graph._preds is None
            assert list(graph._pred.items()) == list(predecessors_by_edges(graph).items()), program


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 299), st.lists(st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 99)),
                                     max_size=6))
@example(0, [(False, 0, 1)])
@example(0, [(True, 0, 0), (False, 0, 1)])
def test_add_edge_and_add_vertex_on_a_frozen_graph_keep_its_predecessors(i, ops):
    """A frozen graph whose index is unbuilt, or built, takes the same
    add_vertex and add_edge calls as the add_edge rebuild of its CFG JSON,
    and ends with the same successor and predecessor lists."""
    frozen, _ = cfg_from_source(with_jumps(random.Random(i)))
    graphs = [frozen, cfg_from_json_by_add_edge(cfg_json_dict(frozen))]
    if i % 2:
        frozen.predecessors(frozen.start)  # builds the index before the calls
    for graph in graphs:
        for new, a, b in ops:
            ids = list(graph.labels)
            if new:
                graph.add_vertex("x", max(ids) + 1)
            else:
                graph.add_edge(ids[a % len(ids)], ids[b % len(ids)])
    got, want = ([(v, list(g._succ[v]), list(g._pred[v])) for v in g.labels] for g in graphs)
    assert got == want


def test_decomposing_from_source_leaves_the_predecessor_index_unbuilt():
    cfg, forest = cfg_from_source(generate_random_program(1, 300))
    build_decomposition(cfg, loop_regions(cfg, forest)).to_json()
    assert cfg._preds is None


# -- contraction --------------------------------------------------------------


def test_contract_chain():
    cfg, forest = cfg_from_source("a; b;")
    out = contract_basic_blocks(cfg, forest)
    assert labels_of(out) == {"start", "a; b", "stop"}


def test_contract_diamond_unchanged():
    cfg, forest = cfg_from_source("if c { a; } else { b; }")
    out = contract_basic_blocks(cfg, forest)
    assert sorted(out.labels.items()) == sorted(cfg.labels.items())


def test_contract_loop_body_merges_but_keeps_condition():
    cfg, forest = cfg_from_source("while c { a; b; }")
    out = contract_basic_blocks(cfg, forest)
    assert "a; b" in labels_of(out)
    assert "c" in labels_of(out)
    body = next(v for v in out.vertex_ids() if out.labels[v] == "a; b")
    cond = next(v for v in out.vertex_ids() if out.labels[v] == "c")
    assert has_edge(out, body, cond)  # the loop edge now leaves the merged block


def test_contract_preserves_entry_exit_vertices():
    cfg, forest = cfg_from_source("while c { a; b; } d; e;")
    out = contract_basic_blocks(cfg, forest)
    for elem in forest.elements:
        assert elem.entry in out.vertex_ids()
        assert elem.exit in out.vertex_ids()


def test_contract_fixpoint_no_mergeable_edge_left():
    for seed in range(40):
        cfg, forest = cfg_from_source(generate_random_program(seed, 60))
        out = contract_basic_blocks(cfg, forest)
        protected = {out.start, out.stop} | set().union(*forest.ends())
        for u, v in out.edges():
            if u == out.start or v in protected or u == v:
                continue
            assert not (len(out.successors(u)) == 1 and len(out.predecessors(v)) == 1), (seed, u, v)


def test_contract_preserves_path_structure():
    rng = random.Random(0)
    for _ in range(30):
        seed = rng.randrange(10**6)
        cfg, forest = cfg_from_source(generate_random_program(seed, 50))
        out = contract_basic_blocks(cfg, forest)
        survivors = sorted(out.vertex_ids())
        before, after = succ_map(cfg), succ_map(out)
        for u in survivors[:12]:
            reach_before = bfs_reachable(before, u)
            reach_after = bfs_reachable(after, u)
            assert reach_before & set(survivors) >= reach_after - {u}
            assert reach_after >= (reach_before & set(survivors)) - {u}


def assert_contracts_as_the_fixpoint(cfg, forest=None):
    """contract_basic_blocks equals contract_by_fixpoint on labels and their
    order, edges with kinds, and successor and predecessor sets; its
    adjacency is tuples, both ascending, as _freeze writes them."""
    got, want = contract_basic_blocks(cfg, forest), contract_by_fixpoint(cfg, forest)
    assert list(got.labels.items()) == list(want.labels.items())
    assert {e: got.edge_kind(*e) for e in got.edges()} == {e: want.edge_kind(*e) for e in want.edges()}
    for v in want.vertex_ids():
        assert type(got.successors(v)) is tuple and type(got.predecessors(v)) is tuple
        assert list(got.successors(v)) == sorted(want.successors(v))
        assert list(got.predecessors(v)) == sorted(want.predecessors(v))
    assert (got._next_id, got.start, got.stop) == (cfg._next_id, want.start, want.stop)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 80))
def test_contraction_equals_the_fixpoint_oracle(seed, size):
    rng = random.Random(seed)
    source = with_dead_code(rng, generate_random_program(seed, size))
    # A `while 1` loop right after a return is a cycle that no head reaches.
    source = re.sub("^return;$", lambda m: m[0] + " while 1 { d; e; }" * (rng.random() < 0.5),
                    source, flags=re.M)
    cfg, forest = build_unpruned(parse_program(source))
    assert_contracts_as_the_fixpoint(cfg)  # unpruned, so dead cycles stay
    pruned = prune_unreachable(cfg)
    assert_contracts_as_the_fixpoint(pruned)
    assert_contracts_as_the_fixpoint(pruned, restricted_to(forest, pruned))


def test_contraction_folds_a_dead_cycle_into_its_smallest_id():
    cfg, _ = build_unpruned(parse_program("return; while 1 { a; b; }"))
    assert_contracts_as_the_fixpoint(cfg)
    out = contract_basic_blocks(cfg)
    assert out.labels[1] == "1; a; b" and out.successors(1) == (1,)


def test_contraction_keeps_the_head_id_when_members_have_smaller_ids():
    g = ControlFlowGraph()
    for vid, label in [(0, "start"), (1, "stop"), (2, "b"), (3, "c"), (5, "a")]:
        g.add_vertex(label, vid)
    for u, v in [(0, 5), (5, 2), (2, 3), (3, 1)]:
        g.add_edge(u, v)
    g.start, g.stop = 0, 1
    assert_contracts_as_the_fixpoint(g)
    out = contract_basic_blocks(g)
    assert list(out.labels.items()) == [(0, "start"), (1, "stop"), (5, "a; b; c")]
    assert sorted(out.edges()) == [(0, 5), (5, 1)]


# -- serialization -------------------------------------------------------------


def test_json_round_trip_byte_identical():
    cfg, _ = cfg_from_source(generate_random_program(3, 80))
    text = cfg.to_json()
    again = ControlFlowGraph.from_json(text)
    assert again.to_json() == text


def test_json_schema_fields():
    cfg, _ = cfg_from_source("while c { b; }")
    data = cfg_json_dict(cfg)
    assert json.loads(cfg.to_json()) == data
    assert set(data) == {"vertices", "edges", "start", "stop"}
    assert all(set(v) == {"id", "label"} for v in data["vertices"])
    assert all(set(e) == {"from", "to", "kind"} for e in data["edges"])
    assert all(e["kind"] in ("out", "exit", "entry", "stop") for e in data["edges"])


def graph(labels: dict, edges=(), start=None, stop=None) -> ControlFlowGraph:
    g = ControlFlowGraph()
    for vid, label in labels.items():
        g.add_vertex(label, vid)
    for u, v, kind in edges:
        g.add_edge(u, v, kind)
    if labels:
        g.start = min(labels) if start is None else start
        g.stop = max(labels) if stop is None else stop
    return g


LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def assert_written_as_json_dumps(cfg):
    """to_json writes what json.dumps writes, and loading it back gives the
    same text, unless a label read back from it holds a lone surrogate,
    which no UTF-8 output can write: then the load names the vertex."""
    written = cfg.to_json()
    assert written == json.dumps(cfg_json_dict(cfg), indent=2) + "\n"
    if not cfg.labels:
        return
    lone = [v["id"] for v in json.loads(written)["vertices"] if LONE_SURROGATE.search(v["label"])]
    if lone:
        with pytest.raises(CfgJsonError, match=f"label of vertex {lone[0]} holds the lone surrogate"):
            ControlFlowGraph.from_json(written)
    else:
        assert ControlFlowGraph.from_json(written).to_json() == written


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.builds(generate_random_program, st.integers(0, 10**6), st.integers(1, 60)),
       st.booleans(), st.randoms(use_true_random=False))
@example("while c { }", True, random.Random(0))
def test_json_of_random_programs_is_what_json_dumps_writes(source, contract, rng):
    cfg = pipeline(source, contract=contract)[0]
    assert_written_as_json_dumps(cfg)
    # Loaded back from JSON whose vertices and edges come in any order.
    data = cfg_json_dict(cfg)
    rng.shuffle(data["vertices"])
    rng.shuffle(data["edges"])
    assert ControlFlowGraph.from_json(json.dumps(data)).to_json() == cfg.to_json()


# Labels a template writer or a DOT label could mistake for format codes,
# quotes, escapes or line breaks.
labels = st.one_of(text, st.sampled_from(["", "%", "%s", "%%d", "\\", '"', "\ud800", "a\udfffb"]))


@st.composite
def labelled_graphs(draw):
    """Labelled vertices and edges of any kind, a return edge ending at stop."""
    vertices = draw(st.dictionaries(st.integers(-(10**20), 10**20), labels, max_size=8))
    ids = sorted(vertices)
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    st.sampled_from(EdgeKind)), max_size=16)) if ids else []
    ends = [draw(st.sampled_from(ids)) for _ in range(2) if ids]
    edges = [(u, ends[1] if k is EdgeKind.STOP else v, k) for u, v, k in edges]
    return graph(vertices, edges, *ends)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(labelled_graphs())
@example(graph({}))
@example(graph({3: "a", 1: "b", 2: "%s"}))
@example(graph({-4: "start", 0: 'x"y', 5: "x\ny"}, [(-4, 0, "out"), (0, 5, "stop")], start=-4))
@example(graph({0: "a", 7: "x\ud800", 9: "\udfff"}))
def test_json_of_any_labels_is_what_json_dumps_writes(cfg):
    assert_written_as_json_dumps(cfg)


def test_dot_marks_backward_edges_dashed():
    cfg, _ = cfg_from_source("while c { b; }")
    dot = cfg.to_dot(backward={(2, 1)})
    assert "n2 -> n1 [style=dashed];" in dot
    assert "digraph" in dot


DOT_NODE = re.compile(r'    n(-?\d+) \[label="((?:[^"\\]|\\.)*)"(?: shape=oval)?\];')


def read_dot_label(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text, flags=re.DOTALL)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(labelled_graphs())
@example(graph({0: 'x"y', 1: "a\\", 2: "x\ny", 3: '\\"', 4: "\\n"}))
def test_dot_labels_read_back(cfg):
    node_lines = cfg.to_dot().split("\n")[2:2 + cfg.n_vertices]
    matches = [DOT_NODE.fullmatch(line) for line in node_lines]
    assert all(matches), node_lines
    assert {int(m[1]): read_dot_label(m[2]) for m in matches} == cfg.labels


def test_add_edge_rejects_missing_vertex():
    g = ControlFlowGraph()
    g.add_vertex("a", 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 5)


def test_edge_kinds_are_members_whether_given_as_member_or_string():
    g = ControlFlowGraph()
    a, b, c = g.add_vertex("a"), g.add_vertex("b"), g.add_vertex("c")
    g.add_edge(a, b, "out")
    g.add_edge(b, c, EdgeKind.STOP)
    assert g.edge_kind(a, b) is EdgeKind.OUT
    assert g.edge_kind(b, c) is EdgeKind.STOP
    g.start, g.stop = a, c
    loaded = ControlFlowGraph.from_json(g.to_json())
    assert loaded.edge_kind(a, b) is EdgeKind.OUT
    assert loaded.edge_kind(b, c) is EdgeKind.STOP
    for kind in EdgeKind:
        h = ControlFlowGraph()
        h.add_edge(h.add_vertex("u"), h.add_vertex("v"), kind.value)
        assert h.edge_kind(0, 1) is kind


def test_add_edge_rejects_an_invalid_kind_and_leaves_the_graph_as_it_was():
    g = ControlFlowGraph()
    a, b = g.add_vertex("a"), g.add_vertex("b")
    with pytest.raises(ValueError, match="'sideways' is not a valid EdgeKind"):
        g.add_edge(a, b, "sideways")
    assert not has_edge(g, a, b)
    assert g.successors(a) == [] and g.predecessors(b) == []


def test_add_vertex_continues_after_the_largest_id():
    g = ControlFlowGraph()
    g.add_vertex("x", 7)
    g.add_vertex("y", 3)
    assert g.add_vertex("z") == 8
    with pytest.raises(ValueError, match="vertex 3 already exists"):
        g.add_vertex("w", 3)
