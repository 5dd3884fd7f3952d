import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgdag import (
    DagDecomposition,
    FormulaSkeleton,
    build_decomposition,
    build_product_game,
    cfg_from_source,
    generate_random_program,
    lift_decomposition,
    loop_regions,
    validate_cfg_decomposition,
    validate_decomposition,
)
from helpers import (
    connectivity_by_triples,
    d3_by_scan,
    edges_covered_by_defn,
    guards_by_scan,
    pipeline,
    validate_by_masks,
)


def by_label(cfg):
    return {cfg.labels[v]: v for v in cfg.vertex_ids()}


def while_decomp():
    cfg, forest, _ = pipeline("while c { b; }")
    return cfg, build_decomposition(cfg, forest)


def report_on_bags(d, edges=()):
    """The report on d against the vertices its bags hold."""
    return validate_decomposition(d, set().union(*d.bags.values()), edges)


# -- individual checks -----------------------------------------------------------


def test_vertices_covered_on_construction():
    cfg, d = while_decomp()
    assert validate_cfg_decomposition(d, cfg).vertices_covered


def test_vertices_covered_detects_missing():
    cfg, d = while_decomp()
    d.bags[2] = ()  # empty one bag; vertex 2 is now uncovered
    report = validate_cfg_decomposition(d, cfg)
    assert not report.vertices_covered
    assert ("vertices_covered_missing", (2,)) in report.violations


def test_connectivity_on_construction():
    cfg, d = while_decomp()
    assert validate_cfg_decomposition(d, cfg).connectivity


def test_connectivity_detects_dropped_guard():
    # Chain of bags sharing a vertex; cut it out of the middle bag.
    d = DagDecomposition(
        nodes=[0, 1, 2],
        arcs=[(0, 1), (1, 2)],
        bags={0: (0, 9), 1: (1,), 2: (2, 9)},
    )
    assert not report_on_bags(d).connectivity


def test_connectivity_detects_exit_dropped_from_mid_path_bag():
    cfg, forest, _ = pipeline("while c { a; b; }")
    ids = by_label(cfg)
    d = build_decomposition(cfg, forest)
    (elem,) = forest.elements
    d.bags[ids["a"]] = tuple(sorted(set(d.bags[ids["a"]]) - {elem.exit}))
    report = validate_cfg_decomposition(d, cfg)
    assert not report.connectivity and not report.valid
    assert any(kind == "connectivity" and w[-1] == elem.exit for kind, w in report.violations)


def test_singleton_chain_connectivity():
    d = DagDecomposition(
        nodes=[0, 1, 2],
        arcs=[(0, 1), (1, 2)],
        bags={0: (0,), 1: (1,), 2: (2,)},
    )
    report = report_on_bags(d, [(0, 1), (1, 2)])
    assert report.connectivity and report.edges_covered_3a and report.edges_covered_3b


def test_edges_covered_on_construction():
    cfg, d = while_decomp()
    report = validate_cfg_decomposition(d, cfg)
    assert report.edges_covered_3a and report.edges_covered_3b


def test_edges_covered_backward_edge_served_by_own_bag():
    cfg, d = while_decomp()
    ids = by_label(cfg)
    # bag of b already contains c, so the loop edge needs no extra successor
    assert ids["c"] in d.bags[ids["b"]]


def test_deleting_exit_to_entry_arc_breaks_edge_covering():
    cfg, forest, _ = pipeline("while c { b; }")
    ids = by_label(cfg)
    d = build_decomposition(cfg, forest)
    d.arcs.remove((ids["exit(c)"], ids["c"]))
    report = validate_cfg_decomposition(d, cfg)
    assert not (report.edges_covered_3a and report.edges_covered_3b)
    assert not report.valid
    # the witness is the re-routed entry edge, now uncovered
    witnesses = {w[-2:] for kind, w in report.violations if kind.startswith("edges_covered")}
    assert (ids["start"], ids["c"]) in witnesses


# -- guards ------------------------------------------------------------------------


def test_guards_whole_graph_by_nothing():
    cfg, _ = while_decomp()
    assert guards_by_scan(set(), set(cfg.vertex_ids()), cfg.edges())


def test_guards_loop_body():
    cfg, _ = while_decomp()
    ids = by_label(cfg)
    edges = list(cfg.edges())
    assert guards_by_scan({ids["c"]}, {ids["b"]}, edges)
    assert not guards_by_scan(set(), {ids["c"]}, edges)


# -- the guarding form and its equivalence --------------------------------------------


def test_d3_on_constructions():
    for seed in range(25):
        cfg, forest, _ = pipeline(generate_random_program(seed, 40))
        d = build_decomposition(cfg, forest)
        report = validate_cfg_decomposition(d, cfg)
        assert report.edges_covered_3a and report.edges_covered_3b
        assert report.d3_original


def test_only_an_edge_from_outside_bag_i_is_a_dropped_target():
    """start -> a -> stop, with stop dropped along the arc (0, 1) and found
    again below it: connectivity fails and 3a and 3b hold either way. The
    in-edge of stop leaves a, so the guard at (0, 1) holds iff a is in bag 0."""
    edges = [(0, 1), (1, 2)]
    for bag_0, guarded in [({0, 1, 2}, True), ({0, 2}, False)]:
        d = DagDecomposition(nodes=[0, 1, 2], arcs=[(0, 1), (1, 2)],
                             bags={0: tuple(sorted(bag_0)), 1: (1,), 2: (2,)})
        report = validate_decomposition(d, [0, 1, 2], edges)
        assert report.edges_covered_3a and report.edges_covered_3b and not report.connectivity
        assert report.d3_original is d3_by_scan(d, edges) is guarded


def _perturb(d: DagDecomposition, rng: random.Random, vertices) -> DagDecomposition:
    bags = dict(d.bags)
    node = rng.choice(d.nodes)
    bag = set(bags[node])
    if bag and rng.random() < 0.5:
        bag.discard(rng.choice(sorted(bag)))
    else:
        bag.add(rng.choice(sorted(vertices)))
    bags[node] = tuple(sorted(bag))
    return DagDecomposition(nodes=list(d.nodes), arcs=list(d.arcs), bags=bags)


def test_equivalence_of_both_edge_covering_forms():
    """Arc/source form agrees with the guarding form wherever connectivity
    holds. The validator's guarding form is 3a and 3b there by construction,
    so the guarding form also comes from the scan oracle."""
    rng = random.Random(20240817)
    agreeing = 0
    skipped = 0
    seed = 0
    while agreeing < 400:
        seed += 1
        cfg, forest, _ = pipeline(generate_random_program(seed, 18))
        d = build_decomposition(cfg, forest)
        samples = [d] + [_perturb(d, rng, cfg.vertex_ids()) for _ in range(3)]
        for s in samples:
            report = validate_cfg_decomposition(s, cfg)
            if not report.vertices_covered or not report.connectivity:
                skipped += 1  # the equivalence argument needs connectivity
                continue
            ok = report.edges_covered_3a and report.edges_covered_3b
            assert ok == d3_by_scan(s, list(cfg.edges())) == report.d3_original, seed
            agreeing += 1
    assert agreeing >= 400


def test_guarding_form_agrees_with_the_edge_scan_oracle():
    """The samples of acceptance criterion 7, damaged ones included."""
    rng = random.Random(0xC0FFEE)
    for seed in range(1, 201):
        cfg, forest = cfg_from_source(generate_random_program(seed, 16))
        loop_regions(cfg, forest)
        base = build_decomposition(cfg, forest)
        edges = list(cfg.edges())
        for s in [base] + [_perturb(base, rng, cfg.vertex_ids()) for _ in range(4)]:
            report = validate_cfg_decomposition(s, cfg)
            assert report.d3_original == d3_by_scan(s, edges), seed


# -- oracles ----------------------------------------------------------------------


def test_connectivity_matches_triple_enumeration():
    rng = random.Random(7)
    checked = 0
    seed = 0
    while checked < 120:
        seed += 1
        cfg, forest, _ = pipeline(generate_random_program(seed, 8))
        if cfg.n_vertices > 12:
            continue
        d = build_decomposition(cfg, forest)
        for s in [d] + [_perturb(d, rng, cfg.vertex_ids()) for _ in range(2)]:
            assert validate_cfg_decomposition(s, cfg).connectivity == connectivity_by_triples(s), seed
            checked += 1


def test_edge_covering_matches_direct_definition():
    rng = random.Random(8)
    checked = 0
    seed = 0
    while checked < 120:
        seed += 1
        cfg, forest, _ = pipeline(generate_random_program(seed, 8))
        if cfg.n_vertices > 12:
            continue
        d = build_decomposition(cfg, forest)
        edges = list(cfg.edges())
        for s in [d] + [_perturb(d, rng, cfg.vertex_ids()) for _ in range(2)]:
            report = validate_cfg_decomposition(s, cfg)
            got = (report.edges_covered_3a, report.edges_covered_3b)
            assert got == edges_covered_by_defn(s, edges), seed
            checked += 1


# -- report --------------------------------------------------------------------------


def test_report_json_shape():
    cfg, d = while_decomp()
    report = validate_cfg_decomposition(d, cfg)
    data = report.to_json_dict()
    assert data["valid"] and data["width"] == 3
    assert set(data) == {
        "acyclic", "vertices_covered", "connectivity", "edges_covered_3a",
        "edges_covered_3b", "d3_original", "width", "valid", "violations",
    }


def test_report_flags_cycle():
    """A cycle, and a node listed twice, which only a decomposition built in
    code can hold, are both reported as not acyclic."""
    for nodes, arcs in [([0, 1], [(0, 1), (1, 0)]), ([0, 0, 1], [(0, 1)])]:
        d = DagDecomposition(nodes=nodes, arcs=arcs, bags={0: (0,), 1: (1,)})
        report = validate_cfg_decomposition(d, _FakeGraph([0, 1], [(0, 1)]))
        assert not report.acyclic and not report.valid
        assert ("acyclic", ()) in report.violations


class _FakeGraph:
    def __init__(self, vertices, edges):
        self._v, self._e = vertices, edges

    def vertex_ids(self):
        return list(self._v)

    def edges(self):
        return iter(self._e)


def test_validation_orders_once_with_and_without_d3(monkeypatch):
    import cfgdag.validate as validate

    assert not hasattr(validate, "VertexBits")
    cfg, forest, _ = pipeline(generate_random_program(7, 40))
    d = build_decomposition(cfg, forest)
    edges = list(cfg.edges())
    calls = []
    real_order = validate._dfs_order

    def order(decomp):
        calls.append(decomp)
        return real_order(decomp)

    monkeypatch.setattr(validate, "_dfs_order", order)
    assert validate_cfg_decomposition(d, cfg).valid
    assert len(calls) == 1
    rng = random.Random(3)
    for s in [d] + [_perturb(d, rng, cfg.vertex_ids()) for _ in range(20)]:
        calls.clear()
        report = validate_cfg_decomposition(s, cfg)
        assert len(calls) == 1
        assert report.d3_original == d3_by_scan(s, edges)


@pytest.mark.parametrize("from_cfg", [False, True])
def test_validation_memory_grows_linearly(from_cfg):
    """The tracemalloc peak of one validate, at 10^4 and 3x10^4 statements.
    One reach mask of V bits per node grew 7.8x here, and the two masks per
    node that once decided the guarding form 7.9x; the reach queries grow
    3.6x, with the CFG's vertex and edge lists read inside the peak or
    built before it."""
    peaks = []
    for n in (10**4, 3 * 10**4):
        cfg, forest = cfg_from_source(generate_random_program(424242, n))
        loop_regions(cfg, forest)
        d = build_decomposition(cfg, forest)
        vertices, edges = list(cfg.vertex_ids()), list(cfg.edges())
        tracemalloc.start()
        try:
            if from_cfg:
                report = validate_cfg_decomposition(d, cfg)
            else:
                report = validate_decomposition(d, vertices, edges)
            assert report.valid and report.d3_original is True
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 5 * peaks[0], peaks


# -- reach queries against one reach mask per node ---------------------------------


def _damaged(draw, d: DagDecomposition, vertices) -> DagDecomposition:
    """Dropped arcs, shrunk or grown bags, an added arc cycle."""
    arcs, bags = list(d.arcs), dict(d.bags)
    nodes = sorted(d.nodes)
    for _ in range(draw(st.integers(1, 4))):
        damage = draw(st.sampled_from(["drop arc", "shrink bag", "grow bag", "cycle"]))
        n = draw(st.sampled_from(nodes))
        if damage == "drop arc" and arcs:
            del arcs[draw(st.integers(0, len(arcs) - 1))]
        elif damage == "shrink bag" and bags[n]:
            bags[n] = tuple(sorted(set(bags[n]) - {draw(st.sampled_from(bags[n]))}))
        elif damage == "grow bag":
            bags[n] = tuple(sorted({*bags[n], draw(st.sampled_from([*vertices, max(vertices) + 1]))}))
        elif damage == "cycle":
            succ = {m: [b for a, b in arcs if a == m] for m in nodes}
            end = n
            for _ in range(draw(st.integers(0, 5))):
                if not succ[end]:
                    break
                end = draw(st.sampled_from(succ[end]))
            arcs.append((end, n))
    return DagDecomposition(nodes=list(d.nodes), arcs=arcs, bags=bags)


def _shuffled(draw, d: DagDecomposition) -> DagDecomposition:
    """Node ids permuted and nodes and arcs listed in a random order."""
    ids = dict(zip(d.nodes, draw(st.permutations(d.nodes))))
    return DagDecomposition(
        nodes=draw(st.permutations([ids[n] for n in d.nodes])),
        arcs=draw(st.permutations([(ids[i], ids[j]) for i, j in d.arcs])),
        bags={ids[n]: bag for n, bag in d.bags.items()},
    )


@st.composite
def decompositions(draw, kind: str):
    """(decomposition, vertices, edges): a construction, a damaged one, a
    lifted m = 4 one (sometimes damaged), or a shuffled one (sometimes
    damaged), where the DFS order is poor."""
    program = generate_random_program(draw(st.integers(0, 10**6)), draw(st.integers(1, 30)))
    cfg, forest, _ = pipeline(program)
    d = build_decomposition(cfg, forest)
    vertices, edges = cfg.vertex_ids(), list(cfg.edges())
    if kind == "lifted":
        game = build_product_game(cfg, FormulaSkeleton.chain(4), seed=draw(st.integers(0, 99)))
        d, vertices, edges = lift_decomposition(d, game), game.vertex_ids(), game.edges
    elif kind == "shuffled":
        d = _shuffled(draw, d)
    if kind == "damaged" or kind != "construction" and draw(st.booleans()):
        d = _damaged(draw, d, vertices)
    return d, vertices, edges


# With vertex 4 added to the bag of start, its decomposition fails the
# guarding form by a dropped target alone.
DROPPED_TARGET_SOURCE = ("if c1 { a2; a3; a4; } a5; do { a7; a8; do { a10; } while c9; a11;"
                         " if c12 { a13; a14; } a15; a16; } while c6; a17; a18; a19; a20;")


@pytest.mark.parametrize("kind", ["construction", "damaged", "lifted", "shuffled"])
def test_reach_queries_give_the_reports_of_the_masks(kind):
    """Whole reports, violations in order; the guarding form must match the
    scan of every guard against every edge."""
    dropped_target_only = []

    def compare(d, vertices, edges):
        report = validate_decomposition(d, vertices, edges)
        assert report == validate_by_masks(d, vertices, edges, with_d3=True)
        if (report.edges_covered_3a and report.edges_covered_3b and not report.connectivity
                and report.d3_original is False):
            dropped_target_only.append(d)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        d, vertices, edges = data.draw(decompositions(kind))
        compare(d, vertices, edges)

    check()
    if kind == "damaged":
        # 3a and 3b hold and connectivity fails, so only a dropped target
        # can make the guarding form false. The draws need not meet such a
        # sample, so one is pinned too.
        cfg, forest, _ = pipeline(DROPPED_TARGET_SOURCE)
        d = build_decomposition(cfg, forest)
        d.bags[0] = tuple(sorted({*d.bags[0], 4}))
        compare(d, cfg.vertex_ids(), list(cfg.edges()))
        assert d in dropped_target_only
