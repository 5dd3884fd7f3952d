import random

from cfgdag import (
    DagDecomposition,
    build_decomposition,
    check_connectivity,
    check_d3,
    check_edges_covered,
    check_vertices_covered,
    generate_random_program,
    guards,
    validate_cfg_decomposition,
)
from helpers import connectivity_by_triples, edges_covered_by_defn, pipeline


def by_label(cfg):
    return {cfg.labels[v]: v for v in cfg.vertex_ids()}


def while_decomp():
    cfg, forest, _ = pipeline("while c { b; }")
    return cfg, build_decomposition(cfg, forest)


# -- individual checks -----------------------------------------------------------


def test_vertices_covered_on_construction():
    cfg, d = while_decomp()
    assert check_vertices_covered(d, cfg.vertex_ids())


def test_vertices_covered_detects_missing():
    cfg, d = while_decomp()
    d.bags[2] = frozenset()  # empty one bag; vertex 2 is now uncovered
    report = validate_cfg_decomposition(d, cfg)
    assert not report.vertices_covered
    assert ("vertices_covered_missing", (2,)) in report.violations


def test_connectivity_on_construction():
    _, d = while_decomp()
    assert check_connectivity(d)


def test_connectivity_detects_dropped_guard():
    # Chain of bags sharing a vertex; cut it out of the middle bag.
    d = DagDecomposition(
        nodes=[0, 1, 2],
        arcs=[(0, 1), (1, 2)],
        bags={0: frozenset({0, 9}), 1: frozenset({1}), 2: frozenset({2, 9})},
    )
    assert not check_connectivity(d)


def test_connectivity_detects_exit_dropped_from_mid_path_bag():
    cfg, forest, _ = pipeline("while c { a; b; }")
    ids = by_label(cfg)
    d = build_decomposition(cfg, forest)
    (elem,) = forest.elements
    d.bags[ids["a"]] = d.bags[ids["a"]] - {elem.exit}
    report = validate_cfg_decomposition(d, cfg)
    assert not report.connectivity and not report.valid
    assert any(kind == "connectivity" and w[-1] == elem.exit for kind, w in report.violations)


def test_singleton_chain_connectivity():
    d = DagDecomposition(
        nodes=[0, 1, 2],
        arcs=[(0, 1), (1, 2)],
        bags={0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})},
    )
    assert check_connectivity(d)
    assert check_edges_covered(d, [(0, 1), (1, 2)]) == (True, True)


def test_edges_covered_on_construction():
    cfg, d = while_decomp()
    assert check_edges_covered(d, list(cfg.edges())) == (True, True)


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
    ok_sources, ok_arcs = check_edges_covered(d, list(cfg.edges()))
    assert not (ok_sources and ok_arcs)
    report = validate_cfg_decomposition(d, cfg)
    assert not report.valid
    # the witness is the re-routed entry edge, now uncovered
    witnesses = {w[-2:] for kind, w in report.violations if kind.startswith("edges_covered")}
    assert (ids["start"], ids["c"]) in witnesses


# -- guards ------------------------------------------------------------------------


def test_guards_whole_graph_by_nothing():
    cfg, _ = while_decomp()
    assert guards(set(), set(cfg.vertex_ids()), list(cfg.edges()))


def test_guards_loop_body():
    cfg, _ = while_decomp()
    ids = by_label(cfg)
    edges = list(cfg.edges())
    assert guards({ids["c"]}, {ids["b"]}, edges)
    assert not guards(set(), {ids["c"]}, edges)


# -- the guarding form and its equivalence --------------------------------------------


def test_d3_on_constructions():
    for seed in range(25):
        cfg, forest, _ = pipeline(generate_random_program(seed, 40))
        d = build_decomposition(cfg, forest)
        ok_a, ok_b = check_edges_covered(d, list(cfg.edges()))
        assert ok_a and ok_b
        assert check_d3(d, list(cfg.edges()))


def _perturb(d: DagDecomposition, rng: random.Random, vertices) -> DagDecomposition:
    bags = dict(d.bags)
    node = rng.choice(d.nodes)
    bag = set(bags[node])
    if bag and rng.random() < 0.5:
        bag.discard(rng.choice(sorted(bag)))
    else:
        bag.add(rng.choice(sorted(vertices)))
    bags[node] = frozenset(bag)
    return DagDecomposition(nodes=list(d.nodes), arcs=list(d.arcs), bags=bags)


def test_equivalence_of_both_edge_covering_forms():
    """Arc/source form agrees with the guarding form wherever connectivity holds."""
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
            if not check_vertices_covered(s, cfg.vertex_ids()) or not check_connectivity(s):
                skipped += 1  # the equivalence argument needs connectivity
                continue
            ok_a, ok_b = check_edges_covered(s, list(cfg.edges()))
            assert (ok_a and ok_b) == check_d3(s, list(cfg.edges())), seed
            agreeing += 1
    assert agreeing >= 400


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
            assert check_connectivity(s) == connectivity_by_triples(s), seed
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
            assert check_edges_covered(s, edges) == edges_covered_by_defn(s, edges), seed
            checked += 1


# -- report --------------------------------------------------------------------------


def test_report_json_shape():
    cfg, d = while_decomp()
    report = validate_cfg_decomposition(d, cfg, with_d3=True)
    data = report.to_json_dict()
    assert data["valid"] and data["width"] == 3
    assert set(data) == {
        "acyclic", "vertices_covered", "connectivity", "edges_covered_3a",
        "edges_covered_3b", "d3_original", "width", "valid", "violations",
    }


def test_report_flags_cycle():
    d = DagDecomposition(nodes=[0, 1], arcs=[(0, 1), (1, 0)],
                         bags={0: frozenset({0}), 1: frozenset({1})})
    report = validate_cfg_decomposition(d, _FakeGraph([0, 1], [(0, 1)]))
    assert not report.acyclic and not report.valid


class _FakeGraph:
    def __init__(self, vertices, edges):
        self._v, self._e = vertices, edges

    def vertex_ids(self):
        return list(self._v)

    def edges(self):
        return iter(self._e)


def test_validation_sorts_and_closes_once(monkeypatch):
    import cfgdag.validate as validate

    cfg, forest, _ = pipeline(generate_random_program(7, 40))
    d = build_decomposition(cfg, forest)
    calls = {"order": 0, "closure": 0}
    real_order, real_closure = DagDecomposition.topological_order, validate._closure

    def order(self):
        calls["order"] += 1
        return real_order(self)

    def closure(*args):
        calls["closure"] += 1
        return real_closure(*args)

    monkeypatch.setattr(DagDecomposition, "topological_order", order)
    monkeypatch.setattr(validate, "_closure", closure)
    for with_d3 in (False, True):
        calls.update(order=0, closure=0)
        assert validate_cfg_decomposition(d, cfg, with_d3=with_d3).valid
        assert calls == {"order": 1, "closure": 1}, with_d3
