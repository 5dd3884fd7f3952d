import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import (
    ControlFlowGraph,
    FormulaSkeleton,
    GameGraph,
    build_decomposition,
    build_product_game,
    generate_random_program,
    lift_decomposition,
    prune_unreachable,
    two_loop_cfg,
    validate_decomposition,
)
from cfgdag.parity import _below
from helpers import DEAD_CFG_JSON, game_json_dict, pipeline, product_game_by_add_edge


def test_skeleton_validation():
    with pytest.raises(ValueError):
        FormulaSkeleton(m=0, intra_edges=(), cross_edges=())
    with pytest.raises(ValueError):
        FormulaSkeleton(m=2, intra_edges=(), cross_edges=(), d=1)
    with pytest.raises(ValueError):
        FormulaSkeleton(m=2, intra_edges=((0, 2),), cross_edges=())


def test_chain_skeleton_shape():
    sk = FormulaSkeleton.chain(3)
    assert sk.intra_edges == ((0, 1), (1, 2))
    assert sk.cross_edges == ((2, 0),)


def test_m1_product_is_isomorphic_to_the_graph():
    cfg, forest, _ = pipeline("while c { b; }")
    game = build_product_game(cfg, FormulaSkeleton.chain(1), seed=5)
    assert len(game.state_of) == cfg.n_vertices
    got = {(game.state_of[u][0], game.state_of[v][0]) for u, v in game.edges}
    assert got == set(cfg.edges())


def test_group_sizes_and_vertex_count():
    cfg, forest, _ = pipeline("a; if c { b; } d;")
    for m in (1, 2, 3, 4):
        game = build_product_game(cfg, FormulaSkeleton.chain(m), seed=0)
        assert len(game.state_of) == m * cfg.n_vertices
        assert game.states == sorted(cfg.vertex_ids())
        assert game.vertex_ids() == [s * m + q for s in game.states for q in range(m)]
        assert len(game.owner) == len(game.priority) == m * cfg.n_vertices


def test_chain_product_on_three_vertex_chain():
    cfg, forest, _ = pipeline("a;")  # start -> a -> stop
    game = build_product_game(cfg, FormulaSkeleton.chain(2), seed=1)
    assert len(game.state_of) == 6
    cross = [(u, v) for u, v in game.edges
             if game.state_of[u][0] != game.state_of[v][0]]
    assert len(cross) == 2  # one per graph transition


def test_cross_edges_only_along_transitions():
    cfg, forest, _ = pipeline(generate_random_program(4, 25))
    game = build_product_game(cfg, FormulaSkeleton.chain(3), seed=2)
    edges = set(cfg.edges())
    for u, v in game.edges:
        su, sv = game.state_of[u][0], game.state_of[v][0]
        assert su == sv or (su, sv) in edges


def test_successors_agree_with_edges():
    """The oracle's add_edge keeps a repeated edge once."""
    cfg, forest, _ = pipeline(generate_random_program(4, 25))
    game = product_game_by_add_edge(cfg, FormulaSkeleton.chain(3), seed=2)
    u, v = game.edges[0]
    game.add_edge(u, v)
    for x in game.state_of:
        assert game.succ.get(x, []) == [w for y, w in game.edges if y == x]


def test_add_edge_rejects_non_transition():
    """The oracle's add_edge checks that a cross edge follows a transition."""
    cfg, forest, _ = pipeline("a; b;")
    game = product_game_by_add_edge(cfg, FormulaSkeleton.chain(2), seed=0)
    ids = sorted(game.state_of)
    u = next(v for v in ids if game.state_of[v] == (cfg.start, 0))
    w = next(v for v in ids if game.state_of[v] == (cfg.stop, 0))
    with pytest.raises(ValueError, match="not a transition"):
        game.add_edge(u, w)


def test_owners_and_priorities_seeded():
    cfg, forest, _ = pipeline("while c { b; }")
    a = build_product_game(cfg, FormulaSkeleton.chain(2, d=4), seed=9)
    b = build_product_game(cfg, FormulaSkeleton.chain(2, d=4), seed=9)
    assert a.owner == b.owner and a.priority == b.priority
    assert set(a.owner) <= {0, 1}
    assert all(0 <= p < 4 for p in a.priority)


SELF_LOOPS = ["while c { }", "do { } while c;", "while 1 { }", "a; while c { while d { } } b;"]


@st.composite
def skeletons(draw):
    """Skeletons whose patterns may repeat a pair or share pairs between them."""
    m = draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    intra = draw(st.lists(pairs, max_size=2 * m))
    cross = draw(st.lists(st.one_of(pairs, st.sampled_from(intra)) if intra else pairs,
                          min_size=1, max_size=2 * m))
    return FormulaSkeleton(m=m, intra_edges=tuple(intra), cross_edges=tuple(cross),
                           d=draw(st.integers(2, 6)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(SELF_LOOPS),
                 st.builds(generate_random_program, st.integers(0, 10**6), st.integers(1, 40))),
       skeletons(), st.integers(0, 2**64))
@example(SELF_LOOPS[0], FormulaSkeleton(2, ((0, 1), (0, 1), (1, 1)), ((1, 1), (0, 1), (1, 1)), 3), 0)
@example("a;", FormulaSkeleton.chain(4, d=6), 7)
def test_product_game_equals_the_add_edge_construction(source, skeleton, seed):
    cfg, _, _ = pipeline(source)
    got = build_product_game(cfg, skeleton, seed=seed)
    want = product_game_by_add_edge(cfg, skeleton, seed=seed)
    assert got.m == want.m
    assert got.states == list(want.groups)
    assert got.vertex_ids() == list(want.state_of)
    assert list(got.state_of.items()) == list(want.state_of.items())
    assert got.owner == list(want.owner.values())
    assert got.priority == list(want.priority.values())
    assert got.edges == want.edges
    assert got.to_json() == json.dumps(game_json_dict(want), indent=2) + "\n"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(SELF_LOOPS),
                 st.builds(generate_random_program, st.integers(0, 10**6), st.integers(1, 40))),
       skeletons().filter(lambda sk: sk.m <= 4), st.integers(0, 2**64))
@example(SELF_LOOPS[1], FormulaSkeleton(4, ((0, 1), (3, 3)), ((3, 3), (1, 0)), 9), 1)
def test_game_json_is_what_json_dumps_writes(source, skeleton, seed):
    cfg, _, _ = pipeline(source)
    game = build_product_game(cfg, skeleton, seed=seed)
    want = json.dumps(game_json_dict(product_game_by_add_edge(cfg, skeleton, seed=seed)),
                      indent=2) + "\n"
    assert game.to_json() == want
    # The same game with its edges stored in another order.
    random.Random(seed).shuffle(game.edges)
    assert game.to_json() == want


@st.composite
def gapped_cfg_json(draw) -> dict:
    """CFG JSON whose vertex ids have gaps, negative ones among them, so
    that a game vertex's place in id order is not its id."""
    ids = draw(st.lists(st.integers(-9, 40), min_size=1, max_size=12, unique=True))
    ends = st.sampled_from(ids)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=24, unique=True))
    return {"vertices": [{"id": v, "label": f"v{v}"} for v in ids],
            "edges": [{"from": u, "to": v, "kind": "out"} for u, v in edges],
            "start": draw(ends), "stop": draw(ends)}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(gapped_cfg_json(), skeletons(), st.integers(0, 2**64))
@example(DEAD_CFG_JSON, FormulaSkeleton.chain(3, d=5), 7)
def test_game_json_on_ids_with_gaps_is_what_json_dumps_writes(data, skeleton, seed):
    graph = ControlFlowGraph.from_json_dict(data)
    for cfg in (graph, prune_unreachable(graph)):  # pruning DEAD_CFG_JSON leaves 0 1 2 4 7
        game = build_product_game(cfg, skeleton, seed=seed)
        want = product_game_by_add_edge(cfg, skeleton, seed=seed)
        assert game.owner == [want.owner[v] for v in sorted(want.state_of)]
        assert game.priority == [want.priority[v] for v in sorted(want.state_of)]
        assert game.to_json() == json.dumps(game_json_dict(want), indent=2) + "\n"


def test_json_of_a_game_without_vertices_is_what_json_dumps_writes():
    game = GameGraph(m=3, states=[])
    want = {"m": 3, "vertices": [], "edges": []}
    assert game.to_json() == json.dumps(want, indent=2) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.one_of(st.integers(1, 9), st.integers(1, 2**70)))
@example(0, 1)
@example(5, 2**32)
@example(5, 2**32 + 1)
def test_below_draws_what_randrange_draws(seed, n):
    rng = random.Random(seed)
    draws = _below(random.Random(seed), n)
    assert [next(draws) for _ in range(20)] == [rng.randrange(n) for _ in range(20)]


# -- lifting -----------------------------------------------------------------


def test_lift_m1_is_a_renaming():
    cfg, forest, _ = pipeline("while c { b; }")
    d = build_decomposition(cfg, forest)
    game = build_product_game(cfg, FormulaSkeleton.chain(1), seed=0)
    lifted = lift_decomposition(d, game)
    assert lifted.width() == d.width()
    assert lifted.arcs == d.arcs


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lift_width_scales_exactly(m):
    cfg, forest, _ = pipeline("while c1 { a; while c2 { b; } }")
    d = build_decomposition(cfg, forest)
    game = build_product_game(cfg, FormulaSkeleton.chain(m), seed=m)
    lifted = lift_decomposition(d, game)
    assert lifted.width() == d.width() * m == 3 * m


def test_lift_loop_free_width_is_m():
    cfg, forest, _ = pipeline("a; if c { b; } d;")
    d = build_decomposition(cfg, forest)
    game = build_product_game(cfg, FormulaSkeleton.chain(3), seed=0)
    assert lift_decomposition(d, game).width() == 3 * d.width() == 3


def test_lifted_decomposition_validates_against_the_product():
    for seed in range(10):
        cfg, forest, _ = pipeline(generate_random_program(seed, 30))
        d = build_decomposition(cfg, forest)
        for m in (1, 2, 3):
            game = build_product_game(cfg, FormulaSkeleton.chain(m), seed=seed)
            lifted = lift_decomposition(d, game)
            report = validate_decomposition(lifted, game.vertex_ids(), game.edges)
            assert report.valid, (seed, m)
            assert lifted.width() == d.width() * m


def test_lift_rejects_a_bag_vertex_without_a_group():
    cfg, forest, _ = pipeline("while c { b; }")
    small, _, _ = pipeline("a;")
    game = build_product_game(small, FormulaSkeleton.chain(2), seed=0)
    with pytest.raises(ValueError, match="has no group in the product game"):
        lift_decomposition(build_decomposition(cfg, forest), game)


def test_lift_keeps_arc_count():
    cfg, forest = two_loop_cfg()
    d = build_decomposition(cfg, forest)
    game = build_product_game(cfg, FormulaSkeleton.chain(4), seed=0)
    lifted = lift_decomposition(d, game)
    assert len(lifted.arcs) == len(d.arcs)
    assert lifted.width() == 12


def test_game_json_shape():
    cfg, forest, _ = pipeline("a;")
    game = build_product_game(cfg, FormulaSkeleton.chain(2), seed=0)
    data = json.loads(game.to_json())
    assert data == game_json_dict(game)
    assert set(data) == {"m", "vertices", "edges"}
    assert all(set(v) == {"id", "state", "part", "owner", "priority"} for v in data["vertices"])
