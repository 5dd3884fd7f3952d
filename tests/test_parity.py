import pytest

from cfgdag import (
    FormulaSkeleton,
    build_decomposition,
    build_product_game,
    generate_random_program,
    lift_decomposition,
    two_loop_cfg,
    validate_decomposition,
)
from helpers import pipeline


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
        assert all(len(g) == m for g in game.groups.values())


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
    cfg, forest, _ = pipeline(generate_random_program(4, 25))
    game = build_product_game(cfg, FormulaSkeleton.chain(3), seed=2)
    u, v = game.edges[0]
    game.add_edge(u, v)  # a repeated edge is kept once
    for x in game.vertex_ids():
        assert game.successors(x) == [w for y, w in game.edges if y == x]


def test_add_edge_rejects_non_transition():
    cfg, forest, _ = pipeline("a; b;")
    game = build_product_game(cfg, FormulaSkeleton.chain(2), seed=0)
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
    assert set(a.owner.values()) <= {0, 1}
    assert all(0 <= p < 4 for p in a.priority.values())


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
    data = game.to_json_dict()
    assert set(data) == {"m", "vertices", "edges"}
    assert all(set(v) == {"id", "state", "part", "owner", "priority"} for v in data["vertices"])
