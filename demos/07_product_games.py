"""Lift a decomposition to the product of a graph with a formula skeleton.

A skeleton of size m turns each graph vertex into a group of m game
vertices; cross-group edges follow graph transitions only. Replacing each
bag vertex by its group lifts the width-3 decomposition to width 3m with
the same arcs.

Run: python demos/07_product_games.py
"""

from cfgdag import (
    FormulaSkeleton,
    build_decomposition,
    build_product_game,
    cfg_from_source,
    lift_decomposition,
    loop_regions,
    validate_decomposition,
)

cfg, forest = cfg_from_source("while c { b; } d;")
loop_regions(cfg, forest)
decomp = build_decomposition(cfg, forest)
print(f"base graph: {cfg.n_vertices} vertices, decomposition width {decomp.width()}")

for m in (1, 2, 3):
    skeleton = FormulaSkeleton.chain(m, d=3)
    game = build_product_game(cfg, skeleton, seed=7)
    lifted = lift_decomposition(decomp, game)
    report = validate_decomposition(lifted, game.vertex_ids(), game.edges)
    print(f"m={m}: product has {len(game.vertex_ids())} vertices, "
          f"lifted width {lifted.width()}, valid={report.valid}, "
          f"arcs unchanged: {len(lifted.arcs) == len(decomp.arcs)}")

game = build_product_game(cfg, FormulaSkeleton.chain(2, d=3), seed=7)
print("\nsample product vertices (id = state * m + part):")
for v, owner, priority in zip(game.vertex_ids()[:6], game.owner, game.priority):
    s, q = divmod(v, game.m)
    print(f"  {v:3d} = ({cfg.labels[s]}, part {q}) owner P{owner} priority {priority}")
