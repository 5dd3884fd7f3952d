"""Hand-built graphs with known pursuit properties."""

from __future__ import annotations

from .cfg import ControlFlowGraph, EdgeKind
from .loops import LoopForest, compute_dominators, recover_loop_forest


def two_loop_cfg() -> tuple[ControlFlowGraph, LoopForest]:
    """Control-flow graph whose robber can toggle between two sibling cycles.

    An outer loop (entry 1, exit 3) contains two inner loops, 5-6-7 with
    exit 8 and 9-10-11 with exit 12; both escape back to the outer entry.
    Two cops cannot corner a robber that alternates between the cycles, so
    its cop number (and width) is exactly three. Vertex ids deliberately
    skip 4. The forest is the one recovered from the graph, owner map
    filled in.
    """
    g = ControlFlowGraph()
    g.add_vertex("start", 0)
    for v in (1, 2, 3):
        g.add_vertex(f"v{v}", v)
    for v in range(5, 13):
        g.add_vertex(f"v{v}", v)
    stop = g.add_vertex("stop", 13)
    g.start, g.stop = 0, stop

    for u, v in [
        (0, 1), (1, 2),
        (2, 5), (2, 9), (2, 3),
        (5, 6), (6, 7), (7, 5), (5, 8), (6, 8), (8, 1),
        (9, 10), (10, 11), (11, 9), (9, 12), (10, 12), (12, 1),
        (3, stop),
    ]:
        g.add_edge(u, v, EdgeKind.OUT)

    return g, recover_loop_forest(g, compute_dominators(g))
