"""cfgdag._graph.postorder finds every cycle, lists every node once and
orders every DAG, cfgdag._graph.components finds the classes of mutual
reachability in DFS finish order, and cfgdag.game.VertexBits sets survive
the trip through a bitmask."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag._graph import components, postorder
from cfgdag.game import VertexBits
from helpers import bfs_reachable, components_by_reachability, components_in_finish_order, toposort


@st.composite
def digraphs(draw):
    nodes = draw(st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True))
    arcs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=40))
    succ = {n: [] for n in nodes}
    for u, v in arcs:
        succ[u].append(v)
    return nodes, succ


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs())
@example(([0], {0: [0]}))
@example(([0, 1, 2], {0: [1], 1: [2], 2: [0]}))
@example(([0, 1, 2], {0: [1, 2], 1: [2], 2: []}))
def test_postorder_orders_exactly_the_acyclic_graphs(graph):
    nodes, succ = graph
    post, acyclic = postorder(nodes, succ)
    assert acyclic == (toposort(nodes, succ) is not None)
    assert sorted(post) == sorted(nodes)
    if acyclic:
        at = {n: k for k, n in enumerate(post)}
        assert all(at[v] < at[u] for u in nodes for v in succ[u])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs())
@example(([0], {0: []}))
@example(([0], {0: [0]}))
@example(([0, 1, 2, 3], {0: [1], 1: [0, 2], 2: [3], 3: [2]}))
@example(([0, 1, 2, 3], {0: [1, 3], 1: [2], 2: [0, 3], 3: [3]}))
def test_components_are_the_classes_of_mutual_reachability(graph):
    """Each node lies in one listed component, the components are those of
    the oracle, and none is listed before a component it reaches. They come
    in the order in which a DFS entering roots in the order of nodes and
    successors in list order finishes them."""
    nodes, succ = graph
    comps = components(nodes, succ)
    assert sorted(v for comp in comps for v in comp) == sorted(nodes)
    assert sorted(map(sorted, comps)) == sorted(map(sorted, components_by_reachability(nodes, succ)))
    at = {v: i for i, comp in enumerate(comps) for v in comp}
    assert all(at[w] <= at[v] for v in nodes for w in bfs_reachable(succ, v))
    assert list(map(set, comps)) == components_in_finish_order(nodes, succ)


def test_components_walk_deep_graphs_without_recursion():
    n = 100_000
    path = {v: [v + 1] for v in range(n - 1)} | {n - 1: []}
    assert components(range(n), path) == [[v] for v in reversed(range(n))]
    cycle = path | {n - 1: [0]}
    (comp,) = components(range(n), cycle)
    assert sorted(comp) == list(range(n))


@st.composite
def universe_and_subset(draw):
    universe = draw(st.sets(st.integers(min_value=-3, max_value=2000), min_size=1, max_size=400))
    subset = draw(st.sets(st.sampled_from(sorted(universe))))
    return sorted(universe), subset


WIDE = list(range(0, 600, 3))  # 200 vertices, so masks run past 64 bits


@settings(derandomize=True, max_examples=300, deadline=None)
@given(universe_and_subset())
@example((WIDE, set()))
@example((WIDE, {0}))
@example((WIDE, {WIDE[-1]}))
@example((WIDE, {0, WIDE[-1]}))
@example((WIDE, set(WIDE)))
@example((WIDE, set(WIDE[60:130])))
def test_set_of_inverts_of(case):
    universe, subset = case
    bits = VertexBits(universe)
    mask = bits.of(subset)
    assert mask.bit_count() == len(subset)
    assert bits.set_of(mask) == subset
