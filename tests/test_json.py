"""cfgdag._json writes exactly what json.dumps(indent=2) writes."""

import json
import tracemalloc
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag import (
    ControlFlowGraph,
    DagDecomposition,
    EdgeKind,
    FormulaSkeleton,
    GameGraph,
    build_decomposition,
    build_product_game,
    cfg_from_source,
    generate_random_program,
)
from cfgdag._json import PAIR, PIECE, dumps, pairs, section
from helpers import cfg_json_dict, decomposition_json_dict

# Strings that look like the item boundaries of the indented layout.
BOUNDARIES = ["},\n    {", "],\n  [", "},\n{", "],\n", "\n", '", "', "{", "]", ""]

text = st.one_of(
    st.sampled_from(BOUNDARIES),
    st.text(alphabet=st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f ab{}[],:é€ \U0001F600')),
    st.text(),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    text,
)
flat_list = st.lists(scalars, min_size=1, max_size=5)
flat_dict = st.dictionaries(text, scalars, min_size=1, max_size=5)
flat_array = st.one_of(flat_list, flat_list.map(tuple))
records = st.one_of(
    st.lists(flat_dict, max_size=6),
    st.lists(flat_array, max_size=6),
    st.dictionaries(text, flat_dict, max_size=6),
    st.dictionaries(text, flat_array, max_size=6),
    st.dictionaries(text, st.lists(st.integers(), max_size=5), max_size=6),
)
# json.dumps turns int, float, bool and None keys into strings.
keys = st.one_of(text, st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())
values = st.recursive(
    st.one_of(scalars, records),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(text, kids, max_size=5),
        st.dictionaries(keys, kids, max_size=3),
    ),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(values)
@example([])
@example({})
@example([[], {}, [[]], [{}], {"a": []}])
@example({"vertices": [{"id": 0, "label": "},\n    {"}], "edges": [[0, 1], [1, 0]]})
@example([["],\n  [", 1], ["],\n  ["]])
@example([[[], []], [[]]])
@example({"bags": {"0": [1, 2], "1": []}, "m": -(10**30), "x": 1.5e-300})
def test_dumps_matches_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(records)
def test_dumps_matches_on_lists_of_flat_records(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


RECORD = '{\n      "s": %s,\n      "n": %d\n    }'
BAG = '"%d": [\n      %d,\n      %d\n    ]'


def records_chunk(part):
    """section's chunk for records given as (template, values) pairs."""
    return [item for item, _ in part], tuple(chain.from_iterable(values for _, values in part))


@pytest.mark.parametrize("items, values, brackets, value", [
    ([], [], "[]", []),
    ([], [], "{}", {}),
    ([PAIR] * 2, [(0, 1), (2, -3)], "[]", [[0, 1], [2, -3]]),
    ([BAG, '"7": []'], [(-1, 5, 7), ()], "{}", {"-1": [5, 7], "7": []}),
    # Values may hold % signs and quotes: only the templates are formats.
    ([RECORD] * 3, [(json.dumps("%s"), 0), (json.dumps('"%%d"'), 1), (json.dumps("\\"), 2)], "[]",
     [{"s": "%s", "n": 0}, {"s": '"%%d"', "n": 1}, {"s": "\\", "n": 2}]),
])
def test_section_writes_the_value_of_a_top_level_key(items, values, brackets, value):
    written = '{\n  "key": ' + "".join(section(list(zip(items, values)), records_chunk, brackets)) + "\n}"
    assert written == json.dumps({"key": value}, indent=2)


SIZES = [0, 1, PIECE - 1, PIECE, PIECE + 1, 2 * PIECE + 1]


@pytest.mark.parametrize("n", SIZES)
def test_section_pieces_hold_at_most_a_piece_of_records_and_join_to_json_dumps(n):
    arcs = [(i, -i) for i in range(n)]
    pieces = list(section(arcs, pairs))
    assert len(pieces) == (1 if n == 0 else -(-n // PIECE) + 1)
    assert max(piece.count("[\n      ") for piece in pieces) <= PIECE
    assert '{\n  "key": ' + "".join(pieces) + "\n}" == json.dumps({"key": [list(p) for p in arcs]}, indent=2)


def model_texts(n: int) -> list[tuple[str, str]]:
    """(to_json text, json.dumps text) of a graph and a decomposition whose
    sections hold n records, and of two product games with n edges and
    m * ceil(n / m) vertices. The bags have lengths 0, 1, 2, 3 in turn, so
    bags of every length straddle a piece boundary; the games have m = 1 and
    m = 3, so a piece boundary falls inside a group of m vertices."""
    cfg = ControlFlowGraph()
    for i in range(n):
        cfg.add_vertex(["a", "%s", '"q"', "é"][i % 4])
    for i in range(n - 1):
        cfg.add_edge(i, i + 1, EdgeKind.OUT if i % 2 else EdgeKind.EXIT)
    cfg.start, cfg.stop = (0, n - 1) if n else (-1, -1)
    decomp = DagDecomposition(nodes=list(range(n))[::-1], arcs=[(i, i + 1) for i in range(n - 1)][::-1],
                              bags={i: tuple(range(i, i + i % 4)) for i in range(n)})
    texts = [(cfg.to_json(), dumps(cfg_json_dict(cfg))), (decomp.to_json(), dumps(decomposition_json_dict(decomp)))]
    for m in (1, 3):
        states = list(range(0, 2 * -(-n // m), 2))
        k = m * len(states)
        game = GameGraph(m=m, states=states, owner=[i % 2 for i in range(k)],
                         priority=[i % 5 for i in range(k)], edges=[(i, (i * 7) % max(k, 1)) for i in range(n)])
        tree = {"m": m,
                "vertices": [{"id": s * m + q, "state": s, "part": q, "owner": game.owner[i],
                              "priority": game.priority[i]}
                             for i, (s, q) in enumerate((s, q) for s in states for q in range(m))],
                "edges": [list(e) for e in sorted(game.edges)]}
        texts.append((game.to_json(), dumps(tree)))
    return texts


@pytest.mark.parametrize("n", SIZES)
def test_the_int_writers_equal_json_dumps_across_piece_boundaries(n):
    for written, expected in model_texts(n):
        assert written == expected


def test_a_writer_holds_a_piece_of_its_text_not_the_text():
    """Given a write callable, each int writer holds one piece at a time: at
    10^5 statements, on texts of 10-31 MB, traced memory grows by less than
    1 MiB after the first piece reaches the sink (by then the writer holds
    its sorted ids and arcs), and by less than 4 MiB over the whole call."""
    cfg, forest = cfg_from_source(generate_random_program(424242, 10**5))
    decomp = build_decomposition(cfg, forest)
    game = build_product_game(cfg, FormulaSkeleton.chain(2))
    for model in (cfg, decomp, game):
        written, at_first = [0], []

        def sink(piece):
            written[0] += len(piece)
            if not at_first:
                at_first.extend(tracemalloc.get_traced_memory())  # (current, peak so far)
                tracemalloc.reset_peak()

        tracemalloc.start()  # traces only what is allocated from here on
        try:
            model.to_json(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        name = type(model).__name__
        assert written[0] > 10 * 2**20, name
        assert peak - at_first[0] < 2**20, name
        assert max(peak, at_first[1]) < 4 * 2**20, name
