"""cfgdag._json writes exactly what json.dumps(indent=2) writes."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag._json import PAIR, dumps, section

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


@pytest.mark.parametrize("items, values, brackets, value", [
    ([], (), "[]", []),
    ([], (), "{}", {}),
    ([PAIR] * 2, (0, 1, 2, -3), "[]", [[0, 1], [2, -3]]),
    ([BAG, '"7": []'], (-1, 5, 7), "{}", {"-1": [5, 7], "7": []}),
    # Values may hold % signs and quotes: only the templates are formats.
    ([RECORD] * 3, (json.dumps("%s"), 0, json.dumps('"%%d"'), 1, json.dumps("\\"), 2), "[]",
     [{"s": "%s", "n": 0}, {"s": '"%%d"', "n": 1}, {"s": "\\", "n": 2}]),
])
def test_section_writes_the_value_of_a_top_level_key(items, values, brackets, value):
    written = '{\n  "key": ' + section(items, values, brackets) + "\n}"
    assert written == json.dumps({"key": value}, indent=2)
