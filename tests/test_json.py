"""cfgdag._json.dumps writes exactly what json.dumps(indent=2) writes."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag._json import _uniform_records, dumps

# Strings that look like the item boundaries the writer re-indents.
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


# Keys a per-record template could mistake for format codes, quotes, line
# breaks or multi-byte text.
record_keys = st.lists(
    st.one_of(st.sampled_from(["%", "%s", "%%", "%(id)s", '"', '\\"', "\n", "é", "€", "\U0001F600"]), text),
    min_size=1, max_size=5, unique=True,
)


@st.composite
def uniform_records(draw):
    keys = draw(record_keys)
    return [{k: draw(scalars) for k in keys} for _ in range(draw(st.integers(1, 6)))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(uniform_records())
@example([{"id": 0, "state": 0, "part": 1, "owner": 1, "priority": 0}])
@example([{"%d": -(10**40), "b": 0}, {"%d": 7, "b": -1}])
@example([{"a": True}, {"a": 1}, {"a": False}])
@example([{"%s": "%s", "a\n": "\n", '"': None}, {"%s": 1.5, "a\n": True, '"': -(10**30)}])
def test_uniform_records_take_the_template_path(value):
    assert _uniform_records(value, 0) is not None
    assert dumps(value) == json.dumps(value, indent=2) + "\n"
    assert dumps({"records": value}) == json.dumps({"records": value}, indent=2) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(uniform_records().filter(lambda recs: len(recs) > 1 and len(recs[0]) > 1), st.data())
def test_records_with_another_key_order_take_the_old_path(value, data):
    i = data.draw(st.integers(0, len(value) - 1))
    value[i] = dict(reversed(value[i].items()))
    assert _uniform_records(value, 0) is None
    assert dumps(value) == json.dumps(value, indent=2) + "\n"
