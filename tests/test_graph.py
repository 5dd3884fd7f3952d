"""cfgdag._graph.VertexBits: vertex sets survive the trip through a bitmask."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgdag._graph import VertexBits


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
