"""``netmetrics._rank`` (one sort and a bisection) against the counting oracle."""

from hypothesis import example, given, strategies as st

from stancelab.netmetrics import _rank
from util import oracle_rank

# A few repeated values next to arbitrary floats, so ties and 0.0 beside -0.0 are common.
scores = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(allow_nan=False))


@given(st.dictionaries(st.text(max_size=3), scores, max_size=30))
@example({})
@example({"only": 4.0})
@example({"a": 0.0, "b": -0.0, "c": 1.0, "d": 1.0})
def test_rank_equals_the_counting_oracle(values):
    assert _rank(values) == oracle_rank(values)
