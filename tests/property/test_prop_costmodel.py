"""Property-based tests on the hub's measured tier selector.

:meth:`CostModel.choose` picks the tier for the next run and
:meth:`CostModel.selection` reports the tier the model has settled on
(``None`` while it still wants probe runs).  Batching trusts
``selection`` to predict what per-trace runs would do, so the two must
never disagree once the model has settled — under any observation
history, override table and probe threshold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hub.costmodel import TIER_PREFERENCE, CostModel

FINGERPRINTS = ("fp-a", "fp-b", "shape:s")

observations = st.lists(
    st.tuples(
        st.sampled_from(FINGERPRINTS),
        st.sampled_from(TIER_PREFERENCE),
        st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=8),
    ),
    max_size=30,
)

tables = st.dictionaries(
    st.sampled_from(FINGERPRINTS),
    st.sampled_from(TIER_PREFERENCE + ("retired-tier",)),
    max_size=2,
)

allowed_sets = st.lists(
    st.sampled_from(TIER_PREFERENCE), min_size=1, max_size=3, unique=True
)


def _model(table, threshold, history):
    model = CostModel(table=table, probe_threshold_s=threshold)
    for fp, tier, seconds, items, batch_size in history:
        model.observe(fp, tier, seconds, items, batch_size=batch_size)
    return model


@settings(max_examples=300, deadline=None)
@given(
    history=observations,
    table=tables,
    threshold=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
    allowed=allowed_sets,
)
def test_choose_agrees_with_settled_selection(history, table, threshold, allowed):
    model = _model(table, threshold, history)
    for fp in FINGERPRINTS:
        chosen = model.choose(fp, allowed)
        assert chosen in allowed
        settled = model.selection(fp, allowed)
        if settled is not None:
            assert chosen == settled
        else:
            # Unsettled: the first allowed tier, in preference order,
            # that has no sample yet — i.e. the next probe.
            unmeasured = [
                t for t in TIER_PREFERENCE
                if t in allowed and model.seconds_per_item(fp, t) is None
            ]
            assert chosen == unmeasured[0]


@given(history=observations, table=tables)
def test_no_allowed_tier_is_an_error(history, table):
    model = _model(table, 0.0, history)
    assert model.selection("fp-a", ()) is None
    with pytest.raises(ValueError):
        model.choose("fp-a", ())
