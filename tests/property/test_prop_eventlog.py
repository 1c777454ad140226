"""Property tests for :class:`repro.hub.runtime.EventLog`.

The event log is the one wake-event result type of every hub tier, the
engine caches, the serving layer and the journal, so its value
semantics must hold for *any* float64 bit pattern: iterating to
``WakeEvent`` records and rebuilding is lossless, concatenation is
associative over arbitrary splits (empty parts included), a pickle
round-trip preserves every bit (signed zeros, NaN payloads,
subnormals), and equality against anything that is not a log is a
plain ``False``.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hub.runtime import EventLog, WakeEvent

#: Every float64, NaN payloads and subnormals included, drawn as raw
#: 64-bit patterns.
bit_patterns = st.integers(min_value=0, max_value=2**64 - 1)

#: Hand-picked awkward values mixed into every drawn log.
SPECIAL = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.2e-308)


@st.composite
def event_logs(draw, max_size=40):
    n = draw(st.integers(min_value=0, max_value=max_size))
    columns = []
    for _ in range(2):
        bits = draw(st.lists(bit_patterns, min_size=n, max_size=n))
        column = np.array(bits, dtype=np.uint64).view(np.float64)
        if n:
            specials = draw(st.lists(st.sampled_from(SPECIAL), max_size=n))
            column[: len(specials)] = specials
        columns.append(column)
    return EventLog(*columns)


def _bits(log):
    return (log.times.view(np.uint64).tolist(), log.values.view(np.uint64).tolist())


@given(log=event_logs())
@settings(max_examples=200, deadline=None)
def test_iterate_and_rebuild_is_lossless(log):
    events = list(log)
    assert all(isinstance(event, WakeEvent) for event in events)
    rebuilt = EventLog([e.time for e in events], [e.value for e in events])
    assert rebuilt == log
    assert _bits(rebuilt) == _bits(log)


@given(log=event_logs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_concat_of_split_slices_equals_whole(log, data):
    cuts = sorted(
        data.draw(
            st.lists(st.integers(min_value=0, max_value=len(log)), max_size=6)
        )
    )
    edges = [0] + cuts + [len(log)]
    parts = [log[a:b] for a, b in zip(edges, edges[1:])]
    empties = data.draw(st.integers(min_value=0, max_value=3))
    parts = [EventLog()] * empties + parts + [EventLog()]
    assert EventLog.concat(parts) == log
    assert len(EventLog.concat(parts)) == sum(len(part) for part in parts)


def test_concat_of_nothing_is_empty():
    assert EventLog.concat([]) == EventLog()
    assert EventLog.concat([EventLog(), EventLog()]) == EventLog()
    assert len(EventLog.concat([])) == 0


@given(log=event_logs())
@settings(max_examples=200, deadline=None)
def test_pickle_round_trip_is_bit_identical(log):
    for protocol in (2, 4, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(log, protocol=protocol))
        assert back == log
        assert _bits(back) == _bits(log)
        assert back.times.base is None and back.values.base is None


def test_special_values_round_trip_bitwise():
    payload_nan = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
    log = EventLog([-0.0, 5e-324, payload_nan], [float("nan"), -0.0, 2.2e-308])
    back = pickle.loads(pickle.dumps(log, protocol=4))
    assert _bits(back) == _bits(log)
    assert back == log
    # Equality is bitwise: the sign of zero counts.
    assert EventLog([0.0], [1.0]) != EventLog([-0.0], [1.0])


@given(log=event_logs())
@settings(max_examples=100, deadline=None)
def test_equality_against_sequences_is_false_and_never_raises(log):
    for other in (tuple(log), list(log), (), [], None, 0):
        assert (log == other) is False
        assert (other == log) is False
        assert log != other
