"""Unit tests for the hub interpreter."""

import numpy as np
import pytest

from repro.errors import HubExecutionError, SidewinderError
from repro.il.parser import parse_program
from repro.il.validate import validate_program
from repro.hub.runtime import EventLog, HubRuntime, split_into_rounds
from tests.conftest import scalar_chunk


def _runtime(text):
    return HubRuntime(validate_program(parse_program(text)))


def _acc_chunks(x, y=None, z=None, t0=0.0):
    chunks = {"ACC_X": scalar_chunk(x, t0=t0)}
    if y is not None:
        chunks["ACC_Y"] = scalar_chunk(y, t0=t0)
    if z is not None:
        chunks["ACC_Z"] = scalar_chunk(z, t0=t0)
    return chunks


SIGNIFICANT_MOTION = (
    "ACC_X -> movingAvg(id=1, params={10});"
    "ACC_Y -> movingAvg(id=2, params={10});"
    "ACC_Z -> movingAvg(id=3, params={10});"
    "1,2,3 -> vectorMagnitude(id=4);"
    "4 -> minThreshold(id=5, params={15});"
    "5 -> OUT;"
)


def test_fires_on_spike():
    runtime = _runtime(SIGNIFICANT_MOTION)
    n = 100
    x = np.zeros(n)
    x[40:60] = 30.0
    events = runtime.feed(_acc_chunks(x, np.zeros(n), np.zeros(n)))
    assert events
    assert 0.7 < events.times[0] < 1.4  # spike at t=0.8, smoothing lag


def test_silent_on_quiet_data():
    runtime = _runtime(SIGNIFICANT_MOTION)
    n = 100
    quiet = np.random.default_rng(0).normal(0, 0.05, n)
    events = runtime.feed(_acc_chunks(quiet, quiet, quiet + 9.81))
    assert events == EventLog()


def test_missing_channel_rejected():
    runtime = _runtime(SIGNIFICANT_MOTION)
    with pytest.raises(HubExecutionError, match="ACC_Z"):
        runtime.feed(_acc_chunks(np.zeros(10), np.zeros(10)))


def test_missing_channel_is_library_error():
    # errors.py promises every library failure derives from
    # SidewinderError; the feed path used to leak a bare KeyError.
    runtime = _runtime(SIGNIFICANT_MOTION)
    with pytest.raises(SidewinderError):
        runtime.feed(_acc_chunks(np.zeros(10), np.zeros(10)))


def test_multi_input_synchronization_across_chunks():
    # Feed axes data in uneven chunk sizes; vector magnitude must stay
    # aligned (this fails without per-port buffering).
    text = (
        "ACC_X -> movingAvg(id=1, params={5});"
        "ACC_Y -> movingAvg(id=2, params={5});"
        "1,2 -> vectorMagnitude(id=3);"
        "3 -> minThreshold(id=4, params={0});"
        "4 -> OUT;"
    )
    runtime = _runtime(text)
    rng = np.random.default_rng(5)
    x = rng.normal(size=60)
    y = rng.normal(size=60)
    all_events = []
    for i in range(0, 60, 7):
        chunks = {
            "ACC_X": scalar_chunk(x[i : i + 7], t0=i / 50.0),
            "ACC_Y": scalar_chunk(y[i : i + 7], t0=i / 50.0),
        }
        all_events.extend(runtime.feed(chunks))
    # Reference: single-shot run.
    reference = _runtime(text).feed(
        {"ACC_X": scalar_chunk(x), "ACC_Y": scalar_chunk(y)}
    )
    assert len(all_events) == len(reference)
    assert np.allclose(
        [e.value for e in all_events], [e.value for e in reference]
    )


def test_state_records_track_has_result():
    runtime = _runtime(SIGNIFICANT_MOTION)
    runtime.feed(_acc_chunks(np.zeros(4), np.zeros(4), np.zeros(4)))
    state = runtime.states[1]
    assert state.opcode == "movingAvg"
    assert not state.has_result  # only 4 of 10 samples seen
    runtime.feed(_acc_chunks(np.zeros(10), np.zeros(10), np.zeros(10), t0=0.08))
    assert runtime.states[1].has_result


def test_reset_restores_initial_state():
    runtime = _runtime(SIGNIFICANT_MOTION)
    n = 50
    x = np.full(n, 30.0)
    first = runtime.feed(_acc_chunks(x, x, x))
    runtime.reset()
    second = runtime.feed(_acc_chunks(x, x, x))
    assert len(first) == len(second)
    assert not runtime.states[1].pending  # single-input: no port buffers


def test_run_accumulates_rounds():
    runtime = _runtime(SIGNIFICANT_MOTION)
    n = 100
    x = np.zeros(n)
    x[50:70] = 30.0
    rounds = split_into_rounds(
        {
            "ACC_X": (np.arange(n) / 50.0, x, 50.0),
            "ACC_Y": (np.arange(n) / 50.0, np.zeros(n), 50.0),
            "ACC_Z": (np.arange(n) / 50.0, np.zeros(n), 50.0),
        },
        chunk_seconds=0.5,
    )
    events = runtime.run(rounds)
    assert events


def test_split_into_rounds_covers_everything():
    n = 500
    times = np.arange(n) / 50.0
    values = np.arange(n, dtype=float)
    rounds = list(
        split_into_rounds({"ACC_X": (times, values, 50.0)}, chunk_seconds=1.7)
    )
    total = sum(len(r["ACC_X"]) for r in rounds)
    assert total == n
    stitched = np.concatenate([r["ACC_X"].values for r in rounds])
    assert np.array_equal(stitched, values)


def test_empty_round_produces_no_events():
    runtime = _runtime(SIGNIFICANT_MOTION)
    chunks = _acc_chunks(np.empty(0), np.empty(0), np.empty(0))
    assert runtime.feed(chunks) == EventLog()


def _reference_rounds(channel_data, chunk_seconds):
    """The pre-optimization per-round boolean-mask splitter (oracle)."""
    if not channel_data:
        return
    start = min(t[0][0] for t in channel_data.values() if len(t[0]))
    end = max(t[0][-1] for t in channel_data.values() if len(t[0]))
    t0 = start
    while t0 <= end:
        t1 = t0 + chunk_seconds
        round_arrays = {}
        for name, (times, values, rate) in channel_data.items():
            mask = (times >= t0) & (times < t1)
            round_arrays[name] = (times[mask], values[mask])
        yield round_arrays
        t0 = t1


def test_split_into_rounds_matches_mask_reference_on_ragged_rates():
    # Channels at wildly different rates with a non-zero, non-aligned
    # start and an awkward chunk length: every round must match the
    # boolean-mask reference sample for sample.
    rng = np.random.default_rng(7)
    channel_data = {}
    for name, rate, n in (("ACC_X", 50.0, 977), ("MIC", 8000.0, 156311),
                          ("ACC_Y", 13.0, 254)):
        times = 0.37 + np.arange(n) / rate
        channel_data[name] = (times, rng.normal(size=n), rate)
    chunk_seconds = 1.7
    got = list(split_into_rounds(channel_data, chunk_seconds))
    want = list(_reference_rounds(channel_data, chunk_seconds))
    assert len(got) == len(want)
    for got_round, want_round in zip(got, want):
        assert set(got_round) == set(want_round)
        for name in want_round:
            ref_times, ref_values = want_round[name]
            assert np.array_equal(got_round[name].times, ref_times)
            assert np.array_equal(got_round[name].values, ref_values)


def test_split_into_rounds_all_empty_channels_yields_no_rounds():
    # A trace segment with no samples used to crash with
    # "min() arg is an empty sequence"; it must simply produce no rounds.
    empty = np.empty(0)
    rounds = list(
        split_into_rounds(
            {"ACC_X": (empty, empty, 50.0), "ACC_Y": (empty, empty, 50.0)}
        )
    )
    assert rounds == []


def test_split_into_rounds_no_channels_yields_no_rounds():
    assert list(split_into_rounds({})) == []
