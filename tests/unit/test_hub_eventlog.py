"""The columnar wake-event log across the hub tiers.

Every tier returns an :class:`~repro.hub.runtime.EventLog` whose two
columns own their buffers: a log cached by the engine or the serving
memo must never pin a larger array it was sliced from (a padded batch
tensor, a stream's retained tail, a whole-trace intermediate).
"""

import numpy as np
import pytest

from repro.errors import HubExecutionError
from repro.hub.compile import compile_batched, compile_graph
from repro.hub.incremental import (
    ChunkedReplayState,
    IncrementalGraphState,
    RoundReplayState,
    advance_rows,
)
from repro.hub.merge import MultiTapRuntime, merge_programs
from repro.hub.runtime import EventLog, HubRuntime, WakeEvent, split_into_rounds
from repro.il.parser import parse_program
from tests.unit.test_fused_runtime import (
    EMA_PROGRAM,
    PROGRAMS,
    _graph,
    _random_rounds,
    _signal,
)
from tests.unit.test_hub_batch import _rows


def _assert_owned(log):
    assert isinstance(log, EventLog)
    for column in (log.times, log.values):
        assert column.base is None
        assert column.flags.owndata and column.flags.c_contiguous
        assert column.dtype == np.float64
        assert not column.flags.writeable


def _stream(state, channel_data, seed):
    logs = [
        state.advance(spans)
        for spans in _random_rounds(channel_data, np.random.default_rng(seed))
    ]
    logs.append(state.close())
    return logs


class TestEveryTierOwnsItsColumns:
    PROGRAM = PROGRAMS["significant_motion"]

    def test_interpreter_feed_run_and_fused(self):
        data = _signal(duration_s=20.0, seed=1)
        graph = _graph(self.PROGRAM)
        runtime = HubRuntime(graph)
        for chunks in split_into_rounds(data, 4.0):
            _assert_owned(runtime.feed(chunks))
        graph.reset()
        run = HubRuntime(graph).run(split_into_rounds(data, 4.0))
        graph.reset()
        fused = HubRuntime(graph).run_fused(data, 4.0)
        assert len(run) and fused == run
        _assert_owned(run)
        _assert_owned(fused)

    def test_compiled_plan(self):
        data = _signal(duration_s=20.0, seed=2)
        log = compile_graph(_graph(self.PROGRAM)).execute(data)
        assert len(log)
        _assert_owned(log)

    def test_batched_rows_copy_out_of_the_padded_tensor(self):
        rows = _rows()
        bplan = compile_batched(_graph(self.PROGRAM))
        logs, info = bplan.execute_batch_with_info(rows)
        assert info.sub_batches >= 1  # a genuine stacked dispatch ran
        plan = compile_graph(_graph(self.PROGRAM))
        for row, log in zip(rows, logs):
            _assert_owned(log)
            assert log == plan.execute(row)

    def test_shape_batched_rows(self):
        text = PROGRAMS["significant_motion"]
        plans = [
            compile_graph(_graph(text.replace("0.4", value)))
            for value in ("0.2", "0.4", "0.6")
        ]
        rows = _rows()[:3]
        bplan = compile_batched(_graph(text))
        logs = bplan.execute_shape_batch(list(zip(plans, rows)))
        for plan, row, log in zip(plans, rows, logs):
            _assert_owned(log)
            assert log == plan.execute(row)

    def test_bounded_replay_rows(self):
        data = _signal(duration_s=16.0, seed=3)
        states = [IncrementalGraphState(_graph(self.PROGRAM)) for _ in range(3)]
        for spans in _random_rounds(data, np.random.default_rng(4)):
            for log in advance_rows(states, [spans] * len(states)):
                _assert_owned(log)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ChunkedReplayState(_graph(PROGRAMS["extrema"])),
            lambda: RoundReplayState(_graph(EMA_PROGRAM), 4.0),
        ],
        ids=["chunked", "rounds"],
    )
    def test_replay_states(self, make):
        logs = _stream(make(), _signal(duration_s=20.0, seed=5), seed=6)
        assert sum(len(log) for log in logs)
        for log in logs:
            _assert_owned(log)

    def test_multi_tap_runtime(self):
        programs = [parse_program(PROGRAMS["significant_motion"])] * 2
        runtime = MultiTapRuntime(merge_programs(programs))
        logs = runtime.run(split_into_rounds(_signal(duration_s=12.0, seed=7)))
        for log in logs.values():
            _assert_owned(log)


class TestEventLogValue:
    def test_columns_are_copies_of_the_input(self):
        times = np.arange(6.0)
        log = EventLog(times[::2], times[1::2])
        times[:] = -1.0
        assert log.times.tolist() == [0.0, 2.0, 4.0]
        assert log.values.tolist() == [1.0, 3.0, 5.0]
        _assert_owned(log)

    def test_slices_own_their_columns(self):
        log = EventLog(np.arange(10.0), np.arange(10.0) * 2)
        part = log[2:5]
        assert part == EventLog([2.0, 3.0, 4.0], [4.0, 6.0, 8.0])
        _assert_owned(part)

    def test_iteration_yields_wake_events(self):
        log = EventLog([1.5, 2.5], [3.0, 4.0])
        assert list(log) == [WakeEvent(1.5, 3.0), WakeEvent(2.5, 4.0)]
        assert isinstance(next(iter(log)).time, float)

    def test_integer_index_is_refused(self):
        with pytest.raises(TypeError, match="slicing only"):
            EventLog([1.5], [3.0])[0]

    def test_concat_owns_its_columns(self):
        parts = [EventLog([1.0], [2.0]), EventLog(), EventLog([3.0], [4.0])]
        whole = EventLog.concat(parts)
        assert whole == EventLog([1.0, 3.0], [2.0, 4.0])
        _assert_owned(whole)

    def test_mismatched_columns_are_refused(self):
        with pytest.raises(HubExecutionError, match="differ in length"):
            EventLog([1.0, 2.0], [1.0])

    def test_empty_log_is_falsy(self):
        assert not EventLog()
        assert EventLog([0.0], [0.0])

    def test_a_shifted_event_breaks_equality(self):
        """The benchmark gate's corruption (first wake event shifted by
        one second, or one event added to an empty result) built as a
        log: ``==`` must catch the shifted content itself, not merely a
        type mismatch."""
        log = compile_graph(_graph(PROGRAMS["significant_motion"])).execute(
            _signal(duration_s=20.0, seed=2)
        )
        assert len(log)
        events = list(log)
        events[0] = WakeEvent(events[0].time + 1.0, events[0].value)
        shifted = EventLog([e.time for e in events], [e.value for e in events])
        unshifted = EventLog([e.time for e in log], [e.value for e in log])
        assert unshifted == log
        assert shifted != log
        assert EventLog([0.0], [0.0]) != EventLog()
