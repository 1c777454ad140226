"""Incremental (bounded-replay) streaming execution: eligibility and
bit-exact equivalence.

The streaming ingestion path evaluates a subscription's condition on
each newly arrived span, carrying a retained replay tail per plan step
(`repro.hub.incremental`).  Its correctness contract is the streaming
analogue of the fused/compiled/batched suites: the concatenation of
per-arrival outputs must be *bit-identical* (exact times AND values) to
running the final assembled trace whole, for any arrival chunking.
This module checks:

* eligibility composes batch eligibility with the per-instance
  parameter gates, each with a human-readable reason;
* for each equivalence program, randomized irregular arrival spans
  reproduce the whole-trace compiled plan exactly — singly and when
  many subscriptions advance together through stacked dispatches,
  including out-of-step interleavings where states receive differently
  sized spans (some empty) in the same round;
* shape-batched advancing (same structure, per-row threshold values)
  stays row-identical to per-state advancing;
* the two whole-graph replay fallbacks are themselves arrival-chunking
  invariant: chunk-invariant graphs fed arbitrary spans match the
  compiled plan, and non-invariant graphs fed via the canonical round
  replica match the round-by-round interpreter at the subscription's
  ``chunk_seconds``.
"""

import numpy as np
import pytest

from repro.errors import HubExecutionError
from repro.hub.compile import compile_graph
from repro.hub.incremental import (
    ChunkedReplayState,
    IncrementalGraphState,
    RoundReplayState,
    advance_rows,
    advance_rows_with_info,
    incremental_eligibility,
    make_stream_state,
)
from repro.hub.runtime import EventLog, split_into_rounds
from repro.sensors.samples import Chunk
from tests.unit.test_fused_runtime import (
    EMA_PROGRAM,
    PROGRAMS,
    _events,
    _graph,
    _random_rounds,
    _signal,
)

#: Programs whose every node supports bounded replay.  "extrema" is the
#: one shipped equivalence program that does not (min_separation=3
#: debounces against emission history).
INCREMENTAL_PROGRAMS = {
    name: text for name, text in PROGRAMS.items() if name != "extrema"
}
INCREMENTAL_PROGRAMS["extrema_debounce_free"] = (
    "ACC_X -> localExtrema(id=1, params={max, 0.3, 10, 1});"
    "1 -> OUT;"
)

HOP_EXCEEDS_SIZE = (
    "ACC_X -> window(id=1, params={8, 12, rectangular});"
    "1 -> stat(id=2, params={mean});"
    "2 -> OUT;"
)


def _threshold_program(threshold):
    return (
        "ACC_X -> movingAvg(id=1, params={10});"
        f"1 -> minThreshold(id=2, params={{{threshold}}});"
        "2 -> OUT;"
    )


def _empty_spans(channel_data):
    return {
        name: Chunk.scalars(np.empty(0), np.empty(0), rate)
        for name, (_times, _values, rate) in channel_data.items()
    }


def _stream(state, channel_data, rng):
    """Feed randomized irregular arrival spans; return all events."""
    events = [state.advance(spans) for spans in _random_rounds(channel_data, rng)]
    events.append(state.close())
    return EventLog.concat(events)


class TestEligibility:
    @pytest.mark.parametrize("name", sorted(INCREMENTAL_PROGRAMS))
    def test_bounded_replay_programs_are_eligible(self, name):
        assert incremental_eligibility(_graph(INCREMENTAL_PROGRAMS[name])) is None

    def test_batch_reasons_carry_over(self):
        reason = incremental_eligibility(_graph(EMA_PROGRAM))
        assert reason is not None
        assert "expMovingAvg" in reason

    def test_debounced_extrema_gets_parameter_reason(self):
        reason = incremental_eligibility(_graph(PROGRAMS["extrema"]))
        assert reason is not None
        assert "min_separation" in reason

    def test_hop_exceeding_size_gets_parameter_reason(self):
        reason = incremental_eligibility(_graph(HOP_EXCEEDS_SIZE))
        assert reason is not None
        assert "hop" in reason

    def test_state_constructor_refuses_ineligible_graph(self):
        with pytest.raises(HubExecutionError, match="not incremental-eligible"):
            IncrementalGraphState(_graph(EMA_PROGRAM))

    def test_mode_selection(self):
        assert isinstance(
            make_stream_state(_graph(PROGRAMS["sustained"]), 4.0),
            IncrementalGraphState,
        )
        assert isinstance(
            make_stream_state(_graph(PROGRAMS["extrema"]), 4.0),
            ChunkedReplayState,
        )
        assert isinstance(
            make_stream_state(_graph(EMA_PROGRAM), 4.0), RoundReplayState
        )


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("name", sorted(INCREMENTAL_PROGRAMS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_arrivals_match_whole_trace(self, name, seed):
        graph = _graph(INCREMENTAL_PROGRAMS[name])
        channel_data = _signal(duration_s=24.0, seed=seed)
        whole = compile_graph(graph).execute(channel_data)
        streamed = _stream(
            IncrementalGraphState(graph),
            channel_data,
            np.random.default_rng(seed + 100),
        )
        assert streamed == whole  # exact times AND values

    def test_tiny_spans_cross_every_warmup_boundary(self):
        graph = _graph(INCREMENTAL_PROGRAMS["significant_motion"])
        channel_data = _signal(duration_s=4.0, seed=7)
        whole = compile_graph(graph).execute(channel_data)
        state = IncrementalGraphState(graph)
        n = len(channel_data["ACC_X"][0])
        events = []
        i0 = 0
        rng = np.random.default_rng(8)
        while i0 < n:
            i1 = min(n, i0 + int(rng.integers(1, 4)))
            events.append(
                state.advance(
                    {
                        name: Chunk.scalars(t[i0:i1], v[i0:i1], rate)
                        for name, (t, v, rate) in channel_data.items()
                    }
                )
            )
            i0 = i1
        events.append(state.close())
        assert EventLog.concat(events) == whole

    def test_idle_rounds_change_nothing(self):
        graph = _graph(INCREMENTAL_PROGRAMS["sustained"])
        channel_data = _signal(duration_s=12.0, seed=3)
        whole = compile_graph(graph).execute(channel_data)
        state = IncrementalGraphState(graph)
        events = []
        for spans in _random_rounds(channel_data, np.random.default_rng(9)):
            events.append(state.advance(spans))
            assert state.advance(_empty_spans(channel_data)) == EventLog()
        events.append(state.close())
        assert EventLog.concat(events) == whole


class TestBatchedAdvance:
    def test_interleaved_states_match_whole_trace(self):
        graph_text = INCREMENTAL_PROGRAMS["significant_motion"]
        datas = [_signal(duration_s=10.0 + 3 * k, seed=40 + k) for k in range(3)]
        states = [IncrementalGraphState(_graph(graph_text)) for _ in datas]
        assert len({state.batch_key for state in states}) == 1
        # Each state's arrivals are cut at different boundaries, so in
        # any given round the states are out of step (one may receive
        # nothing at all).
        arrival_lists = [
            list(_random_rounds(data, np.random.default_rng(50 + k)))
            for k, data in enumerate(datas)
        ]
        rounds = max(len(arrivals) for arrivals in arrival_lists)
        events = [[] for _ in states]
        info_rows = 0
        for k in range(rounds):
            spans = [
                arrivals[k] if k < len(arrivals) else _empty_spans(data)
                for arrivals, data in zip(arrival_lists, datas)
            ]
            results, info = advance_rows_with_info(states, spans)
            info_rows += info.rows
            for per_state, new in zip(events, results):
                per_state.append(new)
        for state, per_state in zip(states, events):
            per_state.append(state.close())
        assert info_rows > rounds  # genuinely stacked, not row-at-a-time
        for data, per_state, graph in zip(datas, events, (s.graph for s in states)):
            assert EventLog.concat(per_state) == compile_graph(graph).execute(data)

    def test_shape_batched_rows_match_per_state(self):
        thresholds = (0.2, 0.4, 0.6)
        graphs = [_graph(_threshold_program(t)) for t in thresholds]
        states = [IncrementalGraphState(g) for g in graphs]
        assert len({state.batch_key for state in states}) == 1
        data = _signal(duration_s=16.0, seed=60)
        arrivals = list(_random_rounds(data, np.random.default_rng(61)))
        batched = [[] for _ in states]
        for spans in arrivals:
            for per_state, new in zip(
                batched, advance_rows(states, [spans] * len(states))
            ):
                per_state.append(new)
        for graph, per_state in zip(graphs, batched):
            assert EventLog.concat(per_state) == compile_graph(graph).execute(data)

    def test_mixed_batch_keys_are_refused(self):
        a = IncrementalGraphState(_graph(_threshold_program(0.2)))
        b = IncrementalGraphState(_graph(INCREMENTAL_PROGRAMS["sustained"]))
        with pytest.raises(HubExecutionError, match="batch key"):
            advance_rows([a, b], [{}, {}])


class TestReplayFallbacks:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_chunked_replay_matches_whole_trace(self, seed):
        # Fusion-eligible but not incremental: debounced extrema.
        graph = _graph(PROGRAMS["extrema"])
        channel_data = _signal(duration_s=20.0, seed=seed)
        whole = compile_graph(graph).execute(channel_data)
        streamed = _stream(
            ChunkedReplayState(graph),
            channel_data,
            np.random.default_rng(seed + 200),
        )
        assert streamed == whole

    @pytest.mark.parametrize("chunk_seconds", [4.0, 2.5])
    def test_round_replay_matches_canonical_rounds(self, chunk_seconds):
        graph = _graph(EMA_PROGRAM)
        channel_data = _signal(duration_s=21.0, seed=5)
        reference = _events(
            graph, split_into_rounds(channel_data, chunk_seconds)
        )
        graph.reset()
        streamed = _stream(
            RoundReplayState(graph, chunk_seconds),
            channel_data,
            np.random.default_rng(6),
        )
        assert streamed == reference

    def test_round_replay_emits_before_close(self):
        graph = _graph(EMA_PROGRAM)
        channel_data = _signal(duration_s=30.0, seed=11)
        state = RoundReplayState(graph, 4.0)
        early = EventLog.concat(
            state.advance(spans)
            for spans in _random_rounds(channel_data, np.random.default_rng(12))
        )
        assert early  # rounds flow while the stream is still open
        late = state.close()
        graph.reset()
        assert EventLog.concat([early, late]) == _events(
            graph, split_into_rounds(channel_data, 4.0)
        )

    def test_round_replay_empty_stream_closes_clean(self):
        state = RoundReplayState(_graph(EMA_PROGRAM), 4.0)
        assert state.close() == EventLog()
