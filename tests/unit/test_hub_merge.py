"""Unit tests for pipeline merging across concurrent conditions."""

import numpy as np
import pytest

from repro.api.compile import compile_pipeline
from repro.apps import MusicJournalApp, PhraseDetectionApp, StepsApp, TransitionsApp
from repro.hub.merge import (
    MultiTapRuntime,
    merge_programs,
    merged_cycles_per_second,
    merged_graph,
)
from repro.hub.runtime import HubRuntime
from repro.il.parser import parse_program
from repro.il.validate import validate_program
from tests.conftest import scalar_chunk

SIGNIFICANT_MOTION = (
    "ACC_X -> movingAvg(id=1, params={10});"
    "ACC_Y -> movingAvg(id=2, params={10});"
    "ACC_Z -> movingAvg(id=3, params={10});"
    "1,2,3 -> vectorMagnitude(id=4);"
    "4 -> minThreshold(id=5, params={15});"
    "5 -> OUT;"
)

# Same front end, different admission threshold.
GENTLE_MOTION = SIGNIFICANT_MOTION.replace("params={15}", "params={11}")


def test_shares_common_prefix():
    merged = merge_programs(
        [parse_program(SIGNIFICANT_MOTION), parse_program(GENTLE_MOTION)]
    )
    # movingAvg x3 + vectorMagnitude shared; two thresholds distinct.
    assert merged.node_count == 6
    assert merged.shared_nodes == 4
    assert merged.original_node_count == 10
    assert len(set(merged.taps)) == 2


def test_identical_programs_collapse():
    merged = merge_programs(
        [parse_program(SIGNIFICANT_MOTION), parse_program(SIGNIFICANT_MOTION)]
    )
    assert merged.node_count == 5
    assert merged.shared_nodes == 5
    assert merged.taps[0] == merged.taps[1]


def test_disjoint_programs_share_nothing():
    audio = (
        "MIC -> window(id=1, params={256});"
        "1 -> stat(id=2, params={rms});"
        "2 -> minThreshold(id=3, params={0.5});"
        "3 -> OUT;"
    )
    merged = merge_programs(
        [parse_program(SIGNIFICANT_MOTION), parse_program(audio)]
    )
    assert merged.shared_nodes == 0
    assert merged.node_count == 8


def test_different_params_not_shared():
    other = SIGNIFICANT_MOTION.replace("params={10}", "params={12}", 1)
    merged = merge_programs(
        [parse_program(SIGNIFICANT_MOTION), parse_program(other)]
    )
    # ACC_X movingAvg differs -> its vectorMagnitude and threshold also
    # differ; ACC_Y/ACC_Z movingAvg still shared.
    assert merged.shared_nodes == 2


def test_merged_cycles_below_sum_of_parts():
    programs = [parse_program(SIGNIFICANT_MOTION), parse_program(GENTLE_MOTION)]
    separate = sum(
        validate_program(p).total_cycles_per_second for p in programs
    )
    merged = merge_programs(programs)
    assert merged_cycles_per_second(merged) < separate


def test_single_program_passthrough():
    program = parse_program(SIGNIFICANT_MOTION)
    merged = merge_programs([program])
    assert merged.node_count == 5
    assert merged.shared_nodes == 0


def test_paper_apps_music_phrase_share_feature_extraction():
    """The music and phrase conditions share their entire windowed
    feature front end (amplitude variance + ZCR variance branches)."""
    programs = [
        compile_pipeline(MusicJournalApp().build_wakeup_pipeline()),
        compile_pipeline(PhraseDetectionApp().build_wakeup_pipeline()),
    ]
    merged = merge_programs(programs)
    assert merged.shared_nodes >= 4  # both windows, ZCR, second window, stats


def test_paper_apps_steps_transitions_share_nothing_expensive():
    programs = [
        compile_pipeline(StepsApp().build_wakeup_pipeline()),
        compile_pipeline(TransitionsApp().build_wakeup_pipeline()),
    ]
    merged = merge_programs(programs)  # different axes: no sharing
    assert merged.shared_nodes == 0


class TestMultiTapRuntime:
    def _spike(self, magnitude, n=120):
        x = np.zeros(n)
        x[60:80] = magnitude
        return x

    def _chunks(self, x):
        n = len(x)
        zero = np.zeros(n)
        return {
            "ACC_X": scalar_chunk(x),
            "ACC_Y": scalar_chunk(zero),
            "ACC_Z": scalar_chunk(zero),
        }

    def test_taps_fire_independently(self):
        merged = merge_programs(
            [parse_program(SIGNIFICANT_MOTION), parse_program(GENTLE_MOTION)]
        )
        runtime = MultiTapRuntime(merged)
        # Magnitude ~12.5: above the 11 threshold, below the 15 one.
        events = runtime.feed(self._chunks(self._spike(12.5)))
        strict_tap, gentle_tap = merged.taps
        assert events[gentle_tap]
        assert not events[strict_tap]

    def test_matches_unmerged_execution(self):
        programs = [parse_program(SIGNIFICANT_MOTION), parse_program(GENTLE_MOTION)]
        merged = merge_programs(programs)
        runtime = MultiTapRuntime(merged)
        x = self._spike(20.0)
        merged_events = runtime.feed(self._chunks(x))
        for program, tap in zip(programs, merged.taps):
            reference = HubRuntime(validate_program(program)).feed(
                self._chunks(x)
            )
            assert merged_events[tap] == reference

    def test_reset(self):
        merged = merge_programs([parse_program(SIGNIFICANT_MOTION)])
        runtime = MultiTapRuntime(merged)
        first = runtime.feed(self._chunks(self._spike(20.0)))
        runtime.reset()
        second = runtime.feed(self._chunks(self._spike(20.0)))
        (tap,) = merged.taps
        assert len(first[tap]) == len(second[tap])


class TestServeStyleCoalescing:
    """Merging in the fleet-coalescing regime: N tenants, one condition.

    The serving layer dedups identical submissions before the engine;
    merging is the hub-side analogue.  Both must agree that N copies of
    a condition cost one runtime and answer exactly like N separate
    runs.
    """

    def test_n_identical_programs_collapse_to_one(self):
        for n in (2, 5, 16):
            merged = merge_programs(
                [parse_program(SIGNIFICANT_MOTION) for _ in range(n)]
            )
            # One runtime's worth of nodes, every tap aliased onto it;
            # each of the n-1 later copies shares all 5 nodes.
            assert merged.node_count == 5
            assert merged.shared_nodes == 5 * (n - 1)
            assert merged.original_node_count == 5 * n
            assert len(merged.taps) == n
            assert len(set(merged.taps)) == 1

    def test_n_identical_apps_wake_events_bit_identical(self):
        n = 4
        programs = [
            compile_pipeline(StepsApp().build_wakeup_pipeline())
            for _ in range(n)
        ]
        merged = merge_programs(programs)
        graph = validate_program(programs[0])
        assert merged.node_count == merged.original_node_count // n

        # Peaks must land inside the step detector's localExtrema band
        # ([2.1, 5.1] after the moving average), so a ~3.5-amplitude
        # oscillation with mild noise produces a healthy event stream.
        rng = np.random.default_rng(7)
        signal = np.sin(np.arange(600) / 5.0) * 3.5 + rng.normal(
            0.0, 0.2, 600
        )
        chunks = {name: scalar_chunk(signal) for name in graph.channels}
        merged_events = MultiTapRuntime(merged).feed(chunks)
        # Every tenant's tap sees the same event list …
        per_tap = [merged_events[tap] for tap in merged.taps]
        assert all(events is per_tap[0] for events in per_tap)
        # … and it is bit-identical to one unmerged per-app run.
        reference = HubRuntime(
            validate_program(
                compile_pipeline(StepsApp().build_wakeup_pipeline())
            )
        ).feed(chunks)
        assert len(reference) > 0
        assert per_tap[0] == reference

    def test_mixed_fleet_matches_per_app_runs(self):
        # A head-heavy mix (the Zipf regime): three tenants on the
        # strict condition, two on the gentle one.  Merged output per
        # tap must equal each condition's standalone run.
        programs = (
            [parse_program(SIGNIFICANT_MOTION)] * 3
            + [parse_program(GENTLE_MOTION)] * 2
        )
        merged = merge_programs(programs)
        assert merged.node_count == 6  # one runtime + one extra threshold
        assert len(set(merged.taps)) == 2

        x = np.zeros(120)
        x[60:80] = 12.5  # between the two thresholds
        zero = np.zeros(120)
        chunks = {
            "ACC_X": scalar_chunk(x),
            "ACC_Y": scalar_chunk(zero),
            "ACC_Z": scalar_chunk(zero),
        }
        merged_events = MultiTapRuntime(merged).feed(chunks)
        for text, tap in zip(
            [SIGNIFICANT_MOTION] * 3 + [GENTLE_MOTION] * 2, merged.taps
        ):
            reference = HubRuntime(
                validate_program(parse_program(text))
            ).feed(chunks)
            assert merged_events[tap] == reference


def test_merged_graph_channels_union():
    audio = (
        "MIC -> window(id=1, params={256});"
        "1 -> stat(id=2, params={rms});"
        "2 -> minThreshold(id=3, params={0.5});"
        "3 -> OUT;"
    )
    merged = merge_programs(
        [parse_program(SIGNIFICANT_MOTION), parse_program(audio)]
    )
    graph = merged_graph(merged)
    assert set(graph.channels) == {"ACC_X", "ACC_Y", "ACC_Z", "MIC"}
