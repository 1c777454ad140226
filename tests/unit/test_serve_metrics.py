"""Unit tests for the logical clock, percentiles, metrics and store."""

import pytest

from repro.errors import ServiceError
from repro.hub.compile import shape_signature
from repro.hub.costmodel import CostModel
from repro.il.parser import parse_program
from repro.il.validate import validate_program
from repro.serve import (
    ConditionService,
    LogicalClock,
    ResultStore,
    Submission,
    percentile,
)
from repro.serve.metrics import MetricsRecorder, recomputed_fields
from repro.serve.submission import Completed, Ticket
from repro.sim.engine import RunContext
from repro.traces.robot import RobotRunConfig, generate_robot_run


class TestLogicalClock:
    def test_starts_at_start_and_ticks_by_step(self):
        clock = LogicalClock(start=5.0, step=2.0)
        assert clock() == 5.0
        assert clock.now() == 5.0
        assert clock.tick() == 7.0
        assert clock() == 7.0

    def test_reading_does_not_advance(self):
        clock = LogicalClock()
        for _ in range(3):
            assert clock() == 0.0


class TestPercentile:
    def test_empty_sample_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_nearest_rank_values(self):
        values = [4.0, 1.0, 3.0, 2.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 90) == 5.0
        assert percentile(values, 100) == 5.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0


class TestMetricsRecorder:
    def test_snapshot_rates_and_percentiles(self):
        recorder = MetricsRecorder()
        recorder.submitted = 5
        recorder.accepted = 4
        recorder.on_rejected("queue_full")
        recorder.on_completed(1.0, dedup=False)
        recorder.on_completed(2.0, dedup=True)
        recorder.on_completed(3.0, dedup=True)
        recorder.engine_runs = 1
        snap = recorder.snapshot(queue_depth=1, store_size=3)
        assert snap.rejected == {"queue_full": 1}
        assert snap.rejected_total == 1
        assert snap.dedup_hits == 2
        assert snap.dedup_hit_rate == pytest.approx(2 / 3)
        assert snap.latency_p50 == 2.0
        assert snap.latency_p99 == 3.0
        assert snap.as_dict()["queue_depth"] == 1
        assert "dedup hit-rate" in snap.describe()

    def test_empty_snapshot_is_all_zero(self):
        snap = MetricsRecorder().snapshot(queue_depth=0, store_size=0)
        assert snap.dedup_hit_rate == 0.0
        assert snap.latency_p50 == 0.0
        assert snap.rejected_total == 0

    def test_gauges_forward_by_field_name(self):
        snap = MetricsRecorder().snapshot(
            queue_depth=2, store_size=3, batch_rounds=4, stream_lag_s=1.5,
            health_state="degraded",
        )
        assert (snap.queue_depth, snap.store_size) == (2, 3)
        assert snap.batch_rounds == 4
        assert snap.stream_lag_s == 1.5
        assert snap.health_state == "degraded"

    def test_unknown_gauge_raises_type_error(self):
        with pytest.raises(TypeError):
            MetricsRecorder().snapshot(
                queue_depth=0, store_size=0, no_such_gauge=1
            )

    def test_snapshot_does_not_alias_the_rejection_counts(self):
        recorder = MetricsRecorder()
        recorder.on_rejected("queue_full")
        snap = recorder.snapshot(queue_depth=0, store_size=0)
        recorder.on_rejected("queue_full")
        assert snap.rejected == {"queue_full": 1}


#: ``MetricsSnapshot.as_dict()`` keys: every field plus the derived
#: properties.  Benchmark artifacts and dashboards read these names.
AS_DICT_KEYS = {
    "accepted", "batch_occupancy", "batch_padded_cells",
    "batch_padding_ratio", "batch_rounds", "batch_valid_cells",
    "batched_cells", "cancelled", "completed", "dedup_hit_rate",
    "dedup_hits", "engine_runs", "failed", "health_state",
    "health_transitions", "journal_errors", "latency_p50", "latency_p90",
    "latency_p99", "latency_p999", "queue_depth", "rejected",
    "rejected_total", "shape_cells", "shape_occupancy", "shape_rounds",
    "store_size", "store_spilled", "stream_backlog", "stream_cells",
    "stream_chunks", "stream_lag_s", "stream_occupancy", "stream_rounds",
    "stream_subscriptions", "submitted",
}


class TestSnapshotAsDict:
    def test_key_set_is_pinned(self):
        snap = MetricsRecorder().snapshot(queue_depth=0, store_size=0)
        assert set(snap.as_dict()) == AS_DICT_KEYS

    def test_values_are_plain_data(self):
        recorder = MetricsRecorder()
        recorder.on_rejected("queue_full")
        snap = recorder.snapshot(
            queue_depth=0, store_size=0,
            health_transitions=((3.0, "healthy", "degraded"),),
            batch_rounds=2, batched_cells=6,
            batch_padded_cells=15, batch_valid_cells=10,
        )
        out = snap.as_dict()
        assert out["rejected"] == {"queue_full": 1}
        assert out["rejected"] is not snap.rejected
        assert out["rejected_total"] == 1
        assert out["health_transitions"] == [[3.0, "healthy", "degraded"]]
        assert out["batch_occupancy"] == 3.0
        assert out["batch_padding_ratio"] == pytest.approx(1.5)
        assert out["shape_occupancy"] == 0.0


class TestRecomputedFields:
    def test_rate_and_nearest_rank_percentiles(self):
        ordered = [float(v) for v in range(1, 1001)]
        counters = {"dedup_hits": 3, "completed": 4}
        assert recomputed_fields(counters, ordered) == {
            "dedup_hit_rate": 0.75,
            "latency_p50": 500.0,
            "latency_p90": 900.0,
            "latency_p99": 990.0,
            "latency_p999": 999.0,
        }

    def test_nothing_completed_is_all_zero(self):
        counters = {"dedup_hits": 0, "completed": 0}
        assert set(recomputed_fields(counters, []).values()) == {0.0}


class TestResultStore:
    def _response(self, submission_id):
        return Completed(Ticket(submission_id, "t", 0.0), result=None)

    def test_rejects_non_positive_ttl(self):
        with pytest.raises(ServiceError, match="TTL"):
            ResultStore(0.0)

    def test_get_before_expiry(self):
        store = ResultStore(10.0)
        response = self._response(1)
        store.put(1, response, now=0.0)
        assert store.get(1, now=9.9) is response

    def test_get_evicts_at_expiry(self):
        store = ResultStore(10.0)
        store.put(1, self._response(1), now=0.0)
        assert store.get(1, now=10.0) is None
        assert len(store) == 0

    def test_unknown_id_is_none(self):
        assert ResultStore(5.0).get(42, now=0.0) is None

    def test_evict_expired_scans_in_insertion_order(self):
        store = ResultStore(10.0)
        store.put(1, self._response(1), now=0.0)
        store.put(2, self._response(2), now=5.0)
        store.put(3, self._response(3), now=8.0)
        assert store.evict_expired(now=12.0) == 1
        assert len(store) == 2
        assert store.get(2, now=12.0) is not None
        assert store.evict_expired(now=100.0) == 2
        assert len(store) == 0


class TestServiceEngineCounters:
    def test_batched_pump_reports_the_context_cache_stats(self):
        """The snapshot's batch/shape counters are the engine's own."""
        traces = {}
        for seed in range(4):
            trace = generate_robot_run(
                RobotRunConfig(
                    group=2, duration_s=60.0 + 10 * seed, seed=200 + seed
                )
            )
            traces[trace.name] = trace

        def il(threshold, op="maxThreshold"):
            return (
                "ACC_X -> movingAvg(id=1, params={8});"
                f"1 -> {op}(id=2, params={{{threshold:.2f}}});"
                "2 -> OUT;"
            )

        def shape(text):
            return shape_signature(validate_program(parse_program(text)))

        # One condition over every trace (a homogeneous batch) plus one
        # other shape with per-tenant thresholds (a shape batch), both
        # pinned to the compiled tier so both batch paths engage.
        same = il(0.1, op="minThreshold")
        context = RunContext()
        context.cost_model = CostModel(
            table={shape(same): "compiled", shape(il(0.1)): "compiled"}
        )
        service = ConditionService(traces, context=context)
        try:
            for k, name in enumerate(sorted(traces)):
                service.submit(Submission(tenant=f"same-{k}", trace=name,
                                          il=same, chunk_seconds=2.0))
                service.submit(Submission(tenant=f"own-{k}", trace=name,
                                          il=il(0.2 + 0.05 * k),
                                          chunk_seconds=2.0))
            service.pump()
            snap = service.metrics()
        finally:
            service.shutdown()
        stats = context.stats
        assert stats.batch_rounds > 0 and stats.shape_rounds > 0
        assert (
            snap.batch_rounds, snap.batched_cells, snap.shape_rounds,
            snap.shape_cells, snap.batch_padded_cells, snap.batch_valid_cells,
        ) == (
            stats.batch_rounds, stats.batched_cells, stats.shape_rounds,
            stats.shape_cells, stats.batch_padded_cells,
            stats.batch_valid_cells,
        )
        assert snap.batch_padding_ratio == stats.batch_padding_ratio
