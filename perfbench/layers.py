"""The layer table: which public functions the traced run times, and
what each layer is predicted to move.

Every entry of :data:`TIMED` becomes two per-layer metrics,
``<layer>.<function>.calls`` and ``<layer>.<function>.self_s``.  The
wrappers are installed from outside the program (see
:mod:`perfbench.tracer`), so nothing under ``src/`` changes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (layer, defining module, qualified name).  A dotted name is a method
#: patched on its class; a bare name is a module-level function patched
#: in every ``repro`` module that imported it by name.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("traces", "repro.traces.library", "robot_corpus"),
    ("traces", "repro.traces.library", "audio_corpus"),
    ("traces", "repro.traces.library", "human_corpus"),
    ("il", "repro.api.manager", "validate_condition"),
    ("service", "repro.serve.service", "ConditionService.submit"),
    ("service", "repro.serve.service", "ConditionService.pump"),
    ("cluster", "repro.serve.cluster", "ShardCluster.submit"),
    ("cluster", "repro.serve.cluster", "ShardCluster.pump"),
    ("scheduler", "repro.serve.scheduler", "Scheduler.run_batch"),
    ("engine", "repro.sim.engine", "execute_plan"),
    ("engine", "repro.sim.engine", "RunContext.wake_events"),
    ("engine", "repro.sim.engine", "RunContext.wake_events_batch"),
    ("engine", "repro.sim.engine", "RunContext.detections"),
    ("engine", "repro.sim.engine", "RunContext.channel_arrays"),
    ("hub", "repro.hub.runtime", "HubRuntime.run"),
    ("hub", "repro.hub.runtime", "HubRuntime.run_fused"),
    ("hub", "repro.hub.compile", "CompiledPlan.execute"),
    ("hub", "repro.hub.compile", "BatchedPlan.execute_batch_with_info"),
    ("hub", "repro.hub.compile", "BatchedPlan.execute_shape_batch_with_info"),
    ("incremental", "repro.hub.incremental", "advance_rows_with_info"),
    ("incremental", "repro.hub.incremental", "IncrementalGraphState.advance"),
    ("incremental", "repro.hub.incremental", "ChunkedReplayState.advance"),
    ("incremental", "repro.hub.incremental", "RoundReplayState.advance"),
    ("ingest", "repro.serve.ingest", "StreamIngest.push"),
    ("ingest", "repro.serve.ingest", "StreamIngest.advance"),
    ("ingest", "repro.serve.ingest", "StreamIngest.close_stream"),
    ("journal", "repro.serve.journal", "JournalWriter.append"),
    ("journal", "repro.serve.journal", "JournalWriter.flush"),
    ("store", "repro.serve.store", "ResultStore.put"),
    ("configs", "repro.sim.configs", "AlwaysAwake.run"),
    ("configs", "repro.sim.configs", "DutyCycling.run"),
    ("configs", "repro.sim.configs", "Batching.run"),
    ("configs", "repro.sim.configs", "Oracle.run"),
    ("configs", "repro.sim.configs", "PredefinedActivity.run"),
    ("configs", "repro.sim.configs", "Sidewinder.run"),
    ("power", "repro.power.accounting", "account"),
    ("eval", "repro.eval.experiments", "run_matrix"),
)

#: Every ``SensingApplication.detect`` override is timed under this one
#: aggregate name.
APPS_DETECT = "apps.detect"

#: Per-layer metrics that are not span timings: (name, unit, better).
EXTRA: Tuple[Tuple[str, str, str], ...] = (
    ("service.rejected", "count", "lower"),
    ("queue.wait_ms_p50", "ms", "lower"),
    ("queue.wait_ms_p99", "ms", "lower"),
    ("cluster.shard_busy_skew", "ratio", "lower"),
    ("router.accept_skew", "ratio", "lower"),
    ("scheduler.entries", "count", "lower"),
    ("scheduler.engine_runs", "count", "lower"),
    ("scheduler.dedup_ratio", "ratio", "higher"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("costmodel.choose.compiled", "count", "higher"),
    ("costmodel.choose.fused", "count", "lower"),
    ("costmodel.choose.rounds", "count", "lower"),
    ("hub.batch_rows", "count", "higher"),
    ("hub.padding_ratio", "ratio", "lower"),
    ("ingest.backlog_max", "count", "lower"),
    ("ingest.lag_s_max", "s", "lower"),
    ("journal.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def span_name(layer: str, qualname: str) -> str:
    """The metric stem of one timed function."""
    return f"{layer}.{qualname}"


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in the order
    ``BENCHMARK.json`` lists them."""
    out: List[Tuple[str, str, str]] = []
    for layer, _, qualname in TIMED:
        stem = span_name(layer, qualname)
        out.append((f"{stem}.calls", "count", "lower"))
        out.append((f"{stem}.self_s", "s", "lower"))
    out.append((f"{APPS_DETECT}.calls", "count", "lower"))
    out.append((f"{APPS_DETECT}.self_s", "s", "lower"))
    out.extend(EXTRA)
    return out


#: layer -> (end-to-end metrics it should move, on which workloads;
#: workloads where the prediction is no change).  Later changes cite
#: these rows when they claim a gain or predict that nothing moves.
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "traces": ("setup_s on paper-figures, fleet-zipf", "stream-fleet"),
    "il": ("ops_per_cpu_s on fleet-retuned", "fleet-zipf"),
    "service/queue": (
        "cpu_latency_p50_ms, cpu_latency_p90_ms on fleet-*", "paper-figures"),
    "cluster/router": (
        "ops_per_cpu_s, cpu_latency_p90_ms on fleet-zipf", "paper-figures"),
    "scheduler": ("ops_per_cpu_s on fleet-zipf", "fleet-retuned"),
    "engine": (
        "cpu_s on paper-figures; ops_per_cpu_s on fleet-*", "stream-fleet"),
    "costmodel": (
        "explains tier-driven shifts in cpu_s and ops_per_cpu_s",
        "stream-fleet"),
    "hub": (
        "cpu_s on paper-figures; ops_per_cpu_s on fleet-retuned",
        "stream-fleet"),
    "incremental": (
        "ops_per_cpu_s, cpu_latency_p90_ms on stream-fleet", "fleet-*"),
    "ingest": ("ops_per_cpu_s, peak_rss_mb on stream-fleet", "fleet-*"),
    "journal": (
        "cpu_latency_p90_ms on fleet-zipf, stream-fleet",
        "fleet-retuned (no journal)"),
    "store": (
        "cpu_latency_p50_ms on fleet-* (expected small)", "stream-fleet"),
    "configs": (
        "cpu_s on paper-figures; Sidewinder also ops_per_cpu_s on fleet-zipf",
        "fleet-retuned"),
    "apps": (
        "cpu_s on paper-figures; ops_per_cpu_s on fleet-zipf",
        "fleet-retuned, stream-fleet"),
    "power": ("cpu_s on paper-figures", "fleet-retuned, stream-fleet"),
    "eval": ("cpu_s on paper-figures", "all serve workloads"),
}
