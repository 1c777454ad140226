"""Service observability: the logical clock and the metrics snapshot.

Everything the service measures is driven by an injectable clock so
load tests are bit-for-bit reproducible.  The default
:class:`LogicalClock` advances only when the service tells it to (one
tick per submission, one per scheduling round), making "latency" a
deterministic count of scheduling rounds a submission waited — the
quantity admission control actually manages — rather than wall time.
Embedders that want wall-clock metrics pass ``time.monotonic``.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Union

from repro.hub.compile import padding_ratio


class LogicalClock:
    """A deterministic event-count clock.

    ``now()`` reads the current time; ``tick()`` advances it.  The
    service ticks once per accepted submission and once per scheduling
    round, so identical workloads produce identical latencies.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self._now = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        """Current logical time."""
        return self._now

    def tick(self) -> float:
        """Advance one step; returns the new time."""
        self._now += self._step
        return self._now


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    Args:
        values: Sample values (need not be sorted).
        q: Percentile in ``[0, 100]``.

    Returns:
        0.0 for an empty sample, matching "no completed requests yet".
    """
    if not values:
        return 0.0
    return percentile_sorted(sorted(values), q)


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an *already sorted* sample.

    Sorting dominates :func:`percentile` on large samples, and a
    snapshot asks for several quantiles of the same latency list — so
    callers sort once and index repeatedly through this.
    """
    if not ordered:
        return 0.0
    if q <= 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float drift
    return ordered[min(int(rank), len(ordered)) - 1]


def recomputed_fields(
    counters: Mapping[str, Any], ordered: Sequence[float]
) -> Dict[str, float]:
    """The snapshot fields no counter holds: dedup rate and percentiles.

    Both :meth:`MetricsRecorder.snapshot` and the cross-shard merge call
    this, so one shard and a whole fleet derive the rate from their
    ``dedup_hits`` and ``completed`` counters and the nearest-rank
    percentiles from raw latency samples the same way.  ``ordered``
    must already be sorted; every quantile indexes into that one
    ordering.
    """
    completed = counters["completed"]
    return {
        "dedup_hit_rate": (
            counters["dedup_hits"] / completed if completed else 0.0
        ),
        "latency_p50": percentile_sorted(ordered, 50),
        "latency_p90": percentile_sorted(ordered, 90),
        "latency_p99": percentile_sorted(ordered, 99),
        "latency_p999": percentile_sorted(ordered, 99.9),
    }


def _merge_reasons(counts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Rejection breakdowns summed reason by reason."""
    merged: Dict[str, int] = {}
    for reasons in counts:
        for reason, count in reasons.items():
            merged[reason] = merged.get(reason, 0) + count
    return merged


def _worst(values: Sequence[float]) -> float:
    """The largest value (0.0 for no shards)."""
    return max(values, default=0.0)


def _any_degraded(states: Sequence[str]) -> str:
    """``"degraded"`` when any shard is not healthy."""
    return "degraded" if any(s != "healthy" for s in states) else "healthy"


#: Merge rule of a field whose fleet value :func:`recomputed_fields`
#: derives from summed counters and pooled samples.
RECOMPUTED = "recomputed"
#: Merge rule of a field with no fleet value; the merge keeps its default.
NOT_MERGED = "not merged"

def _merged_by(
    rule: Union[Callable[[List[Any]], Any], str], **kwargs: Any
) -> Any:
    """A snapshot field and its cross-shard merge rule.

    A callable ``rule`` folds the per-shard values into the fleet value
    (see :func:`repro.serve.cluster.merge_snapshots`); otherwise it is
    :data:`RECOMPUTED` or :data:`NOT_MERGED`.
    """
    return field(metadata={"merge": rule}, **kwargs)


def _plain(value: Any) -> Any:
    """``value`` as JSON-shaped data: dicts copied, tuples as lists."""
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time counters of one :class:`~repro.serve.service.ConditionService`.

    Each field is the one declaration of its counter: :meth:`as_dict`,
    :meth:`MetricsRecorder.snapshot` and the cross-shard merge iterate
    the fields, and each field's ``merge`` metadata says how shards
    fold into a fleet value — summed, the worst lag, merged by reason,
    degraded if any shard is, :data:`RECOMPUTED` or :data:`NOT_MERGED`.

    Attributes:
        submitted: All ``submit()`` calls, accepted or not.
        accepted: Submissions that received a ticket.
        rejected: Admission rejections, keyed by reason code.
        completed: Tickets resolved with a result.
        failed: Tickets resolved with a structured per-request error.
        cancelled: Tickets the shutdown path never ran.
        engine_runs: Unique work items actually executed.
        dedup_hits: Completed submissions served by coalescing onto an
            identical work item instead of running.
        dedup_hit_rate: ``dedup_hits / completed`` (0 when nothing
            completed).
        latency_p50 / latency_p90 / latency_p99 / latency_p999:
            Percentiles of completion latency in clock units
            (scheduling rounds under the default logical clock);
            ``latency_p999`` is p99.9, the overload-sweep tail.
        queue_depth: Submissions queued at snapshot time.
        store_size: Unexpired responses held by the result store.
        store_spilled: Of those, how many currently live in the spill
            tier on disk.
        journal_errors: Write-ahead-journal append/flush failures
            (injected or real) the service survived.
        batch_rounds: Tensor-major hub dispatches the engine ran for
            this service — batched executions, not per-trace runs.
        batched_cells: Per-trace hub runs those dispatches covered
            (``batched_cells / batch_rounds`` is the mean batch size).
        shape_rounds: Shape-keyed heterogeneous dispatches — batched
            executions mixing different fingerprints of one graph
            shape.
        shape_cells: Per-trace hub runs those shape dispatches covered
            (``shape_cells / shape_rounds`` is the mean shape-batch
            occupancy).
        batch_padded_cells / batch_valid_cells: Allocated vs valid
            channel-tensor cells across every stacked dispatch; their
            ratio is the padding waste the engine's splitting guard
            keeps bounded.
        health_state: The :class:`~repro.serve.health.HealthMonitor`
            verdict (``"healthy"`` / ``"degraded"``) at snapshot time.
        health_transitions: Every ``(now, from, to)`` health transition
            so far, in order — deterministic under the logical clock.
        stream_chunks: Device chunks applied to stream buffers.
        stream_subscriptions: Streaming subscriptions registered.
        stream_backlog: Samples pushed but not yet walked by every
            subscription of their stream — the ingestion backlog at
            snapshot time.
        stream_lag_s: Worst per-subscription chunk lag in stream
            seconds: how far the furthest-behind subscription's cursor
            trails its stream's timeline end.
        stream_rounds: Incremental-round dispatches the streaming path
            ran (stacked ``advance_rows`` calls plus single-state and
            replay advances).
        stream_cells: Per-subscription advances those dispatches
            covered; ``stream_cells / stream_rounds`` is the
            incremental-round occupancy.
    """

    submitted: int = _merged_by(sum)
    accepted: int = _merged_by(sum)
    rejected: Dict[str, int] = _merged_by(_merge_reasons)
    completed: int = _merged_by(sum)
    failed: int = _merged_by(sum)
    cancelled: int = _merged_by(sum)
    engine_runs: int = _merged_by(sum)
    dedup_hits: int = _merged_by(sum)
    dedup_hit_rate: float = _merged_by(RECOMPUTED)
    latency_p50: float = _merged_by(RECOMPUTED)
    latency_p90: float = _merged_by(RECOMPUTED)
    latency_p99: float = _merged_by(RECOMPUTED)
    queue_depth: int = _merged_by(sum)
    store_size: int = _merged_by(sum)
    latency_p999: float = _merged_by(RECOMPUTED, default=0.0)
    store_spilled: int = _merged_by(sum, default=0)
    journal_errors: int = _merged_by(sum, default=0)
    health_state: str = _merged_by(_any_degraded, default="healthy")
    # Per-shard timelines on per-shard clocks: read them per shard.
    health_transitions: Tuple[Tuple[float, str, str], ...] = _merged_by(
        NOT_MERGED, default=()
    )
    batch_rounds: int = _merged_by(sum, default=0)
    batched_cells: int = _merged_by(sum, default=0)
    shape_rounds: int = _merged_by(sum, default=0)
    shape_cells: int = _merged_by(sum, default=0)
    batch_padded_cells: int = _merged_by(sum, default=0)
    batch_valid_cells: int = _merged_by(sum, default=0)
    stream_chunks: int = _merged_by(sum, default=0)
    stream_subscriptions: int = _merged_by(sum, default=0)
    stream_backlog: int = _merged_by(sum, default=0)
    # Lag is a worst-case freshness bound, not a volume: the fleet lags
    # as far as its furthest-behind shard.
    stream_lag_s: float = _merged_by(_worst, default=0.0)
    stream_rounds: int = _merged_by(sum, default=0)
    stream_cells: int = _merged_by(sum, default=0)

    @property
    def rejected_total(self) -> int:
        """All rejections across reasons."""
        return sum(self.rejected.values())

    @property
    def batch_occupancy(self) -> float:
        """Mean per-trace runs per batched dispatch (0 when none ran)."""
        return self.batched_cells / self.batch_rounds if self.batch_rounds else 0.0

    @property
    def shape_occupancy(self) -> float:
        """Mean per-trace runs per shape dispatch (0 when none ran)."""
        return self.shape_cells / self.shape_rounds if self.shape_rounds else 0.0

    @property
    def batch_padding_ratio(self) -> float:
        """Allocated over valid stacked cells (1.0 means zero waste)."""
        return padding_ratio(self.batch_padded_cells, self.batch_valid_cells)

    @property
    def stream_occupancy(self) -> float:
        """Mean subscription advances per incremental-round dispatch."""
        return self.stream_cells / self.stream_rounds if self.stream_rounds else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Every field plus every derived property, as a plain dict (for
        logs and benchmark artifacts)."""
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        for name, attr in vars(MetricsSnapshot).items():
            if isinstance(attr, property):
                out[name] = getattr(self, name)
        return out

    def describe(self) -> str:
        """Multi-line human-readable report."""
        rejected = (
            ", ".join(f"{k}={v}" for k, v in sorted(self.rejected.items()))
            or "none"
        )
        return "\n".join(
            [
                f"submitted {self.submitted} | accepted {self.accepted} | "
                f"rejected {self.rejected_total} ({rejected})",
                f"completed {self.completed} | failed {self.failed} | "
                f"cancelled {self.cancelled}",
                f"engine runs {self.engine_runs} | dedup hits "
                f"{self.dedup_hits} | dedup hit-rate {self.dedup_hit_rate:.1%}",
                f"batch rounds {self.batch_rounds} | batched cells "
                f"{self.batched_cells} | occupancy {self.batch_occupancy:.1f}",
                f"shape rounds {self.shape_rounds} | shape cells "
                f"{self.shape_cells} | occupancy {self.shape_occupancy:.1f} | "
                f"padding ratio {self.batch_padding_ratio:.2f}",
                f"stream chunks {self.stream_chunks} | subs "
                f"{self.stream_subscriptions} | backlog "
                f"{self.stream_backlog} | lag {self.stream_lag_s:.2f}s | "
                f"rounds {self.stream_rounds} | occupancy "
                f"{self.stream_occupancy:.1f}",
                f"latency p50/p90/p99/p99.9 {self.latency_p50:g}/"
                f"{self.latency_p90:g}/{self.latency_p99:g}/"
                f"{self.latency_p999:g} rounds",
                f"queue depth {self.queue_depth} | stored results "
                f"{self.store_size} ({self.store_spilled} spilled)",
                f"health {self.health_state} | transitions "
                f"{len(self.health_transitions)} | journal errors "
                f"{self.journal_errors}",
            ]
        )


@dataclass
class MetricsRecorder:
    """Mutable counters the service updates as requests flow through.

    Every field except the raw ``latencies`` sample is named after the
    :class:`MetricsSnapshot` field it becomes.
    """

    submitted: int = 0
    accepted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    engine_runs: int = 0
    dedup_hits: int = 0
    latencies: List[float] = field(default_factory=list)

    def on_rejected(self, reason: str) -> None:
        """Count one admission rejection."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def on_completed(self, latency: float, dedup: bool) -> None:
        """Count one completion (and its coalescing outcome)."""
        self.completed += 1
        if dedup:
            self.dedup_hits += 1
        self.latencies.append(latency)

    def snapshot(
        self, queue_depth: int, store_size: int, **gauges: Any
    ) -> MetricsSnapshot:
        """Freeze the counters into a :class:`MetricsSnapshot`.

        ``gauges`` are the remaining snapshot fields the recorder does
        not count itself (store, health, engine and stream state),
        passed by field name; an unknown name raises ``TypeError``.
        The latency sample is sorted once, here.
        """
        counters = {
            f.name: copy(getattr(self, f.name))
            for f in fields(self)
            if f.name != "latencies"
        }
        return MetricsSnapshot(
            **counters,
            **recomputed_fields(counters, sorted(self.latencies)),
            queue_depth=queue_depth,
            store_size=store_size,
            **gauges,
        )
