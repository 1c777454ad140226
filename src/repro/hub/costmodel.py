"""Measured per-graph tier selection for hub execution.

The engine can run a wake-up condition three ways — ``compiled`` (one
whole-trace array program), ``fused`` (64-round coalesced
interpretation) and ``rounds`` (the paper's round-by-round interpreter)
— all bit-identical.  Until now the preference was hardwired
``compiled > fused > rounds``, which is right for accelerometer suites
but demonstrably wrong for FFT-heavy audio graphs: their working sets
are memory-bandwidth-bound, and ``results/BENCH_compile.json`` records
fused audio at **0.27×** round-by-round.  A static ranking cannot see
that; a measurement can.

:class:`CostModel` makes the choice per graph fingerprint from observed
runtimes, and it gets its measurements for free: every real run of a
fingerprint *is* a sample.  The engine asks :meth:`CostModel.choose`
which tier to run, times the run it was going to do anyway, and feeds
the timing back through :meth:`CostModel.observe`.  Because every tier
returns identical events, probing costs nothing but the probed tier's
own runtime — there are no throwaway micro-benchmark executions, and
timing noise can never change a result, only a future tier choice.

Exploration is gated: while the preferred tier's runs stay under
:data:`PROBE_THRESHOLD_S` the model does not bother probing
alternatives (the choice cannot matter at that scale, and accelerometer
plans run in tens of microseconds).  Once a fingerprint proves
expensive, the next runs probe each remaining tier once, after which
the cheapest observed seconds-per-item wins.  A pre-calibrated
``table`` mapping fingerprints to tiers short-circuits everything —
benchmarks use it to pin selections, and deployments can ship one.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

#: Execution tiers in static preference order — the order probing walks,
#: and the tie-break ranking when measurements are equal.
TIER_PREFERENCE = ("compiled", "fused", "rounds")

#: Mean per-run seconds above which a fingerprint is worth probing.
#: Below this, the preferred tier runs unchallenged: exploring a slower
#: tier would cost more than the choice could ever save, and sub-10ms
#: plans (every accelerometer suite) keep their zero-overhead fast path.
PROBE_THRESHOLD_S = 0.01


@dataclass
class _BatchPoint:
    """Accumulated observations at one dispatch batch size."""

    seconds: float = 0.0
    items: float = 0.0
    runs: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.runs if self.runs else 0.0


@dataclass
class _TierStats:
    """Accumulated observations of one (fingerprint, tier) pair.

    The aggregate counters drive tier *selection* (seconds-per-item is
    batch-size-agnostic); the per-batch-size ``profile`` drives batch
    *composition* — interpolating it prices "one big shape batch"
    against "split into per-fingerprint batches", so raggedness and
    padding waste are measured rather than guessed.
    """

    seconds: float = 0.0
    items: float = 0.0
    runs: int = 0
    profile: Dict[int, _BatchPoint] = field(default_factory=dict)

    def add(self, seconds: float, items: float, batch_size: int = 1) -> None:
        seconds = max(float(seconds), 0.0)
        items = max(float(items), 0.0)
        self.seconds += seconds
        self.items += items
        self.runs += 1
        point = self.profile.get(batch_size)
        if point is None:
            point = self.profile[batch_size] = _BatchPoint()
        point.seconds += seconds
        point.items += items
        point.runs += 1

    @property
    def mean_run_seconds(self) -> float:
        return self.seconds / self.runs if self.runs else 0.0

    @property
    def seconds_per_item(self) -> float:
        return self.seconds / max(self.items, 1.0)

    def predict_seconds(self, batch_size: int) -> Optional[float]:
        """Expected seconds for one dispatch of ``batch_size`` rows.

        Piecewise-linear interpolation over observed batch sizes.
        Outside the observed range: below the smallest size, scale that
        point proportionally (throughput through the origin); above the
        largest, extend the last segment's slope when two points exist,
        else scale the single point proportionally.
        """
        if not self.profile:
            return None
        sizes = sorted(self.profile)
        means = [self.profile[size].mean_seconds for size in sizes]
        if batch_size <= sizes[0]:
            return means[0] * batch_size / sizes[0]
        if batch_size >= sizes[-1]:
            if len(sizes) >= 2:
                slope = (means[-1] - means[-2]) / (sizes[-1] - sizes[-2])
                return max(means[-1] + slope * (batch_size - sizes[-1]), 0.0)
            return means[-1] * batch_size / sizes[-1]
        right = bisect.bisect_left(sizes, batch_size)
        left = right - 1
        frac = (batch_size - sizes[left]) / (sizes[right] - sizes[left])
        return means[left] + frac * (means[right] - means[left])


@dataclass
class CostModel:
    """Online measured tier selection, keyed by graph fingerprint.

    Args:
        table: Optional calibrated ``fingerprint -> tier`` overrides.
            A table entry always wins (when its tier is allowed) and is
            never re-probed.
        probe_threshold_s: Mean per-run seconds a fingerprint's
            preferred tier must exceed before alternatives get probed.
    """

    table: Mapping[str, str] = field(default_factory=dict)
    probe_threshold_s: float = PROBE_THRESHOLD_S
    _stats: Dict[Tuple[str, str], _TierStats] = field(default_factory=dict)

    def observe(
        self,
        fingerprint: str,
        tier: str,
        seconds: float,
        items: float,
        batch_size: int = 1,
    ) -> None:
        """Record one real run's timing: ``tier`` processed ``items``
        input items in ``seconds``, dispatched as one batch of
        ``batch_size`` rows (1 for per-trace execution).  The
        observation feeds both the aggregate seconds-per-item used for
        tier selection and the per-batch-size throughput profile used
        for batch composition.  ``fingerprint`` may equally be a shape
        signature (see :func:`repro.hub.compile.shape_signature`) —
        the key spaces are disjoint by construction."""
        key = (fingerprint, tier)
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = _TierStats()
        stats.add(seconds, items, batch_size=max(int(batch_size), 1))

    def choose(self, fingerprint: str, allowed: Sequence[str]) -> str:
        """The tier the next run of ``fingerprint`` should use.

        ``allowed`` lists the tiers actually available for this graph
        under the context's switches (e.g. no ``compiled`` entry when
        the graph is not compile-eligible).  Returns the settled tier
        (:meth:`selection`: a calibrated override, the preferred tier
        when proven cheap, or the cheapest observed seconds-per-item
        once every allowed tier has a sample); while unsettled, the
        preferred tier until it is measured, then the next unprobed
        tier.
        """
        ordered = [t for t in TIER_PREFERENCE if t in allowed]
        if not ordered:
            raise ValueError(f"no allowed tiers for {fingerprint!r}")
        settled = self.selection(fingerprint, ordered)
        if settled is not None:
            return settled
        return next(t for t in ordered if (fingerprint, t) not in self._stats)

    def selection(
        self, fingerprint: str, allowed: Sequence[str]
    ) -> Optional[str]:
        """The settled choice for ``fingerprint``, or ``None`` while the
        model still wants probe runs.

        Batching uses this: a batch is only worth assembling once the
        model has committed to a tier (otherwise the rows should run
        one at a time to finish probing).
        """
        ordered = [t for t in TIER_PREFERENCE if t in allowed]
        if not ordered:
            return None
        override = self.table.get(fingerprint)
        if override in ordered:
            return override
        preferred = ordered[0]
        head = self._stats.get((fingerprint, preferred))
        if head is None:
            return None
        if head.mean_run_seconds < self.probe_threshold_s:
            return preferred
        if any((fingerprint, tier) not in self._stats for tier in ordered[1:]):
            return None
        return min(
            ordered, key=lambda t: self._stats[(fingerprint, t)].seconds_per_item
        )

    def seconds_per_item(self, fingerprint: str, tier: str) -> Optional[float]:
        """Observed mean seconds per input item, or ``None`` if unseen."""
        stats = self._stats.get((fingerprint, tier))
        return stats.seconds_per_item if stats else None

    def predict_batch_seconds(
        self, fingerprint: str, tier: str, batch_size: int
    ) -> Optional[float]:
        """Expected seconds for one ``tier`` dispatch of ``batch_size``
        rows of ``fingerprint`` (or shape-signature) work, interpolated
        from the observed per-batch-size profile.  ``None`` when the
        pair has never been observed."""
        stats = self._stats.get((fingerprint, tier))
        if stats is None:
            return None
        return stats.predict_seconds(max(int(batch_size), 1))

    def choose_shape_batching(
        self,
        shape_key: str,
        parts: Sequence[Tuple[str, int]],
        tier: str = "compiled",
    ) -> bool:
        """Should same-shape work run as one heterogeneous batch?

        Args:
            shape_key: The group's shape signature.
            parts: ``(fingerprint, row_count)`` per same-fingerprint
                sub-group the work would otherwise split into.
            tier: The settled execution tier.

        Prices "one big shape batch" (the shape profile at the summed
        row count) against "split into per-fingerprint batches" (each
        fingerprint's own profile at its row count).  Missing data on
        either side defaults to **True** — shape batching is the path
        being probed, and its observations are what make this
        comparison meaningful later.
        """
        total = sum(size for _, size in parts)
        whole = self.predict_batch_seconds(shape_key, tier, total)
        if whole is None:
            return True
        split = 0.0
        for fingerprint, size in parts:
            part = self.predict_batch_seconds(fingerprint, tier, size)
            if part is None:
                return True
            split += part
        return whole <= split

    def as_dict(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Diagnostic/persistence dump: per fingerprint, per tier, the
        accumulated seconds/items/runs plus the per-batch-size profile
        (benchmarks record this beside timings; :meth:`from_dict`
        round-trips it)."""
        out: Dict[str, Dict[str, Dict[str, object]]] = {}
        for (fingerprint, tier), stats in sorted(self._stats.items()):
            entry: Dict[str, object] = {
                "seconds": stats.seconds,
                "items": stats.items,
                "runs": stats.runs,
            }
            if stats.profile:
                entry["profile"] = {
                    str(size): {
                        "seconds": point.seconds,
                        "items": point.items,
                        "runs": point.runs,
                    }
                    for size, point in sorted(stats.profile.items())
                }
            out.setdefault(fingerprint, {})[tier] = entry
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Mapping[str, Mapping[str, object]]],
        table: Optional[Mapping[str, str]] = None,
        probe_threshold_s: float = PROBE_THRESHOLD_S,
    ) -> "CostModel":
        """Rebuild a model from :meth:`as_dict` output.

        Dumps without a ``profile`` section (written before batch-size
        profiling existed) load as one aggregate point at batch size 1,
        so old calibration files keep selecting tiers correctly.
        """
        model = cls(
            table=dict(table or {}), probe_threshold_s=probe_threshold_s
        )
        for fingerprint, tiers in data.items():
            for tier, entry in tiers.items():
                stats = _TierStats(
                    seconds=float(entry.get("seconds", 0.0)),
                    items=float(entry.get("items", 0.0)),
                    runs=int(entry.get("runs", 0)),
                )
                profile = entry.get("profile")
                if profile:
                    for size, point in profile.items():
                        stats.profile[int(size)] = _BatchPoint(
                            seconds=float(point.get("seconds", 0.0)),
                            items=float(point.get("items", 0.0)),
                            runs=int(point.get("runs", 0)),
                        )
                elif stats.runs:
                    stats.profile[1] = _BatchPoint(
                        seconds=stats.seconds,
                        items=stats.items,
                        runs=stats.runs,
                    )
                model._stats[(fingerprint, tier)] = stats
        return model

    def save(self, path: Union[str, Path]) -> None:
        """Write the model (overrides + observations) to a JSON file."""
        payload = {
            "version": 1,
            "probe_threshold_s": self.probe_threshold_s,
            "table": dict(self.table),
            "stats": self.as_dict(),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CostModel":
        """Rebuild a model saved with :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        return cls.from_dict(
            payload.get("stats", {}),
            table=payload.get("table"),
            probe_threshold_s=float(
                payload.get("probe_threshold_s", PROBE_THRESHOLD_S)
            ),
        )
