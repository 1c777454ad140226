"""Admission-control algorithms (paper Section 3.6: "configurable high
or low thresholds").

An admission-control node passes an item through only when its value
satisfies the configured condition; otherwise it emits nothing.  When an
admission-control node is the last algorithm in a pipeline, each item it
passes reaches ``OUT`` and wakes the main processor.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.algorithms.base import StreamAlgorithm, StreamShape, register
from repro.algorithms.kernels import batched_run_lengths, consecutive_run_lengths
from repro.errors import ParameterError
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind


@register("minThreshold")
class MinThreshold(StreamAlgorithm):
    """Pass items whose value is at least ``threshold``.

    This is the "significant motion" example's final stage (Figure 2):
    a smoothed acceleration magnitude of at least 15 m/s^2 wakes the
    main CPU.
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ("threshold",)
    row_params = ("threshold",)

    def __init__(self, threshold: float):
        super().__init__(threshold=threshold)
        self.threshold = self._require_float("threshold", threshold)

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        return chunk.take(chunk.values >= self.threshold)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless mask-and-take: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Batched mask over the full tensor, ragged compaction per row."""
        (batch,) = batches
        return batch.take(batch.values >= self.threshold)

    def lower_batched_rows(
        self, batches: Sequence[BatchedChunk], row_values: Dict[str, np.ndarray]
    ) -> BatchedChunk:
        """Per-row thresholds: one column-broadcast mask over the tensor."""
        (batch,) = batches
        return batch.take(batch.values >= row_values["threshold"][:, None])

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return 3.0


@register("maxThreshold")
class MaxThreshold(StreamAlgorithm):
    """Pass items whose value is at most ``threshold``.

    Used for "low threshold" admission control — e.g. the headbutt
    wake-up condition passes strongly negative y-axis accelerations.
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ("threshold",)
    row_params = ("threshold",)

    def __init__(self, threshold: float):
        super().__init__(threshold=threshold)
        self.threshold = self._require_float("threshold", threshold)

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        return chunk.take(chunk.values <= self.threshold)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless mask-and-take: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Batched mask over the full tensor, ragged compaction per row."""
        (batch,) = batches
        return batch.take(batch.values <= self.threshold)

    def lower_batched_rows(
        self, batches: Sequence[BatchedChunk], row_values: Dict[str, np.ndarray]
    ) -> BatchedChunk:
        """Per-row thresholds: one column-broadcast mask over the tensor."""
        (batch,) = batches
        return batch.take(batch.values <= row_values["threshold"][:, None])

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return 3.0


@register("rangeThreshold")
class RangeThreshold(StreamAlgorithm):
    """Pass items whose value lies in ``[low, high]`` (inclusive).

    The transition wake-up condition uses band checks on per-axis
    gravity components (Section 3.7.1).
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ("low", "high")
    row_params = ("low", "high")

    def __init__(self, low: float, high: float):
        super().__init__(low=low, high=high)
        self.low = self._require_float("low", low)
        self.high = self._require_float("high", high)
        if self.low > self.high:
            raise ParameterError(f"rangeThreshold: low ({low}) exceeds high ({high})")

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        mask = (chunk.values >= self.low) & (chunk.values <= self.high)
        return chunk.take(mask)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless mask-and-take: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Batched band mask over the full tensor, compacted per row."""
        (batch,) = batches
        mask = (batch.values >= self.low) & (batch.values <= self.high)
        return batch.take(mask)

    def lower_batched_rows(
        self, batches: Sequence[BatchedChunk], row_values: Dict[str, np.ndarray]
    ) -> BatchedChunk:
        """Per-row band edges, broadcast down each row."""
        (batch,) = batches
        mask = (batch.values >= row_values["low"][:, None]) & (
            batch.values <= row_values["high"][:, None]
        )
        return batch.take(mask)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return 5.0


@register("bandIndicator")
class BandIndicator(StreamAlgorithm):
    """Emit 1.0 when the value lies in ``[low, high]``, else 0.0.

    Unlike :class:`RangeThreshold`, which *drops* non-qualifying items,
    the indicator emits for every input item and therefore preserves
    item alignment across branches.  That makes it composable with the
    aggregators in :mod:`repro.algorithms.aggregate`: feed one indicator
    per feature branch into ``minOf`` and threshold at 1 to require all
    conditions simultaneously.
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ("low", "high")
    row_params = ("low", "high")

    def __init__(self, low: float, high: float):
        super().__init__(low=low, high=high)
        self.low = self._require_float("low", low)
        self.high = self._require_float("high", high)
        if self.low > self.high:
            raise ParameterError(f"bandIndicator: low ({low}) exceeds high ({high})")

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        mask = (chunk.values >= self.low) & (chunk.values <= self.high)
        return Chunk.scalars(chunk.times, mask.astype(np.float64), chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless indicator: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise indicator: one comparison per element, alignment kept."""
        return self._lower_batched_itemwise(batches)

    def lower_batched_rows(
        self, batches: Sequence[BatchedChunk], row_values: Dict[str, np.ndarray]
    ) -> BatchedChunk:
        """Per-row band edges; emits for every item, alignment kept."""
        (batch,) = batches
        mask = (batch.values >= row_values["low"][:, None]) & (
            batch.values <= row_values["high"][:, None]
        )
        return BatchedChunk.view(
            StreamKind.SCALAR,
            batch.times,
            mask.astype(np.float64),
            batch.lengths,
            batch.rate_hz,
        )

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return 5.0


@register("sustainedThreshold")
class SustainedThreshold(StreamAlgorithm):
    """Pass an item only after the condition has held for ``count``
    consecutive items.

    Duration-qualified admission control: the siren detector classifies
    "pitched sounds ... that last longer than 650 ms" as sirens
    (Section 3.7.2), which maps to requiring the pitch-prominence
    threshold to hold across several consecutive windows.

    Parameters:
        threshold: Value the items must reach (``>=``).
        count: Number of consecutive qualifying items required.  The
            emission happens on the ``count``-th item of a qualifying
            run and then on every further item while the run persists.
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ("threshold", "count")
    row_params = ("threshold", "count")

    def __init__(self, threshold: float, count: int):
        super().__init__(threshold=threshold, count=count)
        self.threshold = self._require_float("threshold", threshold)
        self.count = self._require_positive_int("count", count)
        self._run = 0

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return chunk
        qualifying = chunk.values >= self.threshold
        # Integer run lengths via the shared cumsum-reset kernel: exactly
        # the sequential counter, but vectorized.
        runs = consecutive_run_lengths(qualifying, initial=self._run)
        self._run = int(runs[-1])
        return chunk.take(runs >= self.count)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Whole-trace run counting; the run carry starts cold at 0."""
        (chunk,) = chunks
        if chunk.is_empty:
            return chunk
        qualifying = chunk.values >= self.threshold
        return chunk.take(consecutive_run_lengths(qualifying) >= self.count)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Per-row run counting in one 2-D pass.

        Runs grow strictly left to right, so a row's right padding
        cannot perturb its valid prefix; the cold-start carry is 0 for
        every row by construction (each row is a whole trace).
        """
        (batch,) = batches
        qualifying = batch.values >= self.threshold
        return batch.take(batched_run_lengths(qualifying) >= self.count)

    def lower_batched_rows(
        self, batches: Sequence[BatchedChunk], row_values: Dict[str, np.ndarray]
    ) -> BatchedChunk:
        """Per-row thresholds and counts over one 2-D run-length pass."""
        (batch,) = batches
        qualifying = batch.values >= row_values["threshold"][:, None]
        runs = batched_run_lengths(qualifying)
        return batch.take(runs >= row_values["count"][:, None])

    def reset(self) -> None:
        self._run = 0

    def incremental_retention(self, merged: Chunk, seen: int) -> int:
        """Keep the trailing qualifying run, capped at ``count - 1``.

        Replaying at most ``count - 1`` qualifying items re-emits
        nothing on their own (a run that short never fires), while a
        future item extending the run sees a replayed run length of
        ``count - 1 + k`` whenever its true run length is ``>= count``
        — so continuation items fire exactly as in the whole trace.
        """
        if merged.is_empty:
            return 0
        qualifying = merged.values >= self.threshold
        misses = np.flatnonzero(~qualifying)
        trailing = len(qualifying) if not len(misses) else len(qualifying) - int(misses[-1]) - 1
        return min(trailing, self.count - 1)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return 6.0
