"""Aggregation algorithms joining multiple branches.

Section 3.2: "if the pipeline contains multiple branches, aggregation
algorithms need to be used to reduce the number of branches until a
single branch is left."  :class:`~repro.algorithms.features.VectorMagnitude`
is one such aggregator; this module adds element-wise min/max/sum/mean
aggregators.  ``minOf`` over band indicators implements the logical AND
that the music-journal and phrase-detection wake-up conditions need to
combine their two feature branches (Section 3.7.2).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.algorithms.base import PORT_VARIADIC, StreamAlgorithm, StreamShape, register
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind


class _ElementwiseAggregate(StreamAlgorithm):
    """Shared implementation for element-wise variadic aggregation."""

    n_inputs = PORT_VARIADIC
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ()

    _reduce: Callable[..., np.ndarray]

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        first = chunks[0]
        if first.is_empty:
            return first
        stacked = np.stack([c.values for c in chunks])
        return Chunk.scalars(first.times, type(self)._reduce(stacked), first.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless reduction: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise over aligned ports: stacking reduces along a new
        leading axis exactly as in the per-trace rule."""
        return self._lower_batched_itemwise(batches)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return 4.0 * len(in_shapes)


@register("minOf")
class MinOf(_ElementwiseAggregate):
    """Element-wise minimum across aligned scalar branches.

    Feeding band indicators (0/1) into ``minOf`` and thresholding at 1
    yields "all branch conditions hold" — the conjunction used by the
    two-feature audio wake-up conditions.
    """

    _reduce = staticmethod(lambda stacked: np.min(stacked, axis=0))


@register("maxOf")
class MaxOf(_ElementwiseAggregate):
    """Element-wise maximum across aligned scalar branches (logical OR
    over band indicators)."""

    _reduce = staticmethod(lambda stacked: np.max(stacked, axis=0))


@register("sumOf")
class SumOf(_ElementwiseAggregate):
    """Element-wise sum across aligned scalar branches ("at least k of
    n" voting when combined with a threshold)."""

    _reduce = staticmethod(lambda stacked: np.sum(stacked, axis=0))


@register("meanOf")
class MeanOf(_ElementwiseAggregate):
    """Element-wise mean across aligned scalar branches."""

    _reduce = staticmethod(lambda stacked: np.mean(stacked, axis=0))
