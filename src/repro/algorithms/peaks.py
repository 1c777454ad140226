"""Streaming local-extrema detection.

The step and headbutt classifiers (Section 3.7.1) "search for local
maxima/minima" of a filtered axis within an amplitude band.  This module
provides that search as a reusable hub algorithm so a wake-up condition
can end with ``LocalExtrema -> OUT``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import StreamAlgorithm, StreamShape, register
from repro.algorithms.kernels import debounce_indices
from repro.errors import ParameterError
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind

#: Extremum polarities :class:`LocalExtrema` can search for.
EXTREMA_MODES = ("max", "min")


@register("localExtrema")
class LocalExtrema(StreamAlgorithm):
    """Emit local maxima (or minima) of a scalar stream within a band.

    Parameters:
        mode: ``"max"`` to detect peaks, ``"min"`` to detect valleys.
        low / high: Inclusive amplitude band an extremum must fall in to
            be emitted.  The step detector uses maxima in
            ``[2.5, 4.5] m/s^2``; the headbutt detector uses minima in
            ``[-6.75, -3.75] m/s^2``.
        min_separation: Minimum number of samples between two emitted
            extrema (debounce).  Defaults to 1 (no debounce).

    A sample ``x[i]`` is a local maximum when ``x[i-1] < x[i] >= x[i+1]``
    (mirrored for minima).  Detection therefore lags the input by one
    sample; the emitted item carries the extremum's own timestamp.
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    # State is exact (last sample value + last emission time compared
    # with ==/</>), so the emitted extrema never depend on chunking.
    chunk_invariant = True
    param_order = ("mode", "low", "high", "min_separation")

    def __init__(
        self,
        mode: str,
        low: float,
        high: float,
        min_separation: int = 1,
    ):
        super().__init__(mode=mode, low=low, high=high, min_separation=min_separation)
        if mode not in EXTREMA_MODES:
            raise ParameterError(f"localExtrema: mode must be one of {EXTREMA_MODES}")
        self.mode = mode
        self.low = self._require_float("low", low)
        self.high = self._require_float("high", high)
        if self.low > self.high:
            raise ParameterError(f"localExtrema: low ({low}) exceeds high ({high})")
        self.min_separation = self._require_positive_int("min_separation", min_separation)
        self._prev_times = np.empty(0)
        self._prev_values = np.empty(0)
        self._last_emit_index = -(10**12)
        self._stream_index = 0  # index of the first sample in _prev buffers

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        values = np.concatenate([self._prev_values, chunk.values])
        times = np.concatenate([self._prev_times, chunk.times])
        if len(values) < 3:
            self._prev_values, self._prev_times = values, times
            return Chunk.empty(StreamKind.SCALAR, chunk.rate_hz)
        candidate = self._candidates(values)
        kept = debounce_indices(
            candidate + self._stream_index,
            self.min_separation,
            last_kept=self._last_emit_index,
        )
        if len(kept):
            self._last_emit_index = int(kept[-1])
        local = kept - self._stream_index
        emit_times = times[local]
        emit_values = values[local]
        # Keep the final two samples so extrema at chunk edges are found.
        keep = len(values) - 2
        self._stream_index += keep
        self._prev_values, self._prev_times = values[keep:], times[keep:]
        return Chunk.scalars(emit_times, emit_values, chunk.rate_hz)

    def _candidates(self, values: np.ndarray) -> np.ndarray:
        """Indices of in-band extrema in ``values`` (pure, vectorized)."""
        mid = values[1:-1]
        if self.mode == "max":
            is_ext = (values[:-2] < mid) & (mid >= values[2:])
        else:
            is_ext = (values[:-2] > mid) & (mid <= values[2:])
        in_band = (mid >= self.low) & (mid <= self.high)
        return np.flatnonzero(is_ext & in_band) + 1  # index into `values`

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Whole-trace extrema: the edge buffers and index carry collapse."""
        (chunk,) = chunks
        values, times = chunk.values, chunk.times
        if len(values) < 3:
            return Chunk.empty(StreamKind.SCALAR, chunk.rate_hz)
        kept = debounce_indices(
            self._candidates(values), self.min_separation, last_kept=-(10**12)
        )
        return Chunk.scalars(times[kept], values[kept], chunk.rate_hz)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Vectorized candidate detection, per-row debouncing.

        Neighbor comparisons and the band check run on the full tensor;
        a candidate is then valid only at interior positions of its own
        row (``1 .. length-2``).  The greedy debounce is inherently
        sequential, so the (sparse) candidate indices of all rows are
        flattened — spaced so rows cannot interact — into one scan that
        makes exactly the per-row decisions.  With the default
        ``min_separation == 1`` every candidate survives and the scan
        is skipped entirely.
        """
        (batch,) = batches
        values = batch.values
        rows, width = values.shape
        mask = np.zeros((rows, width), dtype=bool)
        if width >= 3:
            mid = values[:, 1:-1]
            if self.mode == "max":
                is_ext = (values[:, :-2] < mid) & (mid >= values[:, 2:])
            else:
                is_ext = (values[:, :-2] > mid) & (mid <= values[:, 2:])
            in_band = (mid >= self.low) & (mid <= self.high)
            candidate = is_ext & in_band
            # Interior positions only: candidate column c sits at stream
            # index c+1, which must be <= length-2 of its own row.
            candidate &= (
                np.arange(width - 2, dtype=np.int64)[None, :]
                < batch.lengths[:, None] - 2
            )
            if self.min_separation == 1:
                mask[:, 1:-1] = candidate
            else:
                # One flattened greedy scan replaces B per-row scans:
                # with rows spaced ``width + min_separation`` apart the
                # last kept candidate of one row sits more than
                # ``min_separation`` before the first candidate of the
                # next, so the combined scan makes exactly the per-row
                # decisions (each row's first candidate is always kept,
                # matching the fresh ``last_kept`` a per-row scan gets).
                rows_idx, cols_idx = np.nonzero(candidate)
                stride = width + self.min_separation
                kept = debounce_indices(
                    rows_idx * stride + cols_idx + 1,
                    self.min_separation,
                    last_kept=-(10**12),
                )
                mask[kept // stride, kept % stride] = True
        return batch.take(mask)

    def reset(self) -> None:
        self._prev_times = np.empty(0)
        self._prev_values = np.empty(0)
        self._last_emit_index = -(10**12)
        self._stream_index = 0

    def incremental_ineligibility(self) -> str | None:
        if self.min_separation != 1:
            return (
                "localExtrema min_separation > 1 debounces against an "
                "emission history that bounded replay cannot carry"
            )
        return None

    def incremental_retention(self, merged: Chunk, seen: int) -> int:
        """Keep the final two samples so extrema at span edges are found.

        Two samples can never form a candidate on their own (three are
        required), and the sample at index ``seen - 2`` was already
        judged when its right neighbour arrived — with
        ``min_separation == 1`` the debounce keeps every candidate, so
        replaying the pair emits nothing and only genuinely new extrema
        fire when the next span lands.
        """
        return min(seen, 2)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        # Two comparisons plus band check per sample.
        return 8.0
