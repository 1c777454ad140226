"""Windowing algorithms: partition a scalar stream into frames.

Paper Section 3.6: "Windowing — partitioning sensor data into rectangular
or Hamming windows."
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import StreamAlgorithm, StreamShape, register
from repro.errors import ParameterError
from repro.sensors.samples import BatchedChunk, Chunk, ChunkBuffer, StreamKind

#: Supported window shapes.
WINDOW_SHAPES = ("rectangular", "hamming")


@register("window")
class Window(StreamAlgorithm):
    """Partition a scalar stream into fixed-size frames.

    Parameters:
        size: Samples per frame.
        hop: Samples to advance between frames; defaults to ``size``
            (non-overlapping).  ``hop < size`` gives overlapping frames.
        shape: ``"rectangular"`` (default) or ``"hamming"``.  A Hamming
            window tapers each frame, reducing FFT spectral leakage.

    Emits one FRAME item each time ``hop`` new samples have arrived and
    at least ``size`` samples are buffered.  The frame's timestamp is the
    time of its last sample.
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.FRAME
    # Frames are cut at absolute sample offsets held in the carry
    # buffer, so the emitted frame sequence never depends on chunking.
    chunk_invariant = True
    param_order = ("size", "hop", "shape")

    def __init__(self, size: int, hop: int | None = None, shape: str = "rectangular"):
        super().__init__(size=size, hop=hop, shape=shape)
        self.size = self._require_positive_int("size", size)
        self.hop = self._require_positive_int("hop", hop if hop is not None else self.size)
        if shape not in WINDOW_SHAPES:
            raise ParameterError(f"window: shape must be one of {WINDOW_SHAPES}, got {shape!r}")
        self.shape = shape
        self._taper = np.hamming(self.size) if shape == "hamming" else None
        self._buffer = ChunkBuffer()

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        self._buffer.extend(chunk)
        n = len(self._buffer)
        if n < self.size:
            return Chunk.empty(StreamKind.FRAME, chunk.rate_hz, self.size)
        n_frames = (n - self.size) // self.hop + 1
        starts = np.arange(n_frames) * self.hop
        idx = starts[:, None] + np.arange(self.size)[None, :]
        frames = self._buffer.values[idx]
        if self._taper is not None:
            frames = frames * self._taper
        times = self._buffer.times[starts + self.size - 1]
        self._buffer.consume(int(starts[-1] + self.hop))
        return Chunk(StreamKind.FRAME, times, frames, chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Whole-trace framing: every frame is cut in one fancy-index pass.

        Frames start at absolute offsets ``0, hop, 2*hop, ...`` from the
        first sample, exactly as the streaming carry buffer would cut
        them, so the buffer state collapses away entirely.
        """
        (chunk,) = chunks
        n = len(chunk)
        if n < self.size:
            return Chunk.empty(StreamKind.FRAME, chunk.rate_hz, self.size)
        n_frames = (n - self.size) // self.hop + 1
        starts = np.arange(n_frames) * self.hop
        idx = starts[:, None] + np.arange(self.size)[None, :]
        frames = chunk.values[idx]
        if self._taper is not None:
            frames = frames * self._taper
        times = chunk.times[starts + self.size - 1]
        return Chunk(StreamKind.FRAME, times, frames, chunk.rate_hz)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Per-row framing in one 3-D fancy-index pass.

        Every row cuts frames at the same absolute offsets ``0, hop,
        2*hop, ...``; a row's frame is valid only while it fits inside
        the row's own length, so short rows just expose fewer frames.
        Gathered elements and the taper multiply are the identical
        float operations the per-trace rule applies.
        """
        (batch,) = batches
        rows = batch.batch_size
        if batch.n_max < self.size:
            return BatchedChunk.view(
                StreamKind.FRAME,
                np.zeros((rows, 0)),
                np.zeros((rows, 0, self.size)),
                np.zeros(rows, dtype=np.int64),
                batch.rate_hz,
            )
        n_frames = (batch.n_max - self.size) // self.hop + 1
        starts = np.arange(n_frames) * self.hop
        idx = starts[:, None] + np.arange(self.size)[None, :]
        frames = batch.values[:, idx]
        if self._taper is not None:
            frames = frames * self._taper
        times = batch.times[:, starts + self.size - 1]
        lengths = np.where(
            batch.lengths >= self.size,
            (batch.lengths - self.size) // self.hop + 1,
            0,
        )
        return BatchedChunk.view(
            StreamKind.FRAME, times, frames, lengths, batch.rate_hz
        )

    def reset(self) -> None:
        self._buffer.clear()

    def incremental_ineligibility(self) -> str | None:
        if self.hop > self.size:
            return (
                "window hop exceeds size (samples between frames are "
                "discarded, which bounded replay cannot express)"
            )
        return None

    def incremental_retention(self, merged: Chunk, seen: int) -> int:
        """Samples past the start of the next uncut frame.

        With ``seen`` samples consumed, ``(seen - size) // hop + 1``
        frames have been emitted and the next frame starts at that count
        times ``hop``; everything from there on must replay.  The result
        is always below ``size`` (no retained frame re-emits) because
        ``hop <= size`` is guaranteed by :meth:`incremental_ineligibility`.
        """
        if seen < self.size:
            return seen
        return (seen - self.size) % self.hop + self.size - self.hop

    def propagate_shape(self, in_shapes: Sequence[StreamShape]) -> StreamShape:
        first = in_shapes[0]
        return StreamShape(
            StreamKind.FRAME,
            first.items_per_second / self.hop,
            self.size,
            first.rate_hz,
        )

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        # Per input sample: a buffer store, plus (for Hamming) one
        # multiply per sample when the frame is emitted, amortized.
        copy_cost = 4.0
        taper_cost = 6.0 * (self.size / self.hop) if self.shape == "hamming" else 0.0
        return copy_cost + taper_cost
