"""Transform algorithms: FFT and inverse FFT (paper Section 3.6).

Frames enter the frequency domain through :class:`FFT` (producing a
one-sided complex spectrum) and can return to the time domain through
:class:`IFFT`.  FFT-based algorithms are the ones the paper found the
low-power MSP430 could *not* run in real time, which the cycle-cost model
here reflects.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms.base import StreamAlgorithm, StreamShape, register
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind

#: Cycle cost multiplier for a software FFT butterfly on an MCU without
#: an FPU.  Chosen so that an 8 kHz audio pipeline with 512-point FFTs
#: exceeds the MSP430's real-time budget while 50 Hz accelerometer
#: pipelines remain comfortably feasible (matches Section 4).
FFT_CYCLES_PER_BUTTERFLY = 60.0


def fft_cycles(width: int) -> float:
    """Approximate MCU cycles to transform one ``width``-sample frame."""
    if width <= 1:
        return FFT_CYCLES_PER_BUTTERFLY
    return FFT_CYCLES_PER_BUTTERFLY * width * math.log2(width)


@register("fft")
class FFT(StreamAlgorithm):
    """Fast Fourier Transform: time-domain frame to one-sided spectrum."""

    n_inputs = 1
    input_kind = StreamKind.FRAME
    output_kind = StreamKind.SPECTRUM
    chunk_invariant = True
    param_order = ()

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return Chunk.empty(StreamKind.SPECTRUM, chunk.rate_hz, 0)
        spectra = np.fft.rfft(chunk.values, axis=1)
        return Chunk(StreamKind.SPECTRUM, chunk.times, spectra, chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless per-frame transform: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise: each item transforms independently, so the batch
        axis folds into the item axis (padding items are zeros)."""
        return self._lower_batched_itemwise(batches)

    def propagate_shape(self, in_shapes: Sequence[StreamShape]) -> StreamShape:
        first = in_shapes[0]
        return StreamShape(
            StreamKind.SPECTRUM,
            first.items_per_second,
            first.width // 2 + 1,
            first.rate_hz,
        )

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return fft_cycles(in_shapes[0].width)


@register("ifft")
class IFFT(StreamAlgorithm):
    """Inverse FFT: one-sided spectrum back to a time-domain frame."""

    n_inputs = 1
    input_kind = StreamKind.SPECTRUM
    output_kind = StreamKind.FRAME
    chunk_invariant = True
    param_order = ()

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return Chunk.empty(StreamKind.FRAME, chunk.rate_hz, 0)
        frames = np.fft.irfft(chunk.values, axis=1)
        return Chunk(StreamKind.FRAME, chunk.times, frames, chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless per-spectrum transform: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise: each item transforms independently, so the batch
        axis folds into the item axis (padding items are zeros)."""
        return self._lower_batched_itemwise(batches)

    def propagate_shape(self, in_shapes: Sequence[StreamShape]) -> StreamShape:
        first = in_shapes[0]
        width = max(2 * (first.width - 1), 1)
        return StreamShape(StreamKind.FRAME, first.items_per_second, width, first.rate_hz)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return fft_cycles(max(2 * (in_shapes[0].width - 1), 1))
