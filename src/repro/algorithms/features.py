"""Feature-extraction algorithms (paper Section 3.6).

* vector magnitude of the acceleration vector,
* zero-crossing rate of a frame,
* magnitude / frequency / prominence of the dominant frequency bin.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import PORT_VARIADIC, StreamAlgorithm, StreamShape, register
from repro.errors import ParameterError
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind


@register("vectorMagnitude")
class VectorMagnitude(StreamAlgorithm):
    """Euclidean magnitude across two or more aligned scalar streams.

    The canonical use (Figure 2) combines the three accelerometer axes
    into a single orientation-independent magnitude stream:
    ``sqrt(x^2 + y^2 + z^2)``.

    All inputs must be item-aligned; the hub runtime's synchronizer
    guarantees this by buffering faster inputs.
    """

    n_inputs = PORT_VARIADIC
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ()

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        first = chunks[0]
        if first.is_empty:
            return first
        stacked = np.stack([c.values for c in chunks])
        magnitude = np.sqrt(np.sum(stacked * stacked, axis=0))
        return Chunk.scalars(first.times, magnitude, first.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless reduction: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise over aligned ports: the batch axis folds into the
        item axis, preserving the per-item reduction order."""
        return self._lower_batched_itemwise(batches)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        # One multiply-accumulate per input plus a square root.
        return 6.0 * len(in_shapes) + 30.0


@register("zeroCrossingRate")
class ZeroCrossingRate(StreamAlgorithm):
    """Fraction of adjacent sample pairs in a frame that change sign.

    Output is in ``[0, 1]``: ``0`` for a constant-sign frame, approaching
    ``1`` for a signal alternating sign every sample.  High-frequency
    content (e.g. unvoiced speech) yields a high ZCR; tonal music yields
    a lower, more stable ZCR — the contrast the music-journal and
    phrase-detection wake-up conditions exploit (Section 3.7.2).
    """

    n_inputs = 1
    input_kind = StreamKind.FRAME
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ()

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return Chunk.empty(StreamKind.SCALAR, chunk.rate_hz)
        signs = np.signbit(chunk.values)
        crossings = np.sum(signs[:, 1:] != signs[:, :-1], axis=1)
        width = chunk.values.shape[1]
        rate = crossings / max(width - 1, 1)
        return Chunk.scalars(chunk.times, rate.astype(np.float64), chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless per-frame feature: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise over aligned ports: the batch axis folds into the
        item axis, preserving the per-item reduction order."""
        return self._lower_batched_itemwise(batches)

    def propagate_shape(self, in_shapes: Sequence[StreamShape]) -> StreamShape:
        first = in_shapes[0]
        return StreamShape(StreamKind.SCALAR, first.items_per_second, 1, first.rate_hz)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        # Compare + conditional increment per sample in the frame.
        return 5.0 * in_shapes[0].width


#: Outputs :class:`DominantFrequency` can be configured to produce.
DOMINANT_MODES = ("magnitude", "frequency", "ratio")


@register("dominantFrequency")
class DominantFrequency(StreamAlgorithm):
    """Properties of the strongest frequency bin of a spectrum.

    Parameters:
        mode: What to emit per spectrum item:

            * ``"magnitude"`` — magnitude of the dominant bin;
            * ``"frequency"`` — the dominant bin's frequency in Hz;
            * ``"ratio"`` — dominant magnitude divided by the mean
              magnitude of all bins, a pitch-prominence measure (the
              siren detector's "is this a pitched sound" feature,
              Section 3.7.2).
        min_hz / max_hz: Optional band restricting which bins compete
            for dominance (e.g. the siren detector's 850-1800 Hz band).

    The DC bin is always excluded: a constant offset is not a "dominant
    frequency" in any useful sense.
    """

    n_inputs = 1
    input_kind = StreamKind.SPECTRUM
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    param_order = ("mode", "min_hz", "max_hz")

    def __init__(self, mode: str = "magnitude", min_hz: float = 0.0, max_hz: float | None = None):
        super().__init__(mode=mode, min_hz=min_hz, max_hz=max_hz)
        if mode not in DOMINANT_MODES:
            raise ParameterError(
                f"dominantFrequency: mode must be one of {DOMINANT_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.min_hz = self._require_float("min_hz", min_hz)
        self.max_hz = self._require_float("max_hz", max_hz) if max_hz is not None else None

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return Chunk.empty(StreamKind.SCALAR, chunk.rate_hz)
        magnitudes = np.abs(chunk.values)
        nbins = magnitudes.shape[1]
        width = max(2 * (nbins - 1), 1)
        freqs = np.fft.rfftfreq(width, d=1.0 / chunk.rate_hz)
        band = freqs > 0.0  # exclude DC
        band &= freqs >= self.min_hz
        if self.max_hz is not None:
            band &= freqs <= self.max_hz
        if not band.any():
            raise ParameterError(
                "dominantFrequency: the configured band contains no FFT bins"
            )
        in_band = magnitudes[:, band]
        band_freqs = freqs[band]
        peak_idx = np.argmax(in_band, axis=1)
        peak_mag = in_band[np.arange(len(chunk)), peak_idx]
        if self.mode == "magnitude":
            out = peak_mag
        elif self.mode == "frequency":
            out = band_freqs[peak_idx]
        else:  # ratio
            mean_mag = np.mean(magnitudes[:, 1:], axis=1)  # mean over non-DC bins
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(mean_mag > 0, peak_mag / mean_mag, 0.0)
        return Chunk.scalars(chunk.times, out.astype(np.float64), chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless per-spectrum feature: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise over aligned ports: the batch axis folds into the
        item axis, preserving the per-item reduction order."""
        return self._lower_batched_itemwise(batches)

    def propagate_shape(self, in_shapes: Sequence[StreamShape]) -> StreamShape:
        first = in_shapes[0]
        return StreamShape(StreamKind.SCALAR, first.items_per_second, 1, first.rate_hz)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        # |.|, compare, accumulate per bin.
        return 12.0 * in_shapes[0].width
