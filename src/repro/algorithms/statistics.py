"""Statistical feature extraction over frames (paper Section 3.6:
"a set of statistical functions")."""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.algorithms.base import StreamAlgorithm, StreamShape, register
from repro.errors import ParameterError
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind

_STATS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "mean": lambda v: np.mean(v, axis=1),
    "variance": lambda v: np.var(v, axis=1),
    "std": lambda v: np.std(v, axis=1),
    "min": lambda v: np.min(v, axis=1),
    "max": lambda v: np.max(v, axis=1),
    "range": lambda v: np.ptp(v, axis=1),
    "rms": lambda v: np.sqrt(np.mean(v * v, axis=1)),
    "median": lambda v: np.median(v, axis=1),
    "energy": lambda v: np.sum(v * v, axis=1),
    "mad": lambda v: np.mean(np.abs(v - np.mean(v, axis=1, keepdims=True)), axis=1),
}

#: Names accepted by :class:`Statistic`.
STATISTIC_NAMES = tuple(sorted(_STATS))


@register("stat")
class Statistic(StreamAlgorithm):
    """Reduce each frame to one statistic.

    Parameters:
        name: One of :data:`STATISTIC_NAMES` (``mean``, ``variance``,
            ``std``, ``min``, ``max``, ``range``, ``rms``, ``median``,
            ``energy``, ``mad``).

    The music-journal wake-up condition's "variance of the amplitude
    over the entire window" branch (Section 3.7.2) is
    ``Statistic("variance")``.
    """

    n_inputs = 1
    input_kind = StreamKind.FRAME
    output_kind = StreamKind.SCALAR
    # Per-frame reduction: output depends only on the frame contents.
    chunk_invariant = True
    param_order = ("name",)

    #: Relative per-sample cost of each statistic on an MCU.
    _COST = {
        "mean": 3.0,
        "variance": 8.0,
        "std": 8.0,
        "min": 2.0,
        "max": 2.0,
        "range": 4.0,
        "rms": 8.0,
        "median": 40.0,  # needs a sort
        "energy": 6.0,
        "mad": 10.0,
    }

    def __init__(self, name: str):
        super().__init__(name=name)
        if name not in _STATS:
            raise ParameterError(
                f"stat: unknown statistic {name!r}; choose from {STATISTIC_NAMES}"
            )
        self.name = name
        self._fn = _STATS[name]

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return Chunk.empty(StreamKind.SCALAR, chunk.rate_hz)
        values = self._fn(np.asarray(chunk.values, dtype=np.float64))
        return Chunk.scalars(chunk.times, values, chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless per-frame reduction: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise: each frame reduces independently, so the batch
        axis folds into the item axis."""
        return self._lower_batched_itemwise(batches)

    def propagate_shape(self, in_shapes: Sequence[StreamShape]) -> StreamShape:
        first = in_shapes[0]
        return StreamShape(StreamKind.SCALAR, first.items_per_second, 1, first.rate_hz)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return self._COST[self.name] * in_shapes[0].width
