"""Base class and opcode registry for hub processing algorithms.

The hub runtime executes a wake-up condition as a dataflow graph whose
nodes are :class:`StreamAlgorithm` instances.  Each concrete algorithm:

* declares how many input streams it accepts and which
  :class:`~repro.sensors.samples.StreamKind` it consumes and produces,
  so the IL validator can type-check a pipeline before it is pushed;
* implements :meth:`process`, transforming one aligned set of input
  chunks into one output chunk (possibly empty — the paper's
  ``hasResult`` flag generalizes to "the output chunk may hold fewer
  items than the input");
* exposes a coarse cycle-cost model used by the MCU feasibility analysis
  (Section 4: the MSP430 cannot run FFT-based filters in real time).

Registration::

    @register("movingAvg")
    class MovingAverage(StreamAlgorithm):
        ...

makes the opcode available both to the IL parser/compiler and to the hub
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import ParameterError, UnknownAlgorithmError
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind

#: Sentinel for algorithms accepting any number of inputs >= 1
#: (e.g. vector magnitude).
PORT_VARIADIC = -1


@dataclass(frozen=True)
class StreamShape:
    """Static description of a stream edge, used by feasibility analysis.

    Attributes:
        kind: Item kind on the edge.
        items_per_second: Upper bound on item rate.
        width: Number of samples per item (1 for scalars).
        rate_hz: Sampling rate of the underlying time-domain signal.
    """

    kind: StreamKind
    items_per_second: float
    width: int
    rate_hz: float


class StreamAlgorithm:
    """One node of a wake-up condition dataflow graph.

    Subclasses set the class attributes and implement :meth:`process`.

    Class attributes:
        opcode: Intermediate-language name (set by :func:`register`).
        n_inputs: Number of input streams, or :data:`PORT_VARIADIC`.
        input_kind: Stream kind required on every input.
        output_kind: Stream kind produced.
        chunk_invariant: True when the concatenated output stream is
            *bitwise* independent of how the input stream is split into
            chunks.  The fused execution path
            (:meth:`repro.hub.runtime.HubRuntime.run_fused`) relies on
            this to replace many small feed rounds with a few large
            ones while producing identical wake events; an algorithm
            whose numerical result can drift with chunk size — even at
            ulp level — must leave this False.  Defaults to False so
            new algorithms opt in explicitly.  It also admits the
            opcode to *bounded-replay incremental* execution
            (streaming ingestion): the executor keeps a retained
            trailing-input buffer ``R`` sized by
            :meth:`incremental_retention` such that ``lower(R)`` emits
            nothing and ``lower(R ++ new_span)`` emits exactly the
            never-before-emitted output items.  A chunk-invariant
            opcode must keep that replay contract bit-exact, and an
            instance outside it says why through
            :meth:`incremental_ineligibility`.
    """

    opcode: str = ""
    n_inputs: int = 1
    input_kind: StreamKind = StreamKind.SCALAR
    output_kind: StreamKind = StreamKind.SCALAR
    chunk_invariant: bool = False
    #: Parameters the shape-batched path may vary *per row*.  An opcode
    #: that overrides :meth:`lower_batched_rows` lists here exactly the
    #: parameter names its row kernel lifts into ``(B,)`` tensors; every
    #: other parameter stays structural (rows must agree on it to share
    #: a shape batch).  Empty means "no row lowering": heterogeneous
    #: rows fall back to a per-row ``lower`` loop for this node.
    row_params: Tuple[str, ...] = ()

    def __init__(self, **params: Any):
        self.params = params

    # -- execution ---------------------------------------------------

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        """Consume one aligned chunk per input port, produce one chunk.

        The returned chunk may be empty or shorter than the input when
        the algorithm is not ready to emit (window not yet full,
        threshold not met, ...).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Discard internal state, returning to the just-constructed state."""

    # -- compilation -------------------------------------------------

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Whole-trace lowering rule for the hub compiler.

        Transforms one whole-trace chunk per input port into the node's
        whole-trace output in a single vectorized pass — the compiled
        counterpart of :meth:`process`.  A lowering rule must be a
        *pure* function: it may not read or mutate instance state (any
        carried state collapses to its cold-start value, because the
        compiled program always covers the trace from the beginning),
        and its output must be bit-identical to feeding a freshly
        constructed instance the same data as one ``process`` call.
        Together with ``chunk_invariant`` this makes the compiled path
        (:mod:`repro.hub.compile`) exactly equivalent to the
        interpreter at any chunking.

        The base implementation signals "no lowering rule": the
        compiler's eligibility check
        (:func:`repro.hub.compile.compile_eligibility`) reports such
        nodes by name instead of calling this.
        """
        raise NotImplementedError(
            f"{self.opcode or type(self).__name__} has no lowering rule"
        )

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Batched lowering rule: one whole-trace pass over *B* traces.

        Consumes one :class:`~repro.sensors.samples.BatchedChunk` per
        input port (all ports share the batch axis) and produces the
        node's batched output.  The contract is row-wise bit-identity:
        row ``b`` of the result must equal ``lower`` applied to row
        ``b`` of every input — padding may hold anything, but valid
        prefixes are exact.

        The base implementation loops ``lower`` over the rows and
        re-stacks, which is always correct (lowering rules are pure)
        and is what FFT-bearing frame ops keep: numpy's pocketfft is
        only guaranteed bitwise reproducible per 1-D transform, and a
        per-row loop sidesteps any question of batched reassociation.
        Scalar ops whose padding behaves (elementwise maps, prefix
        scans) override this with genuinely vectorized versions.
        """
        return BatchedChunk.from_rows(
            [
                self.lower([batch.row(b) for batch in batches])
                for b in range(batches[0].batch_size)
            ]
        )

    def lower_batched_rows(
        self,
        batches: Sequence[BatchedChunk],
        row_values: Dict[str, "np.ndarray"],
    ) -> BatchedChunk:
        """Shape-batched lowering: per-row parameter tensors.

        Like :meth:`lower_batched`, but the parameters named in
        :attr:`row_params` arrive as ``(B,)`` arrays in ``row_values``
        (row ``b`` holds row ``b``'s own parameter value) instead of as
        scalars on ``self``.  The contract is the same row-wise
        bit-identity: row ``b`` of the result must equal
        ``lower_batched`` on an instance constructed with row ``b``'s
        parameters — broadcasting a per-row scalar down a row is the
        same elementwise float operation as broadcasting a Python
        scalar over the row, so overrides get this for free.

        The method is invoked on an *arbitrary* row's instance (the
        shape-batched plan holds one plan per row); an override MUST
        read the lifted parameters only from ``row_values``, never from
        ``self``.  Structural parameters (everything not in
        ``row_params``) are guaranteed equal across the batch and may
        be read from ``self`` as usual.

        The base implementation signals "no row lowering" — the
        shape-batched executor detects that via :func:`has_row_lowering`
        and falls back to a per-row ``lower`` loop for the node.
        """
        raise NotImplementedError(
            f"{self.opcode or type(self).__name__} has no row lowering rule"
        )

    def _lower_batched_itemwise(
        self, batches: Sequence[BatchedChunk]
    ) -> BatchedChunk:
        """Batched lowering for per-item maps (output count == input count).

        Flattens the batch axis into the item axis, runs the node's
        ordinary :meth:`lower` once over the ``B·n_max`` flattened
        items, and folds the result back to ``(B, n_max, ...)``.  Valid
        for any *itemwise* rule — one output item per input item, each
        depending only on its own item — because then the flattened
        pass applies the identical float operations to every valid
        element as the per-row pass, and padding items merely compute
        garbage that stays masked behind ``lengths``.
        """
        first = batches[0]
        rows, width = first.times.shape[0], first.times.shape[1]
        flat = [
            Chunk.view(
                batch.kind,
                batch.times.reshape(rows * width),
                batch.values.reshape((rows * width,) + batch.values.shape[2:]),
                batch.rate_hz,
            )
            for batch in batches
        ]
        out = self.lower(flat)
        if len(out) != rows * width:
            raise ValueError(
                f"{self.opcode}: itemwise batching expected {rows * width} "
                f"items, got {len(out)}"
            )
        return BatchedChunk.view(
            out.kind,
            out.times.reshape(rows, width),
            out.values.reshape((rows, width) + out.values.shape[1:]),
            first.lengths,
            out.rate_hz,
        )

    # -- incremental (streaming) execution ---------------------------

    def incremental_retention(self, merged: Chunk, seen: int) -> int:
        """Trailing input items to retain for the next incremental round.

        Called after ``lower(merged)`` ran, where ``merged`` is the
        retained buffer plus the round's new span and ``seen`` is the
        total number of items this port has consumed since the stream
        started.  The returned count ``r`` (items off the end of
        ``merged``) must satisfy the bounded-replay contract: running
        ``lower`` on those ``r`` items alone emits nothing, and running
        it on them plus any future span emits exactly the output items
        that whole-trace ``lower`` would emit beyond what has already
        been emitted — bit for bit.  The default (0) is correct for
        stateless itemwise rules; windowed/stateful opcodes override it.
        """
        return 0

    def incremental_ineligibility(self) -> Optional[str]:
        """Why *this instance* cannot run incrementally, or None.

        Some opcodes are incremental only for part of their parameter
        space (e.g. a window whose hop exceeds its size discards
        samples between frames, which bounded replay cannot express).
        Instances outside that space return a human-readable reason and
        the streaming executor falls back to a persistent interpreter.
        """
        return None

    # -- static analysis ---------------------------------------------

    def propagate_shape(self, in_shapes: Sequence[StreamShape]) -> StreamShape:
        """Compute the output stream shape from the input shapes.

        The default implementation passes the first input through
        unchanged except for the declared output kind, which is correct
        for element-wise scalar algorithms.
        """
        first = in_shapes[0]
        return StreamShape(self.output_kind, first.items_per_second, first.width, first.rate_hz)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        """Approximate MCU cycles consumed per *input* item.

        The constants are coarse but ranked realistically: element-wise
        ops are a few cycles, windowed statistics are linear in window
        width, FFTs are ``O(w log w)`` with a large constant (software
        FFT on an MCU without a floating-point unit).
        """
        return 8.0

    # -- parameter helpers -------------------------------------------

    def _require_positive_int(self, name: str, value: Any) -> int:
        value = _as_int(name, value)
        if value <= 0:
            raise ParameterError(f"{self.opcode}: {name} must be positive, got {value}")
        return value

    def _require_float(self, name: str, value: Any) -> float:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ParameterError(
                f"{self.opcode}: {name} must be a number, got {value!r}"
            ) from None

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


def _as_int(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got a bool")
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    as_int = int(as_float)
    if as_int != as_float:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return as_int


_REGISTRY: Dict[str, Type[StreamAlgorithm]] = {}


def register(opcode: str):
    """Class decorator registering a :class:`StreamAlgorithm` under an opcode."""

    def decorate(cls: Type[StreamAlgorithm]) -> Type[StreamAlgorithm]:
        if opcode in _REGISTRY:
            raise ValueError(f"opcode {opcode!r} registered twice")
        cls.opcode = opcode
        _REGISTRY[opcode] = cls
        return cls

    return decorate


def get_algorithm_class(opcode: str) -> Type[StreamAlgorithm]:
    """Return the implementation class for an opcode.

    Raises:
        UnknownAlgorithmError: if the opcode is not registered.
    """
    try:
        return _REGISTRY[opcode]
    except KeyError:
        raise UnknownAlgorithmError(opcode) from None


def create(opcode: str, **params: Any) -> StreamAlgorithm:
    """Instantiate the algorithm registered under ``opcode``."""
    return get_algorithm_class(opcode)(**params)


def available_opcodes() -> List[str]:
    """All opcodes the platform ships, sorted."""
    return sorted(_REGISTRY)


def has_lowering(algorithm: StreamAlgorithm) -> bool:
    """True when ``algorithm``'s class overrides :meth:`StreamAlgorithm.lower`.

    The hub compiler uses this to distinguish "this opcode can be
    lowered to an array program" from the base class's not-implemented
    default, without having to call ``lower`` speculatively.
    """
    return type(algorithm).lower is not StreamAlgorithm.lower


def has_row_lowering(algorithm: StreamAlgorithm) -> bool:
    """True when ``algorithm``'s class overrides :meth:`lower_batched_rows`.

    The shape-batched executor uses this (together with a non-empty
    :attr:`StreamAlgorithm.row_params`) to decide whether a node whose
    parameters differ across rows can still run as one tensor dispatch
    with per-row parameter arrays, or must fall back to a per-row loop.
    """
    return (
        type(algorithm).lower_batched_rows
        is not StreamAlgorithm.lower_batched_rows
    )


def positional_param_order(opcode: str) -> Tuple[str, ...]:
    """Order in which an opcode's parameters appear in IL positional form.

    Used by the IL parser to map ``params={10}`` onto keyword arguments.
    """
    cls = get_algorithm_class(opcode)
    return getattr(cls, "param_order", ())
