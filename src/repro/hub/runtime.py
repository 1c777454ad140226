"""The hub interpreter: executes a wake-up condition over sensor data.

"Our implementation of the runtime resembles a simple interpreter ...
The interpreter then waits for sensor data to be available and feeds the
data into the appropriate algorithm.  If the algorithm produces a
result, it sets a flag.  The interpreter checks the flag and if
necessary sends the result to the next algorithm. ... The final
algorithm feeds into OUT, indicating that the main processor should be
woken up." (Section 3.5)

This implementation preserves those semantics while processing data in
chunks: per round, each node consumes the chunks its inputs produced
this round, and its output (if the ``has_result`` flag is set) flows to
its consumers within the same round.  Items emitted by the output node
are wake events, returned as one columnar :class:`EventLog` (iterating
it yields :class:`WakeEvent` records).

Multi-input nodes are item-synchronized: the runtime buffers each input
port and invokes the algorithm on the longest aligned prefix, so a
``vectorMagnitude`` always sees matching x/y/z items even if upstream
moving averages warm up across chunk boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import HubExecutionError
from repro.il.ast import ChannelRef, NodeRef
from repro.il.graph import DataflowGraph
from repro.hub.state import AlgorithmState, allocate_states
from repro.sensors.samples import Chunk, StreamKind

#: How many normal feed rounds one fused round spans.  Fusion could use
#: a single trace-length round, but coalescing in blocks keeps peak
#: memory bounded on long traces while still amortizing the per-round
#: dict/Chunk/dispatch overhead over ~minutes of signal.
FUSED_ROUNDS_COALESCED = 64


@dataclass(frozen=True)
class WakeEvent:
    """One item reaching OUT: wake the main processor.

    Attributes:
        time: Trace time in seconds of the triggering item.
        value: The item's value.
    """

    time: float
    value: float


def _owned(data: Iterable[float]) -> np.ndarray:
    """A read-only 1-D float64 copy of ``data`` that owns its buffer."""
    column = np.array(data, dtype=np.float64)
    if column.ndim != 1:
        column = column.reshape(-1).copy()
    return _frozen(column)


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _little_endian(column: np.ndarray) -> bytes:
    return np.ascontiguousarray(column, dtype="<f8").tobytes()


class EventLog:
    """Wake events as two columns: the one result type of every hub tier.

    An immutable value holding two equally long, contiguous, read-only
    float64 arrays it owns outright (never a view into a larger buffer,
    so a cached log pins no padded batch tensor):

    * ``times`` — trace time in seconds of each item that reached OUT;
    * ``values`` — that item's value.

    Equality is bitwise (``-0.0`` differs from ``0.0``; a NaN equals a
    NaN with the same bits) and defined only between logs: against
    anything else ``==`` is ``False`` rather than an error.  Iterating
    yields :class:`WakeEvent` records lazily; a slice returns a new log.
    Pickling stores the two columns as little-endian bytes.

    Args:
        times: Event times (anything ``np.array`` accepts).
        values: Event values, one per time.

    Raises:
        HubExecutionError: when the columns differ in length.
    """

    __slots__ = ("times", "values")

    def __init__(
        self, times: Iterable[float] = (), values: Iterable[float] = ()
    ):
        self.times = _owned(times)
        self.values = _owned(values)
        if len(self.times) != len(self.values):
            raise HubExecutionError(
                f"event log columns differ in length "
                f"({len(self.times)} times, {len(self.values)} values)"
            )

    @classmethod
    def concat(cls, parts: Iterable["EventLog"]) -> "EventLog":
        """One log holding every part's events, in order."""
        parts = [part for part in parts if len(part)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls()
        # np.concatenate already returns fresh arrays: adopt them
        # instead of copying a second time.
        log = cls.__new__(cls)
        log.times = _frozen(np.concatenate([part.times for part in parts]))
        log.values = _frozen(np.concatenate([part.values for part in parts]))
        return log

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[WakeEvent]:
        for t, v in zip(self.times.tolist(), self.values.tolist()):
            yield WakeEvent(t, v)

    def __getitem__(self, index: slice) -> "EventLog":
        if not isinstance(index, slice):
            raise TypeError(
                "an EventLog supports slicing only; iterate it for "
                "WakeEvent records"
            )
        return EventLog(self.times[index], self.values[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        if self is other:
            return True
        # Compare bit patterns, not float values: NaN payloads and the
        # sign of zero count, exactly as in the digest encoding.
        return all(
            np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))
            for mine, theirs in (
                (self.times, other.times), (self.values, other.values)
            )
        )

    def __reduce__(self):
        return (
            _event_log_from_bytes,
            (_little_endian(self.times), _little_endian(self.values)),
        )

    def __repr__(self) -> str:
        head = ", ".join(f"({e.time!r}, {e.value!r})" for e in self[:3])
        more = ", ..." if len(self) > 3 else ""
        return f"EventLog({len(self)} events: [{head}{more}])"


def _event_log_from_bytes(times: bytes, values: bytes) -> EventLog:
    return EventLog(
        np.frombuffer(times, dtype="<f8"), np.frombuffer(values, dtype="<f8")
    )


#: The empty log (immutable, so one instance serves every empty round).
_NO_EVENTS = EventLog()


class HubRuntime:
    """Interprets one validated wake-up condition.

    Args:
        graph: Validated dataflow graph
            (from :func:`repro.il.validate.validate_program`).

    Use :meth:`feed` to push aligned per-channel sample chunks; it
    returns the wake events the chunk produced.  :meth:`run` drives a
    whole iterable of chunk rounds and concatenates their events.
    """

    def __init__(self, graph: DataflowGraph):
        self.graph = graph
        self.states: Dict[int, AlgorithmState] = allocate_states(graph.nodes)

    def reset(self) -> None:
        """Drop all interpreter state (buffers, flags, results)."""
        for state in self.states.values():
            state.reset()

    def feed(self, channel_chunks: Dict[str, Chunk]) -> EventLog:
        """Process one round of sensor data.

        Args:
            channel_chunks: Chunk of new raw samples per channel name.
                Every channel the graph reads must be present (possibly
                empty).

        Returns:
            Wake events produced this round, in time order.

        Raises:
            HubExecutionError: when a channel the condition reads has
                no chunk this round.
        """
        missing = [c for c in self.graph.channels if c not in channel_chunks]
        if missing:
            raise HubExecutionError(
                f"feed() missing chunks for channels {missing}"
            )

        round_outputs: Dict[int, Chunk] = {}
        events = _NO_EVENTS
        for node in self.graph.nodes:
            state = self.states[node.node_id]
            inputs = self._gather_inputs(node.inputs, channel_chunks, round_outputs)
            if len(node.inputs) > 1:
                inputs = self._synchronize(state, inputs)
            if all(chunk.is_empty for chunk in inputs):
                # Nothing arrived on any port this round: the paper's
                # interpreter simply would not invoke the algorithm.
                empty = Chunk.empty(
                    node.algorithm.output_kind,
                    inputs[0].rate_hz,
                    None if node.algorithm.output_kind is StreamKind.SCALAR else 0,
                )
                state.record_result(empty)
                round_outputs[node.node_id] = empty
                continue
            output = node.algorithm.process(inputs)
            state.record_result(output)
            round_outputs[node.node_id] = output
            if node.node_id == self.graph.output_id and state.has_result:
                events = EventLog(output.times, output.values)
        return events

    def run(self, rounds: Iterable[Dict[str, Chunk]]) -> EventLog:
        """Feed every round and return all wake events."""
        return EventLog.concat([self.feed(chunks) for chunks in rounds])

    def run_fused(
        self,
        channel_data: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
        chunk_seconds: float = 4.0,
    ) -> EventLog:
        """Interpret a whole trace in a few large coalesced rounds.

        Instead of feeding hundreds of ``chunk_seconds``-sized rounds,
        the trace is split into rounds ``FUSED_ROUNDS_COALESCED`` times
        longer, eliminating almost all per-round dict building, chunk
        allocation and node dispatch.  Because every node is required
        to be chunk-invariant (and all channels single-rate), the wake
        events are *bit-identical* to the round-by-round result for any
        ``chunk_seconds``.

        Args:
            channel_data: Per channel name, a ``(times, values,
                rate_hz)`` triple, as for :func:`split_into_rounds`.
            chunk_seconds: The round length the caller would have used
                on the slow path; fused rounds coalesce this.

        Raises:
            HubExecutionError: when the graph is not fusion-eligible —
                callers that want silent fallback should consult
                :func:`fusion_eligibility` first.
        """
        reason = fusion_eligibility(self.graph)
        if reason is not None:
            raise HubExecutionError(f"graph is not fusion-eligible: {reason}")
        fused = split_into_rounds(
            channel_data, chunk_seconds * FUSED_ROUNDS_COALESCED
        )
        return self.run(fused)

    # -- helpers ------------------------------------------------------

    def _gather_inputs(
        self,
        refs: Sequence,
        channel_chunks: Dict[str, Chunk],
        round_outputs: Dict[int, Chunk],
    ) -> List[Chunk]:
        inputs: List[Chunk] = []
        for ref in refs:
            if isinstance(ref, ChannelRef):
                inputs.append(channel_chunks[ref.channel])
            elif isinstance(ref, NodeRef):
                inputs.append(round_outputs[ref.node_id])
            else:  # pragma: no cover - validated earlier
                raise TypeError(f"bad input ref {ref!r}")
        return inputs

    def _synchronize(
        self, state: AlgorithmState, inputs: List[Chunk]
    ) -> List[Chunk]:
        """Buffer multi-input ports and release the aligned prefix."""
        rate = inputs[0].rate_hz
        for port, chunk in enumerate(inputs):
            if not chunk.is_empty:
                state.pending[port].extend(chunk)
        available = min(len(state.pending[p]) for p in range(len(inputs)))
        aligned: List[Chunk] = []
        for port in range(len(inputs)):
            buffer = state.pending[port]
            # Views, not copies: ChunkBuffer never mutates its arrays in
            # place (extend/consume reassign), so a released prefix stays
            # valid after the buffer advances past it.
            aligned.append(
                Chunk.view(
                    StreamKind.SCALAR,
                    buffer.times[:available],
                    buffer.values[:available],
                    rate,
                )
            )
            buffer.consume(available)
        return aligned


def fusion_eligibility(graph: DataflowGraph) -> Optional[str]:
    """Why a graph cannot run fused — or ``None`` when it can.

    A graph is fusion-eligible when re-chunking its input provably
    cannot change its output:

    * every node's algorithm declares ``chunk_invariant = True``;
    * all raw channels it reads share one sampling rate (multi-rate
      graphs make round boundaries part of the port-synchronization
      schedule, so they stay on the round-by-round path).

    Returns a human-readable reason for the first violation found, so
    callers can log *why* they fell back.
    """
    rates = set()
    for node in graph.nodes:
        if not node.algorithm.chunk_invariant:
            return (
                f"node {node.node_id} ({node.algorithm.opcode or type(node.algorithm).__name__})"
                " is not chunk-invariant"
            )
        for ref, shape in zip(node.inputs, node.input_shapes):
            if isinstance(ref, ChannelRef):
                rates.add(shape.rate_hz)
    if len(rates) > 1:
        return f"graph reads channels at multiple rates {sorted(rates)}"
    return None


def split_into_rounds(
    channel_data: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
    chunk_seconds: float = 4.0,
) -> Iterable[Dict[str, Chunk]]:
    """Slice aligned channel arrays into feed-sized rounds.

    Args:
        channel_data: Per channel name, a ``(times, values, rate_hz)``
            triple.  All channels must cover the same time span.
        chunk_seconds: Wall-clock length of each round.

    Yields:
        One ``{channel: Chunk}`` mapping per round.  Mimics the hub
        receiving batches of samples over the sensor bus.  No channel
        data (or only empty channels) yields no rounds.
    """
    if not channel_data:
        return
    # Coerce once up front so per-round slices can be handed out as
    # zero-copy views without re-validation.
    coerced = {
        name: (
            np.asarray(times, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
            rate,
        )
        for name, (times, values, rate) in channel_data.items()
    }
    nonempty = [times for times, _values, _rate in coerced.values() if len(times)]
    if not nonempty:
        return
    start = min(times[0] for times in nonempty)
    end = max(times[-1] for times in nonempty)
    channel_data = coerced
    # Round boundaries, accumulated the same way the rounds advance so
    # float rounding matches a per-round scan exactly.
    edges: List[float] = []
    t0 = start
    while t0 <= end:
        edges.append(t0)
        t0 += chunk_seconds
    edges.append(t0)
    # One binary search per channel for all boundaries replaces a full
    # boolean mask per (channel, round): O(samples log rounds) instead
    # of O(samples x rounds).  Sample times are sorted by construction.
    bounds = {
        name: np.searchsorted(times, edges, side="left")
        for name, (times, values, rate) in channel_data.items()
    }
    for k in range(len(edges) - 1):
        round_chunks: Dict[str, Chunk] = {}
        for name, (times, values, rate) in channel_data.items():
            i0, i1 = bounds[name][k], bounds[name][k + 1]
            round_chunks[name] = Chunk.view(
                StreamKind.SCALAR, times[i0:i1], values[i0:i1], rate
            )
        yield round_chunks
