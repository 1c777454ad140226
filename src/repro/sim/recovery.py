"""Fault-aware condition execution: watchdog recovery, graceful degradation.

This module answers the question the paper's Section 3.8 leaves open:
what must happen when the hub itself fails?  It executes a wake-up
condition over a trace under a :class:`~repro.hub.faults.FaultPlan`,
optionally protected by a :class:`~repro.hub.reliability.ReliabilityPolicy`,
and reports what the *phone* experienced: which wake-ups actually
arrived (and when), which payloads survived, and which stretches of the
trace the phone covered by falling back to duty-cycling.

The recovery state machine (reliable mode):

1. **RESIDENT** — the condition runs on the hub; the hub heartbeats
   every ``heartbeat_period_s``, each beat carrying a condition
   generation tag.
2. **A reset** kills all interpreter state and silences the hub until
   the firmware reboots (``hub_reboot_s``).  Wake-ups stop; nobody
   knows yet.
3. **Detection** — the watchdog trips on the *first received* heartbeat
   whose generation tag shows the condition is gone (fast path, the
   rebooted hub confesses), or after ``heartbeat_tolerance``
   consecutive missing beats (slow path: hub still dark, or a pure
   link blackout — which can also trip spuriously, costing one
   harmless re-push).
4. **DEGRADED** — from the trip until recovery the phone duty-cycles
   (``degraded_sense_s`` on, ``degraded_sleep_s`` off), trading power
   for partial recall instead of silently flatlining, while it
   re-pushes the condition over the reliable link (ACK/retry).
5. **RECOVERED** — the push is acknowledged; the condition restarts
   from cold state (warm-up is implicit: filters and moving averages
   refill from live data) and the phone returns to hub-triggered
   sleep.

Without a policy there is no watchdog: the first reset kills wake-ups
for the remainder of the trace — exactly the silent flatline the
reliable protocol exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import FaultInjectionError, HubExecutionError
from repro.hub.faults import FaultInjector, FaultPlan
from repro.hub.link import LinkModel, UART_DEBUG
from repro.hub.reliability import (
    CONDITION_PUSH_BYTES,
    HEARTBEAT_BYTES,
    WAKE_MESSAGE_BYTES,
    ReliabilityPolicy,
    ReliableLink,
)
from repro.hub.runtime import EventLog, HubRuntime
from repro.il.graph import DataflowGraph
from repro.sensors.samples import Chunk
from repro.traces.base import Trace

#: Re-push attempts (each already carrying the link's own retries)
#: before the simulator declares the hub unrecoverable.  Unreachable in
#: practice for any drop probability < 1.
_MAX_PUSH_ROUNDS = 50


@dataclass(frozen=True)
class FaultReport:
    """Counters describing what fault injection and recovery did.

    Attributes:
        hub_resets: Hub brown-outs that occurred within the trace.
        retransmissions: Link-level retransmissions across wake
            messages, delivery payloads and condition re-pushes.
        lost_wakeups: Hub wake events that never reached the phone.
        lost_chunks: Sensor-data rounds the hub never received intact.
        heartbeats_sent: Heartbeat frames the hub transmitted.
        heartbeats_missed: Heartbeat slots the phone heard nothing in
            (lost frames and dead-hub slots both count).
        watchdog_trips: Times the phone declared the hub dead.
        repushes: Conditions successfully re-pushed after a trip.
        degraded_seconds: Wall-clock seconds spent degraded to
            duty-cycling.
        reliability_mj: Energy (millijoules) the reliable transport
            spent on CRC framing, retransmissions, ACKs, heartbeats and
            re-pushes; 0 for naive delivery.
    """

    hub_resets: int = 0
    retransmissions: int = 0
    lost_wakeups: int = 0
    lost_chunks: int = 0
    heartbeats_sent: int = 0
    heartbeats_missed: int = 0
    watchdog_trips: int = 0
    repushes: int = 0
    degraded_seconds: float = 0.0
    reliability_mj: float = 0.0


@dataclass(frozen=True)
class WakeDelivery:
    """One wake event as the phone experienced it.

    Attributes:
        event_time: Trace time the hub condition fired.
        arrival_time: Time the wake actually reached the phone (retry
            and interrupt delays included).
        attempts: Wake-message transmissions it took.
        payload_delivered: Whether the pre-wake buffer payload made it
            across; when False the phone woke but has no pre-wake data.
    """

    event_time: float
    arrival_time: float
    attempts: int
    payload_delivered: bool


@dataclass(frozen=True)
class FaultyRun:
    """Outcome of executing one condition under a fault plan.

    Attributes:
        deliveries: Wake-ups that reached the phone, in time order.
        degraded_windows: Duty-cycle *sensing* windows the phone ran
            while degraded (empty without a reliability policy).
        resident_spans: Trace spans during which the condition was
            alive on the hub.
        hub_event_count: Wake events the condition produced (before
            any delivery loss).
        report: Fault/recovery counters.
    """

    deliveries: Tuple[WakeDelivery, ...]
    degraded_windows: Tuple[Tuple[float, float], ...]
    resident_spans: Tuple[Tuple[float, float], ...]
    hub_event_count: int
    report: FaultReport


@dataclass
class _Availability:
    """Internal: when the condition was resident, and what that cost."""

    resident: List[Tuple[float, float]] = field(default_factory=list)
    degraded: List[Tuple[float, float]] = field(default_factory=list)
    heartbeats_sent: int = 0
    heartbeats_missed: int = 0
    watchdog_trips: int = 0
    repushes: int = 0
    retransmissions: int = 0
    link_busy_s: float = 0.0


def _clip_spans(
    spans: List[Tuple[float, float]], duration: float
) -> List[Tuple[float, float]]:
    clipped = [
        (max(0.0, a), min(duration, b)) for a, b in spans
    ]
    return [(a, b) for a, b in clipped if b > a]


def _naive_availability(plan: FaultPlan, duration: float) -> _Availability:
    """No watchdog: the first reset kills the condition for good."""
    availability = _Availability()
    resets = plan.resets_before(duration)
    end = resets[0] if resets else duration
    availability.resident = _clip_spans([(0.0, end)], duration)
    return availability


def _watchdog_availability(
    plan: FaultPlan,
    policy: ReliabilityPolicy,
    duration: float,
    injector: FaultInjector,
    rlink: ReliableLink,
) -> _Availability:
    """Heartbeat watchdog: detect dead hubs, re-push, degrade meanwhile."""
    availability = _Availability()
    resets = plan.resets_before(duration)
    down_spans = [(t, t + plan.hub_reboot_s) for t in resets]

    def hub_alive(t: float) -> bool:
        return not any(a <= t < b for a, b in down_spans)

    def next_uptime(t: float) -> float:
        for a, b in down_spans:
            if a <= t < b:
                return b
        return t

    period = policy.heartbeat_period_s
    heartbeat_s = rlink.frame_seconds(HEARTBEAT_BYTES)
    resident_start = 0.0
    condition_resident = True
    consecutive_missed = 0
    reset_index = 0
    t = period
    while t < duration:
        # Apply any brown-out that happened before this heartbeat slot.
        while reset_index < len(resets) and resets[reset_index] <= t:
            if condition_resident:
                availability.resident.append(
                    (resident_start, resets[reset_index])
                )
                condition_resident = False
            reset_index += 1

        received = False
        stale = False
        if hub_alive(t):
            availability.heartbeats_sent += 1
            availability.link_busy_s += heartbeat_s
            if not injector.heartbeat_dropped():
                received = True
                stale = not condition_resident
        if received and not stale:
            consecutive_missed = 0
        elif not received:
            consecutive_missed += 1
            availability.heartbeats_missed += 1

        tripped = stale or consecutive_missed >= policy.heartbeat_tolerance
        if not tripped:
            t += period
            continue

        availability.watchdog_trips += 1
        if condition_resident:
            # Spurious trip: a run of lost heartbeats from a healthy
            # hub.  The re-push is harmless but costs energy and
            # restarts the condition's state.
            availability.resident.append((resident_start, t))
            condition_resident = False
        degrade_start = t
        push_at = t
        finish = duration
        for _ in range(_MAX_PUSH_ROUNDS):
            push_at = next_uptime(push_at)
            outcome = rlink.send(
                float(CONDITION_PUSH_BYTES), injector.payload_dropped
            )
            availability.link_busy_s += outcome.link_busy_s
            availability.retransmissions += outcome.retransmissions
            finish = push_at + outcome.completion_s
            if outcome.delivered:
                availability.repushes += 1
                condition_resident = True
                break
            push_at = finish
        availability.degraded.append((degrade_start, min(finish, duration)))
        if not condition_resident:
            break  # pragma: no cover - needs drop probability of ~1
        resident_start = finish
        consecutive_missed = 0
        # Resume at the first heartbeat slot after recovery.
        t = period * (int(finish / period) + 1)

    if condition_resident:
        availability.resident.append((resident_start, duration))
    availability.resident = _clip_spans(availability.resident, duration)
    availability.degraded = _clip_spans(availability.degraded, duration)
    return availability


def _run_condition(
    graph: DataflowGraph,
    trace: Trace,
    resident: List[Tuple[float, float]],
    injector: FaultInjector,
    chunk_seconds: float,
    context=None,
) -> Tuple[EventLog, int]:
    """Interpret the condition over its resident spans only.

    Each span starts from cold interpreter state (a re-pushed condition
    allocates fresh :class:`~repro.hub.state.AlgorithmState`), which is
    the warm-up cost of recovery.  Sensor rounds lost on the way into
    the hub are skipped entirely.
    """
    arrays = (
        context.channel_arrays(trace) if context is not None
        else trace.channel_arrays()
    )
    channels = {
        name: triple
        for name, triple in arrays.items()
        if name in graph.channels
    }
    missing = set(graph.channels) - set(channels)
    if missing:
        raise HubExecutionError(
            f"trace {trace.name!r} lacks channels {sorted(missing)} needed "
            "by the wake-up condition"
        )
    runtime = HubRuntime(graph)
    events: List[EventLog] = []
    lost_chunks = 0
    for span_start, span_end in resident:
        runtime.reset()
        t0 = span_start
        while t0 < span_end:
            t1 = min(t0 + chunk_seconds, span_end)
            round_chunks = {}
            empty = True
            for name, (times, values, rate) in channels.items():
                i0, i1 = np.searchsorted(times, (t0, t1), side="left")
                if i1 > i0:
                    empty = False
                round_chunks[name] = Chunk.scalars(
                    times[i0:i1], values[i0:i1], rate
                )
            if not empty:
                if injector.chunk_dropped():
                    lost_chunks += 1
                else:
                    events.append(runtime.feed(round_chunks))
            t0 = t1
    return EventLog.concat(events), lost_chunks


def _deliver(
    events: EventLog,
    injector: FaultInjector,
    policy: Optional[ReliabilityPolicy],
    rlink: Optional[ReliableLink],
    wake_payload_bytes: float,
) -> Tuple[List[WakeDelivery], int, int, float]:
    """Carry each wake event (and its payload) across the link.

    Returns ``(deliveries, lost_wakeups, retransmissions, link_busy_s)``.
    """
    deliveries: List[WakeDelivery] = []
    lost = 0
    retransmissions = 0
    link_busy = 0.0
    for fired_at in events.times.tolist():
        delay = injector.wake_delay()
        if policy is None or rlink is None:
            if injector.wake_dropped():
                lost += 1
                continue
            payload_ok = True
            if wake_payload_bytes > 0:
                payload_ok = not injector.payload_dropped()
            deliveries.append(
                WakeDelivery(fired_at, fired_at + delay, 1, payload_ok)
            )
            continue
        outcome = rlink.send(float(WAKE_MESSAGE_BYTES), injector.wake_dropped)
        link_busy += outcome.link_busy_s
        retransmissions += outcome.retransmissions
        if not outcome.delivered:
            lost += 1
            continue
        arrival = fired_at + delay + outcome.completion_s
        payload_ok = True
        if wake_payload_bytes > 0:
            payload_outcome = rlink.send(
                wake_payload_bytes, injector.payload_dropped
            )
            link_busy += payload_outcome.link_busy_s
            retransmissions += payload_outcome.retransmissions
            payload_ok = payload_outcome.delivered
            if payload_outcome.delivered:
                arrival += payload_outcome.completion_s
        deliveries.append(
            WakeDelivery(fired_at, arrival, outcome.attempts, payload_ok)
        )
    return deliveries, lost, retransmissions, link_busy


def degraded_sense_windows(
    intervals: Tuple[Tuple[float, float], ...],
    policy: ReliabilityPolicy,
) -> List[Tuple[float, float]]:
    """Duty-cycle sensing windows covering the degraded intervals."""
    windows: List[Tuple[float, float]] = []
    for start, end in intervals:
        t = start
        while t < end:
            w_end = min(t + policy.degraded_sense_s, end)
            if w_end > t:
                windows.append((t, w_end))
            t += policy.degraded_sense_s + policy.degraded_sleep_s
    return windows


def run_condition_under_faults(
    graph: DataflowGraph,
    trace: Trace,
    plan: FaultPlan,
    policy: Optional[ReliabilityPolicy] = None,
    link: LinkModel = UART_DEBUG,
    wake_payload_bytes: float = 0.0,
    chunk_seconds: float = 4.0,
    context=None,
) -> FaultyRun:
    """Execute a wake-up condition under injected system faults.

    Args:
        graph: Validated wake-up condition.
        trace: The trace to replay.
        plan: The fault schedule (see :class:`~repro.hub.faults.FaultPlan`).
        policy: Reliability policy; ``None`` simulates the paper's
            naive fire-and-forget delivery.
        link: The hub-to-phone bus.
        wake_payload_bytes: Delivery payload accompanying each wake-up
            (0 disables payload modeling).
        chunk_seconds: Sensor-feed round length.
        context: Optional :class:`~repro.sim.engine.RunContext`; only
            the per-trace channel arrays are drawn from it — a faulty
            run itself is never cached (the injector is stochastic).

    Returns:
        A :class:`FaultyRun`; deterministic for a given plan.
    """
    if chunk_seconds <= 0:
        raise FaultInjectionError(
            f"chunk_seconds must be positive, got {chunk_seconds}"
        )
    injector = FaultInjector(plan)
    rlink = ReliableLink(link, policy) if policy is not None else None
    if policy is None:
        availability = _naive_availability(plan, trace.duration)
    else:
        availability = _watchdog_availability(
            plan, policy, trace.duration, injector, rlink
        )
    events, lost_chunks = _run_condition(
        graph, trace, availability.resident, injector, chunk_seconds,
        context=context,
    )
    deliveries, lost_wakeups, wake_retrans, wake_busy = _deliver(
        events, injector, policy, rlink, wake_payload_bytes
    )
    reliability_mj = 0.0
    if rlink is not None:
        reliability_mj = rlink.energy_mj(availability.link_busy_s + wake_busy)
    degraded = tuple(availability.degraded)
    report = FaultReport(
        hub_resets=len(plan.resets_before(trace.duration)),
        retransmissions=availability.retransmissions + wake_retrans,
        lost_wakeups=lost_wakeups,
        lost_chunks=lost_chunks,
        heartbeats_sent=availability.heartbeats_sent,
        heartbeats_missed=availability.heartbeats_missed,
        watchdog_trips=availability.watchdog_trips,
        repushes=availability.repushes,
        degraded_seconds=sum(b - a for a, b in degraded),
        reliability_mj=reliability_mj,
    )
    sense_windows = (
        tuple(degraded_sense_windows(degraded, policy))
        if policy is not None
        else ()
    )
    return FaultyRun(
        deliveries=tuple(deliveries),
        degraded_windows=sense_windows,
        resident_spans=tuple(availability.resident),
        hub_event_count=len(events),
        report=report,
    )
