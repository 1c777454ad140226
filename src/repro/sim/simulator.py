"""Shared simulation machinery.

A sensing configuration's job is to decide *when the phone is awake* and
*what data the application sees*; everything else — running hub
conditions, building timelines, scoring detections, accounting power —
is shared and lives here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.api.compile import compile_pipeline
from repro.api.pipeline import ProcessingPipeline
from repro.apps.base import Detection, SensingApplication
from repro.errors import HubExecutionError
from repro.eval.metrics import match_events
from repro.hub.delivery import DeliveryMode, DeliverySpec, payload_bytes
from repro.hub.faults import FaultPlan
from repro.hub.link import LinkModel, UART_DEBUG
from repro.hub.mcu import MCUModel
from repro.hub.reliability import ReliabilityPolicy
from repro.hub.runtime import EventLog, HubRuntime, split_into_rounds
from repro.il.graph import DataflowGraph
from repro.il.validate import validate_program
from repro.power.accounting import account
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.power.timeline import build_timeline, merge_windows
from repro.sim.engine import RunContext
from repro.sim.recovery import FaultReport, FaultyRun, run_condition_under_faults
from repro.sim.results import SimulationResult
from repro.traces.base import Trace

#: Default seconds the phone stays awake after a wake-up to collect and
#: process data (the paper's duty-cycling experiments use 4 s windows).
DEFAULT_HOLD_S = 4.0

#: Hold for hub-triggered wake-ups (Sidewinder, Predefined Activity):
#: the phone wakes to process an already-buffered event and can return
#: to sleep as soon as the hub condition stops firing, unlike duty
#: cycling which must sense blindly for a full window.
TRIGGERED_HOLD_S = 2.0

#: Seconds of raw pre-wake sensor data the hub buffers and hands to the
#: application (Section 3.8: "Our current implementation passes a buffer
#: of raw sensor data to the application").
DEFAULT_RAW_BUFFER_S = 4.0

#: Chunk length used when feeding traces through hub runtimes.
FEED_CHUNK_S = 4.0


def compile_app_condition(
    pipeline: ProcessingPipeline, context: Optional[RunContext] = None
) -> DataflowGraph:
    """Compile and validate a wake-up condition pipeline.

    With a :class:`~repro.sim.engine.RunContext`, the validated graph is
    memoized by the IL program's content fingerprint.
    """
    if context is not None:
        return context.compile(pipeline)
    return validate_program(compile_pipeline(pipeline))


def run_wakeup_condition(
    graph: DataflowGraph,
    trace: Trace,
    chunk_seconds: float = FEED_CHUNK_S,
    context: Optional[RunContext] = None,
) -> EventLog:
    """Execute a hub condition over a whole trace, collecting wake events.

    With a :class:`~repro.sim.engine.RunContext`, identical (condition,
    trace, chunk) runs are interpreted once and served from cache.
    """
    if context is not None:
        return context.wake_events(graph, trace, chunk_seconds)
    # The graph may be a context-cached instance whose algorithm objects
    # carry state from an earlier run; always start cold.
    graph.reset()
    runtime = HubRuntime(graph)
    channels = {
        name: triple
        for name, triple in trace.channel_arrays().items()
        if name in graph.channels
    }
    missing = set(graph.channels) - set(channels)
    if missing:
        raise HubExecutionError(
            f"trace {trace.name!r} lacks channels {sorted(missing)} needed "
            "by the wake-up condition"
        )
    return runtime.run(split_into_rounds(channels, chunk_seconds))


def faulty_condition_windows(
    graph: DataflowGraph,
    trace: Trace,
    plan: FaultPlan,
    policy: Optional[ReliabilityPolicy] = None,
    link: LinkModel = UART_DEBUG,
    hold_s: float = TRIGGERED_HOLD_S,
    raw_buffer_s: float = DEFAULT_RAW_BUFFER_S,
    profile: PhonePowerProfile = NEXUS4,
    context: Optional[RunContext] = None,
) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]], FaultyRun]:
    """Awake and data-visibility windows under injected system faults.

    Runs the condition through :func:`repro.sim.recovery.run_condition_under_faults`
    and turns the phone's experience into simulator windows:

    * awake windows come from the wake-ups that actually *arrived*
      (retry/interrupt delays shift them), merged with any degraded
      duty-cycling windows the watchdog fallback ran;
    * detect windows extend each wake-up whose delivery payload
      survived back to the start of the hub's raw buffer — a wake-up
      whose payload was lost wakes the phone but carries no pre-wake
      data.

    Returns:
        ``(awake_windows, detect_windows, faulty_run)``.
    """
    payload = payload_bytes(
        DeliverySpec(DeliveryMode.RAW, buffer_s=raw_buffer_s), graph
    )
    run = run_condition_under_faults(
        graph,
        trace,
        plan,
        policy,
        link=link,
        wake_payload_bytes=payload,
        chunk_seconds=FEED_CHUNK_S,
        context=context,
    )
    wake_windows = windows_from_wake_times(
        [d.arrival_time for d in run.deliveries], trace.duration, hold_s, profile
    )
    awake = merge_windows(
        list(wake_windows) + list(run.degraded_windows),
        min_gap=2.0 * profile.transition_s,
    )
    buffered = [
        (
            max(0.0, d.event_time - raw_buffer_s),
            min(d.arrival_time, trace.duration),
        )
        for d in run.deliveries
        if d.payload_delivered
    ]
    detect = merge_windows(list(awake) + buffered, min_gap=0.0)
    return awake, detect, run


def windows_from_wake_times(
    wake_times: Sequence[float],
    duration: float,
    hold_s: float = DEFAULT_HOLD_S,
    profile: PhonePowerProfile = NEXUS4,
) -> List[Tuple[float, float]]:
    """Awake windows implied by hub wake events.

    Each wake event keeps the phone awake for ``hold_s``; events arriving
    while already awake extend the window (windows merge when the gap is
    too short to complete a sleep/wake round trip).
    """
    windows = [
        (t, min(t + hold_s, duration)) for t in wake_times if t < duration
    ]
    return merge_windows(windows, min_gap=2.0 * profile.transition_s)


def extend_for_buffer(
    windows: Sequence[Tuple[float, float]],
    buffer_s: float = DEFAULT_RAW_BUFFER_S,
) -> List[Tuple[float, float]]:
    """Data-visibility windows: awake windows plus the hub's raw buffer.

    The buffer only extends what data the application can *see*; it does
    not add awake time (the data was captured while the phone slept).
    """
    return merge_windows(
        [(max(0.0, start - buffer_s), end) for start, end in windows], min_gap=0.0
    )


def evaluate(
    config_name: str,
    app: SensingApplication,
    trace: Trace,
    awake_windows: Sequence[Tuple[float, float]],
    detect_windows: Optional[Sequence[Tuple[float, float]]] = None,
    detections: Optional[Sequence[Detection]] = None,
    mcus: Sequence[MCUModel] = (),
    profile: PhonePowerProfile = NEXUS4,
    hub_wake_count: int = 0,
    fault_report: Optional[FaultReport] = None,
    context: Optional[RunContext] = None,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult`.

    Args:
        config_name: Name of the sensing configuration.
        app: The application under simulation.
        trace: The trace replayed.
        awake_windows: Spans the phone must be fully awake.
        detect_windows: Spans of data the precise detector may read;
            defaults to the awake windows.
        detections: Pre-computed detections (used by configurations that
            interleave detection with window construction, e.g. duty
            cycling); when omitted, the detector runs over
            ``detect_windows``.
        mcus: Hub MCUs charged in the power model.
        profile: Phone power profile.
        hub_wake_count: Wake events the hub condition produced.
        fault_report: Fault/recovery counters when the run was executed
            under a fault plan; its reliability energy is charged in
            the power breakdown.
        context: Optional :class:`~repro.sim.engine.RunContext`;
            detector runs and ground-truth lookups are served from its
            cache.
    """
    timeline = build_timeline(trace.duration, awake_windows, profile)
    if detections is None:
        windows = detect_windows if detect_windows is not None else timeline.awake_windows()
        if context is not None:
            detections = context.detections(app, trace, windows)
        else:
            detections = app.detect(trace, windows)
    if context is not None:
        events = list(context.events_of_interest(app, trace))
    else:
        events = app.events_of_interest(trace)
    match = match_events(events, detections, app.match_tolerance_s)
    breakdown = account(
        timeline,
        profile,
        mcus=tuple(mcus),
        reliability_mj=fault_report.reliability_mj if fault_report else 0.0,
    )
    return SimulationResult(
        config_name=config_name,
        app_name=app.name,
        trace_name=trace.name,
        timeline=timeline,
        power=breakdown,
        detections=tuple(detections),
        recall=match.recall,
        precision=match.precision,
        hub_wake_count=hub_wake_count,
        mcu_names=tuple(m.name for m in mcus),
        fault_report=fault_report,
    )
