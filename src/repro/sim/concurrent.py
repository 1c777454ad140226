"""Concurrent multi-application simulation (paper Section 7).

"We would also like to explore supporting multiple concurrent
applications while still maintaining predictable performance.  When
receiving multiple wake-up conditions, the sensor manager can attempt
to improve performance by combining the pipelines that use common
algorithms."

:class:`ConcurrentSidewinder` simulates several applications sharing
one phone and one hub:

* every application's wake-up condition runs on the hub — optionally
  merged through :mod:`repro.hub.merge`, so common subcomputations
  execute once;
* the phone wakes for the *union* of all conditions' wake events (a
  wake-up serves every application whose data is buffered);
* each application's precise detector runs over the data visible around
  its own condition's wake-ups, preserving per-application recall and
  precision;
* the hub is charged once per distinct processor in use — concurrency's
  key saving: five MSP430 conditions still cost 3.6 mW, not 18.

The result quantifies the sharing effect the paper anticipates: total
power for N concurrent applications sits far below the sum of N
individual deployments (which would each pay their own phone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.base import SensingApplication
from repro.errors import SimulationError
from repro.hub.fpga import HubProcessor, select_processor
from repro.hub.mcu import DEFAULT_CATALOG
from repro.hub.merge import MultiTapRuntime, merge_programs
from repro.hub.runtime import EventLog, split_into_rounds
from repro.il.validate import validate_program
from repro.power.accounting import account
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.power.timeline import build_timeline, merge_windows
from repro.sim.engine import RunContext
from repro.sim.results import SimulationResult
from repro.sim.simulator import (
    DEFAULT_RAW_BUFFER_S,
    TRIGGERED_HOLD_S,
    compile_app_condition,
    evaluate,
    extend_for_buffer,
    windows_from_wake_times,
)
from repro.traces.base import Trace


@dataclass(frozen=True)
class ConcurrentResult:
    """Outcome of running several applications on one device.

    Attributes:
        per_app: One :class:`~repro.sim.results.SimulationResult` per
            application, all sharing the same phone timeline and hub
            charge (their ``average_power_mw`` is the *device* power,
            identical across apps; recall/precision are per-app).
        shared_nodes: Hub algorithm instances saved by pipeline merging
            (0 when merging is disabled).
        hub_processors: Names of the distinct hub processors charged.
    """

    per_app: Tuple[SimulationResult, ...]
    shared_nodes: int
    hub_processors: Tuple[str, ...]

    @property
    def device_power_mw(self) -> float:
        """Average power of the shared device."""
        return self.per_app[0].average_power_mw if self.per_app else 0.0

    def result_for(self, app_name: str) -> SimulationResult:
        """The per-application result with the given name."""
        for result in self.per_app:
            if result.app_name == app_name:
                return result
        raise KeyError(app_name)


class ConcurrentSidewinder:
    """Run several applications' conditions on one shared hub + phone.

    Args:
        merge: Share common pipeline prefixes across conditions
            (the paper's future-work optimization).  With ``False`` each
            condition runs its own instances — useful as the ablation
            baseline.
        hold_s: Awake hold per wake-up.
        raw_buffer_s: Hub raw-data backfill visible to detectors.
        catalog: Hub processors available for placement.
    """

    name = "concurrent_sidewinder"

    def __init__(
        self,
        merge: bool = True,
        hold_s: float = TRIGGERED_HOLD_S,
        raw_buffer_s: float = DEFAULT_RAW_BUFFER_S,
        catalog: Sequence[HubProcessor] = DEFAULT_CATALOG,
    ):
        self.merge = merge
        self.hold_s = hold_s
        self.raw_buffer_s = raw_buffer_s
        self.catalog = tuple(catalog)

    def run(
        self,
        apps: Sequence[SensingApplication],
        trace: Trace,
        profile: PhonePowerProfile = NEXUS4,
        context: Optional[RunContext] = None,
    ) -> ConcurrentResult:
        """Simulate all ``apps`` concurrently over ``trace``."""
        if not apps:
            raise SimulationError("need at least one application")
        usable = [
            app for app in apps
            if all(channel in trace.data for channel in app.channels)
        ]
        if not usable:
            raise SimulationError(
                f"trace {trace.name!r} lacks the sensors of every given app"
            )

        programs = [
            compile_app_condition(app.build_wakeup_pipeline(), context).program
            for app in usable
        ]
        per_app_events, shared_nodes, processors = self._run_hub(
            usable, programs, trace, context
        )

        # The phone wakes for the union of all conditions' events.
        union_windows: List[Tuple[float, float]] = []
        for events in per_app_events:
            union_windows.extend(
                windows_from_wake_times(
                    events.times.tolist(), trace.duration, self.hold_s, profile
                )
            )
        union_windows = merge_windows(
            union_windows, min_gap=2.0 * profile.transition_s
        )
        timeline = build_timeline(trace.duration, union_windows, profile)
        hub_mw = sum(p.awake_power_mw for p in processors)

        results = []
        for app, events in zip(usable, per_app_events):
            own_windows = windows_from_wake_times(
                events.times.tolist(), trace.duration, self.hold_s, profile
            )
            visible = extend_for_buffer(own_windows, self.raw_buffer_s)
            if context is not None:
                detections = context.detections(app, trace, visible)
            else:
                detections = app.detect(trace, visible)
            result = evaluate(
                config_name=self.name,
                app=app,
                trace=trace,
                awake_windows=union_windows,
                detections=detections,
                profile=profile,
                hub_wake_count=len(events),
                context=context,
            )
            # Replace the power breakdown with the shared-hub charge.
            results.append(
                SimulationResult(
                    config_name=result.config_name,
                    app_name=result.app_name,
                    trace_name=result.trace_name,
                    timeline=timeline,
                    power=account(timeline, profile, hub_mw=hub_mw),
                    detections=result.detections,
                    recall=result.recall,
                    precision=result.precision,
                    hub_wake_count=len(events),
                    mcu_names=tuple(p.name for p in processors),
                )
            )
        return ConcurrentResult(
            per_app=tuple(results),
            shared_nodes=shared_nodes,
            hub_processors=tuple(p.name for p in processors),
        )

    # -- hub execution -------------------------------------------------

    def _run_hub(
        self,
        apps: Sequence[SensingApplication],
        programs: Sequence,
        trace: Trace,
        context: Optional[RunContext] = None,
    ) -> Tuple[List[EventLog], int, List[HubProcessor]]:
        processors: Dict[str, HubProcessor] = {}
        validated = (
            context.validated if context is not None else validate_program
        )
        if self.merge:
            merged = merge_programs(programs)
            runtime = MultiTapRuntime(merged)
            arrays = (
                context.channel_arrays(trace) if context is not None
                else trace.channel_arrays()
            )
            channels = {
                name: triple
                for name, triple in arrays.items()
                if name in runtime.graph.channels
            }
            events_by_tap = runtime.run(split_into_rounds(channels))
            per_app = [events_by_tap[tap] for tap in merged.taps]
            # Place the merged graph: each original condition still
            # determines its own processor class (the merged subgraph a
            # condition needs is what must fit), so we place per
            # condition and charge distinct processors once.
            for program in programs:
                processor = select_processor(validated(program), self.catalog)
                processors[processor.name] = processor
            return per_app, merged.shared_nodes, list(processors.values())

        from repro.sim.simulator import run_wakeup_condition

        per_app = []
        for program in programs:
            graph = validated(program)
            processor = select_processor(graph, self.catalog)
            processors[processor.name] = processor
            per_app.append(run_wakeup_condition(graph, trace, context=context))
        return per_app, 0, list(processors.values())
