"""The Sidewinder configuration (Section 4.2).

"For each of the applications, we constructed wake-up conditions to
invoke the application when events of interest are detected."

The application's own wake-up condition (built through the developer
API) runs on the hub; the hub places it on the cheapest feasible MCU
(Section 4.3: MSP430 for everything except the siren detector, whose
audio-rate FFTs need the LM4F120).  On each wake-up, the phone processes
the hub's raw buffer plus live data, with the precise detector providing
the final filtering.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps.base import SensingApplication
from repro.hub.faults import FaultPlan
from repro.hub.fpga import HubProcessor, select_processor
from repro.hub.link import LinkModel, UART_DEBUG
from repro.hub.mcu import DEFAULT_CATALOG
from repro.hub.reliability import ReliabilityPolicy
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.sim.configs.base import SensingConfiguration
from repro.sim.engine import RunContext
from repro.sim.results import SimulationResult
from repro.sim.simulator import (
    TRIGGERED_HOLD_S,
    DEFAULT_RAW_BUFFER_S,
    compile_app_condition,
    evaluate,
    extend_for_buffer,
    faulty_condition_windows,
    run_wakeup_condition,
    windows_from_wake_times,
)
from repro.traces.base import Trace


class Sidewinder(SensingConfiguration):
    """The paper's approach: custom wake-up condition on the hub.

    Args:
        hold_s: Awake hold per wake-up.
        raw_buffer_s: Pre-wake raw data the hub hands over.
        catalog: Hub processors on offer — MCUs and/or FPGAs
            (default: the paper's MSP430 + LM4F120 pair).
        fault_plan: Optional system-fault schedule (hub resets, link
            loss, flaky wake interrupts); ``None`` runs fault-free.
        reliability: Reliable-transport policy applied when faults are
            injected; ``None`` models the paper's naive fire-and-forget
            delivery (no CRC, no retries, no watchdog).
        link: Hub-to-phone bus the fault model runs over.
    """

    name = "sidewinder"

    def __init__(
        self,
        hold_s: float = TRIGGERED_HOLD_S,
        raw_buffer_s: float = DEFAULT_RAW_BUFFER_S,
        catalog: Sequence[HubProcessor] = DEFAULT_CATALOG,
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityPolicy] = None,
        link: LinkModel = UART_DEBUG,
    ):
        self.hold_s = hold_s
        self.raw_buffer_s = raw_buffer_s
        self.catalog = tuple(catalog)
        self.fault_plan = fault_plan
        self.reliability = reliability
        self.link = link

    def run(
        self,
        app: SensingApplication,
        trace: Trace,
        profile: PhonePowerProfile = NEXUS4,
        context: Optional[RunContext] = None,
    ) -> SimulationResult:
        graph = compile_app_condition(app.build_wakeup_pipeline(), context)
        mcu = select_processor(graph, self.catalog)
        if self.fault_plan is not None:
            awake, detect, faulty = faulty_condition_windows(
                graph,
                trace,
                self.fault_plan,
                self.reliability,
                link=self.link,
                hold_s=self.hold_s,
                raw_buffer_s=self.raw_buffer_s,
                profile=profile,
                context=context,
            )
            return evaluate(
                config_name=self.name,
                app=app,
                trace=trace,
                awake_windows=awake,
                detect_windows=detect,
                mcus=(mcu,),
                profile=profile,
                hub_wake_count=faulty.hub_event_count,
                fault_report=faulty.report,
                context=context,
            )
        wake_events = run_wakeup_condition(graph, trace, context=context)
        awake = windows_from_wake_times(
            wake_events.times.tolist(), trace.duration, self.hold_s, profile
        )
        return evaluate(
            config_name=self.name,
            app=app,
            trace=trace,
            awake_windows=awake,
            detect_windows=extend_for_buffer(awake, self.raw_buffer_s),
            mcus=(mcu,),
            profile=profile,
            hub_wake_count=len(wake_events),
            context=context,
        )

    def condition_graph(
        self,
        app: SensingApplication,
        context: Optional[RunContext] = None,
    ):
        """The app's wake-up condition, exactly as :meth:`run` compiles it.

        ``None`` under fault injection: faulty runs replay the
        condition through the round-level fault simulator, so their
        hub work must not be batch-prewarmed into the fault-free cache.
        """
        if self.fault_plan is not None:
            return None
        return compile_app_condition(app.build_wakeup_pipeline(), context)
