"""Predefined Activity (Section 4.2).

"This configuration simulates the Android's built-in significant motion
detector.  We constructed simple classifiers to wake up the device and
invoke the callback method in the application when significant activity
is detected (significant acceleration or sound)."

The two generic triggers are themselves expressed as hub pipelines (the
manufacturer hardwires them, but they run on the same MCU):

* **significant motion** — per-axis short-window standard deviation,
  summed across axes, against a threshold: any vigorous motion fires,
  regardless of what the motion is;
* **significant sound** — per-window RMS loudness against a threshold.

Thresholds default to values calibrated for 100 % recall at minimum
power over the standard corpora (Section 5.3 calibrates PA the same
way and notes this over-fits in PA's favour); use
:mod:`repro.sim.calibrate` to recalibrate for other traces.
"""

from __future__ import annotations

from typing import Optional

from repro.api.branch import ProcessingBranch
from repro.api.pipeline import ProcessingPipeline
from repro.api.stubs import MinThreshold, Statistic, SumOf, Window
from repro.apps.base import SensingApplication
from repro.errors import SimulationError
from repro.hub.faults import FaultPlan
from repro.hub.link import LinkModel, UART_DEBUG
from repro.hub.mcu import MSP430
from repro.hub.reliability import ReliabilityPolicy
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.sensors.channels import ACC_X, ACC_Y, ACC_Z, MIC
from repro.sim.configs.base import SensingConfiguration
from repro.sim.engine import RunContext
from repro.sim.results import SimulationResult
from repro.sim.simulator import (
    DEFAULT_RAW_BUFFER_S,
    TRIGGERED_HOLD_S,
    compile_app_condition,
    evaluate,
    extend_for_buffer,
    faulty_condition_windows,
    run_wakeup_condition,
    windows_from_wake_times,
)
from repro.traces.base import Trace

#: Default significant-motion threshold: summed per-axis std over 0.5 s
#: windows.  Idle noise sums to ~0.18; the gentlest event of interest
#: (a posture transition) reaches ~1.0.  The calibration sweep over the
#: standard robot corpus (repro.sim.calibrate) keeps 100 % recall up to
#: ~0.9; 0.8 is that optimum with a safety margin.
DEFAULT_MOTION_THRESHOLD = 0.8

#: Default significant-sound threshold: per-32 ms-window RMS amplitude.
#: Calibrated over the standard audio corpus: backgrounds (including
#: coffee-shop babble) stay below ~0.025 while the quietest event
#: windows exceed 0.03.
DEFAULT_SOUND_THRESHOLD = 0.03

_MOTION_WINDOW = 25  # 0.5 s at 50 Hz
_SOUND_WINDOW = 256  # 32 ms at 8 kHz


def significant_motion_pipeline(
    threshold: float = DEFAULT_MOTION_THRESHOLD,
) -> ProcessingPipeline:
    """The generic significant-motion trigger as a hub pipeline."""
    pipeline = ProcessingPipeline()
    for axis in (ACC_X, ACC_Y, ACC_Z):
        pipeline.add(
            ProcessingBranch(axis)
            .add(Window(_MOTION_WINDOW, hop=_MOTION_WINDOW // 2))
            .add(Statistic("std"))
        )
    pipeline.add(SumOf())
    pipeline.add(MinThreshold(threshold))
    return pipeline


def significant_sound_pipeline(
    threshold: float = DEFAULT_SOUND_THRESHOLD,
) -> ProcessingPipeline:
    """The generic significant-sound trigger as a hub pipeline."""
    pipeline = ProcessingPipeline()
    pipeline.add(
        ProcessingBranch(MIC)
        .add(Window(_SOUND_WINDOW))
        .add(Statistic("rms"))
        .add(MinThreshold(threshold))
    )
    return pipeline


class PredefinedActivity(SensingConfiguration):
    """Generic manufacturer trigger + application detector on wake-up.

    Args:
        motion_threshold: Significant-motion threshold (accel apps).
        sound_threshold: Significant-sound threshold (audio apps).
        hold_s: Awake hold per wake-up.
        fault_plan: Optional system-fault schedule; the manufacturer's
            hardwired trigger rides the same MCU and link, so it fails
            the same ways a Sidewinder condition does.
        reliability: Reliable-transport policy under faults; ``None``
            models naive delivery.
        link: Hub-to-phone bus the fault model runs over.
    """

    name = "predefined_activity"

    def __init__(
        self,
        motion_threshold: float = DEFAULT_MOTION_THRESHOLD,
        sound_threshold: float = DEFAULT_SOUND_THRESHOLD,
        hold_s: float = TRIGGERED_HOLD_S,
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityPolicy] = None,
        link: LinkModel = UART_DEBUG,
    ):
        self.motion_threshold = motion_threshold
        self.sound_threshold = sound_threshold
        self.hold_s = hold_s
        self.fault_plan = fault_plan
        self.reliability = reliability
        self.link = link

    def pipeline_for(self, app: SensingApplication) -> ProcessingPipeline:
        """Pick the matching generic trigger for an application."""
        kinds = {channel.split("_")[0] for channel in app.channels}
        if kinds <= {"ACC"}:
            return significant_motion_pipeline(self.motion_threshold)
        if kinds == {"MIC"}:
            return significant_sound_pipeline(self.sound_threshold)
        raise SimulationError(
            f"no predefined activity covers channels {app.channels}"
        )

    def run(
        self,
        app: SensingApplication,
        trace: Trace,
        profile: PhonePowerProfile = NEXUS4,
        context: Optional[RunContext] = None,
    ) -> SimulationResult:
        graph = compile_app_condition(self.pipeline_for(app), context)
        if self.fault_plan is not None:
            awake, detect, faulty = faulty_condition_windows(
                graph,
                trace,
                self.fault_plan,
                self.reliability,
                link=self.link,
                hold_s=self.hold_s,
                raw_buffer_s=DEFAULT_RAW_BUFFER_S,
                profile=profile,
                context=context,
            )
            return evaluate(
                config_name=self.name,
                app=app,
                trace=trace,
                awake_windows=awake,
                detect_windows=detect,
                mcus=(MSP430,),
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
            detect_windows=extend_for_buffer(awake),
            mcus=(MSP430,),
            profile=profile,
            hub_wake_count=len(wake_events),
            context=context,
        )

    def condition_graph(
        self,
        app: SensingApplication,
        context: Optional[RunContext] = None,
    ):
        """The generic trigger :meth:`run` would interpret for ``app``.

        ``None`` under fault injection (faulty runs bypass the
        fault-free hub cache); raises
        :class:`~repro.errors.SimulationError` for apps no predefined
        activity covers, exactly as :meth:`run` would.
        """
        if self.fault_plan is not None:
            return None
        return compile_app_condition(self.pipeline_for(app), context)
