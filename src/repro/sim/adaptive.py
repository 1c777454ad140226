"""Self-tuning wake-up conditions (paper Section 7, future work).

"Given feedback from the more complex algorithms running on the
application level, self-learning mechanisms may be able to tune the
parameters used on the wake-up conditions.  It is easy to imagine an
application notifying the sensor hub about wake-ups when events of
interest were not actually detected (i.e. false positives).  However,
it will be more difficult to automatically identify events of interest
missed by the wake-up condition (i.e. false negatives)."

This module implements exactly that loop, honouring the asymmetry the
paper points out:

* after each adaptation epoch the application reports, per wake-up,
  whether the precise detector confirmed an event (true positive) or
  rejected it (false positive);
* the tuner tightens the condition's final admission threshold toward
  eliminating false positives — but **never past the safety bound**
  derived from the trigger values of confirmed events (with a
  configurable margin), because a missed event could not be reported;
* with no confirmed events in an epoch there is no safety evidence, so
  the tuner holds still.

The tuning operates at the intermediate-language level: the sensor
manager rewrites the threshold parameter of the condition's output
statement and re-pushes it, which works for any pipeline ending in a
``minThreshold`` or ``maxThreshold`` admission stage — no application
code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.apps.base import SensingApplication
from repro.errors import SimulationError
from repro.hub.feasibility import select_mcu
from repro.hub.mcu import DEFAULT_CATALOG
from repro.il.ast import ILProgram, ILStatement
from repro.il.validate import validate_program
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.sim.configs.base import SensingConfiguration
from repro.sim.engine import RunContext
from repro.sim.results import SimulationResult
from repro.sim.simulator import (
    TRIGGERED_HOLD_S,
    compile_app_condition,
    evaluate,
    extend_for_buffer,
    run_wakeup_condition,
    windows_from_wake_times,
)
from repro.traces.base import Trace

#: Opcodes whose ``threshold`` parameter the tuner knows how to adjust,
#: with the direction that makes the condition stricter.
_TUNABLE = {"minThreshold": +1.0, "maxThreshold": -1.0}


@dataclass(frozen=True)
class EpochReport:
    """What the tuner saw and did in one adaptation epoch.

    Attributes:
        epoch: Epoch index (0-based).
        threshold: Threshold in force during the epoch.
        wake_events: Hub wake events in the epoch.
        true_positives: Wake events confirmed by the precise detector.
        false_positives: Wake events the detector rejected.
        new_threshold: Threshold chosen for the next epoch.
    """

    epoch: int
    threshold: float
    wake_events: int
    true_positives: int
    false_positives: int
    new_threshold: float

    @property
    def false_positive_rate(self) -> float:
        """Fraction of the epoch's wake events that were spurious."""
        if self.wake_events == 0:
            return 0.0
        return self.false_positives / self.wake_events


def _find_tunable_output(program: ILProgram) -> Tuple[ILStatement, float]:
    statement = program.statement_by_id()[program.output.node_id]
    direction = _TUNABLE.get(statement.opcode)
    if direction is None:
        raise SimulationError(
            f"adaptive tuning needs the condition to end in one of "
            f"{sorted(_TUNABLE)}; got {statement.opcode!r}"
        )
    return statement, direction


def _with_threshold(program: ILProgram, threshold: float) -> ILProgram:
    statement, _ = _find_tunable_output(program)
    params = dict(statement.params)
    params["threshold"] = threshold
    new_statement = ILStatement.make(
        statement.inputs, statement.opcode, statement.node_id, params
    )
    statements = tuple(
        new_statement if s.node_id == statement.node_id else s
        for s in program.statements
    )
    return ILProgram(statements, program.output)


class ThresholdTuner:
    """The epoch-by-epoch threshold adjustment policy.

    Args:
        initial_threshold: Starting (conservative) threshold.
        direction: +1 when raising the threshold makes the condition
            stricter (``minThreshold``), -1 for ``maxThreshold``.
        safety_margin: Fraction of the gap between the threshold and the
            weakest confirmed trigger value that must remain as slack —
            the insurance against unreportable false negatives.
        step_fraction: How far toward the safety bound one epoch may
            move (smaller = more cautious adaptation).
        target_fp_rate: False-positive rate below which the tuner stops
            tightening.
    """

    def __init__(
        self,
        initial_threshold: float,
        direction: float,
        safety_margin: float = 0.25,
        step_fraction: float = 0.5,
        target_fp_rate: float = 0.05,
    ):
        if not 0.0 <= safety_margin < 1.0:
            raise SimulationError("safety_margin must be in [0, 1)")
        if not 0.0 < step_fraction <= 1.0:
            raise SimulationError("step_fraction must be in (0, 1]")
        self.threshold = initial_threshold
        self.direction = direction
        self.safety_margin = safety_margin
        self.step_fraction = step_fraction
        self.target_fp_rate = target_fp_rate

    def update(
        self,
        true_positive_values: List[float],
        false_positive_values: List[float],
    ) -> float:
        """Consume one epoch's feedback; return the next threshold.

        Trigger values are the stream values that reached OUT.  The
        next threshold never crosses the safety bound: the weakest
        confirmed trigger, backed off by ``safety_margin`` of its gap
        from the current threshold.
        """
        wake_count = len(true_positive_values) + len(false_positive_values)
        if wake_count == 0 or not true_positive_values:
            return self.threshold  # no evidence: hold still
        fp_rate = len(false_positive_values) / wake_count
        if fp_rate <= self.target_fp_rate:
            return self.threshold
        if self.direction > 0:
            weakest_tp = min(true_positive_values)
            bound = self.threshold + (1.0 - self.safety_margin) * (
                weakest_tp - self.threshold
            )
            candidate = self.threshold + self.step_fraction * (
                bound - self.threshold
            )
            self.threshold = max(self.threshold, min(candidate, bound))
        else:
            weakest_tp = max(true_positive_values)
            bound = self.threshold + (1.0 - self.safety_margin) * (
                weakest_tp - self.threshold
            )
            candidate = self.threshold + self.step_fraction * (
                bound - self.threshold
            )
            self.threshold = min(self.threshold, max(candidate, bound))
        return self.threshold


class AdaptiveSidewinder(SensingConfiguration):
    """Sidewinder with epoch-wise threshold self-tuning.

    Splits the trace into ``epochs`` equal slices; each slice runs the
    condition at the current threshold, collects application feedback,
    and lets the :class:`ThresholdTuner` pick the next threshold.  The
    returned :class:`~repro.sim.results.SimulationResult` covers the
    whole trace (all epochs' awake windows and detections combined);
    :attr:`last_reports` exposes the adaptation trajectory.
    """

    name = "adaptive_sidewinder"

    def __init__(
        self,
        epochs: int = 4,
        hold_s: float = TRIGGERED_HOLD_S,
        safety_margin: float = 0.25,
        step_fraction: float = 0.5,
        target_fp_rate: float = 0.05,
        catalog=DEFAULT_CATALOG,
    ):
        if epochs < 1:
            raise SimulationError("need at least one epoch")
        self.epochs = epochs
        self.hold_s = hold_s
        self.safety_margin = safety_margin
        self.step_fraction = step_fraction
        self.target_fp_rate = target_fp_rate
        self.catalog = tuple(catalog)
        self.last_reports: Tuple[EpochReport, ...] = ()

    def run(
        self,
        app: SensingApplication,
        trace: Trace,
        profile: PhonePowerProfile = NEXUS4,
        context: Optional[RunContext] = None,
    ) -> SimulationResult:
        base_program = compile_app_condition(
            app.build_wakeup_pipeline(), context
        ).program
        statement, direction = _find_tunable_output(base_program)
        tuner = ThresholdTuner(
            initial_threshold=float(statement.param_dict()["threshold"]),
            direction=direction,
            safety_margin=self.safety_margin,
            step_fraction=self.step_fraction,
            target_fp_rate=self.target_fp_rate,
        )

        epoch_length = trace.duration / self.epochs
        all_windows: List[Tuple[float, float]] = []
        all_detections = []
        reports: List[EpochReport] = []
        total_wakes = 0
        validated = (
            context.validated if context is not None else validate_program
        )
        mcu = select_mcu(validated(base_program), self.catalog)

        for epoch in range(self.epochs):
            start = epoch * epoch_length
            end = min((epoch + 1) * epoch_length, trace.duration)
            threshold = tuner.threshold
            piece = trace.slice(start, end)
            # Compiled graphs are shared through the context (the
            # initial-threshold condition recurs across traces), but
            # each epoch's hub run stays uncached: every slice is a
            # fresh trace object, so caching it could never hit.
            program = _with_threshold(base_program, threshold)
            graph = validated(program)
            wake_events = run_wakeup_condition(graph, piece)
            wake_times = wake_events.times.tolist()
            total_wakes += len(wake_events)
            windows = windows_from_wake_times(
                wake_times, piece.duration, self.hold_s, profile
            )
            detections = app.detect(piece, extend_for_buffer(windows))
            # Application feedback: a wake event is confirmed when a
            # detection lies within its hold window (+ tolerance).
            tp_values, fp_values = [], []
            for time, value in zip(wake_times, wake_events.values.tolist()):
                confirmed = any(
                    time - app.match_tolerance_s
                    <= d.span[1]
                    and d.span[0]
                    <= time + self.hold_s + app.match_tolerance_s
                    for d in detections
                )
                (tp_values if confirmed else fp_values).append(value)
            new_threshold = tuner.update(tp_values, fp_values)
            reports.append(
                EpochReport(
                    epoch=epoch,
                    threshold=threshold,
                    wake_events=len(wake_events),
                    true_positives=len(tp_values),
                    false_positives=len(fp_values),
                    new_threshold=new_threshold,
                )
            )
            all_windows.extend((start + a, start + b) for a, b in windows)
            all_detections.extend(
                replace(d, time=start + d.time, end=None if d.end is None else start + d.end)
                for d in detections
            )

        self.last_reports = tuple(reports)
        return evaluate(
            config_name=self.name,
            app=app,
            trace=trace,
            awake_windows=all_windows,
            detections=all_detections,
            mcus=(mcu,),
            profile=profile,
            hub_wake_count=total_wakes,
            context=context,
        )
