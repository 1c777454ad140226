"""Experiment runners: the paper's configuration matrix.

:func:`run_matrix` replays every (configuration, application, trace)
combination through the simulation engine (:mod:`repro.sim.engine`):
the sweep is planned explicitly, shared hub work is deduplicated by a
:class:`~repro.sim.engine.RunContext`, and ``jobs=N`` fans the plan
across a process pool.  The aggregation helpers compute the quantities
the paper reports — power relative to Oracle (Figures 5 and 7), savings
fractions (Section 5.2), and cross-configuration ratios (Sections
5.3-5.4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.base import SensingApplication
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.sim.configs import (
    AlwaysAwake,
    Batching,
    DutyCycling,
    Oracle,
    PredefinedActivity,
    Sidewinder,
)
from repro.sim.configs.base import SensingConfiguration
from repro.sim.engine import (
    ExecutionInfo,
    RunContext,
    SkippedCell,
    execute_plan_with_info,
    plan_matrix,
)
from repro.sim.results import SimulationResult
from repro.traces.base import Trace

#: Short labels used by the figure builders, matching the paper's axes.
CONFIG_LABELS = {
    "always_awake": "AA",
    "duty_cycling_2s": "DC-2",
    "duty_cycling_5s": "DC-5",
    "duty_cycling_10s": "DC-10",
    "duty_cycling_20s": "DC-20",
    "duty_cycling_30s": "DC-30",
    "batching_10s": "Ba-10",
    "predefined_activity": "PA",
    "sidewinder": "Sw",
    "oracle": "Oracle",
}


def paper_configurations(
    sleep_intervals: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 30.0),
    batching_interval: float = 10.0,
) -> List[SensingConfiguration]:
    """The Figure 5 configuration set: AA, DC-*, Ba-10, PA, Sw, Oracle.

    The paper shows Batching at a 10 s interval only ("the other results
    were similar to Duty Cycling", Figure 5 footnote).
    """
    configs: List[SensingConfiguration] = [AlwaysAwake()]
    configs.extend(DutyCycling(interval) for interval in sleep_intervals)
    configs.append(Batching(batching_interval))
    configs.append(PredefinedActivity())
    configs.append(Sidewinder())
    configs.append(Oracle())
    return configs


@dataclass
class Matrix:
    """All results of one experiment sweep, with indexed lookup helpers.

    Attributes:
        results: Every simulation result, in the order added.
        skipped: (app, trace) pairs the sweep could not run because the
            trace lacked the application's sensors (empty for the
            paper's corpora, where every app/trace pair is runnable).
        execution: How the engine ran the sweep (serial vs pool and
            why) — ``None`` for hand-assembled matrices.
    """

    results: List[SimulationResult] = field(default_factory=list)
    skipped: List[SkippedCell] = field(default_factory=list)
    execution: Optional[ExecutionInfo] = None

    def __post_init__(self) -> None:
        self._by_key: Dict[Tuple[str, str, str], SimulationResult] = {}
        self._by_config_app: Dict[
            Tuple[str, str], List[SimulationResult]
        ] = defaultdict(list)
        for result in self.results:
            self._index(result)

    def _index(self, result: SimulationResult) -> None:
        key = (result.config_name, result.app_name, result.trace_name)
        # First-wins, matching the historical scan order of ``get``.
        self._by_key.setdefault(key, result)
        self._by_config_app[(result.config_name, result.app_name)].append(
            result
        )

    def add(self, result: SimulationResult) -> None:
        """Record one simulation result (keeps the indexes current)."""
        self.results.append(result)
        self._index(result)

    def get(
        self, config_name: str, app_name: str, trace_name: str
    ) -> SimulationResult:
        """Exact O(1) lookup; raises ``KeyError`` when absent."""
        try:
            return self._by_key[(config_name, app_name, trace_name)]
        except KeyError:
            raise KeyError((config_name, app_name, trace_name)) from None

    def select(
        self,
        config_name: str | None = None,
        app_name: str | None = None,
        predicate: Callable[[SimulationResult], bool] | None = None,
    ) -> List[SimulationResult]:
        """All results matching the given filters."""
        if config_name is not None and app_name is not None:
            rows: Iterable[SimulationResult] = self._by_config_app.get(
                (config_name, app_name), []
            )
        else:
            rows = (
                r
                for r in self.results
                if (config_name is None or r.config_name == config_name)
                and (app_name is None or r.app_name == app_name)
            )
        if predicate is not None:
            return [r for r in rows if predicate(r)]
        return list(rows)

    def mean_power(
        self,
        config_name: str,
        app_name: str,
        trace_names: Iterable[str] | None = None,
    ) -> float:
        """Mean average power over the selected traces, mW."""
        names = set(trace_names) if trace_names is not None else None
        rows = [
            r
            for r in self._by_config_app.get((config_name, app_name), [])
            if names is None or r.trace_name in names
        ]
        if not rows:
            raise KeyError((config_name, app_name, trace_names))
        return sum(r.average_power_mw for r in rows) / len(rows)

    def relative_to_oracle(
        self,
        config_name: str,
        app_name: str,
        trace_names: Iterable[str] | None = None,
    ) -> float:
        """Mean power of a configuration divided by Oracle's (Figure 5)."""
        oracle = self.mean_power("oracle", app_name, trace_names)
        if oracle <= 0:
            return float("inf")
        return self.mean_power(config_name, app_name, trace_names) / oracle

    def savings_fraction(
        self,
        config_name: str,
        app_name: str,
        trace_names: Iterable[str] | None = None,
    ) -> float:
        """(AA - X) / (AA - Oracle), the Section 5.2 metric."""
        aa = self.mean_power("always_awake", app_name, trace_names)
        oracle = self.mean_power("oracle", app_name, trace_names)
        x = self.mean_power(config_name, app_name, trace_names)
        if aa - oracle <= 0:
            return 1.0
        return (aa - x) / (aa - oracle)


def run_matrix(
    configs: Sequence[SensingConfiguration],
    apps: Sequence[SensingApplication],
    traces: Sequence[Trace],
    jobs: int = 1,
    profile: PhonePowerProfile = NEXUS4,
    context: Optional[RunContext] = None,
) -> Matrix:
    """Simulate every (config, app, trace) combination.

    Args:
        configs: Sensing configurations to sweep.
        apps: Applications to simulate.
        traces: Traces to replay.
        jobs: 1 runs serially through one shared
            :class:`~repro.sim.engine.RunContext`; ``N > 1`` requests
            the persistent process pool (the engine falls back to
            serial for plans too small to amortize pool startup — see
            ``Matrix.execution.reason``).
        profile: Phone power profile for every cell.
        context: Optional externally owned context.  Its fast-path
            switches (``cache``, ``fuse``, ``compiled``, ``batch``,
            ``shape_batch`` — the CLI's ``--no-*`` escape hatches;
            results are bit-identical under every setting) govern the
            sweep, serial or pooled; pass the same one across serial
            sweeps to keep its cache warm.  ``None`` runs with every
            fast path on.

    (app, trace) pairs whose sensors are absent from the trace are not
    silently dropped: they are recorded on :attr:`Matrix.skipped`.
    """
    plan = plan_matrix(configs, apps, traces)
    results, info = execute_plan_with_info(
        plan, jobs=jobs, profile=profile, context=context
    )
    matrix = Matrix(skipped=list(plan.skipped), execution=info)
    for result in results:
        matrix.add(result)
    return matrix


def group_trace_names(traces: Sequence[Trace]) -> Dict[int, List[str]]:
    """Robot trace names keyed by activity group."""
    groups: Dict[int, List[str]] = defaultdict(list)
    for trace in traces:
        group = trace.metadata.get("group")
        if group is not None:
            groups[int(group)].append(trace.name)
    return dict(groups)
