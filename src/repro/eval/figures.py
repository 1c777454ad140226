"""Figure builders: the series behind the paper's Figures 5, 6 and 7.

Each builder returns nested dicts of plain floats so benchmarks can
print the series and assert on their shape (who wins, by what factor,
where crossovers fall).  All of them run their sweeps through
:func:`repro.eval.experiments.run_matrix`, so they accept its ``jobs``
and ``context`` arguments: the engine's fast-path switches are set on
the :class:`~repro.sim.engine.RunContext` passed in, never per builder.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.apps import HeadbuttApp, StepsApp, TransitionsApp
from repro.eval.experiments import (
    CONFIG_LABELS,
    Matrix,
    group_trace_names,
    paper_configurations,
    run_matrix,
)
from repro.sim.configs import DutyCycling
from repro.sim.engine import RunContext
from repro.traces.base import Trace
from repro.traces.library import human_corpus, robot_corpus

#: The sleep intervals shown on Figure 6's x axis.
FIGURE6_INTERVALS = (2.0, 5.0, 10.0, 20.0, 30.0)


def figure5_series(
    traces: Sequence[Trace] | None = None,
    jobs: int = 1,
    context: Optional[RunContext] = None,
) -> Tuple[Dict[int, Dict[str, Dict[str, float]]], Matrix]:
    """Figure 5: power relative to Oracle, per robot group and app.

    Returns:
        ``(series, matrix)`` with ``series[group][app][label]`` the mean
        power of the labelled configuration divided by Oracle's mean
        power for that group and application.
    """
    traces = list(traces) if traces is not None else list(robot_corpus())
    apps = [StepsApp(), TransitionsApp(), HeadbuttApp()]
    matrix = run_matrix(
        paper_configurations(),
        apps,
        traces,
        jobs=jobs,
        context=context,
    )
    groups = group_trace_names(traces)
    series: Dict[int, Dict[str, Dict[str, float]]] = {}
    for group, names in sorted(groups.items()):
        series[group] = {}
        for app in apps:
            series[group][app.name] = {
                CONFIG_LABELS[config]: matrix.relative_to_oracle(
                    config, app.name, names
                )
                for config in CONFIG_LABELS
                if config != "oracle"
            }
    return series, matrix


def figure6_series(
    traces: Sequence[Trace] | None = None,
    intervals: Sequence[float] = FIGURE6_INTERVALS,
    jobs: int = 1,
    context: Optional[RunContext] = None,
) -> Tuple[Dict[str, Dict[float, float]], Matrix]:
    """Figure 6: duty-cycling recall vs sleep interval at 90 % idle.

    Returns:
        ``(series, matrix)`` with ``series[app][interval]`` the mean
        recall over the group-1 runs (the matrix matches the other
        figure builders, so callers can inspect execution/cache info).
    """
    if traces is None:
        traces = [t for t in robot_corpus() if t.metadata.get("group") == 1]
    apps = [StepsApp(), TransitionsApp(), HeadbuttApp()]
    configs = [DutyCycling(interval) for interval in intervals]
    matrix = run_matrix(configs, apps, traces, jobs=jobs, context=context)
    series: Dict[str, Dict[float, float]] = {app.name: {} for app in apps}
    for config, interval in zip(configs, intervals):
        for app in apps:
            rows = matrix.select(config.name, app.name)
            series[app.name][interval] = sum(r.recall for r in rows) / len(rows)
    return series, matrix


def figure7_series(
    traces: Sequence[Trace] | None = None,
    jobs: int = 1,
    context: Optional[RunContext] = None,
) -> Tuple[Dict[str, Dict[str, float]], Matrix]:
    """Figure 7: step-detector power relative to Oracle on human traces.

    Shows AA, DC-10, Ba-10, PA and Sw, as the paper does ("For Duty
    Cycling and Batching we show only a sleep interval of 10 seconds").

    Returns:
        ``(series, matrix)`` with ``series[trace_scenario][label]``.
    """
    traces = list(traces) if traces is not None else list(human_corpus())
    app = StepsApp()
    matrix = run_matrix(
        paper_configurations(sleep_intervals=(10.0,)),
        [app],
        traces,
        jobs=jobs,
        context=context,
    )
    shown = ["always_awake", "duty_cycling_10s", "batching_10s",
             "predefined_activity", "sidewinder"]
    series: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        scenario = str(trace.metadata.get("scenario", trace.name))
        series[scenario] = {
            CONFIG_LABELS[config]: matrix.relative_to_oracle(
                config, app.name, [trace.name]
            )
            for config in shown
        }
    return series, matrix
