"""Engine equivalence: cached, parallel and uncached sweeps agree.

The simulation engine's whole contract is that memoization and
parallelism are *invisible*: a sweep through a shared
:class:`~repro.sim.engine.RunContext` — warm or cold, serial or fanned
across a process pool — must produce the same results as running every
configuration fresh, the way a single ``config.run(app, trace)`` call
always has.
"""

import pytest

from repro.apps import HeadbuttApp, StepsApp
from repro.eval.experiments import paper_configurations, run_matrix
from repro.sim.engine import RunContext
from repro.traces.robot import RobotRunConfig, generate_robot_run


@pytest.fixture(scope="module")
def traces():
    return [
        generate_robot_run(
            RobotRunConfig(group=g, duration_s=120.0, seed=70 + g)
        )
        for g in (1, 2)
    ]


@pytest.fixture(scope="module")
def apps():
    return [StepsApp(), HeadbuttApp()]


@pytest.fixture(scope="module")
def configs():
    return paper_configurations()


@pytest.fixture(scope="module")
def engine_matrix(configs, apps, traces):
    """The sweep through one shared, heavily reused context."""
    context = RunContext()
    matrix = run_matrix(configs, apps, traces, context=context)
    return matrix, context


def _assert_results_match(cached, fresh):
    assert cached.config_name == fresh.config_name
    assert cached.app_name == fresh.app_name
    assert cached.trace_name == fresh.trace_name
    assert cached.recall == fresh.recall
    assert cached.precision == fresh.precision
    assert cached.hub_wake_count == fresh.hub_wake_count
    assert cached.detections == fresh.detections
    assert cached.timeline.intervals == fresh.timeline.intervals
    assert cached.average_power_mw == pytest.approx(
        fresh.average_power_mw, rel=1e-12
    )


def test_engine_matches_fresh_per_config_runs(
    engine_matrix, configs, apps, traces
):
    matrix, context = engine_matrix
    assert context.stats.total_hits > 0  # the cache actually worked
    for trace in traces:
        for app in apps:
            for config in configs:
                fresh = config.run(app, trace)
                cached = matrix.get(config.name, app.name, trace.name)
                _assert_results_match(cached, fresh)


def test_parallel_matches_serial(engine_matrix, configs, apps, traces):
    serial, _ = engine_matrix
    parallel = run_matrix(configs, apps, traces, jobs=2)
    assert len(parallel.results) == len(serial.results)
    for cached, fresh in zip(serial.results, parallel.results):
        _assert_results_match(cached, fresh)


def test_uncached_matches_cached(engine_matrix, apps, traces):
    cached_matrix, _ = engine_matrix
    subset = paper_configurations(sleep_intervals=(10.0,))
    uncached = run_matrix(
        subset, apps, traces, context=RunContext(cache=False)
    )
    for fresh in uncached.results:
        cached = cached_matrix.get(
            fresh.config_name, fresh.app_name, fresh.trace_name
        )
        _assert_results_match(cached, fresh)


def test_warm_context_reruns_identically(configs, apps, traces):
    context = RunContext()
    first = run_matrix(configs, apps, traces, context=context)
    hits_before = context.stats.total_hits
    second = run_matrix(configs, apps, traces, context=context)
    assert context.stats.total_hits > hits_before
    for a, b in zip(first.results, second.results):
        _assert_results_match(a, b)


def test_no_compile_matches_compiled(engine_matrix, configs, apps, traces):
    # The compiled whole-trace hub path must be bit-invisible: a sweep
    # with compilation disabled (falling back to the fused tier)
    # produces the exact same results, timelines included.
    compiled_matrix, _ = engine_matrix
    uncompiled = run_matrix(
        configs, apps, traces, context=RunContext(compiled=False)
    )
    assert len(uncompiled.results) == len(compiled_matrix.results)
    for compiled, plain in zip(compiled_matrix.results, uncompiled.results):
        _assert_results_match(compiled, plain)


def test_no_fuse_matches_fused(engine_matrix, configs, apps, traces):
    # Likewise the fused fast path: with both fast tiers disabled the
    # round-by-round interpreter produces the exact same results.
    fused_matrix, _ = engine_matrix
    unfused = run_matrix(
        configs, apps, traces,
        context=RunContext(fuse=False, compiled=False),
    )
    assert len(unfused.results) == len(fused_matrix.results)
    for fused, plain in zip(fused_matrix.results, unfused.results):
        _assert_results_match(fused, plain)
