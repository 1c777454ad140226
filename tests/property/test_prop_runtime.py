"""Property-based tests on hub-runtime invariants.

Whatever condition and whatever data, the interpreter must satisfy:

* determinism — same graph, same data, same events;
* temporal sanity — wake events carry non-decreasing timestamps that
  lie within the data's time span;
* reset completeness — a reset runtime replays identically.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.compile import compile_pipeline
from repro.hub.runtime import EventLog, HubRuntime
from repro.il.validate import validate_program
from tests.conftest import scalar_chunk
from tests.property.test_prop_il import random_pipeline

seeds = st.integers(0, 2**31 - 1)


def _data(seed, n=180):
    rng = np.random.default_rng(seed)
    data = {}
    for name in ("ACC_X", "ACC_Y", "ACC_Z"):
        x = rng.normal(0, 3.0, n)
        for _ in range(rng.integers(0, 3)):
            i = rng.integers(0, n - 8)
            x[i : i + 8] += rng.uniform(-40, 40)
        data[name] = x
    return data


def _run(graph, data, chunk=45):
    runtime = HubRuntime(graph)
    events = []  # per-round event logs
    n = len(next(iter(data.values())))
    for lo in range(0, n, chunk):
        chunks = {
            name: scalar_chunk(values[lo : lo + chunk], t0=lo / 50.0)
            for name, values in data.items()
            if name in graph.channels
        }
        events.append(runtime.feed(chunks))
    return runtime, EventLog.concat(events)


@given(pipeline=random_pipeline(), seed=seeds)
@settings(max_examples=50, deadline=None)
def test_deterministic(pipeline, seed):
    graph1 = validate_program(compile_pipeline(pipeline))
    graph2 = validate_program(compile_pipeline(pipeline))
    data = _data(seed)
    _, first = _run(graph1, data)
    _, second = _run(graph2, data)
    assert first == second


@given(pipeline=random_pipeline(), seed=seeds)
@settings(max_examples=50, deadline=None)
def test_event_times_sane(pipeline, seed):
    graph = validate_program(compile_pipeline(pipeline))
    data = _data(seed)
    n = len(data["ACC_X"])
    _, events = _run(graph, data)
    times = [e.time for e in events]
    assert times == sorted(times)
    for t in times:
        assert -1e-9 <= t <= (n - 1) / 50.0 + 1e-9
    for e in events:
        assert np.isfinite(e.value)


@given(pipeline=random_pipeline(), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_reset_replays_identically(pipeline, seed):
    graph = validate_program(compile_pipeline(pipeline))
    data = _data(seed)
    runtime, first = _run(graph, data)
    runtime.reset()
    second = []  # per-round event logs
    n = len(data["ACC_X"])
    for lo in range(0, n, 45):
        chunks = {
            name: scalar_chunk(values[lo : lo + 45], t0=lo / 50.0)
            for name, values in data.items()
            if name in graph.channels
        }
        second.append(runtime.feed(chunks))
    assert first == EventLog.concat(second)
