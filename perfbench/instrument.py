"""Install the traced run's wrappers, from :data:`perfbench.layers.TIMED`.

Besides spans, a few wrappers read counters at the same boundary:
the scheduler's entries and engine runs, per-shard pump busy time,
each batched dispatch's ``BatchDispatchInfo``, and the ingest backlog
and lag gauges just before every advance.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

from perfbench.layers import APPS_DETECT, TIMED, span_name
from perfbench.tracer import Tracer


@dataclass
class LayerCounters:
    """Counters observed while recording (reset per traced pass)."""

    entries: int = 0
    engine_runs: int = 0
    batch_rows: int = 0
    padded_cells: int = 0
    valid_cells: int = 0
    backlog_max: int = 0
    lag_s_max: float = 0.0
    busy_ns: Dict[int, int] = field(default_factory=lambda: defaultdict(int))


def _ticket(args, kwargs, routed):
    if not routed.accepted:
        return None
    return ("ticket", routed.shard, routed.response.submission_id)


def _chunk(args, kwargs, result):
    return ("chunk",) + tuple(args[1:4])


def _cell(args, kwargs, result):
    config, app, trace = args[:3]
    return ("cell", config.name, app.name, trace.name)


def instrument(tracer: Tracer) -> LayerCounters:
    """Wrap every timed function; return the counters the wrappers fill."""
    counters = LayerCounters()

    def run_batch(args, kwargs, result, _ns):
        counters.entries += len(args[1])
        counters.engine_runs += result[1]

    def pump(args, kwargs, result, ns):
        counters.busy_ns[id(args[0])] += ns

    def batched(args, kwargs, result, _ns):
        counters.batch_rows += len(args[1])
        counters.padded_cells += result[1].padded_cells
        counters.valid_cells += result[1].valid_cells

    def ingest_gauges(args, kwargs):
        ingest = args[0]
        counters.backlog_max = max(counters.backlog_max, ingest.backlog)
        counters.lag_s_max = max(counters.lag_s_max, ingest.lag_s)

    hooks = {
        "ShardCluster.submit": dict(rid=_ticket),
        "ConditionService.pump": dict(observe=pump),
        "Scheduler.run_batch": dict(observe=run_batch),
        "BatchedPlan.execute_batch_with_info": dict(observe=batched),
        "BatchedPlan.execute_shape_batch_with_info": dict(observe=batched),
        "StreamIngest.push": dict(rid=_chunk),
        "StreamIngest.advance": dict(before=ingest_gauges),
    }
    for layer, module_name, qualname in TIMED:
        name = span_name(layer, qualname)
        kw = hooks.get(qualname, {})
        if layer == "configs":
            kw = dict(rid=_cell)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            tracer.patch_method(cls, attr, name, **kw)
        else:
            tracer.patch_function(module_name, qualname, name, **kw)

    from repro.apps import all_applications

    for cls in {type(app) for app in all_applications()}:
        for klass in cls.__mro__:
            if "detect" in klass.__dict__ and klass.__name__ != "SensingApplication":
                if not getattr(klass.__dict__["detect"], "__wrapped__", None):
                    tracer.patch_method(klass, "detect", APPS_DETECT)
    return counters
