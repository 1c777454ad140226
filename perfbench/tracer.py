"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the program from outside: a
method is replaced on its class, a module-level function in every
``repro`` module that holds it (callers that imported it by name look
it up in their own namespace).  Each call made while recording is on
becomes one span — name, start and end from ``perf_counter_ns``, the
enclosing span, and an optional request id — kept in memory and
written out once the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  A cluster with parallel pumps runs shard
pumps on executor threads (the benchmark pumps serially); a
span opened on such a thread with nothing open on its own stack takes
the main thread's innermost open span as its parent, so concurrent
shard work is subtracted from the cluster pump that waited for it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (span id, name, start ns, end ns, parent id or 0, request id or None)
Span = Tuple[int, str, int, int, int, object]

RidFn = Callable[[tuple, dict, object], object]
BeforeFn = Callable[[tuple, dict], None]
ObserveFn = Callable[[tuple, dict, object, int], None]


class Tracer:
    """Collects spans from wrapped functions while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid: Optional[RidFn] = None,
        before: Optional[BeforeFn] = None,
        observe: Optional[ObserveFn] = None,
    ) -> Callable:
        """``fn`` recording one span per call under ``name``.

        ``rid(args, kwargs, result)`` names the request the call serves;
        ``before(args, kwargs)`` and ``observe(args, kwargs, result,
        duration_ns)`` read counters at the same boundary.  All three
        run only while recording, outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            if before is not None:
                before(args, kwargs)
            span = next(tracer._ids)
            stack.append(span)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span, name, start, end, parent, None))
                raise
            end = time.perf_counter_ns()
            stack.pop()
            request = rid(args, kwargs, result) if rid is not None else None
            tracer.spans.append((span, name, start, end, parent, request))
            if observe is not None:
                observe(args, kwargs, result, end - start)
            return result

        return traced

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) with a traced
        wrapper."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **kw))

    def patch_function(self, module: str, attr: str, name: str, **kw) -> None:
        """Replace a module-level function wherever a loaded ``repro``
        module holds it under ``attr``."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: ``(calls, self seconds)``."""
        return self_times(self.spans)

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON lines, each request id
        inherited from the nearest ancestor that named one."""
        parents = {span[0]: span[4] for span in self.spans}
        rids = {span[0]: span[5] for span in self.spans}

        def resolve(span_id: int) -> object:
            while span_id and rids.get(span_id) is None:
                span_id = parents.get(span_id, 0)
            return rids.get(span_id)

        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, name, start, end, parent, _ in sorted(self.spans):
                out.write(json.dumps([
                    span_id, name, start, end, parent, _jsonable(resolve(span_id)),
                ]) + "\n")


def _jsonable(value: object) -> object:
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


def covered_ns(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """Per span name: calls and total self seconds (duration minus the
    union of child-span intervals)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span_id, name, start, end, _, _ in spans:
        own = end - start - covered_ns(children.get(span_id, ()), start, end)
        entry = out[name]
        entry[0] += 1
        entry[1] += own / 1e9
    return {name: (int(c), s) for name, (c, s) in out.items()}
