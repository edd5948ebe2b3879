"""Outside-in spans around the public layer calls of ``simulate()``.

:func:`instrument` swaps the module/registry attributes that
``repro.api.runner.simulate`` looks up at call time for thin wrappers
that open a span, then restores them.  The library runs unchanged: the
traced pass executes the same code path as the timed pass, plus one
span per layer call.  Spans stay in memory and are written out when
the run ends.

A layer's self time is the sum over its spans of duration minus the
time covered by direct child spans, so nested calls of one layer
(``run_replicated`` -> ``engine.run``) are not counted twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, op id]``."""

    def __init__(self):
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, op]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _covered(self) -> Dict[int, float]:
        covered: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        covered = self._covered()
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_times_by_op(self, name: str) -> Dict[int, float]:
        """Seconds of *name* self time per op id."""
        covered = self._covered()
        out: Dict[int, float] = defaultdict(float)
        for index, (n, start, end, _, op) in enumerate(self.spans):
            if n == name:
                out[op] += (end - start) - covered[index]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


class _TracedProtocolEntry:
    """``PROTOCOLS.get(name)`` result whose ``build`` opens a span."""

    def __init__(self, entry, tracer: Tracer):
        self._entry = entry
        self.build = _wrap(tracer, "protocols.build", entry.build)

    def __getattr__(self, name):
        return getattr(self._entry, name)


#: Engine entry points, wrapped per instance so every route is covered.
ENGINE_METHODS = ("run", "run_ensemble", "run_replicated")


@contextmanager
def instrument(tracer: Tracer):
    """Route the layer calls ``simulate()`` makes through *tracer*."""
    from repro.api import registry, runner
    from repro.engine import dispatch, ensemble

    fastest_engine = dispatch.fastest_engine
    protocols_get = registry.PROTOCOLS.get

    def traced_fastest_engine(*args, **kwargs):
        with tracer.span("engine.dispatch"):
            engine = fastest_engine(*args, **kwargs)
        for method in ENGINE_METHODS:
            if hasattr(engine, method):
                setattr(engine, method, _wrap(tracer, "engine.run", getattr(engine, method)))
        return engine

    patches = [
        (runner, "resolve", _wrap(tracer, "api.resolve", runner.resolve)),
        (dispatch, "fastest_engine", traced_fastest_engine),
        (ensemble, "run_replicated", _wrap(tracer, "engine.run", ensemble.run_replicated)),
        (registry.TOPOLOGIES, "build", _wrap(tracer, "graphs.build", registry.TOPOLOGIES.build)),
        (registry.INITIALS, "build", _wrap(tracer, "workloads.initial", registry.INITIALS.build)),
        (registry.FAULTS, "build", _wrap(tracer, "protocols.build", registry.FAULTS.build)),
        (registry.PROTOCOLS, "get", lambda name: _TracedProtocolEntry(protocols_get(name), tracer)),
    ]
    saved = [(target, attr, target.__dict__.get(attr)) for target, attr, _ in patches]
    try:
        for target, attr, replacement in patches:
            setattr(target, attr, replacement)
        yield tracer
    finally:
        for target, attr, original in saved:
            if original is None:
                delattr(target, attr)  # drop the instance attribute, exposing the method
            else:
                setattr(target, attr, original)
