"""In-memory spans around calls into the program, and the self-time arithmetic.

A span records a name, its start and end on one clock, the span that was open
when it began, and attributes inherited from that parent (workload, pass id,
stage, method).  Spans stay in a list until the run ends.  ``instrument``
routes calls to chosen library functions through spans for the traced run
only; the benchmark's direct calls into the public API are always spanned,
because those spans are its timers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    peak_bytes: int | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; ``memory=True`` spans also record the
    tracemalloc peak above the allocation level at their start."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, memory=False, **attrs):
        parent = self.spans[self._open[-1]] if self._open else None
        inherited = dict(parent.attrs) if parent is not None else {}
        inherited.update(attrs)
        rec = Span(len(self.spans), name, parent.id if parent else None,
                   self.clock(), attrs=inherited)
        self.spans.append(rec)
        self._open.append(rec.id)
        track = memory and tracemalloc.is_tracing()
        if track:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._open.pop()
            if track:
                rec.peak_bytes = tracemalloc.get_traced_memory()[1] - base

    def call(self, name, fn, *args, memory=False, **kwargs):
        """Call ``fn`` inside a span and return its result."""
        with self.span(name, memory=memory):
            return fn(*args, **kwargs)


def covered_length(intervals):
    """Length of the union of (start, end) intervals; empty ones count 0."""
    total = 0.0
    reach = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Map span id -> its duration minus the part its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end))
                  for c in children.get(s.id, ())]
        out[s.id] = s.duration - covered_length(inside)
    return out


def _spanned(tracer, fn, name, memory, record):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, memory=memory) as rec:
            result = fn(*args, **kwargs)
            if record is not None:
                rec.attrs.update(record(result))
            return result

    return wrapper


@contextmanager
def instrument(tracer, targets, package="mvsubspace"):
    """Route library calls through spans while the block runs.

    ``targets`` maps ``(module, attribute)`` to ``(span name, memory,
    record)``, where ``record`` turns a result into span attributes or is
    None.  Every reference to the function held by a loaded module of the
    package is replaced, so calls between the package's own modules are
    seen too.  A target the package no longer defines is skipped and its
    metrics read zero.  The originals are restored on exit.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    patched = []
    for (modname, attr), (name, memory, record) in targets.items():
        original = getattr(importlib.import_module(modname), attr, None)
        if original is None:
            continue
        wrapper = _spanned(tracer, original, name, memory, record)
        for module in modules:
            keys = [k for k, v in vars(module).items() if v is original]
            for key in keys:
                setattr(module, key, wrapper)
                patched.append((module, key, original))
    try:
        yield
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)
