"""Span tracing from outside the program, for the benchmark's traced run.

`Tracer.install` replaces public functions at the module attribute where their
callers look them up (for example `uwmac.engine.build_model_aware_policy`)
with wrappers that record one span per call: name, start, end, parent span
and op id. Spans stay in memory until the run ends. With `tracemalloc` on,
each span also records the peak of traced memory above its starting level.
"""
from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    peak_bytes: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = (span.end - span.start) - covered
    return result


class _Frame:
    __slots__ = ("span_id", "start", "mem_start", "child_peak")

    def __init__(self, span_id: int, start: float, mem_start: int):
        self.span_id = span_id
        self.start = start
        self.mem_start = mem_start
        self.child_peak = 0


class Tracer:
    """Records spans for calls made while `op` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op: int | None = None
        self._next_id = 0
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self) -> _Frame:
        memory = tracemalloc.is_tracing()
        current = 0
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                # fold the parent's peak so far before the counter is reset
                parent = self._stack[-1]
                parent.child_peak = max(parent.child_peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(self._next_id, time.perf_counter(), current)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        peak = 0
        if tracemalloc.is_tracing():
            peak = max(tracemalloc.get_traced_memory()[1], frame.child_peak)
            if self._stack:
                parent = self._stack[-1]
                parent.child_peak = max(parent.child_peak, peak)
            tracemalloc.reset_peak()
        parent_id = self._stack[-1].span_id if self._stack else None
        self.spans.append(Span(frame.span_id, parent_id, self.op, name, frame.start, end,
                               max(peak - frame.mem_start, 0)))

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording a span called `name`; `on_result(tracer, args, kwargs,
        result)` may add counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return traced

    def install(self, sites) -> None:
        """Wrap each (module, attribute, span name, on_result) site."""
        for module, attr, name, on_result in sites:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
