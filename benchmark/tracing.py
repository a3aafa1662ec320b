"""In-memory span tracer that wraps library functions at their import bindings.

A span records its name, start and end (perf_counter nanoseconds), the span
that was open when it started (its parent), an operation id shared by every
span of one benchmark operation, and a small dict of counts measured at that
boundary. Spans stay in memory until the run ends and are then written out as
JSON lines.

Wrappers replace module attributes, because callers resolve these names
through the binding in their own module (``btyd`` imports ``log_hyp2f1`` by
name, so the binding to patch is ``btyd.log_hyp2f1``, not the one in
``special``). ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, id, parent, op, name, start, end=None, attrs=None):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "attrs": self.attrs or {},
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0
        self._next_op = 1
        self._patches: list[tuple[object, str, object]] = []
        self._paused = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span | None:
        if self._paused:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, _now())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = _now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, new_op: bool = False, **attrs):
        """A benchmark span; with new_op it starts a fresh operation id."""
        saved = self._op
        if new_op:
            self._op = self._next_op
            self._next_op += 1
        span = self._open(name)
        if span is not None and attrs:
            span.attrs = attrs
        try:
            yield span
        finally:
            self._close(span)
            self._op = saved

    @contextmanager
    def paused(self):
        """Record nothing inside, e.g. while correctness checks call the library."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, hook=None, prepare=None):
        """fn wrapped in a span.

        prepare(args, kwargs) may rewrite the arguments before the call;
        hook(args, kwargs, result) returns the span's counts and runs after the
        span has closed, so its cost is not charged to the wrapped layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None and not tracer._paused:
                args, kwargs = prepare(args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if span is not None and hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, hook=None, prepare=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, hook, prepare))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by child spans.

    Child intervals are clipped to the parent and merged first, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out
