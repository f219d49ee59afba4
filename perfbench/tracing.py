"""In-memory spans around spdt's public functions, recorded from outside.

A span keeps its name, start, end, parent span and a few counts taken from
the call's arguments or result. Spans stay in memory while the benchmark
runs and are written out once, when it ends.

The library is not edited. Its modules import each other by name
(``from .network import extract_spdt_links``), so a function is wrapped
where its caller looks it up: ``Tracer.patch(spdt.sweep,
"extract_spdt_links", ...)`` times the sweep's calls and leaves calls made
from inside ``spdt.network`` alone. Calls the benchmark makes itself go
through ``Tracer.wrap``.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter


class Span:
    """One timed call; ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts}


class Tracer:
    """Records nested spans of one thread; patches are undone by ``restore``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` timed as span ``name``; ``counts(args, kwargs, result)``
        returns the span's counts and runs after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, counts=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, counts))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around a block rather than a wrapped function; yields its index."""
        span = self._open(name)
        try:
            yield self._stack[-1]
        finally:
            self._close(span)


def summarise(spans: list[Span], root: int) -> dict[str, dict[str, float]]:
    """Per span name under ``root``: calls, total and self seconds, summed counts.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so those durations add up
    to the part of the span that the children cover.
    """
    covered: dict[int, float] = {}
    members = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in members:
            members.add(i)
            covered[spans[i].parent] = covered.get(spans[i].parent, 0.0) \
                + spans[i].duration
    out: dict[str, dict[str, float]] = {}
    for i in sorted(members):
        span = spans[i]
        agg = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += span.duration
        agg["self_s"] += span.duration - covered.get(i, 0.0)
        for key, value in span.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out
