"""In-memory spans and counters for the benchmark's traced run.

A span records its name, start, end and the span that was open when it
started; counters accumulate at the same boundaries.  Nothing is written
until the run ends.  Self time is a span's duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, trace_id=0, clock=time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1].span_id if self._open else None
        sp = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def to_json(self):
        return {
            "trace_id": self.trace_id,
            "spans": [
                {"id": s.span_id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


def covered(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of each span, by span id."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def totals_by_name(spans, selfs=None):
    """Summed duration (or self time, given ``selfs``) per span name."""
    out = {}
    for s in spans:
        value = s.duration if selfs is None else selfs[s.span_id]
        out[s.name] = out.get(s.name, 0.0) + value
    return out


def under(spans, ancestor_name):
    """Spans that have an ancestor called ``ancestor_name``."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor_name:
                out.append(s)
                break
            p = by_id[p].parent
    return out


def span_cost(samples=2000):
    """Measured seconds one empty span adds, for the overhead estimate."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / samples
