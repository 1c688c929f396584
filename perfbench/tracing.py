"""Span tracing for the campaign benchmark.

The benchmark never edits the program: it swaps the module attributes
the campaign loop looks up (``diffcert.campaign.verify_all`` and so on)
for wrappers that record one span per call, and puts the originals back
afterwards.  A span carries its name, start, end, parent and the seed
visit it belongs to; its self time is its duration minus the durations
of the spans nested directly inside it, so the self times of one traced
campaign add up to the campaign's own duration.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float
    seed: int  # seed visit the span ran under; -1 outside any seed

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory, in the order they close."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.seed = -1
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        clock = self.clock
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append(
                    Span(span_id, parent[0] if parent is not None else None, name, start, end, duration - frame[1], self.seed)
                )

        return traced


@contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = value`` for each (owner, attr, value)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerStats(NamedTuple):
    calls: int
    self_s: float
    durations: list[float]  # inclusive, one per call


def layer_stats(spans) -> dict[str, LayerStats]:
    """Calls, summed self time and per-call durations for each span name."""
    grouped: dict[str, tuple[list[float], list[float]]] = {}
    for span in spans:
        selfs, durations = grouped.setdefault(span.name, ([], []))
        selfs.append(span.self_s)
        durations.append(span.duration)
    return {name: LayerStats(len(d), math.fsum(s), d) for name, (s, d) in grouped.items()}


MIN_BEYOND = 10  # samples a reported tail percentile must have above it


def usable_percentile(n: int, wanted: float = 99.0) -> float:
    """The highest percentile up to ``wanted`` that has at least
    ``MIN_BEYOND`` of ``n`` samples beyond it under nearest-rank selection,
    in whole percent; never below the median."""
    if n <= 0:
        return 50.0
    highest = math.floor(100.0 * (n - MIN_BEYOND) / n)
    return float(max(50, min(wanted, highest)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered) / 100.0))  # q * n first keeps whole ranks exact
    return ordered[rank - 1]
