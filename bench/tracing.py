"""Span recording, self-time reduction and the percentile rule.

The benchmark records spans only in its own files, around its calls into
massdual's public functions.  A disabled Tracer calls straight through, so
untraced passes pay one extra Python call per layer call and nothing more.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]  # index of the enclosing span, None at the top
    item: Optional[str]


class Tracer:
    """In-memory spans and counters; reduced to self time after a pass."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._item: Optional[str] = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs), recorded as a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children point at it
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._item)

    def item(self, item_id: str, fn):
        """Run one workload item under a top-level span named 'item'."""
        self._item = item_id
        try:
            return self.call("item", fn)
        finally:
            self._item = None

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def maximum(self, name: str, value: float) -> None:
        if self.enabled:
            self.maxima[name] = max(self.maxima[name], value)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span in seconds: its duration minus the part of
    its interval that its direct children cover (overlaps merged)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start_ns), min(b, s.end_ns)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end_ns - s.start_ns - covered) / 1e9)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time in seconds per span name."""
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return dict(totals)


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (p = 1..99), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the p-th percentile's rank."""
    rank = (n - 1) * p / 100  # zero-based position the inclusive rule uses
    return n - 1 - int(rank)

