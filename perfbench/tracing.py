"""Span recording and the timing statistics the benchmark reports.

A span is one call into a layer's public function: its name, start, end
and the span that was open when it began (its parent). Spans are kept in
memory and summarised when the repeat ends. A span's self time is its
duration minus the part of its interval that its direct children cover.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

# Percentiles the tail metric may land on, lowest first. There is no p90
# or p95: on a shared host, stalls from other processes slow a tenth or so
# of the operations in a busy minute and not in a quiet one, so p90 of a
# run's operations measured the host's load more than the program. On a
# 2-vCPU Xeon shared with other work, the spread of p90 over ten runs of
# the same code reached 0.27 of its median, that of p75 at most 0.13.
TAIL_LADDER = (50.0, 75.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def is_open(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        The replacement goes where callers look the name up, so a module
        that imported a function by name is wrapped on that module. A call
        made while a span of the same name is open records nothing, so a
        function that calls another wrapped under the same name counts once.
        """
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self.is_open(name):
                return inner(*args, **kwargs)
            index = self.open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(index)

        setattr(owner, attr, traced)


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus what its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        end - start - covered_length(children.get(i, []), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and total self time (s)."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _ = span
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return out


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of a percentile among n samples (exact arithmetic)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten of n samples
    beyond its nearest rank."""
    fits = [pct for pct in TAIL_LADDER if n - _rank(n, pct) >= TAIL_MIN_BEYOND]
    if not fits:
        raise ValueError(f"{n} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median")
    return fits[-1]
