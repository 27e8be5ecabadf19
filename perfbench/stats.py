"""Arithmetic behind the benchmark's figures: percentiles, self time, errors.

Kept free of imports from the library and of side effects so that the tests
in ``test_stats.py`` can check it in isolation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # share of samples at or below ``value``, in percent
    beyond: int        # samples strictly after ``value`` in sorted order
    samples: int


def tail(values) -> Tail:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With n samples sorted ascending, the order statistic at 0-based index
    n - TAIL_BEYOND - 1 has exactly TAIL_BEYOND samples after it; its
    percentile is 100 (n - TAIL_BEYOND) / n.  With 2 * TAIL_BEYOND samples or
    fewer that statistic lies at or below the middle, and a tail below the
    median is no tail, so the median is reported as the 50th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 2 * TAIL_BEYOND:
        return Tail(statistics.median(xs), 50.0, n // 2, n)
    k = n - TAIL_BEYOND - 1
    return Tail(xs[k], 100.0 * (k + 1) / n, n - k - 1, n)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    ``spans`` holds (span_id, start, end, parent_id) tuples; a child interval
    is clipped to its parent before the union is taken.
    """
    children: dict = {}
    for sid, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, start, end, _ in spans:
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(sid, ()) if min(e, end) > max(s, start)]
        out[sid] = (end - start) - covered(kids)
    return out


@dataclass
class Outcomes:
    """Attempted and failed operations; a failure is an exception raised by
    the operation or any failed output check."""

    attempted: int = 0
    failed: int = 0

    def record(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
