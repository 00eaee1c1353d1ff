"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks — numpy's default method."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile.

    The same cut points as ``statistics.quantiles(values, n=4)``, which is
    how run-to-run spread is judged; a single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def union_length(
    intervals: Iterable[Tuple[float, float]],
    low: float = -math.inf,
    high: float = math.inf,
) -> float:
    """Total length covered by ``intervals``, clipped to ``[low, high]``."""
    clipped: List[Tuple[float, float]] = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
