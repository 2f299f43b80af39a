"""Estimators: percentiles and equal-count throughput slices."""

from __future__ import annotations

from typing import List, Sequence

SLICES = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of an ascending sequence, linearly
    interpolated between the two nearest ranks."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def slice_rates(starts: Sequence[int], ends: Sequence[int],
                slices: int = SLICES) -> List[float]:
    """Ops per second of each of ``slices`` equal-count slices.

    A slice's wall time runs from the start of its first op to the end
    of its last, so it includes the generator's own per-op bookkeeping —
    the cost a closed-loop client with no think time really pays.
    Leftover ops (count not divisible) join the last slice; fewer ops
    than slices (smoke runs) make one-op slices.
    """
    count = len(starts)
    if count == 0:
        raise ValueError("no ops to slice")
    slices = min(slices, count)
    size = count // slices
    rates = []
    for index in range(slices):
        first = index * size
        last = count - 1 if index == slices - 1 else first + size - 1
        wall_ns = ends[last] - starts[first]
        rates.append((last - first + 1) / (wall_ns / 1e9))
    return rates
