"""Percentiles with the ten-samples-beyond rule, medians, span self times."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the run is too short to say anything about it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p`` %
    of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail(samples: Sequence[float], p: float) -> Tuple[float, bool]:
    """``(value, supported)`` for percentile ``p``.

    ``supported`` is False when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it; the value is then still the nearest-rank
    percentile, and the caller must flag the run as too short.
    """
    return (percentile(samples, p),
            samples_beyond(len(samples), p) >= MIN_SAMPLES_BEYOND)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def self_times(spans: List[tuple]) -> dict:
    """Self time of every span: its duration minus its children's.

    ``spans`` holds ``(span_id, parent_id, name, start_ns, end_ns, tag)``
    tuples.  Children run on the caller's thread inside the parent's
    interval, so their durations never overlap one another.
    """
    child_ns: dict = {}
    for _sid, parent, _name, start, end, _tag in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {sid: (end - start) - child_ns.get(sid, 0)
            for sid, _parent, _name, start, end, _tag in spans}
