"""Percentiles and spreads with the benchmark's sample rules."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise a single slow sample would decide the value.
MIN_BEYOND = 10


def nearest_rank(values, p):
    """Nearest-rank percentile: the smallest sample with at least p of the
    samples at or below it. Returns (value, samples_beyond), or
    (None, 0) when there are no samples."""
    if not values:
        return None, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def percentile(values, p):
    """nearest_rank, or None when fewer than MIN_BEYOND samples lie beyond
    a tail percentile (p > 0.5)."""
    value, beyond = nearest_rank(values, p)
    if value is None or (p > 0.5 and beyond < MIN_BEYOND):
        return None
    return value


def min_samples(p):
    """Smallest sample count at which percentile(values, p) is defined."""
    n = 1
    while True:
        if n - max(1, math.ceil(p * n)) >= (MIN_BEYOND if p > 0.5 else 0):
            return n
        n += 1


def median(values):
    return statistics.median(values) if values else None
