"""Shared quantile and histogram arithmetic.

One implementation of linear-interpolated percentiles and fixed-width
histograms, used by :class:`repro.sim.stats.LatencyRecorder`
(benchmark latencies), the utilization monitors' queueing-delay
distributions and the windowed latency digests. Keeping the arithmetic
in one place guarantees a p99 means the same thing wherever it is
reported.

All functions are total: empty inputs yield ``nan`` (or an empty
list), never an exception, so a report over a run that completed no
operations renders as NaN columns instead of crashing.
"""

import math


def percentile(samples, p):
    """Linear-interpolated percentile of ``samples``, ``p`` in [0, 100].

    ``samples`` need not be sorted. Returns ``nan`` when empty.
    """
    if not samples:
        return float("nan")
    return percentile_sorted(sorted(samples), p)


def percentile_sorted(ordered, p):
    """Like :func:`percentile` for an already ascending-sorted sequence."""
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def mean(samples):
    """Arithmetic mean; ``nan`` when empty."""
    if not samples:
        return float("nan")
    return sum(samples) / len(samples)


def fixed_width_histogram(samples, bucket_width=None, max_buckets=32):
    """Fixed-width histogram: sorted list of ``(bucket_start, count)``.

    Width defaults to span/``max_buckets`` so the histogram always fits
    in ``max_buckets`` entries; with an explicit ``bucket_width`` the
    bucket count is ``ceil(span / bucket_width)`` (at least one). In
    both cases a sample equal to the maximum belongs to the *last*
    bucket — it is the closed upper edge of the range, not the start
    of a bucket of its own. Empty input yields ``[]``.
    """
    if not samples:
        return []
    low, high = min(samples), max(samples)
    span = max(high - low, 1e-9)
    if bucket_width is None:
        bucket_width = span / max_buckets
    last_bucket = max(math.ceil(span / bucket_width) - 1, 0)
    counts = {}
    for sample in samples:
        index = min(int((sample - low) / bucket_width), last_bucket)
        bucket = low + bucket_width * index
        counts[bucket] = counts.get(bucket, 0) + 1
    return sorted(counts.items())


def percentile_weighted(items, p):
    """Linear-interpolated percentile of weighted samples.

    ``items`` is an ascending-sorted sequence of ``(value, weight)``
    with positive *integer* weights; the result is exactly
    :func:`percentile_sorted` over the expanded multiset (each value
    repeated ``weight`` times) without materializing it. Returns
    ``nan`` when the total weight is zero.
    """
    total = sum(weight for _, weight in items)
    if total == 0:
        return float("nan")
    if total == 1:
        return items[0][0]
    rank = (p / 100.0) * (total - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    frac = rank - low
    low_value = high_value = None
    cumulative = 0
    for value, weight in items:
        if weight <= 0:
            continue
        # this value occupies expanded ranks [cumulative, cumulative+weight)
        if low_value is None and low < cumulative + weight:
            low_value = value
        if high < cumulative + weight:
            high_value = value
            break
        cumulative += weight
    if high_value is None:       # p == 100 lands on the last sample
        high_value = items[-1][0]
        if low_value is None:
            low_value = high_value
    if low == high:
        return low_value
    return low_value * (1 - frac) + high_value * frac


def distribution_summary(samples):
    """``{count, mean, p50, p99, max}`` of a sample list (NaNs if empty)."""
    if not samples:
        nan = float("nan")
        return {"count": 0, "mean": nan, "p50": nan, "p99": nan, "max": nan}
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile_sorted(ordered, 50),
        "p99": percentile_sorted(ordered, 99),
        "max": ordered[-1],
    }
