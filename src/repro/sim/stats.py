"""Measurement helpers: latency recorders and throughput meters.

Quantile arithmetic lives in :mod:`repro.obs.quantiles` — one
linear-interpolation implementation, guarded on empty inputs (NaN,
never an exception).
"""

from repro.obs import quantiles


class LatencyRecorder:
    """Collects latency samples (microseconds) with warmup filtering."""

    def __init__(self, warmup_until=0.0):
        self.warmup_until = warmup_until
        self.samples = []

    def record(self, now, latency):
        """Record one sample taken at simulated time ``now``."""
        if now >= self.warmup_until:
            self.samples.append(latency)

    @property
    def count(self):
        return len(self.samples)

    def mean(self):
        return quantiles.mean(self.samples)

    def percentile(self, p):
        """Linear-interpolated percentile, ``p`` in [0, 100]; NaN if empty."""
        return quantiles.percentile(self.samples, p)

    def median(self):
        return self.percentile(50)

    def p99(self):
        return self.percentile(99)

    def histogram(self, bucket_width_us=None, max_buckets=32):
        """Fixed-width histogram: list of ``(bucket_start, count)``.

        Width defaults to span/max_buckets rounded up so the histogram
        always fits in ``max_buckets`` entries.
        """
        return quantiles.fixed_width_histogram(
            self.samples, bucket_width=bucket_width_us,
            max_buckets=max_buckets)

    def cdf(self, points=20):
        """Evenly spaced ``(latency, fraction_completed_within)`` pairs."""
        if not self.samples:
            return []
        ordered = sorted(self.samples)
        n = len(ordered)
        return [(ordered[min(n - 1, int(n * i / points))],
                 min(1.0, (i + 1) / points))
                for i in range(points)]


class ThroughputMeter:
    """Counts completions over a measurement window."""

    def __init__(self, warmup_until=0.0):
        self.warmup_until = warmup_until
        self.completed = 0
        self._first = None
        self._last = None

    def record(self, now, n=1):
        """Record ``n`` completions at simulated time ``now``."""
        if now < self.warmup_until:
            return
        if self._first is None:
            self._first = now
        self._last = now
        self.completed += n

    def ops_per_us(self):
        """Throughput in operations per microsecond over the window.

        Returns ``0.0`` when nothing completed. When completions exist
        but all landed on one timestamp the window has zero width and a
        rate is undefined — returns ``float("nan")`` as a documented
        sentinel (the old behaviour quietly reported 0.0, which reads
        as "idle" when the system actually completed work).
        """
        if self._first is None or self._last is None:
            return 0.0
        if self._last <= self._first:
            return float("nan")
        return self.completed / (self._last - self._first)

    def ops_per_sec(self):
        """Throughput in operations per second."""
        return self.ops_per_us() * 1e6


def summarize(recorder, meter=None):
    """One-line dict summary used by benchmarks and drivers."""
    summary = {
        "count": recorder.count,
        "mean_us": recorder.mean(),
        "median_us": recorder.median(),
        "p99_us": recorder.p99(),
    }
    if meter is not None:
        summary["ops_per_sec"] = meter.ops_per_sec()
    return summary
