"""One windowed store on the simulated clock.

Three collectors look at the simulated clock through windows: resource
utilization (:mod:`repro.obs.timeline`) integrates busy and queue
levels, the time series (:mod:`repro.obs.series`) counts completions,
latencies and recovery events, and the online views
(:mod:`repro.obs.views`) keep sliding per-connection and per-key rates
a policy can read mid-run. Their data lives in this module's three
primitives, on one grid: bucket ``i`` of width ``w`` covers
``[i * w, (i + 1) * w)`` simulated µs.

* :class:`Buckets` — fixed-width buckets holding one cell each, made on
  first touch. :meth:`Buckets.spans` lays them out densely up to the
  run's end; :meth:`Buckets.overlap` attributes a cell field to any
  interval in proportion to its overlap with each bucket.
* :class:`Rings` — sliding-window counters by key: per key a ring of
  its last ``n`` buckets with a running sum, at most ``max_keys`` keys
  when bounded (the stalest is evicted).
* :class:`LatencyDigest` — a mergeable latency summary, exact until a
  sample cap; :func:`merge_digests` unions them.

Nothing here reads or schedules simulator events: the collectors feed
the store at transitions the run already makes, so an observed run is
bit-identical to a bare one.
"""

from repro.obs import quantiles

#: per-digest sample cap before a digest compresses itself
DEFAULT_DIGEST_CAP = 4096

#: order statistics kept by a compressed digest
SKETCH_K = 64


def _positive(width):
    if width <= 0:
        raise ValueError(f"window_us must be > 0, got {width}")
    return float(width)


class Buckets:
    """Fixed-width buckets of the simulated clock, one cell each.

    ``make()`` builds an empty cell; what a cell holds is the caller's
    (a list of sums, a record of counters and a digest).
    """

    __slots__ = ("width", "cells", "_make")

    def __init__(self, width, make):
        self.width = _positive(width)
        self.cells = {}
        self._make = make

    def cell(self, index):
        """Bucket ``index``'s cell, made on first touch."""
        cell = self.cells.get(index)
        if cell is None:
            cell = self.cells[index] = self._make()
        return cell

    def at(self, t):
        """The cell of the bucket holding instant ``t``."""
        return self.cell(int(t // self.width))

    def spans(self, end=None):
        """``(start, stop, cell or None)`` for every bucket from 0
        through the last one touched or holding ``end``.

        ``stop`` is clipped to ``end`` (the run's end): the bucket
        holding ``end`` is cut short there, and a bucket starting at or
        after it has zero width. Nothing touched, nothing laid out.
        """
        if not self.cells:
            return []
        width = self.width
        last = max(self.cells)
        if end is None:
            end = (last + 1) * width
        else:
            last = max(last, int(end // width))
        get = self.cells.get
        return [(i * width, min((i + 1) * width, max(end, i * width)),
                 get(i)) for i in range(last + 1)]

    def overlap(self, start, end, field, until=None):
        """``cell[field]`` summed over ``[start, end]``: each bucket
        (ending at ``until``, the run's end) contributes in proportion
        to its overlap, as if its value were spread evenly over it."""
        total = 0.0
        for lo, hi, cell in self.spans(until):
            a = max(lo, start)
            b = min(hi, end)
            if cell is None or b <= a or hi <= lo:
                continue
            total += cell[field] * (b - a) / (hi - lo)
        return total


class _Ring:
    """``n`` consecutive buckets ending at the latest one touched.

    Advancing to a later bucket evicts the expired ones from the
    running sum; a gap of ``n`` or more clears the ring outright, so
    an advance costs at most ``n`` steps however long the key idled.
    """

    __slots__ = ("counts", "head", "running", "bucket", "lifetime")

    def __init__(self, n):
        self.counts = [0.0] * n
        self.head = 0
        self.running = 0.0   # sum of live buckets
        self.bucket = None   # absolute index of counts[head]
        self.lifetime = 0.0  # total ever added (reconciliation)

    def advance(self, bucket):
        if self.bucket is None:
            self.bucket = bucket
            return
        gap = bucket - self.bucket
        if gap <= 0:
            return
        counts = self.counts
        n = len(counts)
        if gap >= n:
            for i in range(n):
                counts[i] = 0.0
            self.running = 0.0
            self.head = 0
        else:
            head = self.head
            for _ in range(gap):
                head = (head + 1) % n
                self.running -= counts[head]
                counts[head] = 0.0
            self.head = head
        self.bucket = bucket


class Rings:
    """Sliding-window counters by key: a ``window`` µs window of ``n``
    buckets, so ``total`` reads a key's events of its last ``n``
    buckets (``window / n`` µs each).

    Keys are tracked on first ``add``; with ``max_keys`` set, a new key
    beyond it evicts the key touched longest ago (the first such in
    tracking order) — an O(keys) scan, paid only on eviction.
    """

    __slots__ = ("width", "n", "max_keys", "evicted", "_rings")

    def __init__(self, window, n, max_keys=None):
        window = _positive(window)
        if n < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n}")
        if max_keys is not None and max_keys < 1:
            raise ValueError(f"max_keys must be >= 1, got {max_keys}")
        self.width = window / n
        self.n = n
        self.max_keys = max_keys
        self.evicted = 0
        self._rings = {}

    def add(self, key, t, weight=1.0):
        """Count ``weight`` for ``key`` at instant ``t``."""
        ring = self._rings.get(key)
        if ring is None:
            rings = self._rings
            if self.max_keys is not None and len(rings) >= self.max_keys:
                del rings[min(rings, key=lambda k: rings[k].bucket)]
                self.evicted += 1
            ring = rings[key] = _Ring(self.n)
        ring.advance(int(t // self.width))
        ring.counts[ring.head] += weight
        ring.running += weight
        ring.lifetime += weight

    def total(self, key, t):
        """``key``'s windowed sum as of instant ``t`` (0.0 untracked)."""
        ring = self._rings.get(key)
        if ring is None:
            return 0.0
        ring.advance(int(t // self.width))
        return ring.running

    def lifetime(self, key):
        """Everything ever counted for ``key`` (0.0 untracked)."""
        ring = self._rings.get(key)
        return ring.lifetime if ring is not None else 0.0

    def keys(self):
        return self._rings.keys()

    def __len__(self):
        return len(self._rings)


class LatencyDigest:
    """Mergeable latency summary: exact until ``cap``.

    Holds raw samples while ``count <= cap``; past the cap it collapses
    into ``sketch_k`` weighted order statistics (value, integer weight)
    whose expansion approximates the original multiset. ``items()``
    yields the ``(value, weight)`` pairs either way, so merging digests
    is concatenation + sort — exact whenever every contributing digest
    stayed raw.
    """

    __slots__ = ("cap", "sketch_k", "count", "_samples", "_centroids")

    def __init__(self, cap=DEFAULT_DIGEST_CAP, sketch_k=SKETCH_K):
        self.cap = cap
        self.sketch_k = sketch_k
        self.count = 0
        self._samples = []
        self._centroids = None    # compressed: [(value, weight), ...]

    @property
    def exact(self):
        return self._centroids is None

    def add(self, value):
        self.count += 1
        self._samples.append(value)
        if self._centroids is not None or len(self._samples) > self.cap:
            self._compress()

    def _compress(self):
        """Collapse everything seen so far into ≤ sketch_k centroids.

        Each centroid is an actual sample (the median of a contiguous
        run of the sorted data) weighted by the run length; the first
        and last runs pin the min and max so extremes survive. The
        quantile error of the expansion is bounded by the value span
        of one run.
        """
        # no need to expand old centroids: merge them with the fresh
        # samples as weighted points, then re-bucket by cumulative weight
        points = sorted(list(self._centroids or [])
                        + [(s, 1) for s in self._samples])
        total = sum(w for _, w in points)
        k = min(self.sketch_k, total)
        centroids = []
        target = total / k
        run_weight = 0
        run_points = []
        for value, weight in points:
            run_points.append((value, weight))
            run_weight += weight
            if run_weight >= target and len(centroids) < k - 1:
                centroids.append((_weighted_median(run_points), run_weight))
                run_weight = 0
                run_points = []
        if run_points:
            centroids.append((_weighted_median(run_points), run_weight))
        # pin extremes: carve one unit off the first/last centroid
        lo, lo_w = centroids[0]
        hi, hi_w = centroids[-1]
        first = points[0][0]
        last = points[-1][0]
        if lo != first and lo_w > 1:
            centroids[0] = (lo, lo_w - 1)
            centroids.insert(0, (first, 1))
        if hi != last and hi_w > 1:
            centroids[-1] = (hi, hi_w - 1)
            centroids.append((last, 1))
        self._centroids = centroids
        self._samples = []

    def items(self):
        """Ascending ``(value, integer weight)`` pairs."""
        if self._centroids is not None:
            return list(self._centroids)
        return [(value, 1) for value in sorted(self._samples)]

    def summary(self):
        """``{count, mean, p50, p99, max}`` (NaNs when empty)."""
        items = self.items()
        if not items:
            nan = float("nan")
            return {"count": 0, "mean": nan, "p50": nan, "p99": nan,
                    "max": nan}
        total = sum(w for _, w in items)
        mean = sum(v * w for v, w in items) / total
        return {
            "count": self.count,
            "mean": mean,
            "p50": quantiles.percentile_weighted(items, 50),
            "p99": quantiles.percentile_weighted(items, 99),
            "max": items[-1][0],
        }


def _weighted_median(points):
    """Median value of ascending weighted ``(value, weight)`` points."""
    return quantiles.percentile_weighted(points, 50)


def merge_digests(digests):
    """Merge digests into ``(items, exact)``.

    ``items`` is the ascending weighted multiset union; ``exact`` is
    True when every contributing digest still held raw samples, in
    which case quantiles of ``items`` equal quantiles of the original
    sample list bit-for-bit.
    """
    items = []
    exact = True
    for digest in digests:
        items.extend(digest.items())
        exact = exact and digest.exact
    items.sort()
    return items, exact
