"""Primitive-level telemetry: what the PRISM primitives *did*.

Where :mod:`repro.obs.timeline` answers "which resource was busy",
this layer answers the semantic questions the paper's §4–§8 arguments
turn on: how often did the enhanced CAS miss, and on which addresses?
How deep did indirect reads chase pointers? How long were the chains,
and why did they abort? How close did ALLOCATE come to draining a free
list? Which application keys were hot?

A :class:`PrimitiveCollector` is a subscriber of the probe bus, under
its install contract (``sim.attach(collector)`` *before* system
construction; off by default, bit-identical when on; see
:mod:`repro.obs.bus`): it only increments counters as the engine,
servers, and app clients emit.

Heavy-hitter sketches use the SpaceSaving algorithm (:class:`TopK`):
bounded memory, deterministic (ties broken by insertion order, and the
simulator itself is deterministic), with a per-entry overestimation
bound so reports can show how trustworthy each count is.
"""

from repro.core.chain import abort_reason
from repro.obs.bus import Observer


class TopK:
    """SpaceSaving heavy-hitter sketch over at most ``k`` keys.

    ``note(key)`` costs O(k) worst case (a min scan on eviction) and
    O(1) when the key is tracked; counts of surviving keys are exact
    for exact-fitting streams and otherwise overestimates by at most
    the recorded ``max_overestimate``.
    """

    __slots__ = ("k", "total", "_counts")

    def __init__(self, k=16):
        if k < 1:
            raise ValueError("TopK needs k >= 1")
        self.k = k
        self.total = 0
        self._counts = {}  # key -> [count, max_overestimate]

    def note(self, key, weight=1):
        self.total += weight
        entry = self._counts.get(key)
        if entry is not None:
            entry[0] += weight
            return
        if len(self._counts) < self.k:
            self._counts[key] = [weight, 0]
            return
        # Evict the current minimum; the newcomer inherits its count
        # as the overestimation bound (classic SpaceSaving).
        victim = min(self._counts, key=lambda k: self._counts[k][0])
        floor = self._counts.pop(victim)[0]
        self._counts[key] = [floor + weight, floor]

    def __len__(self):
        return len(self._counts)

    def __contains__(self, key):
        return key in self._counts

    def count(self, key):
        entry = self._counts.get(key)
        return entry[0] if entry is not None else 0

    def top(self, n=None):
        """Ranked entries, heaviest first (ties by key repr)."""
        ranked = sorted(self._counts.items(),
                        key=lambda item: (-item[1][0], str(item[0])))
        if n is not None:
            ranked = ranked[:n]
        return [{"key": key, "count": count, "max_overestimate": err}
                for key, (count, err) in ranked]


def _bump(histogram, bucket, weight=1):
    histogram[bucket] = histogram.get(bucket, 0) + weight


def _hist_items(histogram):
    """A histogram dict as sorted ``[[bucket, count], ...]`` (JSON-safe)."""
    return [[bucket, histogram[bucket]] for bucket in sorted(histogram)]


def _op_hops(op):
    """Pointer dereferences an op descriptor will perform (0–2)."""
    return (int(getattr(op, "indirect", False))
            + int(getattr(op, "addr_indirect", False))
            + int(getattr(op, "target_indirect", False))
            + int(getattr(op, "data_indirect", False)))


class PrimitiveCollector(Observer):
    """Semantic counters for CAS, indirect reads, chains, ALLOCATE,
    and app-level key hotness. See the module docstring for the
    install pattern and the bit-identical guarantee."""

    def __init__(self, top_k=16):
        self.top_k = top_k
        # -- enhanced CAS -------------------------------------------------
        self.cas_attempts = 0
        self.cas_misses = 0
        self.cas_by_mode = {}        # mode value -> {"ok": n, "miss": n}
        self.cas_hot_targets = TopK(top_k)    # every attempt
        self.cas_contended = TopK(top_k)      # misses only
        self.cas_retry_chains = {}   # streak length -> count (closed streaks)
        self._miss_streaks = {}      # (connection_id, target) -> live streak
        # -- pointer chasing ----------------------------------------------
        self.deref_depth = {}        # opname -> {hops: count}
        self.bounded_reads = 0
        # -- chains -------------------------------------------------------
        self.chains = 0
        self.chains_committed = 0
        self.chains_aborted = 0
        self.chains_retransmitted = 0
        self._seen_logicals = set()
        self.chain_lengths = {}      # ops per chain -> count
        self.chain_hops = {}         # total derefs per chain -> count
        self.chain_abort_reasons = {}
        self.ops_executed = 0
        self.ops_skipped = 0
        self.nak_reasons = {}        # opname -> {error class name: count}
        # -- ALLOCATE / free lists ----------------------------------------
        self.alloc_pops = {}         # freelist id -> count
        self.alloc_exhaustions = {}  # freelist id -> count
        self.alloc_low_watermark = {}  # freelist id -> min depth seen
        self._freelists = {}         # freelist id -> QueuePair
        # -- app-level key hotness ----------------------------------------
        self.key_hotness = {}        # app -> TopK
        self.key_ops = {}            # app -> {op kind: count}

    def bind(self, sim):
        """Nothing to bind: the counters never read the clock."""
        return self

    def subscribe(self, bus):
        bus.subscribe("cas.attempt",
                      lambda target, mode, swapped, conn:
                      self.note_cas(conn, target, mode, swapped))
        bus.subscribe("op.deref",
                      lambda opname, hops, bounded, conn:
                      self.note_deref(opname, hops, bounded))
        bus.subscribe("op.nak",
                      lambda opname, error, op, conn:
                      self.note_nak(opname, error))
        bus.subscribe("chain.done", self.note_chain)
        bus.subscribe("freelist.register", self.register_freelist)
        bus.subscribe("alloc.pop", self.note_allocate)
        bus.subscribe("alloc.exhausted", self.note_exhaustion)
        bus.subscribe("app.key", self.note_key)

    # -- engine hooks ------------------------------------------------------

    def note_cas(self, connection_id, target, mode, swapped):
        """One CAS attempt on ``target``; ``swapped`` is the outcome."""
        self.cas_attempts += 1
        self.cas_hot_targets.note(target)
        outcomes = self.cas_by_mode.setdefault(mode.value,
                                               {"ok": 0, "miss": 0})
        streak_key = (connection_id, target)
        if swapped:
            outcomes["ok"] += 1
            streak = self._miss_streaks.pop(streak_key, 0)
            if streak:
                _bump(self.cas_retry_chains, streak)
        else:
            outcomes["miss"] += 1
            self.cas_misses += 1
            self.cas_contended.note(target)
            self._miss_streaks[streak_key] = \
                self._miss_streaks.get(streak_key, 0) + 1

    def note_deref(self, opname, hops, bounded=False):
        """Pointer-chase depth of one executed op (0 = direct)."""
        _bump(self.deref_depth.setdefault(opname, {}), hops)
        if bounded:
            self.bounded_reads += 1

    def note_nak(self, opname, error):
        """An op hard-NAK'd; remember why, by error class (``error`` is
        the exception, or its class name as ``op.nak`` carries it)."""
        _bump(self.nak_reasons.setdefault(opname, {}),
              error if isinstance(error, str) else type(error).__name__)

    def note_chain(self, ops, results, logical=None, reason=None):
        """One finished request: its ops and their OpResults in order.

        ``logical`` is the stable logical-request id from the client's
        envelope (None for callers outside the request path). A repeat
        execution of an already-seen logical id is a retransmission —
        counted separately so chain statistics can report logical
        requests without double-counting retried ones. ``reason`` is
        the abort reason the ``chain.done`` event carries; callers
        without one get the same :func:`~repro.core.chain.abort_reason`.
        """
        self.chains += 1
        if logical is not None:
            if logical in self._seen_logicals:
                self.chains_retransmitted += 1
            else:
                self._seen_logicals.add(logical)
        _bump(self.chain_lengths, len(ops))
        _bump(self.chain_hops, sum(_op_hops(op) for op in ops))
        statuses = [result.status.value for result in results]
        self.ops_skipped += sum(1 for s in statuses if s == "skipped")
        self.ops_executed += sum(1 for s in statuses if s != "skipped")
        if statuses and statuses[-1] == "ok":
            self.chains_committed += 1
            return
        self.chains_aborted += 1
        _bump(self.chain_abort_reasons,
              reason if reason is not None else abort_reason(results))

    def register_freelist(self, freelist_id, freelist):
        """Track a free list from creation so the watermark report
        covers queues ALLOCATE never popped (full occupancy)."""
        self._freelists.setdefault(freelist_id, freelist)

    def note_allocate(self, freelist_id, freelist):
        """A successful free-list pop; track the post-pop low watermark."""
        self._freelists.setdefault(freelist_id, freelist)
        _bump(self.alloc_pops, freelist_id)
        depth = len(freelist)
        low = self.alloc_low_watermark.get(freelist_id)
        if low is None or depth < low:
            self.alloc_low_watermark[freelist_id] = depth

    def note_exhaustion(self, freelist_id, freelist):
        """ALLOCATE found the free list empty."""
        self._freelists.setdefault(freelist_id, freelist)
        _bump(self.alloc_exhaustions, freelist_id)
        self.alloc_low_watermark[freelist_id] = 0

    # -- app hooks ---------------------------------------------------------

    def note_key(self, app, kind, key):
        """One application-level operation ``kind`` on ``key``."""
        sketch = self.key_hotness.get(app)
        if sketch is None:
            sketch = self.key_hotness[app] = TopK(self.top_k)
        sketch.note(key)
        _bump(self.key_ops.setdefault(app, {}), kind)

    # -- reporting ---------------------------------------------------------

    def report(self, top=None):
        """JSON-ready snapshot of every counter family."""
        top = top or self.top_k
        open_streaks = sum(1 for s in self._miss_streaks.values() if s)
        miss_rate = (self.cas_misses / self.cas_attempts
                     if self.cas_attempts else 0.0)
        allocator_rows = []
        for freelist_id in sorted(self._freelists):
            freelist = self._freelists[freelist_id]
            depth = len(freelist)
            capacity = getattr(freelist, "high_watermark", 0) or depth
            allocator_rows.append({
                "freelist": freelist_id,
                "name": freelist.name,
                "buffer_bytes": freelist.buffer_size,
                "depth": depth,
                "capacity": capacity,
                "occupancy": (1.0 - depth / capacity) if capacity else 0.0,
                "pops": self.alloc_pops.get(freelist_id, 0),
                "exhaustions": self.alloc_exhaustions.get(freelist_id, 0),
                "low_watermark": self.alloc_low_watermark.get(freelist_id,
                                                              depth),
                "lifetime_low_watermark": getattr(freelist, "low_watermark",
                                                  depth),
                "posted": freelist.total_posted,
                "popped": freelist.total_popped,
            })
        return {
            "cas": {
                "attempts": self.cas_attempts,
                "misses": self.cas_misses,
                "miss_rate": miss_rate,
                "by_mode": {mode: dict(outcomes) for mode, outcomes
                            in sorted(self.cas_by_mode.items())},
                "contended_topk": self.cas_contended.top(top),
                "hot_targets_topk": self.cas_hot_targets.top(top),
                "retry_chains": _hist_items(self.cas_retry_chains),
                "open_retry_chains": open_streaks,
            },
            "pointer_chase": {
                "depth_by_op": {opname: _hist_items(hist) for opname, hist
                                in sorted(self.deref_depth.items())},
                "bounded_reads": self.bounded_reads,
            },
            "chains": {
                "requests": self.chains,
                "committed": self.chains_committed,
                "aborted": self.chains_aborted,
                "retransmitted_executions": self.chains_retransmitted,
                "logical_requests": self.chains - self.chains_retransmitted,
                "lengths": _hist_items(self.chain_lengths),
                "hops": _hist_items(self.chain_hops),
                "abort_reasons": dict(sorted(
                    self.chain_abort_reasons.items())),
                "ops_executed": self.ops_executed,
                "ops_skipped": self.ops_skipped,
                "nak_reasons": {opname: dict(sorted(reasons.items()))
                                for opname, reasons
                                in sorted(self.nak_reasons.items())},
            },
            "allocator": allocator_rows,
            "keys": {
                app: {
                    "ops": dict(sorted(self.key_ops.get(app, {}).items())),
                    "topk": sketch.top(top),
                    "total": sketch.total,
                }
                for app, sketch in sorted(self.key_hotness.items())
            },
        }
