"""Aggregated open-loop arrival sources: thousands of clients per stream.

A fig-scale sweep with 10⁵–10⁶ *closed-loop* client coroutines is not
feasible in a CI budget: every client costs a generator frame, a stagger
timer, and a per-op resume chain, so the kernel's events/sec ceiling is
spent on bookkeeping rather than on the system under test. This module
trades per-client coroutines for **aggregated sources**, exploiting a
standard identity: the superposition of ``n`` independent Poisson
processes with rate λ is itself a Poisson process with rate ``nλ``. One
arrival stream drawing exponential inter-arrival gaps at the aggregate rate
reproduces the *arrival process* of the whole client population exactly
— so a source modeling 100 000 clients costs the kernel the same per-op
work as one client, and sweeps into the Storm-style many-thousands-of-
connections regimes fit inside CI.

Fidelity caveats (documented in ``docs/performance.md``):

* **Open loop, not closed loop.** A closed-loop client waits for its
  previous op before issuing the next, so its offered load backs off
  under server congestion. An open-loop source keeps arriving at the
  configured rate regardless — the right model for "many independent
  clients each issuing rarely", the wrong one for "few clients
  hammering". The bounded in-flight ``window`` restores backpressure at
  saturation: when the window is full, arrivals *defer* (they queue
  behind the stall, counted in ``stalled_arrivals``) rather than drop,
  so a saturated source degrades gracefully into window-limited
  closed-loop behaviour — exactly what a real bounded client pool does.
* **Shared connection state.** All ops of one source ride one client
  adapter (one request channel, one reply service), so per-client NIC
  state (QP caches, channel depth telemetry) is per-source, not
  per-modeled-client. Spread the population over several sources (the
  driver default is one per client host) when that matters.
* **Key streams.** Keys come from one shared distribution per source
  (batched draws, see :meth:`repro.workload.keydist.UniformKeys.
  sample_block`), not one stream per modeled client. Aggregate key
  popularity — what contention experiments measure — is identical;
  per-client key locality is not modeled.

Determinism: all randomness (gaps, keys, read/write coin) derives from
``seed`` and ``source_id`` via independent PCG64 streams, so a given
configuration replays bit-identically.
"""

import numpy as np

from repro.workload.keydist import make_distribution
from repro.workload.ycsb import DEFAULT_VALUE_SIZE, KvOp

#: draws buffered per vectorized RNG call; amortizes numpy call
#: overhead without holding large arrays per source
_BLOCK = 256


class AggregatedOpenLoopSource:
    """``n_clients`` open-loop clients folded into one arrival stream.

    Each modeled client issues ops as a Poisson process at
    ``rate_per_client_ops_s``; the source draws inter-arrival gaps from
    the exponential distribution at the aggregate rate. ``window``
    bounds ops in flight across the whole aggregate (default: one slot
    per 256 modeled clients, at least 1, at most 1024 — a deep enough
    pipe to saturate a server while keeping the heap O(window)).

    The read/write mix and key distribution mirror
    :class:`repro.workload.ycsb.YcsbWorkload` (YCSB-C at
    ``read_fraction=1.0``), with all draws batched.
    """

    def __init__(self, n_clients, rate_per_client_ops_s, n_keys,
                 read_fraction=1.0, value_size=DEFAULT_VALUE_SIZE,
                 zipf=0.0, seed=0, source_id=0, window=None):
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if rate_per_client_ops_s <= 0:
            raise ValueError("rate_per_client_ops_s must be > 0")
        self.n_clients = n_clients
        self.rate_per_client_ops_s = rate_per_client_ops_s
        self.n_keys = n_keys
        self.read_fraction = read_fraction
        self.value_size = value_size
        self.zipf = zipf
        self.seed = seed
        self.source_id = source_id
        #: mean inter-arrival gap of the aggregate process, simulated µs
        self.mean_gap_us = 1e6 / (n_clients * rate_per_client_ops_s)
        if window is None:
            window = max(1, min(n_clients // 256 + 1, 1024))
        self.window = window
        self.stalled_arrivals = 0
        self._keys = make_distribution(n_keys, zipf=zipf,
                                       seed=seed * 7919 + source_id,
                                       permutation_seed=seed)
        self._gaps_rng = np.random.default_rng(
            (seed * 104729 + source_id) ^ 0xA44)
        self._coin_rng = np.random.default_rng(
            (seed * 94907 + source_id) ^ 0xC01)
        self._payload = bytes((source_id + i) % 256
                              for i in range(value_size))
        self._gap_block = ()
        self._gap_next = 0
        self._key_block = ()
        self._key_next = 0
        self._coin_block = ()
        self._coin_next = 0
        self._op_cache = {}

    def next_gap_us(self):
        """Exponential inter-arrival gap at the aggregate rate."""
        index = self._gap_next
        block = self._gap_block
        if index >= len(block):
            block = self._gap_block = self._gaps_rng.exponential(
                self.mean_gap_us, size=_BLOCK).tolist()
            index = 0
        self._gap_next = index + 1
        return block[index]

    def next_op(self):
        """The next operation of the aggregate stream."""
        index = self._key_next
        block = self._key_block
        if index >= len(block):
            block = self._key_block = self._keys.sample_block(_BLOCK)
            index = 0
        self._key_next = index + 1
        key = block[index]
        if self.read_fraction >= 1.0 or self._next_coin() < self.read_fraction:
            op = self._op_cache.get(key)
            if op is None:
                op = self._op_cache[key] = KvOp("get", key)
            return op
        return KvOp("put", key, self._payload)

    def _next_coin(self):
        index = self._coin_next
        block = self._coin_block
        if index >= len(block):
            block = self._coin_block = self._coin_rng.random(_BLOCK).tolist()
            index = 0
        self._coin_next = index + 1
        return block[index]

    def describe(self):
        """Config dict recorded next to results (regress schema)."""
        return {
            "model": "aggregated-open-loop",
            "clients": self.n_clients,
            "rate_per_client_ops_s": self.rate_per_client_ops_s,
            "read_fraction": self.read_fraction,
            "zipf": self.zipf,
            "window": self.window,
            "seed": self.seed,
        }


def partition_clients(n_clients, n_sources):
    """Spread ``n_clients`` over ``n_sources`` (earlier get the rest)."""
    if n_sources < 1:
        raise ValueError("n_sources must be >= 1")
    n_sources = min(n_sources, n_clients)
    base, rest = divmod(n_clients, n_sources)
    return [base + (1 if i < rest else 0) for i in range(n_sources)]
