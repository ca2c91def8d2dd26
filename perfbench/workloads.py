"""The four workloads, and the one way the benchmark runs a simulation point.

Every workload uses the harness defaults the figure sweeps use (20 000 keys of
512 B, ``RACK`` topology, 300 us warm-up). ``--seed`` feeds the YCSB streams,
the open-loop sources and the fault plan; the program receives only the
generated operations. ``measure_us`` is sized so that one repeat costs roughly
a second of host time on the 2-core box the benchmark was sized on.
"""

import functools
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

from repro.bench import harness
from repro.faults import FaultPlan
from repro.workload.ycsb import YCSB_A, YCSB_C, YcsbTransactionalWorkload

N_KEYS = 20_000
VALUE_SIZE = 512
WARMUP_US = 300.0

#: fault-injector counters that belong to a run's simulated record
FAULT_COUNTERS = ("messages_dropped", "messages_duplicated",
                  "messages_delayed", "retransmissions", "timeouts",
                  "retries_exhausted", "recycles_abandoned")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fully specified ``run_point`` call."""

    name: str
    why: str
    kind: str
    flavor: str
    clients: int
    measure_us: float
    #: "values": every GET must return the loaded value (read-only
    #: workloads); "history": a small hot-key history goes through the
    #: linearizability / serializability checker instead
    audit: str = None
    #: closed loop: ``ycsb(seed, client_index)`` builds a client's stream
    ycsb: object = None
    #: open loop: the harness ``source_model`` minus its seed
    source: object = None
    #: ``FaultPlan`` arguments minus the seed
    faults: object = None

    def point(self, seed, scale):
        """Positional and keyword arguments for ``run_point``."""
        kwargs = dict(n_keys=N_KEYS, value_size=VALUE_SIZE,
                      warmup_us=WARMUP_US,
                      measure_us=self.measure_us * scale)
        if self.source is not None:
            kwargs["source_model"] = dict(self.source, seed=seed)
        if self.faults is not None:
            kwargs["faults"] = FaultPlan(seed=seed, **self.faults)
        factory = None
        if self.ycsb is not None:
            factory = lambda client_index: self.ycsb(seed, client_index)
        return (self.kind, self.flavor, factory, self.clients), kwargs


def ycsb_c(seed, client_index):
    return YCSB_C(N_KEYS, value_size=VALUE_SIZE, seed=seed,
                  client_id=client_index)


def ycsb_a(seed, client_index):
    return YCSB_A(N_KEYS, value_size=VALUE_SIZE, seed=seed,
                  client_id=client_index)


def ycsb_t(seed, client_index):
    return YcsbTransactionalWorkload(
        N_KEYS, keys_per_txn=2, value_size=VALUE_SIZE, zipf=0.4, seed=seed,
        client_id=client_index)


WORKLOADS = (
    Workload(
        name="kv_read",
        why="closed loop, 32 clients, PRISM-KV on prism-hw, YCSB-C uniform: "
            "one indirect READ per op, so kernel and message delivery do "
            "the work; allocator, codec, RPC and faults are bypassed",
        kind="kv", flavor="prism-hw", clients=32, measure_us=1200.0,
        audit="values", ycsb=ycsb_c),
    Workload(
        name="rs_mixed",
        why="closed loop, 24 clients, PRISM-RS on prism-sw, 3 replicas, "
            "YCSB-A uniform: quorum fan-out and ALLOCATE-WRITE-CAS install "
            "chains load engine, allocator, memory and the CPU core pool",
        kind="rs", flavor="prism-sw", clients=24, measure_us=600.0,
        audit="history", ycsb=ycsb_a),
    Workload(
        name="tx_farm_skewed",
        why="closed loop, 32 clients, FaRM on farm-sw, YCSB-T 2 keys/txn, "
            "Zipf 0.4: the only workload on the classic verbs + eRPC + CPU "
            "dispatch path, with Zipf sampling and a few abort/retry loops",
        kind="tx", flavor="farm-sw", clients=32, measure_us=2200.0,
        audit="history", ycsb=ycsb_t),
    Workload(
        name="kv_open_chaos",
        why="open loop, 100000 modeled clients x 20 ops/s = 2.0 Mops/s "
            "offered, PRISM-KV on prism-sw, reads, Zipf 0.99, drop 1% dup "
            "0.5% jitter 2 us: a process per arrival and cancelled timers",
        kind="kv", flavor="prism-sw", clients=100_000, measure_us=3500.0,
        audit="values",
        source={"rate_per_client_ops_s": 20.0, "read_fraction": 1.0,
                "zipf": 0.99},
        faults={"drop": 0.01, "duplicate": 0.005, "jitter_us": 2.0}),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def loaded_value(key):
    """The value the harness bulk-loads for ``key``.

    Written out here on purpose: the audit's reference must not come from
    the program under test, so this restates the loader's formula rather
    than importing it.
    """
    return bytes((key * 31 + i) % 256 for i in range(8)) * (VALUE_SIZE // 8)


class OpCounter:
    """Counts operations where the driver hands them to the application.

    ``attempted`` is every operation an executor was called with, warm-up
    and tail included, which is the denominator of the per-op metrics.
    With ``check_values`` each GET goes through the client's ``get`` (the
    call ``execute`` itself makes) and its value is compared with the
    loaded one.
    """

    def __init__(self, check_values=False):
        self.check_values = check_values
        self.attempted = 0
        self.gets_checked = 0
        self.wrong_values = 0

    def wrap(self, execute):
        if self.check_values:
            return self._checked(execute)

        # functools.wraps keeps the signature the driver inspects for a
        # ``span`` parameter; this adds a call, not a generator frame.
        @functools.wraps(execute)
        def counted(op, **kwargs):
            self.attempted += 1
            return execute(op, **kwargs)
        return counted

    def _checked(self, execute):
        client = execute.__self__

        def checked(op):
            self.attempted += 1
            if op.kind != "get":
                return (yield from execute(op))
            value = yield from client.get(op.key)
            self.gets_checked += 1
            if value != loaded_value(op.key):
                self.wrong_values += 1
            return None
        return checked


@contextmanager
def observed(counter, after_build=None):
    """Route every executor the harness hands out through ``counter``.

    ``run_point`` builds its system through ``harness.build_system``; the
    benchmark wraps that public function for the duration of one call so it
    can stand at the driver/application boundary without editing either.
    ``after_build`` runs once the servers are built and bulk-loaded, which
    is where the cProfile pass starts its clock.
    """
    real_build = harness.build_system

    def build_system(*args, **kwargs):
        system = real_build(*args, **kwargs)
        make_executor = system.executor
        system.executor = lambda index, host: counter.wrap(
            make_executor(index, host))
        if after_build is not None:
            after_build()
        return system

    with mock.patch.object(harness, "build_system", build_system):
        yield


def simulated_record(result, attempted):
    """Everything simulated about a run; must repeat exactly."""
    faults = result.extra.get("faults", {})
    return {
        "attempted": attempted,
        "ops": result.ops,
        "throughput_ops_per_sec": result.throughput_ops_per_sec,
        "mean_latency_us": result.mean_latency_us,
        "median_latency_us": result.median_latency_us,
        "p99_latency_us": result.p99_latency_us,
        "aborts": result.aborts,
        "retries": result.retries,
        "events_executed": result.extra["events_executed"],
        "stalled_arrivals": result.extra.get("stalled_arrivals", 0),
        "faults": {name: faults.get(name, 0) for name in FAULT_COUNTERS},
    }


@dataclass
class Repeat:
    """One ``run_point`` call as the benchmark saw it."""

    record: dict
    result: object
    wall_s: float      # the simulated run itself, as run_point timed it
    total_s: float     # the whole call: set-up, run and summary
    peak_rss_mb: float  # the process's ru_maxrss once the call returned


def run_once(workload, seed, scale, counter, after_build=None, **collectors):
    """Run ``workload`` once through ``run_point``; returns a :class:`Repeat`.

    The caller owns ``counter`` so that it still knows how many operations
    were attempted when the run raises.
    """
    args, kwargs = workload.point(seed, scale)
    kwargs.update(collectors)
    with observed(counter, after_build):
        start = time.perf_counter()
        result = harness.run_point(*args, **kwargs)
        total_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Repeat(simulated_record(result, counter.attempted), result,
                  result.wall_s, total_s, peak_rss_mb)
