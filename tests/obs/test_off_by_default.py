"""Observability must be free when off and invisible when on.

The collectors (tracer, utilization, primitives) only read state at
transitions the run already makes, so a fully monitored run must be
*bit-identical* in simulated time to a bare one — same ops, same mean,
same p99, same abort count. This is the regression test that keeps
that guarantee honest.
"""

from repro.bench.harness import run_point
from repro.obs import (
    FlightRecorder,
    PrimitiveCollector,
    Tracer,
    UtilizationCollector,
)
from repro.workload import YCSB_A, YCSB_C

CLIENTS = 4
KEYS = 400


def _workloads(index):
    return YCSB_C(KEYS, zipf=0.9, seed=11, client_id=index)


def _run(**collectors):
    return run_point("kv", "prism-sw", _workloads, CLIENTS,
                     n_keys=KEYS, warmup_us=100.0, measure_us=500.0,
                     **collectors)


def test_all_collectors_do_not_perturb_simulated_time():
    bare = _run()
    monitored = _run(tracer=Tracer(),
                     utilization=UtilizationCollector(),
                     primitives=PrimitiveCollector())
    # RunResult is a dataclass: equality compares every measured field
    # (ops, throughput, mean/p50/p99 latency, aborts) exactly.
    assert monitored == bare


def test_primitives_alone_do_not_perturb_simulated_time():
    bare = _run()
    monitored = _run(primitives=PrimitiveCollector())
    assert monitored == bare


def test_collectors_saw_the_run():
    """The identical-timing run must still have *collected*."""
    primitives = PrimitiveCollector()
    tracer = Tracer()
    _run(tracer=tracer, primitives=primitives)
    report = primitives.report()
    assert report["chains"]["requests"] > 0
    assert report["keys"]["prism-kv"]["total"] > 0
    assert any(root.end is not None for root in tracer.roots)


def test_all_observers_do_not_perturb_a_chaos_point():
    """Drops, duplicates, jitter and a crash window, with the tracer,
    the utilization monitors and the flight recorder all armed: message
    delivery has one implementation, so the whole RunResult — kernel
    entries (``extra["events_executed"]``) and fault counters included —
    equals the bare run's."""
    def run(**observers):
        return run_point(
            "rs", "prism-sw",
            lambda index: YCSB_A(KEYS, zipf=0.9, seed=17, client_id=index),
            CLIENTS, n_keys=KEYS, warmup_us=100.0, measure_us=500.0,
            faults="seed=5,drop=0.02,dup=0.01,jitter=1.5,"
                   "crash=replica1@200+150",
            **observers)

    bare = run()
    flight = FlightRecorder()
    observed = run(tracer=Tracer(), utilization=UtilizationCollector(),
                   flight=flight)
    assert observed == bare
    assert bare.extra["events_executed"] > 0
    faults = bare.extra["faults"]
    assert faults["messages_duplicated"] and faults["crash_drops"]
    # The recorder saw the chaos, attributed to operations where one
    # was executing: delivery carries the sender's context.
    crash_drops = [event for event in flight.events
                   if event["kind"] == "fault.crash_drop"]
    assert crash_drops and any(event["op"] is not None
                               for event in crash_drops)
