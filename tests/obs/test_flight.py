"""Flight recorder: off by default, bounded, causally attributed.

Three guarantees under test: (1) an armed recorder never perturbs
simulated time and the unarmed path stays a single ``is None`` check;
(2) the ring bound is honest — eviction is visible, not silent; (3)
events land on the right operation: fault injections recorded deep in
the fabric carry the id of the client op whose message they hit, and
retransmissions share a stable ``logical_id`` across fresh request
ids.
"""

import pytest

from repro.bench.harness import run_point
from repro.obs import FlightRecorder
from repro.prism.recycler import RecyclerDaemon
from repro.sim import Simulator
from repro.workload import YCSB_A, YCSB_C, YcsbTransactionalWorkload

CLIENTS = 4
KEYS = 400
FAULTS = "seed=3,drop=0.02"


def _workloads(index):
    return YCSB_C(KEYS, zipf=0.9, seed=11, client_id=index)


def _run(**kwargs):
    return run_point("kv", "prism-sw", _workloads, CLIENTS,
                     n_keys=KEYS, warmup_us=100.0, measure_us=500.0,
                     **kwargs)


def test_flight_is_off_by_default():
    assert Simulator().flight is None


def test_flight_does_not_perturb_simulated_time():
    bare = _run()
    recorded = _run(flight=FlightRecorder())
    assert recorded == bare


def test_flight_does_not_perturb_faulted_runs():
    bare = _run(faults=FAULTS)
    recorded = _run(faults=FAULTS, flight=FlightRecorder())
    assert recorded == bare


def test_ops_open_and_close_in_pairs():
    flight = FlightRecorder()
    _run(flight=flight)
    assert flight.ops_opened > 0
    assert flight.ops_closed == flight.ops_opened
    kinds = {event["kind"] for event in flight.events}
    assert {"op.open", "op.close", "req.send", "req.reply"} <= kinds


def test_ring_evicts_oldest_and_keeps_seq_monotone():
    flight = FlightRecorder(capacity=64)
    _run(flight=flight)
    events = flight.events
    assert len(events) == 64
    assert flight.recorded > 64
    assert flight.evicted == flight.recorded - 64
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs)
    # The survivors are exactly the newest `capacity` appends.
    assert seqs[-1] == flight.recorded - 1
    assert seqs[0] == flight.evicted


def test_capacity_must_be_positive():
    import pytest
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_fault_events_carry_the_victim_operation():
    """A drop injected in the fabric lands on the client op whose
    message was hit — the whole point of context inheritance."""
    flight = FlightRecorder()
    _run(faults=FAULTS, flight=flight)
    drops = [e for e in flight.events if e["kind"] == "fault.drop"]
    assert drops, "the seeded plan should have dropped something"
    open_ops = {e["op"] for e in flight.events if e["kind"] == "op.open"}
    attributed = [e for e in drops if e["op"] in open_ops]
    assert attributed, "drops should attribute to real client ops"
    # And the op whose message was dropped should show the recovery arc
    # in its own story: a timeout then a fresh send, same logical id.
    victim = attributed[0]
    story = [e for e in flight.events if e["op"] == victim["op"]]
    logicals = [e.get("logical") for e in story
                if e["kind"] == "req.send"]
    assert victim["logical"] in logicals


def test_retransmissions_share_a_logical_id():
    flight = FlightRecorder()
    _run(faults=FAULTS, flight=flight)
    sends = [e for e in flight.events if e["kind"] == "req.send"]
    by_logical = {}
    for event in sends:
        by_logical.setdefault(event["logical"], []).append(event["req"])
    retried = {logical: reqs for logical, reqs in by_logical.items()
               if len(reqs) > 1}
    assert retried, "a 2% drop plan must force some retransmission"
    for reqs in retried.values():
        # Fresh per-attempt request ids under one stable logical id.
        assert len(set(reqs)) == len(reqs)


def test_crash_events_are_global():
    flight = FlightRecorder()
    run_point("rs", "prism-sw",
              lambda i: YCSB_A(KEYS, zipf=0.9, seed=17, client_id=i),
              CLIENTS, n_keys=KEYS, warmup_us=100.0, measure_us=500.0,
              faults="seed=5,crash=replica1@200+150", flight=flight)
    kinds = {e["kind"]: e for e in flight.events}
    assert "fault.crash" in kinds
    assert "fault.recover" in kinds
    # Crash timers belong to no operation; every other event has one.
    _assert_attributed(flight.events)
    assert kinds["fault.crash"]["op"] is None
    assert kinds["fault.crash"]["host"] == "replica1"
    assert kinds["fault.recover"]["host"] == "replica1"


def test_dump_round_trips(tmp_path):
    from repro.obs import load_flight_dump
    flight = FlightRecorder(capacity=256)
    _run(flight=flight)
    path = flight.dump(tmp_path / "flight.json")
    loaded = load_flight_dump(path)
    assert loaded == flight.to_dict()
    assert loaded["capacity"] == 256
    assert loaded["evicted"] == loaded["recorded"] - len(loaded["events"])


# -- attribution: every event names its operation ---------------------------

#: the only kinds with no operation to blame: crash timers and the
#: free-list starvation schedule run outside any client operation
GLOBAL_KINDS = {"fault.crash", "fault.recover", "fault.starve",
                "fault.restore"}

#: faulted points of every application family, closed and open loop
ATTRIBUTION_POINTS = {
    "kv/prism-sw": ("kv", "prism-sw", YCSB_A, "seed=3,drop=0.02,dup=0.02"),
    "rs/prism-sw": ("rs", "prism-sw", YCSB_A,
                    "seed=3,drop=0.01,dup=0.01,jitter=1.5"),
    "rs/abdlock-sw": ("rs", "abdlock-sw", YCSB_A, "seed=3,drop=0.01,dup=0.01"),
    "tx/prism-sw": ("tx", "prism-sw", YcsbTransactionalWorkload,
                    "seed=3,dup=0.01,crash=server@300+100"),
    "tx/farm-sw": ("tx", "farm-sw", YcsbTransactionalWorkload,
                   "seed=4,dup=0.1"),
}


def _attributed_run(kind, flavor, workload, faults):
    flight = FlightRecorder()
    run_point(kind, flavor,
              lambda i: workload(KEYS, zipf=0.9, seed=5, client_id=i),
              CLIENTS, n_keys=KEYS, warmup_us=100.0, measure_us=400.0,
              faults=faults, flight=flight)
    assert flight.evicted == 0
    return flight.events


def _assert_attributed(events):
    opened = {e["op"] for e in events if e["kind"] == "op.open"}
    orphans = [e for e in events
               if e["kind"] not in GLOBAL_KINDS and e["op"] not in opened]
    assert not orphans, orphans[:3]
    assert all(e["op"] is None for e in events if e["kind"] in GLOBAL_KINDS)


def _assert_flushes_carry_their_launcher(events):
    """A retire flush is launched by the install that displaced the
    buffers, so its report is that operation's: one which, before the
    report, sent an install chain to the server it reports to."""
    installs = set()
    flushes = 0
    for event in events:
        if event["kind"] == "chain.submit" and "ALLOCATE" in event["kinds"]:
            installs.add((event["op"], event["server"]))
        elif (event["kind"] == "rpc.submit"
              and event["method"] == RecyclerDaemon.METHOD):
            flushes += 1
            assert (event["op"], event["server"]) in installs, event
    return flushes


@pytest.mark.parametrize("point", sorted(ATTRIBUTION_POINTS))
def test_every_event_but_a_global_one_names_its_operation(point):
    events = _attributed_run(*ATTRIBUTION_POINTS[point])
    kinds = {e["kind"] for e in events}
    assert {"op.open", "req.send", "req.reply"} <= kinds
    if point == "tx/prism-sw":  # the crash window's plan
        assert {"fault.crash", "fault.recover", "fault.crash_drop"} <= kinds
    _assert_attributed(events)
    if point in ("kv/prism-sw", "rs/prism-sw", "tx/prism-sw"):
        assert _assert_flushes_carry_their_launcher(events) > 0


def test_an_open_loop_arrivals_events_name_its_operation():
    flight = FlightRecorder()
    run_point("kv", "prism-sw", None, 100000, n_keys=KEYS, warmup_us=100.0,
              measure_us=400.0, faults="seed=1,drop=0.01,dup=0.005,jitter=2",
              source_model={"rate_per_client_ops_s": 20.0,
                            "read_fraction": 0.5, "seed": 1},
              flight=flight)
    events = flight.events
    assert flight.evicted == 0
    assert {e["kind"] for e in events} >= {"fault.drop", "fault.dup"}
    _assert_attributed(events)
    assert _assert_flushes_carry_their_launcher(events) > 0

