"""The fan-out phase used by the replicated stores and sharded
PRISM-TX: its results, its legs driven as processes are, and its kernel
entries pinned at zero tolerance."""

import gc

import pytest

from repro.apps.blockstore import (
    AbdLockClient,
    AbdLockReplica,
    PrismRsClient,
    PrismRsReplica,
)
from repro.apps.tx import PrismTxServer
from repro.apps.tx.sharded import ShardedPrismTxClient, load_sharded
from repro.faults import parse_faults
from repro.net.topology import RACK, make_fabric
from repro.obs import HostProfiler
from repro.prism import HardwareRdmaBackend, SoftwarePrismBackend
from repro.sim import Interrupt, Phase, QuorumError, SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.kernel import _Task


def _op(sim, delay, value=None, fail=False, seen=None):
    """A leg: one timed wait, then its post-processing (logged in
    ``seen`` as ``(value, now)``)."""
    def gen():
        yield sim.timeout(delay)
        if seen is not None:
            seen.append((value, sim.now))
        if fail:
            raise RuntimeError("replica down")
        return value
    return gen()


def test_returns_after_need_successes(sim, drive):
    def main():
        replies = yield Phase(
            sim, [_op(sim, 1, "a"), _op(sim, 2, "b"), _op(sim, 50, "c")],
            need=2)
        return replies, sim.now
    replies, when = drive(sim, main())
    assert when == 2.0  # did not wait for the 50 µs straggler
    assert sorted(replies) == [(0, "a"), (1, "b")]


def test_straggler_still_completes(sim, drive):
    seen = []
    def main():
        replies = yield Phase(sim, [_op(sim, 1, "x", seen=seen),
                                    _op(sim, 10, "late", seen=seen)], need=1)
        return replies, sim.now
    assert drive(sim, main()) == ([(0, "x")], 1.0)
    sim.run()  # background completion: post-processed, counted nowhere
    assert seen == [("x", 1.0), ("late", 10.0)]


def test_tolerates_failures_below_threshold(sim, drive):
    def main():
        replies = yield Phase(
            sim, [_op(sim, 1, fail=True), _op(sim, 2, "ok1"),
                  _op(sim, 3, "ok2")], need=2)
        return [v for _i, v in replies]
    assert drive(sim, main()) == ["ok1", "ok2"]


def test_too_many_failures_raise(sim, drive):
    def main():
        with pytest.raises(QuorumError, match="2 of 3 legs failed, 2 needed"):
            yield Phase(sim, [_op(sim, 1, fail=True), _op(sim, 2, fail=True),
                              _op(sim, 9, "ok")], need=2)
        return sim.now
    assert drive(sim, main()) == 2.0  # the failure that made it unreachable


def test_need_exceeding_total_rejected(sim):
    with pytest.raises(QuorumError, match="need 3 of only 2 legs"):
        Phase(sim, [_op(sim, 1), _op(sim, 1)], need=3)
    assert not sim._ready  # rejected at construction: no leg started


def test_indices_identify_replicas(sim, drive):
    def main():
        return (yield Phase(sim, [_op(sim, 3, "slow"), _op(sim, 1, "fast")],
                            need=1))
    assert drive(sim, main()) == [(1, "fast")]


def test_successes_come_in_completion_order(sim, drive):
    def main():
        return (yield Phase(sim, [_op(sim, 3, "c"), _op(sim, 1, "a"),
                                  _op(sim, 2, "b")]))
    assert drive(sim, main()) == [(1, "a"), (2, "b"), (0, "c")]


def test_settling_waits_for_every_leg_and_consumes_failures(sim, drive):
    def main():
        replies = yield Phase(sim, [_op(sim, 1, "a"), _op(sim, 5, fail=True),
                                    _op(sim, 2, "b")])
        return replies, sim.now
    assert drive(sim, main()) == ([(0, "a"), (2, "b")], 5.0)


def test_a_leg_that_raises_before_it_waits_is_a_failed_leg(sim, drive):
    """As a leg process that raised in its bootstrap did: booked while
    the phase is built."""
    def broken():
        raise RuntimeError("no route")
        yield

    def main():
        settled = yield Phase(sim, [_op(sim, 1, 0), broken(), _op(sim, 3, 2)])
        with pytest.raises(QuorumError, match="no route"):
            yield Phase(sim, [_op(sim, 1, 0), broken()], need=2)
        return settled
    assert drive(sim, main()) == [(0, 0), (2, 2)]


def test_an_rs_install_straggler_still_retires(sim, app_fabric, drive):
    """The third replica's install completes after the put has returned;
    its post-processing still retires the buffer it displaced."""
    replicas = [PrismRsReplica(sim, app_fabric, f"r{i}",
                               SoftwarePrismBackend, n_blocks=8,
                               block_size=64)
                for i in range(3)]
    for replica in replicas:
        replica.load(0, b"o" * 64)
    client = PrismRsClient(sim, app_fabric, "c0", replicas, client_id=1)
    retired = []
    retire = client._retire
    client._retire = lambda index, addr, span: (
        retired.append((index, sim.now)), retire(index, addr, span))

    def put():
        yield from client.put(0, b"n" * 64)
        return sim.now

    returned = drive(sim, put())
    sim.run(until=sim.now + 50.0)
    assert sorted(index for index, _when in retired) == [0, 1, 2]
    assert [when > returned for _index, when in retired] == [
        False, False, True]


def test_a_zero_leg_settle_takes_no_entry(sim):
    phase = Phase(sim, [])
    assert phase.processed and phase.ok and phase.value == []
    assert not sim._ready and not sim._queue


def test_an_interrupted_waiter_lets_the_legs_finish(sim):
    seen = []
    outcome = []

    def waiter():
        try:
            yield Phase(sim, [_op(sim, 1, "a", seen=seen),
                              _op(sim, 2, "b", seen=seen),
                              _op(sim, 3, "c", seen=seen)], need=2)
        except Interrupt:
            outcome.append(sim.now)

    victim = sim.spawn(waiter())

    def killer():
        yield sim.timeout(0.5)
        victim.interrupt("stop")

    sim.spawn(killer())
    sim.run()
    assert outcome == [0.5]
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert not sim._ready and sim._queue == []


def test_no_phase_leg_cycle_survives_the_boot_slot(sim):
    """``gc`` is off during a run: reference counting alone must free a
    phase — even one whose straggler never completes (a lost round
    trip): the straggler's task and the event it waits on refer to each
    other, but deciding the phase took the phase out of that task."""
    def lost():
        yield sim.event()

    def main():
        for _ in range(10):
            yield Phase(sim, [_op(sim, 1, "a"), lost()], need=1)

    gc.collect()
    gc.disable()
    try:
        sim.spawn(main())
        sim.run()
        assert sum(type(obj) is Phase for obj in gc.get_objects()) == 0
    finally:
        gc.enable()


# -- a leg is driven as a process is ----------------------------------------------


def _waits_on_a_processed_event(sim):
    event = sim.event()
    event.succeed("early")

    def leg():
        yield sim.timeout(1.0)          # the event is processed by now
        return (yield event)
    return leg()


def _yields_a_non_event(sim):
    def leg():
        yield 123
    return leg()


def _handles_a_failed_child(sim):
    def child():
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def leg():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            return str(exc)
    return leg()


def _outcome(body, as_leg):
    """``("ok", value)`` or ``("failed", exception type)`` of ``body``
    run as a phase's one leg or as a process, once the run drained (an
    unobserved failure would surface there)."""
    sim = Simulator()

    def setup():
        if as_leg:
            try:
                [(_index, value)] = yield Phase(sim, [body(sim)], need=1)
            except QuorumError as error:
                return "failed", type(error.__cause__)
            return "ok", value
        try:
            return "ok", (yield sim.spawn(body(sim)))
        except Exception as exc:
            return "failed", type(exc)

    outcome = sim.run_until_complete(sim.spawn(setup()), limit=100.0)
    sim.run()
    return outcome


@pytest.mark.parametrize("body, expected", [
    (_waits_on_a_processed_event, ("ok", "early")),
    (_yields_a_non_event, ("failed", SimulationError)),
    (_handles_a_failed_child, ("ok", "child failed")),
], ids=["processed-event", "non-event", "failed-child"])
def test_a_leg_gets_the_outcome_a_process_gets(body, expected):
    """One driver steps both: an already-processed event resumes the leg
    in a late call, a non-``Event`` yield has :class:`SimulationError`
    thrown in (uncaught, the leg failed), and waiting on a child process
    observes the child's failure."""
    assert _outcome(body, as_leg=False) == expected
    assert _outcome(body, as_leg=True) == expected


# -- a phase's kernel entries ---------------------------------------------------


def _costs_per_phase(n_extra=50):
    """``(entries, resumes, spawns)`` per 3-leg phase of timer legs,
    exact, by the slope between 10 and ``10 + n_extra`` phases."""
    def counts(n):
        sim = Simulator()
        profiler = sim.attach(HostProfiler())
        spawns = [0]
        spawn = sim.spawn

        def counting_spawn(generator, name=None):
            spawns[0] += 1
            return spawn(generator, name=name)

        sim.spawn = counting_spawn

        def main():
            for _ in range(n):
                yield Phase(sim, [_op(sim, 1, "a"), _op(sim, 2, "b"),
                                  _op(sim, 3, "c")], need=2)

        try:
            sim.run_until_complete(sim.spawn(main()))
            sim.run()
        finally:
            profiler.finish(sim.now)
        return sim.events_executed, profiler.resumes, spawns[0]

    more, fewer = counts(10 + n_extra), counts(10)
    return tuple((a - b) / n_extra for a, b in zip(more, fewer))


def test_a_three_leg_phase_costs_legs_timers_and_wake():
    """The three legs' timers: 3 entries. The legs start in the entry
    that builds the phase, and the second leg's timer entry decides it
    and wakes the waiter there — 4 while the wake-up took a slot of its
    own, 6 while a boot slot started the legs and a decision slot queued
    the wake-up; with a process per leg it was 3 bootstraps + 3
    completion entries + the quorum event's slot. No process is
    spawned. Every generator step is a resume, as it was for those
    processes: each leg's boot and its one wake-up, and the waiter's."""
    assert _costs_per_phase() == (3, 3 * 2 + 1, 0)


# -- the phase-wake argument, checked under every tie order ---------------------


class _SoleCallback(list):
    """The callback list of an event a phase leg waits on, once the leg
    is in it: nothing may join the leg there."""

    def append(self, callback):
        raise AssertionError(f"{callback!r} joins a phase leg's event")


def _watch_leg_waits(monkeypatch):
    """Check every wait of an undecided phase leg: the event is one no
    other callback is on, and none joins it later; returns the types of
    the events waited on. So the leg that decides a phase runs last in
    its entry, and waking the waiter there runs "deciding entry, then
    waiter" — an order the tie shuffle draws (docs/performance.md,
    rule 11, the phase-wake argument)."""
    step = _Task.__call__
    kinds = set()

    def watched(task, event=None):
        step(task, event)
        target = task._waiting_on
        if (isinstance(getattr(task._done, "__self__", None), Phase)
                and isinstance(target, Event) and not target._processed):
            assert target.callbacks == [task]
            target.callbacks = _SoleCallback(target.callbacks)
            kinds.add(type(target).__name__)

    monkeypatch.setattr(_Task, "__call__", watched)
    return kinds


def _register_ops(sim, clients, n_ops=8):
    def worker(index, client):
        for op in range(n_ops):
            key = (index + op) % 4
            if op % 2:
                yield from client.put(key, bytes([65 + op]) * 16)
            else:
                yield from client.get(key)
    done = sim.all_of([sim.spawn(worker(index, client))
                       for index, client in enumerate(clients)])
    sim.run_until_complete(sim.spawn((lambda: (yield done))()), limit=1e7)


def _replicated(replica_type, client_type, backend, sim, **client_kwargs):
    fabric = make_fabric(sim, RACK, ["r0", "r1", "r2", "c0", "c1", "c2"])
    replicas = [replica_type(sim, fabric, f"r{index}", backend, n_blocks=4,
                             block_size=16) for index in range(3)]
    for replica in replicas:
        for key in range(4):
            replica.load(key, bytes([key]) * 16)
    return [client_type(sim, fabric, f"c{index}", replicas,
                        client_id=index + 1, **client_kwargs)
            for index in range(3)]


def _prism_rs(sim):
    _register_ops(sim, _replicated(PrismRsReplica, PrismRsClient,
                                   SoftwarePrismBackend, sim))


def _abd_lock(sim):
    _register_ops(sim, _replicated(AbdLockReplica, AbdLockClient,
                                   HardwareRdmaBackend, sim, seed=5))


def _sharded_tx(sim):
    fabric = make_fabric(sim, RACK, ["s0", "s1", "s2", "c0", "c1"])
    servers = [PrismTxServer(sim, fabric, f"s{index}", SoftwarePrismBackend,
                             n_keys=4, value_size=16) for index in range(3)]
    for key in range(9):
        load_sharded(servers, key, bytes([key]) * 16)
    clients = [ShardedPrismTxClient(sim, fabric, f"c{index}", servers,
                                    client_id=index + 1)
               for index in range(2)]

    def worker(client, letter):
        for _ in range(4):
            yield from client.transact((0, 1, 2), (1, 2), letter * 16)
    done = sim.all_of([sim.spawn(worker(client, letter))
                       for client, letter in zip(clients, (b"X", b"Y"))])
    sim.run_until_complete(sim.spawn((lambda: (yield done))()), limit=1e7)


@pytest.mark.parametrize("plan", [None, "seed=7,drop=0.05,dup=0.05,jitter=2"],
                         ids=["clean", "faulted"])
@pytest.mark.parametrize("run", [_prism_rs, _abd_lock, _sharded_tx],
                         ids=["prism-rs", "abd-lock", "sharded-tx"])
def test_a_deciding_leg_is_the_one_callback_of_its_event(
        ties, monkeypatch, run, plan):
    """Every phase user, clean and under loss, duplication and jitter
    (retransmissions, stragglers): each leg waits on a fresh client
    call or timer, alone, so the waiter woken in the deciding leg's
    entry runs right after that entry's own work."""
    kinds = _watch_leg_waits(monkeypatch)
    sim = Simulator()
    if plan is not None:
        sim.set_faults(parse_faults(plan))
    run(sim)
    assert kinds and kinds <= {"_Call", "TimerEvent"}
