"""Resource, Store, and BandwidthPipe semantics."""

from collections import deque
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.fabric import Fabric, Host
from repro.obs import HostProfiler, UtilizationCollector
from repro.obs.timeline import ResourceMonitor
from repro.sim import (
    BandwidthPipe,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


class TestResource:
    def test_capacity_validated(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_grant_under_capacity(self, sim, drive):
        resource = Resource(sim, capacity=2)
        def main():
            yield resource.acquire()
            yield resource.acquire()
            return resource.in_use
        assert drive(sim, main()) == 2

    def test_release_without_acquire_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim).release()

    def test_fifo_queueing(self, sim):
        resource = Resource(sim, capacity=1)
        order = []
        def worker(tag, hold):
            yield resource.acquire()
            order.append(("start", tag, sim.now))
            yield sim.timeout(hold)
            resource.release()
        sim.spawn(worker("a", 5))
        sim.spawn(worker("b", 5))
        sim.spawn(worker("c", 5))
        sim.run()
        assert order == [("start", "a", 0.0), ("start", "b", 5.0),
                         ("start", "c", 10.0)]

    def test_queue_length_visible(self, sim):
        resource = Resource(sim, capacity=1)
        lengths = []
        def holder():
            yield resource.acquire()
            yield sim.timeout(10)
            lengths.append(resource.queue_length)
            resource.release()
        def waiter():
            yield resource.acquire()
            resource.release()
        sim.spawn(holder())
        sim.spawn(waiter())
        sim.spawn(waiter())
        sim.run()
        assert lengths == [2]

    def test_utilization_accounting(self, sim, drive):
        resource = Resource(sim, capacity=1)
        def main():
            yield from resource.occupy(30)
            yield sim.timeout(70)
            return resource.utilization(100)
        assert drive(sim, main()) == pytest.approx(0.3)

    def test_occupy_releases_on_interrupt(self, sim, drive):
        from repro.sim import Interrupt
        resource = Resource(sim, capacity=1)
        def holder():
            try:
                yield from resource.occupy(100)
            except Interrupt:
                pass
        def main():
            process = sim.spawn(holder())
            yield sim.timeout(5)
            process.interrupt("cancel")
            yield process
            return resource.in_use
        assert drive(sim, main()) == 0

    def test_multi_capacity_parallelism(self, sim):
        resource = Resource(sim, capacity=3)
        finishes = []
        def worker(tag):
            yield from resource.occupy(10)
            finishes.append((tag, sim.now))
        for tag in range(6):
            sim.spawn(worker(tag))
        sim.run()
        assert [t for _, t in finishes] == [10, 10, 10, 20, 20, 20]


class TestStore:
    def test_put_then_get(self, sim, drive):
        store = Store(sim)
        store.put("x")
        def main():
            value = yield store.get()
            return value
        assert drive(sim, main()) == "x"

    def test_get_blocks_until_put(self, sim, drive):
        store = Store(sim)
        def producer():
            yield sim.timeout(4)
            store.put("late")
        def main():
            value = yield store.get()
            return (value, sim.now)
        sim.spawn(producer())
        assert drive(sim, main()) == ("late", 4.0)

    def test_fifo_item_order(self, sim, drive):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        def main():
            first = yield store.get()
            second = yield store.get()
            return first, second
        assert drive(sim, main()) == ("a", "b")

    def test_getters_served_fifo(self, sim):
        store = Store(sim)
        got = []
        def getter(tag):
            value = yield store.get()
            got.append((tag, value))
        sim.spawn(getter(1))
        sim.spawn(getter(2))
        def producer():
            yield sim.timeout(1)
            store.put("first")
            store.put("second")
        sim.spawn(producer())
        sim.run()
        assert got == [(1, "first"), (2, "second")]

    def test_try_get_nonblocking(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(9)
        assert store.try_get() == 9
        assert len(store) == 0


def _armed(observer):
    """A fresh simulator with ``observer()`` attached (None: bare)."""
    sim = Simulator()
    return sim, None if observer is None else sim.attach(observer())


_OBSERVERS = [None, UtilizationCollector, HostProfiler,
              lambda: HostProfiler(stride=7)]


class TestOneBodyBothConfigurations:
    """``acquire`` / ``release`` / ``put`` / ``get`` have one body each:
    what it does cannot depend on which observers bracket it."""

    @staticmethod
    def _contend(observer):
        sim, armed = _armed(observer)
        try:
            pool = Resource(sim, capacity=2)
            grants = []
            def worker(tag, hold):
                try:
                    yield pool.acquire()
                except Interrupt:
                    grants.append((tag, "interrupted", sim.now))
                    return
                grants.append((tag, "granted", sim.now))
                yield sim.timeout(hold)
                pool.release()
            def killer(victim, at):
                yield sim.timeout(at)
                victim.interrupt("chaos")
            _, _, queued, raced, _ = [
                sim.spawn(worker(tag, hold)) for tag, hold in
                [("a", 10), ("b", 10), ("queued", 1), ("raced", 1), ("e", 3)]]
            # Spawned before any holder's timer is pushed, so the second
            # interrupt fires first at t=10: the release that follows
            # grants ``raced`` a slot in the instant it is being killed.
            sim.spawn(killer(queued, 5))
            sim.spawn(killer(raced, 10))
            sim.run()
        finally:
            if armed is not None:
                armed.finish(sim.now)
        return (grants, pool._total_acquired, pool.utilization(sim.now),
                pool.in_use, pool.queue_length, sim.events_executed), pool

    def test_a_contended_resource_behaves_the_same_under_every_observer(self):
        (bare, _), (watched, pool), *profiled = [
            self._contend(observer) for observer in _OBSERVERS]
        grants, acquired, utilization, in_use, queued, _ = bare
        assert grants == [
            ("a", "granted", 0.0), ("b", "granted", 0.0),
            ("queued", "interrupted", 5.0), ("raced", "interrupted", 10.0),
            ("e", "granted", 10.0)]
        # ``raced`` was granted a slot it handed straight back.
        assert (acquired, in_use, queued) == (4, 0, 0)
        assert utilization == pytest.approx(23.0 / 26.0)
        assert watched == bare
        assert [outcome for outcome, _ in profiled] == [bare, bare]
        monitor = pool.monitor
        assert monitor.requests == 5 and monitor.grants == acquired
        assert monitor.enqueues == monitor.dequeues == 3
        assert monitor.cancels == 1              # ``queued``, withdrawn
        assert monitor.releases == monitor.grants and monitor._in_use == 0
        assert sorted(monitor.queue_delays) == [0.0, 0.0, 10.0, 10.0]
        assert not pool._wait_since

    def test_a_failed_release_closes_its_profiler_bucket(self):
        sim, profiler = _armed(HostProfiler)
        try:
            profiler.begin_timed()          # as inside a sampled entry
            before = list(profiler._stack), profiler._current
            with pytest.raises(SimulationError, match="release without"):
                Resource(sim).release()
            assert (profiler._stack, profiler._current) == before
            profiler.event_end()
            assert profiler._stack == [] and profiler._current is None
        finally:
            profiler.finish(sim.now)

    @staticmethod
    def _exchange(observer):
        sim, armed = _armed(observer)
        try:
            store = Store(sim)
            got = []
            def getter(tag):
                try:
                    got.append((tag, (yield store.get()), sim.now))
                except Interrupt:
                    got.append((tag, "interrupted", sim.now))
            early, raced, live = [sim.spawn(getter(tag))
                                  for tag in ("early", "raced", "live")]
            def chaos():
                yield sim.timeout(1)
                early.interrupt()           # leaves the queue
                yield sim.timeout(1)
                raced.interrupt()           # killed in the put instant:
                store.put("x")              # "x" is handed to it, then
                store.put("y")              # repossessed into the buffer
                got.append(("buffered", (yield store.get()), sim.now))
            sim.spawn(chaos())
            sim.run()
        finally:
            if armed is not None:
                armed.finish(sim.now)
        return got, len(store), len(store._getters), sim.events_executed

    def test_a_store_behaves_the_same_under_every_observer(self):
        bare, *observed = [self._exchange(observer)
                           for observer in _OBSERVERS]
        got, buffered, blocked, _ = bare
        assert got == [("early", "interrupted", 1.0),
                       ("raced", "interrupted", 2.0),
                       ("live", "y", 2.0), ("buffered", "x", 2.0)]
        assert (buffered, blocked) == (0, 0)
        assert observed == [bare] * 3


class UnitHolder:
    """A scheduled payload holding a unit for ``hold`` µs: called in its
    grant slot, it pushes its own timer; fired, it releases the unit."""

    cancelled = False

    def __init__(self, pool, tag, hold, log):
        self.pool, self.tag, self.hold, self.log = pool, tag, hold, log

    def __call__(self, _event=None):
        sim = self.pool.sim
        self.log.append((self.tag, "granted", sim.now))
        sim.schedule(self.hold, self)

    def fire(self):
        _release_between_markers(self.pool, self.tag, self.log)


def _release_between_markers(pool, tag, log):
    """Release ``pool`` between two same-instant ready entries: the
    hand-off's slot is told by where the grant lands between them."""
    sim = pool.sim
    log.append((tag, "released", sim.now))
    sim.call_at(sim.now, lambda: log.append((tag, "before", sim.now)))
    pool.release()
    sim.call_at(sim.now, lambda: log.append((tag, "after", sim.now)))


class TestClaim:
    """``Resource.claim(holder)`` is ``acquire().callbacks.append(holder)``
    without the event, except where a unit is free: there ``holder()``
    runs inside the claim instead of in the slot after the claiming
    entry. A contended holder keeps the same FIFO and the same slot after
    the releasing entry, with ``acquire()`` callers interleaved and a
    cancelled waiter skipped; busy time and monitor counts are the same
    either way."""

    @staticmethod
    def _interleave(claim, observer=None):
        sim, armed = _armed(observer)
        pool = Resource(sim, capacity=1)
        log = []

        def wait(tag, hold):
            holder = UnitHolder(pool, tag, hold, log)
            if claim:
                pool.claim(holder)
            else:
                pool.acquire().callbacks.append(holder)

        def worker(tag, hold):
            try:
                yield pool.acquire()
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
                return
            log.append((tag, "granted", sim.now))
            yield sim.timeout(hold)
            _release_between_markers(pool, tag, log)

        def main():
            sim.call_at(0.0, lambda: log.append(("main", "before", 0.0)))
            wait("h1", 2.0)            # uncontended
            sim.call_at(0.0, lambda: log.append(("main", "after", 0.0)))
            sim.spawn(worker("p1", 3.0))
            wait("h2", 1.0)            # queued ahead of p1's acquire
            doomed = sim.spawn(worker("doomed", 1.0))
            sim.spawn(worker("p2", 1.0))
            wait("h3", 1.0)
            yield sim.timeout(1.0)
            doomed.interrupt("gone")   # withdrawn while queued
        try:
            sim.spawn(main())
            sim.run()
        finally:
            if armed is not None:
                armed.finish(sim.now)
        monitor = pool.monitor
        counts = None if monitor is None else (
            monitor.requests, monitor.grants, monitor.enqueues,
            monitor.dequeues, monitor.cancels, monitor.releases,
            sorted(monitor.queue_delays))
        return (log, pool._total_acquired, pool.utilization(sim.now),
                pool.in_use, pool.queue_length, sim.now,
                sim.events_executed, counts)

    def test_a_free_unit_runs_its_holder_inside_the_claim(self):
        """The grant is no entry of its own: ``holder()`` runs before
        ``claim`` returns, holding the unit, at the claiming instant."""
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        log = []

        def claiming_entry():
            log.append("claiming")
            pool.claim(lambda: log.append(("holder", pool.in_use, sim.now)))
            log.append("returned")
        sim.call_at(1.0, claiming_entry)
        sim.run()
        assert log == ["claiming", ("holder", 1, 1.0), "returned"]
        assert sim.events_executed == 1

    def test_a_holder_takes_the_slot_its_acquire_event_took(self):
        """A queued holder runs where its ``AcquireEvent``'s callback did:
        in the slot after the releasing entry, FIFO with ``acquire()``
        callers. The uncontended ``h1`` runs inside its claim, ahead of
        the marker its ``main`` entry queued first — one entry fewer."""
        claimed = self._interleave(claim=True)
        acquired = self._interleave(claim=False)
        log, acquired_count, utilization, in_use, queued, end, executed, \
            _ = claimed
        assert log[3:] == acquired[0][3:]
        assert log[:3] == [("h1", "granted", 0.0), ("main", "before", 0.0),
                           ("main", "after", 0.0)]
        assert acquired[0][:3] == [
            ("main", "before", 0.0), ("h1", "granted", 0.0),
            ("main", "after", 0.0)]
        assert log[3:] == [
            ("doomed", "interrupted", 1.0),
            ("h1", "released", 2.0), ("h1", "before", 2.0),
            ("h2", "granted", 2.0), ("h1", "after", 2.0),
            ("h2", "released", 3.0), ("h2", "before", 3.0),
            ("h3", "granted", 3.0), ("h2", "after", 3.0),
            ("h3", "released", 4.0), ("h3", "before", 4.0),
            ("p1", "granted", 4.0), ("h3", "after", 4.0),
            ("p1", "released", 7.0), ("p1", "before", 7.0),
            ("p2", "granted", 7.0), ("p1", "after", 7.0),
            ("p2", "released", 8.0), ("p2", "before", 8.0),
            ("p2", "after", 8.0)]
        assert claimed[1:6] == acquired[1:6]
        assert executed == acquired[6] - 1
        assert (acquired_count, in_use, queued, end) == (5, 0, 0, 8.0)
        assert utilization == 1.0

    @pytest.mark.parametrize("observer", _OBSERVERS[1:],
                             ids=["util", "hostprof", "hostprof-stride"])
    def test_every_observer_sees_a_claim_as_an_acquire(self, observer):
        """Armed or not, a claim runs the same way, and it is counted and
        timed as the same acquire: grants, enqueues, hand-offs, queue
        delays and busy time equal the ``acquire()`` form's."""
        claimed = self._interleave(claim=True, observer=observer)
        acquired = self._interleave(claim=False, observer=observer)
        assert claimed[:7] == self._interleave(claim=True)[:7]
        assert acquired[:7] == self._interleave(claim=False)[:7]
        assert claimed[1:6] == acquired[1:6]
        assert claimed[7] == acquired[7]
        if observer is UtilizationCollector:
            requests, grants, enqueues, dequeues, cancels, releases, \
                delays = claimed[7]
            assert (requests, grants, releases) == (6, 5, 5)
            assert (enqueues, dequeues, cancels) == (5, 5, 1)
            assert delays == [0.0, 2.0, 3.0, 4.0, 7.0]


def _hand_off_chain(claims, bytes_per_us, per_message_us, monitor):
    """The hand-off chain a booked port stands for, written out: a claim
    at ``t`` enters the FIFO; the message in service leaves at its
    start plus its serialization time and hands the port to the oldest
    queued claim, which starts then (``now + duration``). A claim at
    the very instant a message leaves queues behind it first. Feeds
    ``monitor`` each transition at its instant; returns each message's
    leaving instant, in claim order."""
    finishes = [None] * len(claims)
    queue = deque()         # (index, claimed_at, duration)
    leaving = None          # when the message in service leaves

    def leave():
        nonlocal leaving
        now = leaving
        if queue:
            index, claimed_at, duration = queue.popleft()
            monitor.on_handoff(now, now - claimed_at)
            leaving = finishes[index] = now + duration
        else:
            monitor.on_release(now)
            leaving = None

    for index, (t, size) in enumerate(claims):
        while leaving is not None and leaving < t:
            leave()
        duration = per_message_us + size / bytes_per_us
        if leaving is None:
            monitor.on_uncontended_grant(t)
            leaving = finishes[index] = t + duration
        else:
            monitor.on_enqueue(t)
            queue.append((index, t, duration))
    while leaving is not None:
        leave()
    return finishes


def _monitor_row(monitor, end):
    """What a utilization report holds of ``monitor``, and its raw
    counters, the extras a wire port adds left out."""
    row = monitor.summary(0.0, end)
    for key in ("name", "bytes", "messages"):
        row.pop(key, None)
    return (row, monitor.busy_us, monitor.depth_time_us, monitor.max_depth,
            monitor.requests, monitor.grants, monitor.releases,
            monitor.enqueues, monitor.dequeues, monitor.queue_delays)


#: claim instants on a quarter-µs grid and sizes that often serialize in
#: whole quarter-µs, so a claim often falls on the instant the port
#: falls free; arbitrary sizes besides
_CLAIMS = st.lists(
    st.tuples(st.integers(0, 120).map(lambda k: k * 0.25),
              st.one_of(st.integers(0, 24).map(lambda k: k * 25),
                        st.integers(0, 5000))),
    min_size=1, max_size=40)


class TestBandwidthPipe:
    def test_bandwidth_positive(self, sim):
        with pytest.raises(SimulationError):
            BandwidthPipe(sim, 0)

    def test_serialization_time(self, sim):
        pipe = BandwidthPipe(sim, bytes_per_us=1000, per_message_us=0.5)
        assert pipe.serialization_time(2000) == pytest.approx(2.5)

    def test_transmissions_serialize(self, ties):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bytes_per_us=100)
        # Booked back to back at t=0: the second queues behind the
        # first, and each booking already knows its finish instant.
        assert pipe.book(500) == 5.0
        assert pipe.book(500) == 10.0
        assert sim._queue == [] and not sim._ready   # the port pushes nothing
        sim.run(until=20.0)
        assert pipe.utilization(20.0) == 0.5

    def test_a_zero_duration_message_takes_a_ready_slot_not_a_heap_entry(
            self, ties):
        """A booking's caller pushes its own timer; a delivery whose
        stage ends at the instant it is pushed (zero bytes, no
        per-message cost, no path latency) must still go through
        ``schedule_at``'s zero-delay slot — the heap only ever holds
        strictly-future entries."""
        sim = Simulator()
        fabric = Fabric(sim, one_way_latency_us=0.0)
        for name in ("a", "b"):
            fabric.add_host(Host(sim, name, bytes_per_us=100))
        handed = []
        fabric.hosts["b"].register_service(
            "sink", lambda message: handed.append((message.payload, sim.now)))
        sim.run(until=3.0)
        assert fabric.post("a", "b", "sink", "empty", 0).tx_done == 3.0
        assert sim._queue == [] and len(sim._ready) == 1
        assert fabric.post("a", "b", "sink", "next", 200).tx_done == 5.0
        sim.run()
        assert handed == [("empty", 3.0), ("next", 7.0)]
        tx = fabric.hosts["a"].tx
        assert (tx.bytes_total, tx.messages_total) == (200, 2)

    def test_counters(self, ties):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bytes_per_us=100)
        pipe.book(300)
        pipe.book(200)
        sim.run(until=4.0)
        # Counted when the last byte leaves, not at booking.
        assert (pipe.bytes_total, pipe.messages_total) == (300, 1)
        assert pipe.utilization(4.0) == 1.0     # mid-period read
        sim.run(until=5.0)
        assert (pipe.bytes_total, pipe.messages_total) == (500, 2)


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(claims=_CLAIMS, per_message_us=st.sampled_from([0.0, 0.25, 0.3]))
def test_a_booking_is_the_hand_off_chain(ties, claims, per_message_us):
    """Lindley's recursion against the chain of hand-offs it
    replaces: every finish instant equal to the bit, ties at
    ``free_at`` included, and the port's utilization row — busy
    time, queue depth, grants, hand-offs and queue delays — equal
    too, replayed from the bookings when the books close."""
    sim = Simulator()
    collector = sim.attach(UtilizationCollector())
    pipe = BandwidthPipe(sim, bytes_per_us=100,
                         per_message_us=per_message_us, name="p")
    booked = []     # (claimed at, size, finish), in booking order

    def book(size):
        booked.append((sim.now, size, pipe.book(size)))

    for t, size in sorted(claims, key=lambda claim: claim[0]):
        sim.call_at(t, partial(book, size))
    sim.run()
    end = max(sim.now, *(done for _t, _size, done in booked))
    sim.run(until=end)
    collector.finish(end)
    reference = ResourceMonitor(Simulator(), "p.port", "wire")
    finishes = _hand_off_chain([(t, size) for t, size, _ in booked],
                               100.0, per_message_us, reference)
    reference.finish(end)
    assert [done for _t, _size, done in booked] == finishes
    assert _monitor_row(pipe.monitor, end) == _monitor_row(reference,
                                                           end)
    assert (pipe.bytes_total, pipe.messages_total) == (
        sum(size for _t, size, _ in booked), len(booked))
