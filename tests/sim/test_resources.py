"""Resource, Store, and BandwidthPipe semantics."""

import pytest

from repro.sim import BandwidthPipe, Resource, SimulationError, Store


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


class Holder:
    """A port holder as the kernel and the pipe see one: a heap payload
    whose ``fire()`` finishes its transmission first."""

    cancelled = False

    def __init__(self, pipe, tag, finishes):
        self.pipe, self.tag, self.finishes = pipe, tag, finishes

    def fire(self):
        self.pipe.finish()
        self.finishes.append((self.tag, self.pipe.sim.now))


class TestBandwidthPipe:
    def test_bandwidth_positive(self, sim):
        with pytest.raises(SimulationError):
            BandwidthPipe(sim, 0)

    def test_serialization_time(self, sim):
        pipe = BandwidthPipe(sim, bytes_per_us=1000, per_message_us=0.5)
        assert pipe.serialization_time(2000) == pytest.approx(2.5)

    def test_transmissions_serialize(self, sim):
        pipe = BandwidthPipe(sim, bytes_per_us=100)
        finishes = []
        # Claimed back to back at t=0: the second queues behind the
        # first, and each claim already knows its finish instant.
        assert pipe.claim(Holder(pipe, "a", finishes), 500) == 5.0
        assert pipe.claim(Holder(pipe, "b", finishes), 500) == 10.0
        sim.run()
        assert finishes == [("a", 5.0), ("b", 10.0)]
        assert pipe.utilization(20.0) == 0.5

    def test_a_zero_duration_message_takes_a_ready_slot_not_a_heap_entry(
            self, sim):
        """``claim`` pushes its holder's timer in place; a serialization
        that ends at the claiming instant (zero bytes, no per-message
        cost) must still go through ``schedule_at``'s zero-delay slot —
        the heap only ever holds strictly-future entries."""
        pipe = BandwidthPipe(sim, bytes_per_us=100, per_message_us=0.0)
        finishes = []
        sim.run(until=3.0)
        assert pipe.claim(Holder(pipe, "empty", finishes), 0) == 3.0
        assert sim._queue == [] and len(sim._ready) == 1
        assert pipe.claim(Holder(pipe, "next", finishes), 200) == 5.0
        sim.run()
        assert finishes == [("empty", 3.0), ("next", 5.0)]
        assert (pipe.bytes_total, pipe.messages_total) == (200, 2)

    def test_counters(self, sim):
        pipe = BandwidthPipe(sim, bytes_per_us=100)
        pipe.claim(Holder(pipe, "a", []), 300)
        pipe.claim(Holder(pipe, "b", []), 200)
        sim.run(until=4.0)
        # Counted when the last byte leaves, not at claim.
        assert (pipe.bytes_total, pipe.messages_total) == (300, 1)
        assert pipe.utilization(4.0) == 1.0     # mid-period read
        sim.run()
        assert (pipe.bytes_total, pipe.messages_total) == (500, 2)
