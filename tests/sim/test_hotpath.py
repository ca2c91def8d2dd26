"""Hot-path overhaul regressions: timer withdrawal, orphan notes.

These tests pin the two event-loop bugfixes that rode along with the
kernel optimization pass (they fail on the pre-overhaul kernel):

* ``with_timeout`` / ``any_of`` must *withdraw* losing timers from the
  heap instead of leaving them to fire into the void at their (now
  meaningless) deadlines — at 10⁵ clients each doing timed ops, the
  leak turns the heap O(total ops) instead of O(in-flight).
* ``_raise_orphan_failures`` must surface *every* unobserved process
  failure, not just the first: the rest ride along as notes.
"""

import pytest

from repro.sim import Simulator
from repro.sim.events import SimulationError


def _live_queue_entries(sim):
    """Heap entries that are not tombstoned cancelled timers."""
    return sum(1 for _, _, obj in sim._queue
               if not getattr(obj, "cancelled", False))


class TestAbandonedTimerWithdrawal:
    N = 500

    def test_with_timeout_queue_stays_o_in_flight(self):
        sim = Simulator()

        def main():
            for _ in range(self.N):
                # The guarded event (a 1 µs timer) always beats the
                # 1000 µs budget, so every iteration abandons a timer.
                yield from sim.with_timeout(sim.timeout(1.0), 1000.0)

        sim.run_until_complete(sim.spawn(main()))
        # Old kernel: ~N losing timers sit in the heap until their
        # deadlines (never reached here). New kernel: each is
        # tombstoned on loss and compacted away in bulk, so the queue
        # stays O(in-flight), far below N.
        assert _live_queue_entries(sim) <= 2
        assert len(sim._queue) < self.N // 2

    def test_any_of_withdraws_losing_timers(self):
        sim = Simulator()

        def main():
            for _ in range(self.N):
                yield sim.any_of([sim.timeout(1.0), sim.timeout(500.0),
                                  sim.timeout(900.0)])

        sim.run_until_complete(sim.spawn(main()))
        assert _live_queue_entries(sim) <= 2
        assert len(sim._queue) < self.N

    def test_losing_timer_never_fires(self):
        sim = Simulator()
        seen = []
        timers = []

        def main():
            timers.append(sim.timeout(1.0, "fast"))
            timers.append(sim.timeout(50.0, "slow"))
            index, _ = yield sim.any_of(timers)
            seen.append(index)

        sim.spawn(main())
        sim.run(until=100.0)
        assert seen == [0]
        # The loser is withdrawn on loss — cancelled, never triggered —
        # rather than firing into the void at t=50.
        fast, slow = timers
        assert fast.triggered
        assert slow.cancelled
        assert not slow.triggered
        assert len(sim._queue) == 0


class TestOrphanFailureNotes:
    def test_two_crashing_daemons_both_surface(self):
        sim = Simulator()

        def daemon(message, delay):
            yield sim.timeout(delay)
            raise RuntimeError(message)

        sim.spawn(daemon("first failure", 1.0), name="daemon-a")
        sim.spawn(daemon("second failure", 1.0), name="daemon-b")
        with pytest.raises(RuntimeError, match="first failure") as info:
            sim.run(until=10.0)
        notes = getattr(info.value, "__notes__", [])
        assert any("daemon-b" in note and "second failure" in note
                   for note in notes), notes

    def test_single_orphan_has_no_notes(self):
        sim = Simulator()

        def daemon():
            yield sim.timeout(1.0)
            raise ValueError("lonely")

        sim.spawn(daemon(), name="solo")
        with pytest.raises(ValueError, match="lonely") as info:
            sim.run(until=10.0)
        assert not getattr(info.value, "__notes__", [])

    def test_observed_failure_not_reported_as_orphan(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise RuntimeError("seen")

        def watcher(process):
            try:
                yield process
            except RuntimeError:
                return "caught"

        crash = sim.spawn(crasher(), name="crasher")
        watch = sim.spawn(watcher(crash), name="watcher")
        assert sim.run_until_complete(watch) == "caught"


class TestTimersRunWaitersWhenTheyFire:
    """A heap-fired timer runs its waiters in the entry that pops it;
    a zero-delay timer keeps its FIFO slot on the ready deque."""

    def test_n_single_waiter_timers_cost_n_entries(self):
        sim = Simulator()
        seen = []
        for index in range(100):
            sim.timeout(1.0 + index).add_callback(
                lambda timer, index=index: seen.append(index))
        sim.run()
        assert seen == list(range(100))
        assert sim.events_executed == 100

    def test_waiter_cancelling_an_equal_deadline_timer_tombstones_it(self):
        sim = Simulator()
        first = sim.timeout(5.0)
        second = sim.timeout(5.0)
        ran = []
        first.add_callback(lambda timer: second.cancel())
        second.add_callback(lambda timer: ran.append("second"))
        sim.run()
        # ``first`` pops first (same deadline, earlier push) and its
        # waiter runs in that very entry — before ``second`` pops.
        assert first.processed
        assert second.cancelled and not second.triggered
        assert ran == []
        assert sim._cancelled_timers == 0
        assert sim.events_executed == 1

    def test_any_of_equal_deadline_timers_yields_index_zero(self):
        sim = Simulator()

        def main():
            return (yield sim.any_of([sim.timeout(3.0, "a"),
                                      sim.timeout(3.0, "b")]))

        assert sim.run_until_complete(sim.spawn(main())) == (0, "a")
        assert sim._cancelled_timers == 0
        assert len(sim._queue) == 0

    def test_zero_delay_timer_runs_after_work_already_queued(self):
        sim = Simulator()
        order = []

        def main():
            yield sim.timeout(1.0)
            # Queued at t=1 *before* the zero-delay timer is created ...
            sim.event().succeed().add_callback(
                lambda event: order.append("queued first"))
            yield sim.timeout(0.0)
            order.append("after timeout(0)")

        sim.run_until_complete(sim.spawn(main()))
        # ... so it runs first: timeout(0) takes its FIFO slot, it does
        # not jump the ready deque the way a heap-fired timer's waiters
        # run in the popping entry.
        assert order == ["queued first", "after timeout(0)"]

    def test_cancelled_zero_delay_timers_are_not_heap_tombstones(self):
        sim = Simulator()
        ran = []
        sim.call_at(0.0, lambda: ran.append("before"))
        timers = [sim.timeout(0.0) for _ in range(10)]
        for timer in timers:
            timer.add_callback(lambda timer: ran.append("cancelled timer"))
        sim.call_at(0.0, lambda: ran.append("after"))
        for timer in timers:
            timer.cancel()
        # Nothing was ever on the heap, so there is nothing to compact.
        assert sim._cancelled_timers == 0
        sim.run()
        assert ran == ["before", "after"]
        assert sim._cancelled_timers == 0
        # Withdrawn entries are skipped, not run, so not counted.
        assert sim.events_executed == 2

    def test_scheduled_payload_fires_once_in_one_entry(self):
        sim = Simulator()

        class Payload:
            cancelled = False

            def __init__(self):
                self.fired_at = []

            def fire(self):
                self.fired_at.append(sim.now)

        later, at_once = Payload(), Payload()
        sim.schedule(2.5, later)
        sim.schedule(0.0, at_once)
        sim.run()
        assert later.fired_at == [2.5]
        assert at_once.fired_at == [0.0]
        # One entry for the heap payload; the zero-delay one rides a
        # timeout(0) (fire + callbacks), keeping that timer's FIFO slot.
        assert sim.events_executed == 3
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule(-1.0, later)


class TestPayloadWithdrawnOnTheZeroDelaySlot:
    """``schedule_at``'s cold branch (the computed instant is *now*:
    loopback, a zero-latency fabric, a delay that rounds away) carries
    the payload on the ready deque. A payload withdrawn while it rides
    there must not fire — a heap pop would have skipped it — and the
    tombstone its owner noted, for a heap entry that never existed, must
    not skew compaction's majority rule for the rest of the run."""

    class Payload:
        cancelled = False
        fired = 0

        def fire(self):
            self.fired += 1

    def test_a_raw_payload_does_not_fire_and_its_tombstone_is_paid_back(self):
        sim = Simulator()

        withdrawn, kept = self.Payload(), self.Payload()
        sim.schedule(0.0, withdrawn)
        sim.schedule(0.0, kept)
        # What an owner's cancel() does (``TimerEvent.cancel``,
        # ``net.port._Call.cancel``): set the flag, note the tombstone.
        withdrawn.cancelled = True
        sim._note_timer_cancelled()
        sim.run()
        assert (withdrawn.fired, kept.fired) == (0, 1)
        assert sim._cancelled_timers == 0 and sim._queue == []

    def test_compaction_keeps_the_tombstone_of_a_payload_still_riding(self):
        """The count is what compaction's majority rule reads: sweeping
        the heap takes out the heap's tombstones only."""
        from repro.sim.kernel import _COMPACT_MIN
        sim = Simulator()
        timers = [sim.timeout(5.0) for _ in range(_COMPACT_MIN)]

        payload = self.Payload()
        sim.schedule(0.0, payload)
        payload.cancelled = True
        sim._note_timer_cancelled()
        for timer in timers:
            timer.cancel()          # one of these compacts the heap
        assert len(sim._queue) < _COMPACT_MIN // 2
        assert sim._cancelled_timers == 1 + len(sim._queue)
        sim.run()
        assert payload.fired == 0 and sim._cancelled_timers == 0

    def test_a_call_cancelled_during_a_post_overhead_that_rounds_to_zero(self):
        from repro.net.port import RequestChannel
        from repro.net.topology import RACK, make_fabric
        from repro.sim import Interrupt

        sim = Simulator()
        fabric = make_fabric(sim, RACK, ["client", "server"])
        served = []
        fabric.host("server").register_service("echo", served.append)
        # 1.0 + 1e-30 == 1.0: the post overhead's timer is due at once.
        channel = RequestChannel(sim, fabric, "client",
                                 post_overhead_us=1e-30)
        seen = {}

        def caller():
            yield sim.timeout(1.0)
            try:
                yield from channel.request("server", "echo", "ping", 64)
            except Interrupt:
                seen["outstanding"] = channel.outstanding

        victim = sim.spawn(caller())

        def killer():
            yield sim.timeout(1.0)
            seen["call"], = channel._pending.values()
            victim.interrupt("stop")    # within the instant of the post

        sim.spawn(killer())
        sim.run()
        call = seen["call"]
        assert seen["outstanding"] == 0
        assert call.cancelled and not call.triggered    # fire() never ran
        assert fabric.hosts["client"].tx.messages_total == 0 and not served
        assert sim._cancelled_timers == 0 and sim._queue == []
