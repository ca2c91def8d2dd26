"""Kernel semantics: events, processes, time, combinators."""

import pytest

from repro.obs import HostProfiler
from repro.sim import Event, Interrupt, Resource, SimulationError, Simulator
from repro.sim.events import AllOf, AnyOf


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock(sim, drive):
    def proc():
        yield sim.timeout(5.5)
        return sim.now
    assert drive(sim, proc()) == 5.5


def test_zero_timeout_runs_same_timestamp(sim, drive):
    def proc():
        yield sim.timeout(0)
        return sim.now
    assert drive(sim, proc()) == 0.0


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_timeout_value_delivered(sim, drive):
    def proc():
        value = yield sim.timeout(1, value="payload")
        return value
    assert drive(sim, proc()) == "payload"


def test_timeouts_fire_in_order(sim):
    order = []
    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)
    sim.spawn(waiter(3, "c"))
    sim.spawn(waiter(1, "a"))
    sim.spawn(waiter(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_fifo_order(sim):
    order = []
    def waiter(tag):
        yield sim.timeout(1)
        order.append(tag)
    for tag in range(5):
        sim.spawn(waiter(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value(sim, drive):
    def proc():
        yield sim.timeout(1)
        return 42
    assert drive(sim, proc()) == 42


def test_process_is_event_others_can_wait_on(sim, drive):
    def child():
        yield sim.timeout(2)
        return "done"
    def parent():
        value = yield sim.spawn(child())
        return (value, sim.now)
    assert drive(sim, parent()) == ("done", 2.0)


def test_event_succeed_wakes_waiter(sim, drive):
    gate = sim.event()
    def opener():
        yield sim.timeout(3)
        gate.succeed("opened")
    def waiter():
        value = yield gate
        return (value, sim.now)
    sim.spawn(opener())
    assert drive(sim, waiter()) == ("opened", 3.0)


def test_event_fail_raises_in_waiter(sim, drive):
    gate = sim.event()
    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))
    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield gate
        return "handled"
    sim.spawn(failer())
    assert drive(sim, waiter()) == "handled"


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_fail_requires_exception(sim):
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")


def test_callback_after_processed_still_fires(sim):
    event = sim.event()
    event.succeed("x")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["x"]


def test_unhandled_process_exception_propagates(sim):
    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unseen failure")
    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="unseen failure"):
        sim.run()


def test_observed_process_exception_does_not_crash_run(sim, drive):
    def bad():
        yield sim.timeout(1)
        raise RuntimeError("seen failure")
    def observer():
        with pytest.raises(RuntimeError, match="seen failure"):
            yield sim.spawn(bad())
        return "ok"
    assert drive(sim, observer()) == "ok"


def test_yielding_non_event_is_an_error(sim):
    def bad():
        yield 123
    sim.spawn(bad())
    with pytest.raises(SimulationError, match="only yield Event"):
        sim.run()


def test_interrupt_reaches_process(sim, drive):
    def sleeper():
        try:
            yield sim.timeout(100)
            return "overslept"
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, sim.now)
    def interrupter():
        process = sim.spawn(sleeper())
        yield sim.timeout(2)
        process.interrupt("wake up")
        value = yield process
        return value
    assert drive(sim, interrupter()) == ("interrupted", "wake up", 2.0)


def test_interrupt_finished_process_is_noop(sim, drive):
    def quick():
        yield sim.timeout(1)
        return "fin"
    def main():
        process = sim.spawn(quick())
        yield sim.timeout(5)
        process.interrupt()  # already done; must not blow up
        value = yield process
        return value
    assert drive(sim, main()) == "fin"


def test_run_until_limit_stops_clock(sim):
    def forever():
        while True:
            yield sim.timeout(10)
    sim.spawn(forever())
    sim.run(until=35)
    assert sim.now == 35


def test_run_until_complete_with_perpetual_daemon(sim):
    """A daemon must not keep run_until_complete alive forever."""
    def daemon():
        while True:
            yield sim.timeout(1)
    def task():
        yield sim.timeout(7)
        return "done"
    sim.spawn(daemon())
    process = sim.spawn(task())
    assert sim.run_until_complete(process, limit=100) == "done"


def test_run_until_complete_incomplete_raises(sim):
    def slow():
        yield sim.timeout(1000)
    with pytest.raises(SimulationError, match="did not complete"):
        sim.run_until_complete(sim.spawn(slow()), limit=10)


def test_any_of_first_wins(sim, drive):
    def main():
        index, value = yield sim.any_of(
            [sim.timeout(5, "slow"), sim.timeout(2, "fast")])
        return (index, value, sim.now)
    assert drive(sim, main()) == (1, "fast", 2.0)


def test_all_of_collects_in_order(sim, drive):
    def main():
        values = yield sim.all_of(
            [sim.timeout(5, "a"), sim.timeout(2, "b"), sim.timeout(4, "c")])
        return (values, sim.now)
    assert drive(sim, main()) == (["a", "b", "c"], 5.0)


def test_all_of_empty_succeeds_immediately(sim, drive):
    def main():
        values = yield sim.all_of([])
        return values
    assert drive(sim, main()) == []


def test_any_of_empty_rejected(sim):
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_all_of_failure_propagates(sim, drive):
    doomed = sim.event()
    def failer():
        yield sim.timeout(1)
        doomed.fail(KeyError("nope"))
    def main():
        with pytest.raises(KeyError):
            yield sim.all_of([sim.timeout(5), doomed])
        return sim.now
    sim.spawn(failer())
    assert drive(sim, main()) == 1.0


def test_call_at_runs_callable(sim):
    seen = []
    sim.call_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_call_at_past_rejected(sim):
    def advance():
        yield sim.timeout(10)
        with pytest.raises(SimulationError):
            sim.call_at(5, lambda: None)
        return True
    process = sim.spawn(advance())
    assert sim.run_until_complete(process)


def test_nested_yield_from_subgenerators(sim, drive):
    def inner():
        yield sim.timeout(2)
        return 10
    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b, sim.now
    assert drive(sim, outer()) == (20, 4.0)


# -- the run_until_complete contract ----------------------------------------


def _sleeper(sim, delay, value=None):
    yield sim.timeout(delay)
    return value


class TestRunUntilCompleteContract:
    def test_a_waiter_that_attached_during_the_call_is_resumed_first(
            self, sim):
        target = sim.spawn(_sleeper(sim, 5, "done"))
        log = []
        def late_waiter():
            yield sim.timeout(2)            # the call is already running
            log.append((yield target))
        sim.spawn(late_waiter())
        assert sim.run_until_complete(target) == "done"
        assert log == ["done"]

    def test_entries_behind_the_completion_entry_wait_for_the_next_run(
            self, sim):
        ran = []
        process = sim.spawn(_sleeper(sim, 3))
        def same_instant():
            yield sim.timeout(3)            # fires after the target's timer
            sim.call_at(sim.now, lambda: ran.append(sim.now))
        sim.spawn(same_instant())
        process.add_callback(lambda event: sim.call_at(
            sim.now, lambda: ran.append("late")))
        sim.run_until_complete(process)
        assert ran == [] and process.processed
        sim.run()
        assert ran == [3.0, "late"] and sim.now == 3.0

    @staticmethod
    def _scenario(profiler, complete):
        sim = Simulator()
        if profiler is not None:
            sim.attach(profiler)
        try:
            pool = Resource(sim, capacity=1)
            def worker(hold):
                yield from pool.occupy(hold)
                yield sim.timeout(0)
            for hold in (1.0, 2.0, 0.5):
                sim.spawn(worker(hold))
            last = sim.spawn(worker(4.0))
            if complete:
                sim.run_until_complete(last)
            else:
                sim.run()
        finally:
            if profiler is not None:
                profiler.finish(sim.now)
        assert last.processed and not sim._ready and not sim._queue
        return sim.events_executed

    @pytest.mark.parametrize("stride", [None, 1, 7])
    def test_events_executed_is_the_same_through_both_entry_points(
            self, stride):
        counts = []
        for complete in (False, True):
            profiler = None if stride is None else HostProfiler(stride)
            counts.append(self._scenario(profiler, complete))
            if profiler is not None:
                assert profiler.events == counts[-1]
        assert counts[0] == counts[1] == self._scenario(None, False)

    def test_an_exception_from_a_later_completion_callback_leaves_no_halt(
            self, sim):
        target = sim.spawn(_sleeper(sim, 2))
        def boom(event):
            raise RuntimeError("boom")
        def attach_during_the_call():
            yield sim.timeout(1)
            target.callbacks.append(boom)   # runs after the halt is armed
        sim.spawn(attach_during_the_call())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until_complete(target)
        assert len(sim._ready) == 0 and target.callbacks == []
        assert target.processed
        assert sim.run() == 2.0

    def test_an_exception_from_another_entry_leaves_no_callback(self, sim):
        target = sim.spawn(_sleeper(sim, 5, "late"))
        def boom():
            raise RuntimeError("boom")
        sim.call_at(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until_complete(target)
        assert len(sim._ready) == 0 and target.callbacks == []
        assert sim.run() == 5.0             # red if the halt fires in run()
        assert target.value == "late"

    def test_a_finished_process_returns_without_running_an_entry(self, sim):
        process = sim.spawn(_sleeper(sim, 1, "v"))
        sim.spawn(_sleeper(sim, 9))
        sim.run(until=2)
        executed = sim.events_executed
        assert sim.run_until_complete(process, limit=100) == "v"
        assert sim.events_executed == executed and sim.now == 2

    def test_a_tripped_limit_moves_the_clock_a_drained_queue_does_not(
            self, sim):
        with pytest.raises(SimulationError, match=r"t=10\.000"):
            sim.run_until_complete(sim.spawn(_sleeper(sim, 1000)), limit=10)
        assert sim.now == 10
        fresh = Simulator()
        def stuck():
            yield fresh.timeout(1)
            yield fresh.event()
        with pytest.raises(SimulationError, match="did not complete"):
            fresh.run_until_complete(fresh.spawn(stuck()), limit=50)
        assert fresh.now == 1.0

    def test_failures_surface_and_the_driver_is_not_an_observer(self, sim):
        def bad(delay):
            yield sim.timeout(delay)
            raise ValueError(f"died at {delay}")
        target = sim.spawn(bad(2))
        with pytest.raises(ValueError, match="died at 2"):
            sim.run_until_complete(target)
        assert not target._ever_waited
        # Another process's unobserved failure is not swallowed either.
        sim.spawn(bad(1))
        with pytest.raises(ValueError, match="died at 1"):
            sim.run_until_complete(sim.spawn(_sleeper(sim, 3)))


# -- instants the kernel cannot order ---------------------------------------


class TestUnorderableInstants:
    def test_the_clock_does_not_run_backwards(self, sim):
        sim.spawn(_sleeper(sim, 20))
        sim.run(until=12)
        with pytest.raises(SimulationError):
            sim.run(until=5)
        assert sim.now == 12
        assert sim.run(until=12) == 12      # a bound equal to now: no-op
        stuck = sim.spawn(_sleeper(sim, 100))
        with pytest.raises(SimulationError, match="12"):
            sim.run_until_complete(stuck, limit=3)
        assert sim.now == 12

    def test_nan_is_not_an_instant(self, sim):
        class Payload:
            cancelled = False
            def fire(self):
                raise AssertionError("fired")
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.timeout(nan)
        with pytest.raises(SimulationError):
            sim.schedule(nan, Payload())
        with pytest.raises(SimulationError):
            sim.run(until=nan)
        with pytest.raises(SimulationError):
            sim.run_until_complete(sim.spawn(_sleeper(sim, 1)), limit=nan)
        assert sim.now == 0.0
        assert sim.run() == 1.0


class TestLaunch:
    """``Simulator.launch``: a generator nothing can wait on is driven by
    the driver every process has, and leaves no completion entry."""

    def test_boots_in_the_slot_spawn_would_and_leaves_no_completion(self):
        def counted(start):
            sim = Simulator()
            order = []

            def body(name):
                order.append(name)
                return
                yield

            sim.spawn(body("first"))
            start(sim, body("middle"), "middle")
            sim.spawn(body("last"))
            sim.run()
            return order, sim.events_executed

        spawned = counted(Simulator.spawn)
        launched = counted(Simulator.launch)
        assert spawned[0] == launched[0] == ["first", "middle", "last"]
        # a process: bootstrap + completion; a task: its boot slot only
        assert spawned[1] - launched[1] == 1
        assert launched[1] == 5

    def test_resumed_in_the_entry_that_processes_its_event(self, sim):
        seen = []

        def body():
            seen.append((yield sim.timeout(5.0, "v")))
            seen.append(sim.now)

        assert sim.launch(body(), "t") is None
        sim.run()
        assert seen == ["v", 5.0]
        assert sim.events_executed == 2     # boot slot + the timer

    def test_an_already_processed_event_resumes_it_in_a_late_call(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()
        seen = []

        def body():
            seen.append((yield event))

        sim.launch(body(), "late")
        before = sim.events_executed
        sim.run()
        assert seen == ["early"]
        assert sim.events_executed - before == 2    # boot slot + late call

    def test_a_failed_event_is_thrown_in(self, sim):
        event = sim.event()
        seen = []

        def body():
            try:
                yield event
            except KeyError as exc:
                seen.append(exc.args[0])

        sim.launch(body(), "t")
        event.fail(KeyError("gone"))
        sim.run()
        assert seen == ["gone"]

    def test_a_non_event_yield_throws_a_simulation_error_in(self, sim):
        seen = []

        def tolerant():
            try:
                yield 123
            except SimulationError as exc:
                seen.append(str(exc))
            yield sim.timeout(1.0)
            seen.append(sim.now)

        sim.launch(tolerant(), "tolerant")
        sim.run()
        assert "'tolerant' yielded 123" in seen[0]
        assert "only yield Event" in seen[0]
        assert seen[1] == 1.0

        def careless():
            yield "not an event"

        sim.launch(careless(), "careless")
        with pytest.raises(SimulationError, match="only yield Event"):
            sim.run()

    def test_a_raising_task_surfaces_at_the_end_of_the_run(self, sim):
        log = []

        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("task crashed")

        def bystander():
            yield sim.timeout(3.0)
            log.append(sim.now)

        sim.launch(bad(), "bad")
        sim.spawn(bystander())
        with pytest.raises(RuntimeError, match="task crashed"):
            sim.run()
        assert log == [3.0]      # the run went on; the failure waited

    def test_waiting_on_a_child_process_observes_it(self, sim):
        seen = []

        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("child failed")

        def body():
            try:
                yield sim.spawn(child())
            except RuntimeError as exc:
                seen.append(str(exc))

        sim.launch(body(), "parent")
        sim.run()           # the child's failure was observed: no raise
        assert seen == ["child failed"]
