"""The seeded tie-order shuffle (``Simulator.shuffle_ties``).

At each instant the next entry is drawn from everything due then: the
heap entries whose time has come and the ready deque alike. The default
order — heap entries first, then the deque FIFO — is one draw among
many (docs/performance.md, rule 11(e)).
"""

import pytest

from repro.obs import HostProfiler
from repro.sim import SimulationError, Simulator

#: heap entries due at t = 1.0, each of which queues one deque entry
_BATCH = 4


def _batch(sim):
    """Four heap entries at t = 1.0, ``h0``..``h3``; each queues its
    successor ``d<i>`` on the ready deque when it runs. Returns the log
    of names in run order."""
    log = []

    def heap_entry(index):
        def run():
            log.append(f"h{index}")
            sim.call_at(sim.now, lambda: log.append(f"d{index}"))
        return run

    for index in range(_BATCH):
        sim.call_at(1.0, heap_entry(index))
    return log


def _order(ties=None):
    sim = Simulator()
    if ties is not None:
        sim.shuffle_ties(ties)
    log = _batch(sim)
    sim.run()
    return log, sim.events_executed


def test_the_same_seed_gives_the_same_run():
    assert _order(ties=5) == _order(ties=5)


def test_two_seeds_permute_a_batch_of_heap_and_deque_entries():
    default, executed = _order()
    orders = {tuple(_order(ties=seed)[0]) for seed in range(1, 9)}
    assert len(orders) > 1
    for order in orders:
        assert sorted(order) == sorted(default)
    # The draw takes heap entries too: some successor runs ahead of a
    # heap entry that was due before it was queued.
    assert any(order.index("d0") < order.index("h3")
               or order[0] != "h0" for order in orders)
    assert any(min(order.index(f"d{i}") for i in range(_BATCH))
               < max(order.index(f"h{i}") for i in range(_BATCH))
               for order in orders)
    assert all(_order(ties=seed)[1] == executed for seed in range(1, 9))


def test_a_causal_successor_never_runs_before_its_cause():
    for seed in range(40):
        order, _ = _order(ties=seed)
        for index in range(_BATCH):
            assert order.index(f"h{index}") < order.index(f"d{index}")


def test_with_the_shuffle_off_the_order_is_the_default_loops():
    """Heap entries first, in push order, then the deque FIFO."""
    default, executed = _order()
    assert default == ["h0", "h1", "h2", "h3", "d0", "d1", "d2", "d3"]
    assert executed == len(default)
    assert Simulator()._ties is None


def test_a_halt_still_ends_run_until_complete_at_once():
    """The completion entry's halt runs before any other draw; the
    entries still due stay queued, heap entries back on the heap, and
    the next run takes them."""
    left_behind = 0
    for seed in range(12):
        sim = Simulator()
        sim.shuffle_ties(seed)
        log = _batch(sim)

        def finisher():
            yield sim.sleep_until(1.0)
            log.append("done")

        process = sim.spawn(finisher())
        at_completion = []
        process.add_callback(lambda _event: at_completion.append(len(log)))
        sim.run_until_complete(process)
        assert len(log) == at_completion[0]
        executed = sim.events_executed
        sim.run()
        assert sorted(log) == sorted(
            ["done", *(f"h{i}" for i in range(_BATCH)),
             *(f"d{i}" for i in range(_BATCH))])
        assert sim.events_executed == executed + len(log) - at_completion[0]
        left_behind += len(log) - at_completion[0]
    assert left_behind > 0


def test_a_cancelled_timer_drawn_later_is_skipped_and_paid_back():
    """A heap timer due now but cancelled by an entry drawn before it
    does not fire, and its tombstone is paid back when it is drawn."""
    skipped = 0
    for seed in range(12):
        sim = Simulator()
        sim.shuffle_ties(seed)
        fired = []
        timers = [sim.timeout(1.0) for _ in range(3)]
        for index, timer in enumerate(timers):
            timer.callbacks.append(
                lambda _event, index=index: fired.append(index))
        before_cancel = []

        def cancel_the_others():
            before_cancel.extend(fired)
            for timer in timers:
                timer.cancel()
        sim.call_at(1.0, cancel_the_others)
        sim.run()
        assert fired == before_cancel
        assert sim._cancelled_timers == 0 and sim._queue == []
        skipped += 3 - len(fired)
    assert skipped > 0


def test_a_tombstone_does_not_move_the_clock():
    """As in the default loop, a cancelled timer is skipped without
    advancing the clock to its instant."""
    for ties in (None, 3):
        sim = Simulator()
        if ties is not None:
            sim.shuffle_ties(ties)
        sim.call_at(1.0, lambda: None)
        sim.timeout(5.0).cancel()
        assert sim.run() == 1.0
        assert sim._cancelled_timers == 0 and sim._queue == []


def test_until_stops_before_the_next_instant_with_the_clock_untouched():
    sim = Simulator()
    sim.shuffle_ties(1)
    log = _batch(sim)
    sim.call_at(3.0, lambda: log.append("late"))
    sim.run(until=2.0)
    assert "late" not in log and len(log) == 2 * _BATCH
    assert sim.now == 2.0
    sim.run()
    assert log[-1] == "late"


def test_the_installer_refuses_a_host_profiler_and_a_started_run():
    sim = Simulator()
    profiler = sim.attach(HostProfiler())
    try:
        with pytest.raises(SimulationError, match="unprofiled"):
            sim.shuffle_ties(1)
    finally:
        profiler.finish(sim.now)
    sim = Simulator()
    sim.shuffle_ties(1)
    profiler = sim.attach(HostProfiler())
    try:
        with pytest.raises(SimulationError, match="unprofiled"):
            sim.run()
    finally:
        profiler.finish(sim.now)
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="before the simulation runs"):
        sim.shuffle_ties(1)
