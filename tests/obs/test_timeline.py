"""Utilization accounting invariants.

The monitors integrate piecewise-constant state on the simulated
clock, so every quantity here is exact (float rounding aside), not
statistical: busy + idle must equal the elapsed window times capacity,
window sums must equal run totals, and counter pairs must reconcile.
"""

import pytest

from repro.bench.harness import run_point
from repro.net.fabric import Fabric, Host
from repro.obs import UtilizationCollector
from repro.obs.timeline import BUSY, DEFAULT_WINDOW_US, DEPTH_TIME, EVENTS
from repro.sim import Simulator
from repro.sim.resources import Resource
from repro.workload import YCSB_C


def _collector(sim, window_us=10.0):
    return sim.attach(UtilizationCollector(window_us=window_us))


def _hold(sim, resource, duration):
    yield resource.acquire()
    yield sim.timeout(duration)
    resource.release()


def _contended_run(sim):
    """One capacity-1 resource, two overlapping holders.

    A holds [0, 15); B arrives at 5, waits 10 in queue, holds [15, 25).
    """
    collector = _collector(sim)
    resource = Resource(sim, capacity=1, name="box", kind="cpu")

    def parent():
        first = sim.spawn(_hold(sim, resource, 15))
        yield sim.timeout(5)
        second = sim.spawn(_hold(sim, resource, 10))
        yield first
        yield second

    sim.run_until_complete(sim.spawn(parent()))
    collector.finish(sim.now)
    return collector, resource.monitor


class TestResourceMonitor:
    def test_busy_plus_idle_equals_elapsed_times_capacity(self, sim):
        collector, monitor = _contended_run(sim)
        elapsed = collector.elapsed
        busy = monitor.busy_between(0.0, elapsed)
        idle = elapsed * monitor.capacity - busy
        assert busy == pytest.approx(25.0)
        assert busy + idle == pytest.approx(elapsed * monitor.capacity)
        assert idle >= 0.0

    def test_busy_never_exceeds_wall_times_capacity(self, sim):
        collector, monitor = _contended_run(sim)
        elapsed = collector.elapsed
        assert monitor.busy_us <= elapsed * monitor.capacity + 1e-9
        for start, stop, cell in monitor.buckets.spans(monitor.end):
            assert cell[BUSY] <= (stop - start) * monitor.capacity + 1e-9

    def test_window_sums_equal_run_totals(self, sim):
        _, monitor = _contended_run(sim)
        cells = monitor.buckets.cells.values()
        assert sum(c[BUSY] for c in cells) == pytest.approx(monitor.busy_us)
        assert sum(c[DEPTH_TIME] for c in cells) == \
            pytest.approx(monitor.depth_time_us)
        assert sum(c[EVENTS] for c in cells) == monitor.events

    def test_windows_tile_the_run(self, sim):
        collector, monitor = _contended_run(sim)
        spans = monitor.buckets.spans(monitor.end)
        assert spans[0][0] == 0.0
        assert spans[-1][1] == collector.elapsed
        for left, right in zip(spans, spans[1:]):
            assert left[1] == right[0]

    def test_counters_reconcile(self, sim):
        _, monitor = _contended_run(sim)
        # Everything finished: every request was granted and released,
        # and every enqueue was matched by a dequeue.
        assert monitor.requests == 2
        assert monitor.grants == monitor.requests
        assert monitor.releases == monitor.grants
        assert monitor.enqueues == 1
        assert monitor.dequeues == monitor.enqueues
        assert monitor._depth == 0
        assert monitor._in_use == 0

    def test_queue_depth_integral_and_delays(self, sim):
        _, monitor = _contended_run(sim)
        # B queued from t=5 to t=15: depth 1 for 10 µs.
        assert monitor.depth_time_us == pytest.approx(10.0)
        assert monitor.max_depth == 1
        assert sorted(monitor.queue_delays) == [0.0, 10.0]

    def test_measurement_window_attribution(self, sim):
        collector, monitor = _contended_run(sim)
        # [0, 25] fully busy; any sub-window of a fully-busy region
        # attributes proportionally to exactly its width.
        assert monitor.busy_between(5.0, 20.0) == pytest.approx(15.0)
        assert monitor.utilization(5.0, 20.0) == pytest.approx(1.0)
        report = collector.report(start=5.0, end=20.0)
        assert report[0]["utilization"] == pytest.approx(1.0)
        # Partial windows attribute proportionally: the [0,10) window
        # holds 5 µs of depth-time, half of which lands in [5,10).
        assert report[0]["queue"]["mean_depth"] == pytest.approx(
            monitor.depth_time_between(5.0, 20.0) / 15.0)
        assert monitor.depth_time_between(5.0, 20.0) == pytest.approx(7.5)

    def test_uncontended_acquire_has_zero_delay(self, sim):
        collector = _collector(sim)
        resource = Resource(sim, capacity=2, name="wide", kind="nic")
        sim.run_until_complete(sim.spawn(_hold(sim, resource, 4)))
        collector.finish(sim.now)
        monitor = resource.monitor
        assert monitor.queue_delays == [0.0]
        assert monitor.busy_us == pytest.approx(4.0)
        # Two slots, one busy: utilization is halved.
        assert monitor.utilization(0.0, 4.0) == pytest.approx(0.5)


class TestChargeAndDepthMonitors:
    def test_charge_monitor_accumulates(self, sim):
        collector = _collector(sim)
        monitor = collector.charge_monitor("dma", kind="pcie", capacity=2)
        monitor.charge(3.0, events=1, units=512)
        monitor.charge(5.0, events=1, units=1024)
        monitor.count(events=4, units=64)
        collector.finish(10.0)
        assert monitor.busy_us == pytest.approx(8.0)
        assert monitor.events == 6
        assert monitor.units == 512 + 1024 + 64
        assert monitor.utilization(0.0, 10.0) == pytest.approx(8.0 / 20.0)

    def test_depth_monitor_reconciles(self, sim):
        collector = _collector(sim)
        monitor = collector.depth_monitor("inflight", kind="channel")

        def traffic():
            monitor.adjust(+1)
            yield sim.timeout(4)
            monitor.adjust(+1)
            yield sim.timeout(2)
            monitor.adjust(-1)
            monitor.adjust(-1)

        sim.run_until_complete(sim.spawn(traffic()))
        collector.finish(sim.now)
        assert monitor.enters == 2
        assert monitor.exits == 2
        assert monitor.enters - monitor.exits == monitor._depth
        # depth 1 over [0,4), depth 2 over [4,6).
        assert monitor.depth_time_us == pytest.approx(4.0 + 2 * 2.0)
        assert monitor.max_depth == 2
        # No capacity ceiling: utilization is undefined, not a number.
        assert monitor.utilization(0.0, 6.0) is None

    def test_wire_port_reports_bytes(self, sim):
        collector = _collector(sim)
        fabric = Fabric(sim, one_way_latency_us=1.0)
        fabric.add_host(Host(sim, "host", bytes_per_us=100.0))
        fabric.add_host(Host(sim, "peer", bytes_per_us=100.0))
        fabric.host("peer").register_service("sink", lambda message: None)
        fabric.post("host", "peer", "sink", None, 500)
        sim.run()
        collector.finish(sim.now)
        rows = {row["name"]: row for row in collector.report()}
        for name in ("host.tx.port", "peer.rx.port"):
            assert rows[name]["kind"] == "wire"
            assert rows[name]["capacity"] == 1
            assert rows[name]["bytes"] == 500
            assert rows[name]["messages"] == 1
        assert rows["host.rx.port"]["messages"] == 0


class TestDeterminism:
    def test_monitored_run_is_bit_identical(self):
        def workload(keys):
            return lambda i: YCSB_C(keys, seed=11, client_id=i)

        plain = run_point("kv", "prism-sw", workload(200), 2, n_keys=200)
        monitored = run_point("kv", "prism-sw", workload(200), 2,
                              n_keys=200,
                              utilization=UtilizationCollector())
        assert plain == monitored

    def test_no_collector_means_no_monitor(self, sim):
        resource = Resource(sim, name="bare")
        assert resource.monitor is None
        assert sim.utilization is None

    def test_default_window(self):
        sim = Simulator()
        collector = sim.attach(UtilizationCollector())
        assert collector.window_us == DEFAULT_WINDOW_US
        resource = Resource(sim, name="auto")
        assert resource.monitor in collector.monitors
