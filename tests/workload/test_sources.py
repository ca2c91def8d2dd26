"""Aggregated open-loop sources: determinism, windows, backpressure."""

import pytest

from repro.obs import HostProfiler
from repro.sim import SimulationError, Simulator
from repro.workload.driver import OpenLoopDriver
from repro.workload.sources import (
    AggregatedOpenLoopSource,
    partition_clients,
)


def make_source(**overrides):
    spec = dict(n_clients=1000, rate_per_client_ops_s=100.0, n_keys=50,
                seed=3)
    spec.update(overrides)
    return AggregatedOpenLoopSource(**spec)


class TestSource:
    def test_mean_gap_matches_aggregate_rate(self):
        source = make_source(n_clients=1000, rate_per_client_ops_s=100.0)
        # 10⁵ ops/s aggregate → 10 µs mean gap
        assert source.mean_gap_us == pytest.approx(10.0)
        gaps = [source.next_gap_us() for _ in range(4000)]
        assert all(gap >= 0 for gap in gaps)
        assert sum(gaps) / len(gaps) == pytest.approx(10.0, rel=0.1)

    def test_deterministic_streams(self):
        first, second = make_source(), make_source()
        assert ([first.next_gap_us() for _ in range(300)]
                == [second.next_gap_us() for _ in range(300)])
        assert ([first.next_op() for _ in range(300)]
                == [second.next_op() for _ in range(300)])

    def test_distinct_sources_differ(self):
        base, other = make_source(source_id=0), make_source(source_id=1)
        assert ([base.next_gap_us() for _ in range(32)]
                != [other.next_gap_us() for _ in range(32)])

    def test_read_fraction_mixes_ops(self):
        source = make_source(read_fraction=0.5)
        kinds = {source.next_op().kind for _ in range(200)}
        assert kinds == {"get", "put"}
        pure = make_source(read_fraction=1.0)
        assert all(pure.next_op().kind == "get" for _ in range(200))

    def test_window_defaults_scale_with_population(self):
        assert make_source(n_clients=10).window == 1
        assert make_source(n_clients=100_000).window == 391
        assert make_source(n_clients=10_000_000).window == 1024
        assert make_source(window=7).window == 7

    def test_describe_records_model(self):
        model = make_source(window=16).describe()
        assert model["model"] == "aggregated-open-loop"
        assert model["clients"] == 1000
        assert model["rate_per_client_ops_s"] == 100.0
        assert model["window"] == 16

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            make_source(n_clients=0)
        with pytest.raises(ValueError):
            make_source(rate_per_client_ops_s=0.0)


class TestPartitionClients:
    def test_even_split(self):
        assert partition_clients(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread_to_earlier(self):
        assert partition_clients(10, 4) == [3, 3, 2, 2]

    def test_fewer_clients_than_sources(self):
        assert partition_clients(2, 8) == [1, 1]

    def test_sums_to_population(self):
        for clients, sources in ((100_000, 11), (7, 3), (1, 1)):
            assert sum(partition_clients(clients, sources)) == clients


class TestOpenLoopDriver:
    def run_driver(self, service_us=5.0, window=4, rate=2000.0,
                   measure_us=500.0):
        sim = Simulator()
        in_flight = {"now": 0, "max": 0}

        def executor(op):
            in_flight["now"] += 1
            in_flight["max"] = max(in_flight["max"], in_flight["now"])
            yield sim.timeout(service_us)
            in_flight["now"] -= 1
            return {}

        source = AggregatedOpenLoopSource(
            1000, rate, n_keys=50, seed=1, window=window)
        driver = OpenLoopDriver(sim, warmup_us=100.0, measure_us=measure_us)
        driver.add_source(executor, source)
        return driver.run(), source, in_flight

    def test_ops_complete_and_count(self):
        result, _, _ = self.run_driver()
        assert result.clients == 1000
        assert result.ops > 100
        assert result.mean_latency_us >= 5.0
        assert result.extra["n_sources"] == 1

    def test_window_bounds_in_flight(self):
        # Offered load (2 ops/µs × 5 µs service = 10 concurrent) far
        # exceeds the window of 4: in-flight must clamp at the window
        # and the deferred arrivals must be counted.
        result, source, in_flight = self.run_driver(window=4)
        assert in_flight["max"] <= 4
        assert result.extra["stalled_arrivals"] > 0
        assert source.stalled_arrivals == result.extra["stalled_arrivals"]

    def test_uncongested_source_never_stalls(self):
        result, _, in_flight = self.run_driver(
            service_us=0.5, rate=200.0, window=64)
        assert result.extra["stalled_arrivals"] == 0
        assert in_flight["max"] <= 64

    def test_deterministic_replay(self):
        first, _, _ = self.run_driver()
        second, _, _ = self.run_driver()
        assert first.ops == second.ops
        assert first.mean_latency_us == second.mean_latency_us
        assert first.p99_latency_us == second.p99_latency_us

    def test_failing_executor_frees_window_slot(self):
        sim = Simulator()
        calls = {"n": 0}

        def executor(op):
            calls["n"] += 1
            yield sim.timeout(1.0)
            if calls["n"] == 1:
                raise RuntimeError("op crashed")
            return {}

        source = AggregatedOpenLoopSource(
            100, 5000.0, n_keys=10, seed=2, window=1)
        driver = OpenLoopDriver(sim, warmup_us=50.0, measure_us=200.0)
        driver.add_source(executor, source)
        # The crash surfaces (fire-and-forget ops are unobserved), but
        # only after the window slot was freed — later arrivals ran.
        with pytest.raises(RuntimeError, match="op crashed"):
            driver.run()
        assert calls["n"] > 1


def _costs_per_arrival(measure_us):
    """``(ops started, ops finished, kernel entries, process resumes,
    process spawns)`` of one source whose ops each wait on a zero-delay
    timer — so every op an arrival starts finishes before the run
    returns, and a slope between two run lengths is exact."""
    sim = Simulator()
    profiler = sim.attach(HostProfiler())
    spawns = [0]
    spawn = sim.spawn

    def counting_spawn(generator, name=None):
        spawns[0] += 1
        return spawn(generator, name=name)

    sim.spawn = counting_spawn
    started, finished = [0], [0]

    def executor(op):
        started[0] += 1
        yield sim.timeout(0)
        finished[0] += 1
        return {}

    driver = OpenLoopDriver(sim, warmup_us=10.0, measure_us=measure_us)
    driver.add_source(executor, AggregatedOpenLoopSource(
        1000, 100.0, n_keys=50, seed=1, window=8))
    try:
        driver.run()
    finally:
        profiler.finish(sim.now)    # stop being the ambient profiler
    return (started[0], finished[0], sim.events_executed, profiler.resumes,
            spawns[0])


class TestArrivalStream:
    """A source is a scheduled payload and an arrival's operation is a
    task with no owner (docs/performance.md, rule 11)."""

    def test_an_arrival_is_three_entries_two_resumes_no_spawn(self):
        """At zero tolerance: the arrival's heap entry, which takes the
        operation's first step, and the zero-delay timer's two slots,
        the last of which runs the operation to its end. The
        operation's two generator steps (its boot and its wake-up) are
        its resumes; the source, a scheduled payload, has none. While
        the operation had a boot slot (``Simulator.launch``) an arrival
        cost 4 entries; while the source and each operation were
        processes, 5 (+ the operation's completion), 3 resumes (the
        source's, the operation's bootstrap and its wake-up) and a
        spawn."""
        short, long = _costs_per_arrival(200.0), _costs_per_arrival(1200.0)
        assert short[0] == short[1] and long[0] == long[1]
        arrivals = long[0] - short[0]
        assert arrivals == 104
        assert tuple((b - a) / arrivals
                     for a, b in zip(short[2:], long[2:])) == (3, 2, 0)

    def test_a_stalled_arrivals_instants_are_the_process_forms(self):
        """Window 1, 3 µs service, 2 µs mean gap: five arrivals stall and
        start in the entry of the completion that freed the window —
        at the instants, to the bit, the source and operation
        processes had."""
        sim = Simulator()
        log = []

        def executor(op):
            start = sim.now
            yield sim.timeout(3.0)
            log.append((start, sim.now))
            return {}

        driver = OpenLoopDriver(sim, warmup_us=5.0, measure_us=30.0)
        driver.add_source(executor, AggregatedOpenLoopSource(
            100, 5000.0, n_keys=10, seed=2, window=1))
        result = driver.run()
        assert result.extra["stalled_arrivals"] == 5
        assert log == [
            (2.138431917654634, 5.138431917654634),
            (5.138431917654634, 8.138431917654634),
            (8.138431917654634, 11.138431917654634),
            (11.138431917654634, 14.138431917654634),
            (16.14380372734474, 19.14380372734474),
            (21.713102345833946, 24.713102345833946),
            (28.829889442797175, 31.829889442797175),
            (31.829889442797175, 34.829889442797175),
        ]
        assert sim.now == 34.829889442797175

    def test_the_drain_watchdog_names_a_stuck_source(self):
        sim = Simulator()

        def executor(op):
            yield sim.timeout(1.0)
            return {}

        never = sim.event()     # held here, as a lost reply's would be

        def stuck(op):
            yield never             # the window stays full and the next
            return {}               # arrival stalls for good

        driver = OpenLoopDriver(sim, warmup_us=10.0, measure_us=100.0)
        driver.add_source(executor, make_source(seed=1, window=4))
        driver.add_source(stuck, make_source(seed=2, window=1, source_id=1))
        with pytest.raises(SimulationError,
                           match=r"run did not drain: source1 still running"):
            driver.run()

    @pytest.mark.xfail(strict=True, reason="the run returns when the last "
                       "arrival stream ends, abandoning the ops in flight "
                       "(ROADMAP: drain an open-loop run's ops)")
    def test_every_op_an_open_loop_run_starts_finishes_before_run_returns(
            self):
        sim = Simulator()
        counts = {"started": 0, "finished": 0}

        def executor(op):
            counts["started"] += 1
            yield sim.timeout(8.0)
            counts["finished"] += 1
            return {}

        driver = OpenLoopDriver(sim, warmup_us=100.0, measure_us=1000.0)
        for index in range(3):
            driver.add_source(executor, AggregatedOpenLoopSource(
                30_000, 20.0, n_keys=100, seed=1, source_id=index))
        driver.run()
        # Today: 2,069 started, 2,054 finished, returned at t = 1099.55.
        assert counts["finished"] == counts["started"]
