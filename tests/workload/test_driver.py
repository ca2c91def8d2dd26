"""Closed-loop driver accounting."""

import pytest

from repro.sim import SimulationError
from repro.workload.driver import DRAIN_LIMIT_US, ClosedLoopDriver
from repro.workload.ycsb import KvOp


class FixedLatencyExecutor:
    """Executes every op in a fixed simulated time."""

    def __init__(self, sim, latency_us, info=None):
        self.sim = sim
        self.latency_us = latency_us
        self.info = info
        self.executed = 0

    def __call__(self, op):
        yield self.sim.timeout(self.latency_us)
        self.executed += 1
        return self.info


class TrivialWorkload:
    def next_op(self):
        return KvOp("get", 0)


def test_driver_requires_clients(sim):
    with pytest.raises(ValueError):
        ClosedLoopDriver(sim).run()


def test_throughput_and_latency_accounting(sim):
    driver = ClosedLoopDriver(sim, warmup_us=100, measure_us=1000,
                              stagger_us=0.0)
    executor = FixedLatencyExecutor(sim, latency_us=10.0)
    driver.add_client(executor, TrivialWorkload())
    result = driver.run()
    assert result.mean_latency_us == pytest.approx(10.0)
    # one op per 10 µs over the 1000 µs window
    assert result.ops == pytest.approx(100, abs=2)
    assert result.throughput_ops_per_sec == pytest.approx(1e5, rel=0.05)


def test_warmup_ops_not_counted(sim):
    driver = ClosedLoopDriver(sim, warmup_us=500, measure_us=500,
                              stagger_us=0.0)
    executor = FixedLatencyExecutor(sim, latency_us=10.0)
    driver.add_client(executor, TrivialWorkload())
    result = driver.run()
    # ~100 ops executed total but only the post-warmup half recorded.
    assert result.ops == pytest.approx(50, abs=2)


def test_multiple_clients_aggregate(sim):
    driver = ClosedLoopDriver(sim, warmup_us=0, measure_us=100,
                              stagger_us=0.0)
    for _ in range(4):
        driver.add_client(FixedLatencyExecutor(sim, 10.0), TrivialWorkload())
    result = driver.run()
    assert result.clients == 4
    assert result.ops == pytest.approx(40, abs=4)


def test_info_dict_counted(sim):
    driver = ClosedLoopDriver(sim, warmup_us=0, measure_us=100,
                              stagger_us=0.0)
    driver.add_client(
        FixedLatencyExecutor(sim, 10.0, info={"retries": 2, "aborts": 1}),
        TrivialWorkload())
    result = driver.run()
    assert result.retries == 2 * result.ops
    assert result.aborts == result.ops


def test_stagger_spreads_starts(sim):
    driver = ClosedLoopDriver(sim, warmup_us=0, measure_us=50,
                              stagger_us=20.0)
    executors = [FixedLatencyExecutor(sim, 10.0) for _ in range(3)]
    for executor in executors:
        driver.add_client(executor, TrivialWorkload())
    result = driver.run()
    # Staggered clients complete different op counts in a short window.
    counts = {e.executed for e in executors}
    assert len(counts) > 1


def test_row_shape(sim):
    driver = ClosedLoopDriver(sim, warmup_us=0, measure_us=100,
                              stagger_us=0.0)
    driver.add_client(FixedLatencyExecutor(sim, 10.0), TrivialWorkload())
    row = driver.run().row()
    assert set(row) == {"clients", "ops", "tput_Mops", "mean_us", "p99_us"}


def test_a_client_that_never_finishes_ends_the_run_with_a_named_error(sim):
    """A livelocked operation (an unbounded retry loop that aborts
    forever) used to keep ``run`` spinning through simulated seconds.
    Reproducer found at PR 18's parent: ``python -m repro.bench.cli
    point --kind tx --flavor prism-sw --clients 8 --keys 2000 --faults
    seed=3,dup=0.01`` never returned."""
    driver = ClosedLoopDriver(sim, warmup_us=0, measure_us=100,
                              stagger_us=0.0)
    driver.add_client(FixedLatencyExecutor(sim, 10.0), TrivialWorkload())

    def retries_forever(op):
        while True:
            yield sim.timeout(50.0)

    driver.add_client(retries_forever, TrivialWorkload())
    with pytest.raises(SimulationError, match="client1 still running"):
        driver.run()
    assert sim.now == 100 + DRAIN_LIMIT_US
