"""Determinism: identical inputs must produce identical histories.

Every figure in EXPERIMENTS.md is reproducible only because the
simulator is deterministic — same seeds, same event order, same
microsecond timestamps. These tests run whole experiments twice and
require bit-identical results — in the default tie order and under a
tie seed.
"""

import pytest

from repro.bench.harness import run_point
from repro.workload import YCSB_A, YcsbTransactionalWorkload

pytestmark = pytest.mark.usefixtures("ties")


def _kv_point():
    result = run_point(
        "kv", "prism-sw",
        lambda i: YCSB_A(500, seed=5, client_id=i),
        n_clients=8, n_keys=500, warmup_us=100, measure_us=600)
    return (result.ops, result.throughput_ops_per_sec,
            result.mean_latency_us, result.p99_latency_us)


def _tx_point():
    result = run_point(
        "tx", "farm-hw",
        lambda i: YcsbTransactionalWorkload(200, keys_per_txn=1, zipf=0.9,
                                            seed=7, client_id=i),
        n_clients=8, n_keys=200, warmup_us=100, measure_us=600)
    return (result.ops, result.aborts, result.mean_latency_us)


def test_kv_experiment_is_deterministic():
    assert _kv_point() == _kv_point()


def test_tx_experiment_with_contention_is_deterministic():
    """Even abort/retry schedules replay exactly (seeded backoff)."""
    assert _tx_point() == _tx_point()


def test_microbenchmarks_are_deterministic():
    from repro.bench.microbench import measure_primitive
    first = measure_primitive("prism-hw", "indirect-read")
    second = measure_primitive("prism-hw", "indirect-read")
    assert first == second
