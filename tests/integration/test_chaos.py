"""Chaos runs: whole benchmarks under seeded fault plans.

Each test runs a full closed-loop benchmark point under injection and
requires it to (a) complete — ``run_point`` re-raises any orphaned
process failure, so completion alone proves no process died unnoticed
— (b) keep nonzero goodput, and (c) replay deterministically.
"""

import pytest

from repro.bench.harness import run_point
from repro.workload import YCSB_A, YcsbTransactionalWorkload

pytestmark = pytest.mark.usefixtures("ties")

_POINT = dict(n_clients=8, n_keys=500, warmup_us=100, measure_us=800)


def _rs(faults):
    return run_point("rs", "prism-sw",
                     lambda i: YCSB_A(500, seed=5, client_id=i),
                     faults=faults, **_POINT)


def _tx(faults):
    return run_point(
        "tx", "prism-sw",
        lambda i: YcsbTransactionalWorkload(500, keys_per_txn=1, zipf=0.5,
                                            seed=7, client_id=i),
        faults=faults, **_POINT)


def _abdlock(faults):
    return run_point("rs", "abdlock-hw",
                     lambda i: YCSB_A(500, seed=5, client_id=i),
                     faults=faults, **_POINT)


class TestDropRecovery:
    def test_rs_survives_message_loss(self):
        result = _rs("seed=3,drop=0.01")
        report = result.extra["faults"]
        assert result.ops > 0
        assert report["goodput_mops"] > 0
        assert report["messages_dropped"] > 0
        assert report["retransmissions"] > 0
        assert report["retries_exhausted"] == 0

    def test_tx_survives_message_loss(self):
        result = _tx("seed=3,drop=0.01")
        report = result.extra["faults"]
        assert result.ops > 0
        assert report["goodput_mops"] > 0
        assert report["messages_dropped"] > 0
        assert report["retries_exhausted"] == 0

    def test_abdlock_survives_message_loss(self):
        """The lock-based ABD flavor must not deadlock on a lost lock
        RPC: settle() waits for every lock op's outcome, and the CAS
        ambiguity rule recognizes a retransmitted lock that already
        took effect (the lock word holds our client id)."""
        result = _abdlock("seed=2,drop=0.01")
        report = result.extra["faults"]
        assert result.ops > 0
        assert report["retries_exhausted"] == 0

    def test_rs_survives_duplication_and_jitter(self):
        result = _rs("seed=5,drop=0.01,dup=0.01,jitter=2")
        report = result.extra["faults"]
        assert result.ops > 0
        assert report["messages_duplicated"] > 0
        assert report["messages_delayed"] > 0


class TestCrashRecovery:
    def test_rs_rides_through_replica_crash(self):
        """ABD with n=3 tolerates f=1: a replica down for a window in
        the middle of the run must not stall the quorum."""
        result = _rs("seed=3,drop=0.005,crash=replica1@400+300")
        report = result.extra["faults"]
        assert result.ops > 0
        assert report["crashes"] == 1
        assert report["recoveries"] == 1
        assert report["crash_drops"] > 0
        assert report["hosts_down"] == []

    def test_tx_rides_through_server_crash_window(self):
        result = _tx("seed=3,crash=server@600+300")
        report = result.extra["faults"]
        assert result.ops > 0
        assert report["crashes"] == 1
        assert report["crash_drops"] > 0


class TestStarvation:
    def test_rs_survives_freelist_starvation(self):
        result = _rs("seed=3,starve=0.5,starve_at=300,starve_hold=400")
        report = result.extra["faults"]
        assert result.ops > 0
        assert report["starved_buffers"] > 0
        assert report["restored_buffers"] == report["starved_buffers"]


class TestChaosDeterminism:
    def _signature(self, result):
        report = result.extra["faults"]
        return (result.ops, result.throughput_ops_per_sec,
                result.mean_latency_us, result.p99_latency_us,
                result.aborts, report["messages_dropped"],
                report["timeouts"], report["retransmissions"])

    def test_rs_chaos_replays_exactly(self):
        spec = "seed=11,drop=0.01,dup=0.005,crash=replica2@500+200"
        assert (self._signature(_rs(spec))
                == self._signature(_rs(spec)))

    def test_tx_chaos_replays_exactly(self):
        spec = "seed=11,drop=0.01"
        assert (self._signature(_tx(spec))
                == self._signature(_tx(spec)))
