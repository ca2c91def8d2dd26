"""The off-by-default contract and faulty-run determinism.

Two guarantees: (1) with no fault plan — or an installed-but-quiet
plan that carries only a seed — a benchmark point is bit-identical to
the uninjected baseline; (2) with a plan installed, the same plan and
workload replay to the same RunResult, drop for drop — under a tie
seed too. (1) is checked in the default tie order only: a quiet plan
arms ack deadlines, so its run has entries the bare run lacks, and a
tie draw orders the two entry sets differently.
"""

import pytest

from repro.bench.harness import run_point
from repro.faults import FaultPlan, parse_faults
from repro.workload import YCSB_A, YcsbTransactionalWorkload

_POINT = dict(n_clients=4, n_keys=300, warmup_us=100, measure_us=500)


def _rs_point(faults=None):
    result = run_point(
        "rs", "prism-sw",
        lambda i: YCSB_A(300, seed=5, client_id=i),
        faults=faults, **_POINT)
    return (result.ops, result.throughput_ops_per_sec,
            result.mean_latency_us, result.median_latency_us,
            result.p99_latency_us, result.aborts)


def _tx_point(faults=None):
    result = run_point(
        "tx", "prism-sw",
        lambda i: YcsbTransactionalWorkload(200, keys_per_txn=1, zipf=0.9,
                                            seed=7, client_id=i),
        faults=faults, **_POINT)
    return (result.ops, result.throughput_ops_per_sec,
            result.mean_latency_us, result.aborts)


class TestQuietPlanBitIdentity:
    def test_rs_quiet_plan_matches_no_plan(self):
        assert _rs_point(faults=FaultPlan(seed=9)) == _rs_point(faults=None)

    def test_tx_quiet_plan_matches_no_plan(self):
        assert _tx_point(faults=FaultPlan(seed=9)) == _tx_point(faults=None)

    @pytest.mark.usefixtures("ties")
    def test_quiet_plan_report_shows_nothing_injected(self):
        result = run_point(
            "rs", "prism-sw",
            lambda i: YCSB_A(300, seed=5, client_id=i),
            faults=FaultPlan(seed=9), **_POINT)
        report = result.extra["faults"]
        assert report["messages_dropped"] == 0
        assert report["messages_duplicated"] == 0
        assert report["messages_delayed"] == 0
        assert report["retransmissions"] == 0


@pytest.mark.usefixtures("ties")
class TestFaultyRunDeterminism:
    def test_rs_same_plan_same_result(self):
        spec = "seed=3,drop=0.02,dup=0.005,jitter=1.5"
        assert _rs_point(faults=spec) == _rs_point(faults=spec)

    def test_tx_same_plan_same_result(self):
        spec = "seed=4,drop=0.02"
        assert _tx_point(faults=spec) == _tx_point(faults=spec)

    def test_injection_counters_replay_exactly(self):
        spec = parse_faults("seed=6,drop=0.02,dup=0.01")

        def counters():
            result = run_point(
                "rs", "prism-sw",
                lambda i: YCSB_A(300, seed=5, client_id=i),
                faults=spec, **_POINT)
            report = result.extra["faults"]
            return (report["messages_dropped"],
                    report["messages_duplicated"],
                    report["timeouts"], report["retransmissions"])

        first = counters()
        assert first == counters()
        assert first[0] > 0  # the plan actually dropped something

    def test_different_seed_different_schedule(self):
        base = "drop=0.02,dup=0.005,jitter=1.5"
        assert (_rs_point(faults=f"seed=1,{base}")
                != _rs_point(faults=f"seed=2,{base}"))
