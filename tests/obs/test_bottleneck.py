"""The bottleneck analyzer: synthetic reports and real workloads."""

import pytest

from repro.bench.harness import run_point
from repro.net.topology import RACK, make_fabric
from repro.obs import (
    SATURATION_THRESHOLD,
    UtilizationCollector,
    analyze,
    format_analysis,
)
from repro.rpc.erpc import RpcClient, RpcConfig, RpcServer
from repro.workload import YCSB_C


def _row(name, kind, utilization, mean_depth=0.0, p99=0.0):
    return {"name": name, "kind": kind, "capacity": 1,
            "utilization": utilization,
            "queue": {"mean_depth": mean_depth, "max_depth": 0,
                      "delay_us": {"count": 0, "p99": p99}},
            "events": 0, "units": 0}


class TestAnalyzeSynthetic:
    def test_empty_report_is_unknown(self):
        analysis = analyze([])
        assert analysis["verdict"] == "unknown"
        assert analysis["resource"] is None

    def test_below_threshold_is_load_bound(self):
        report = [_row("cores", "cpu", 0.40), _row("tx.port", "wire", 0.55)]
        analysis = analyze(report)
        assert analysis["verdict"] == "load-bound"
        # Still names the most utilized resource for headroom guidance.
        assert analysis["resource"] == "tx.port"
        assert analysis["headroom"] == pytest.approx(1 / 0.55 - 1)
        assert analysis["saturated"] == []

    def test_saturated_resource_names_verdict(self):
        report = [_row("cores", "cpu", 0.97), _row("tx.port", "wire", 0.60)]
        analysis = analyze(report)
        assert analysis["verdict"] == "cpu-bound"
        assert analysis["resource"] == "cores"
        assert analysis["utilization"] == pytest.approx(0.97)
        assert analysis["saturated"] == ["cores"]

    def test_threshold_is_inclusive_boundary(self):
        at_threshold = analyze([_row("pu", "nic", SATURATION_THRESHOLD)])
        assert at_threshold["verdict"] == "nic-bound"
        below = analyze([_row("pu", "nic", SATURATION_THRESHOLD - 1e-6)])
        assert below["verdict"] == "load-bound"

    def test_non_capacity_kinds_never_win(self):
        # Occupancy counters (None utilization) and non-contended kinds
        # (engine op counts) must not be named as the bottleneck.
        report = [_row("fabric.inflight", "net", None),
                  _row("engine", "engine", 0.99),
                  _row("cores", "cpu", 0.50)]
        analysis = analyze(report)
        assert analysis["resource"] == "cores"
        assert analysis["verdict"] == "load-bound"

    def test_ranked_is_sorted_and_bounded(self):
        report = [_row(f"r{i}", "wire", i / 10.0) for i in range(10)]
        analysis = analyze(report, top=3)
        ranked = analysis["ranked"]
        assert len(ranked) == 3
        assert [r["name"] for r in ranked] == ["r9", "r8", "r7"]

    def test_format_mentions_verdict_and_resource(self):
        text = format_analysis(analyze([_row("cores", "cpu", 0.95)]))
        assert "cpu-bound" in text
        assert "cores" in text


class TestAnalyzeWorkloads:
    def test_cpu_bound_rpc_workload(self, sim):
        """Closed-loop RPCs against a single-core server saturate CPU."""
        collector = sim.attach(UtilizationCollector())
        fabric = make_fabric(sim, RACK, ["client", "server"])
        server = RpcServer(sim, fabric, "server",
                           config=RpcConfig(cores=1))
        server.register("work", lambda args: (None, 16), service_us=3.0)
        clients = [RpcClient(sim, fabric, "client") for _ in range(8)]

        def loop(client):
            for _ in range(30):
                yield from client.call("server", "work", None, 32)

        def parent():
            procs = [sim.spawn(loop(client)) for client in clients]
            for proc in procs:
                yield proc

        sim.run_until_complete(sim.spawn(parent()))
        collector.finish(sim.now)
        analysis = analyze(collector.report())
        assert analysis["verdict"] == "cpu-bound"
        assert analysis["resource"] == "rpc@server"
        assert analysis["utilization"] >= SATURATION_THRESHOLD

    def test_nic_bound_one_sided_reads(self):
        """Pilaf-HW one-sided reads at high load saturate the NIC PUs,
        with the server TX wire right behind — the paper's fig. 3
        client-scaling regime."""
        collector = UtilizationCollector()
        run_point("kv", "pilaf-hw",
                  lambda i: YCSB_C(400, seed=11, client_id=i), 72,
                  n_keys=400, warmup_us=200.0, measure_us=800.0,
                  utilization=collector)
        analysis = analyze(collector.report())
        assert analysis["verdict"] in ("nic-bound", "wire-bound")
        ranked_kinds = [r["kind"] for r in analysis["ranked"][:2]]
        assert set(ranked_kinds) == {"nic", "wire"}
        assert analysis["utilization"] >= SATURATION_THRESHOLD
