"""Phase attribution: self-time math, parts, aggregation, invariants."""

import pytest

from repro.obs.breakdown import (
    PHASES,
    breakdown,
    breakdown_rows,
    phase_attribution,
)
from repro.apps.kv import PilafClient, PilafServer, PrismKvClient, PrismKvServer
from repro.net.topology import RACK, make_fabric
from repro.obs.timeline import UtilizationCollector
from repro.obs.trace import Tracer
from repro.prism.backend import BackendConfig
from repro.prism.bluefield import BlueFieldPrismBackend
from repro.prism.engine import Access
from repro.prism.hardware import HardwarePrismBackend, HardwareRdmaBackend
from repro.prism.software import SoftwarePrismBackend, SoftwareRdmaBackend
from repro.sim import Simulator


def _tree(sim):
    """root(10) = a(cpu, 0..4) + b(wire, 4..9) + self 1."""
    tracer = Tracer(sim)
    root = tracer.root("op")
    a = root.child("a", phase="cpu")
    sim._now = 4.0
    a.finish()
    b = root.child("b", phase="wire")
    sim._now = 9.0
    b.finish()
    sim._now = 10.0
    root.finish()
    return root


@pytest.fixture
def clock_sim():
    sim = Simulator()
    assert sim.now == 0.0
    return sim


class TestPhaseAttribution:
    def test_self_time_tiles_exactly(self, clock_sim):
        root = _tree(clock_sim)
        totals = phase_attribution(root)
        assert totals["cpu"] == pytest.approx(4.0)
        assert totals["wire"] == pytest.approx(5.0)
        assert totals["other"] == pytest.approx(1.0)  # root's own gap
        assert sum(totals.values()) == pytest.approx(root.duration)

    def test_parts_refine_a_lump_span(self, clock_sim):
        sim = clock_sim
        tracer = Tracer(sim)
        root = tracer.root("op")
        lump = root.child("nic-op", phase="nic")
        lump.parts = {"nic": 1.0, "pcie": 2.0}
        sim._now = 3.0
        lump.finish()
        root.finish()
        totals = phase_attribution(root)
        assert totals["nic"] == pytest.approx(1.0)
        assert totals["pcie"] == pytest.approx(2.0)
        assert sum(totals.values()) == pytest.approx(3.0)

    def test_open_subtrees_are_pruned(self, clock_sim):
        """A quorum straggler still running at report time contributes
        nothing (its duration would read the current clock)."""
        sim = clock_sim
        tracer = Tracer(sim)
        root = tracer.root("op")
        straggler = root.child("slow-replica", phase="wire")
        done = straggler.child("finished-grandchild", phase="cpu")
        sim._now = 2.0
        done.finish()
        sim._now = 5.0
        root.finish()  # straggler never finished
        sim._now = 1000.0
        totals = phase_attribution(root)
        assert totals["wire"] == 0.0
        assert totals["cpu"] == 0.0
        assert totals["other"] == pytest.approx(5.0)


class TestBreakdownAggregation:
    def test_groups_by_op_name(self, clock_sim):
        roots = [_tree(clock_sim)]
        report = breakdown(roots)
        assert set(report) == {"op"}
        entry = report["op"]
        assert entry["count"] == 1
        assert entry["mean_us"] == pytest.approx(10.0)
        assert entry["phase_sum_us"] == pytest.approx(10.0)

    def test_unfinished_roots_skipped(self, clock_sim):
        tracer = Tracer(clock_sim)
        tracer.root("open-op")  # never finished
        assert breakdown(tracer.roots) == {}

    def test_rows_omit_empty_phases(self, clock_sim):
        headers, rows = breakdown_rows(breakdown([_tree(clock_sim)]))
        assert "nic_us" not in headers  # no NIC time in this tree
        assert headers[:3] == ["op", "count", "mean_us"]
        assert headers[-1] == "sum_us"
        assert rows[0][0] == "op"


class TestOpTimePartsMirrorsOpTime:
    """A backend prices an op in one walk of its access trace: the
    duration keeps the seed's exact addition order, and the phase split
    that comes with it sums to that duration."""

    ACCESSES = [
        Access("r", "host", 512),
        Access("w", "sram", 8),
        Access("r", "host", 8, atomic=True),
        Access("w", "host", 64),
    ]

    @staticmethod
    def _written_out(backend_cls, op_index):
        """The duration of :attr:`ACCESSES` from the constants, in the
        order the backend adds them."""
        c = BackendConfig()
        if issubclass(backend_cls, HardwareRdmaBackend):
            rt, bw = c.pcie_round_trip_us, c.pcie_bytes_per_us
            return (c.nic_base_op_us + (rt + 512 / bw) + c.sram_access_us
                    + (rt + 8 / bw) + c.nic_atomic_unit_us
                    + (rt / 2 + 64 / bw))
        if issubclass(backend_cls, SoftwarePrismBackend):
            total = c.sw_op_occupancy_us
            if op_index == 0:
                total += c.sw_request_occupancy_us
            for nbytes in (512, 8, 8, 64):
                total += c.sw_access_us + nbytes / c.sw_bytes_per_us
            return total
        total = c.bf_op_occupancy_us
        if op_index == 0:
            total += c.bf_request_occupancy_us
        return (total + (c.bf_host_access_us + 512 / c.bf_bytes_per_us)
                + c.bf_local_access_us
                + (c.bf_host_access_us + 8 / c.bf_bytes_per_us)
                + (c.bf_host_access_us + 64 / c.bf_bytes_per_us))

    @pytest.mark.parametrize("backend_cls", [
        HardwareRdmaBackend, HardwarePrismBackend, SoftwarePrismBackend,
        SoftwareRdmaBackend, BlueFieldPrismBackend,
    ])
    @pytest.mark.parametrize("op_index", [0, 1])
    def test_parts_sum_to_op_time(self, backend_cls, op_index):
        engine = type("EngineStub", (), {})()  # backends set flags on it
        backend = backend_cls(Simulator(), engine, BackendConfig())
        duration, parts = backend.op_time(self.ACCESSES, op_index=op_index)
        assert duration == self._written_out(backend_cls, op_index)
        parts = parts or {backend.execution_phase: duration}
        assert sum(parts.values()) == pytest.approx(duration, rel=1e-12)
        assert set(parts) <= set(PHASES)
        assert backend.execution_phase in PHASES
        assert backend.admission_phase in PHASES


class TestChargeReconcilesWithParts:
    """Under ``--util`` a device backend charges its host path (the
    hardware NIC's PCIe link, BlueField's internal switch) to a charge
    monitor. With every request traced, that busy time is exactly the
    "pcie" slice of the executed ops' split, summed."""

    @pytest.mark.parametrize("server_cls, client_cls, backend_cls, name", [
        (PrismKvServer, PrismKvClient, HardwarePrismBackend,
         "prism-hw.pcie"),
        (PilafServer, PilafClient, HardwareRdmaBackend, "rdma-hw.pcie"),
        (PrismKvServer, PrismKvClient, BlueFieldPrismBackend,
         "prism-bluefield.hostpath"),
    ])
    def test_monitor_busy_time_is_the_sum_of_pcie_parts(
            self, server_cls, client_cls, backend_cls, name):
        sim = Simulator()
        tracer = sim.attach(Tracer())
        collector = sim.attach(UtilizationCollector())
        fabric = make_fabric(sim, RACK, ["client", "server"])
        server = server_cls(sim, fabric, "server", backend_cls, n_keys=64,
                            max_value_bytes=512)
        for key in range(64):
            server.load(key, b"v" * 512)
        client = client_cls(sim, fabric, "client", server)

        def gets():
            for key in range(0, 64, 3):
                root = tracer.root("get")
                assert (yield from client.get(key, span=root)) == b"v" * 512
                root.finish()

        sim.run_until_complete(sim.spawn(gets()))
        monitor, = [m for m in collector.monitors if m.name == name]
        charged = [span.parts["pcie"] for root in tracer.roots
                   for span in root.walk() if span.parts is not None]
        assert len(charged) >= 22
        assert monitor.busy_us > 0
        assert monitor.busy_us == pytest.approx(sum(charged))
