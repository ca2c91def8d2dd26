"""Server observability snapshots."""

import pytest

from repro.net.topology import DIRECT, make_fabric
from repro.prism import HardwarePrismBackend, PrismClient, PrismServer
from repro.prism.stats import bottleneck, format_report, server_report


@pytest.fixture
def loaded_server(sim):
    fabric = make_fabric(sim, DIRECT, ["client", "server"])
    server = PrismServer(sim, fabric, "server", HardwarePrismBackend)
    addr, rkey = server.add_region(4096)
    server.create_freelist(64, 8)
    client = PrismClient(sim, fabric, "client", server)

    def traffic():
        for _ in range(10):
            yield from client.read(addr, 512, rkey=rkey)

    sim.run_until_complete(sim.spawn(traffic()), limit=1e6)
    return server


def test_report_counts(sim, loaded_server):
    report = server_report(loaded_server, sim.now)
    assert report["requests"] == 10
    assert report["engine_ops"] == 10
    assert report["connections"] == 1
    assert 0.0 < report["tx_utilization"] < 1.0
    assert report["tx_bytes"] > 10 * 512
    assert len(report["freelists"]) == 1


def test_rx_bytes_counts_received_traffic(sim, loaded_server):
    """Regression: rx_bytes must be the server's *received* bytes (the
    RX pipe's own total), not a copy of anything TX-related."""
    host = loaded_server.fabric.host(loaded_server.host_name)
    report = server_report(loaded_server, sim.now)
    assert report["rx_bytes"] == host.rx.bytes_total
    assert report["tx_bytes"] == host.tx.bytes_total
    # 10 READ requests in, 10 512 B replies out: both sides saw traffic
    # and the reply stream dwarfs the request stream.
    assert report["rx_bytes"] > 0
    assert report["tx_bytes"] > report["rx_bytes"]


def test_bottleneck_heuristics():
    base = {"backend_utilization": 0.1, "rx_utilization": 0.1,
            "tx_utilization": 0.1, "freelists": {}}
    assert bottleneck(base) == "load"
    assert bottleneck({**base, "backend_utilization": 0.95}) == "compute"
    assert bottleneck({**base, "rx_utilization": 0.9}) == "rx-wire"
    assert bottleneck({**base, "tx_utilization": 0.9}) == "tx-wire"
    starved = {**base, "freelists": {1: {"name": "x", "free": 0,
                                         "popped": 5, "posted": 5}}}
    assert bottleneck(starved) == "buffers"


def test_format_report_renders(sim, loaded_server):
    text = format_report(server_report(loaded_server, sim.now))
    assert "server server" in text
    assert "bottleneck guess" in text
    assert "freelist" in text


def test_freelists_sharing_a_name_are_reported_by_id(sim):
    """Regression: two free lists may share a name; each is its own
    entry, keyed by id, with its own counts."""
    fabric = make_fabric(sim, DIRECT, ["client", "server"])
    server = PrismServer(sim, fabric, "server", HardwarePrismBackend)
    big, rkey = server.create_freelist(64, 8, name="pool")
    small, _ = server.create_freelist(64, 2, name="pool")
    client = PrismClient(sim, fabric, "client", server)

    def traffic():
        for _ in range(3):
            yield from client.allocate(big, b"x" * 64, rkey=rkey)

    sim.run_until_complete(sim.spawn(traffic()), limit=1e6)
    freelists = server_report(server, sim.now)["freelists"]
    assert freelists[big] == {"name": "pool", "free": 5, "popped": 3,
                              "posted": 8}
    assert freelists[small] == {"name": "pool", "free": 2, "popped": 0,
                                "posted": 2}
