"""Extension: remote B-tree lookups (the Cell scenario, paper §9).

"Cell implements a B-tree, which requires even more round trips to
perform a read (though caching can be effective)... PRISM's indirection
primitives can help many of these systems."

We measure a lookup against a 4-level remote B-tree in three modes —
cold RDMA walk (h+2 round trips), cached index over RDMA (2 round
trips, Pilaf-shaped), cached index over PRISM (1 bounded indirect
READ) — at rack and datacenter network latency.
"""

from repro.apps.btree import BTreeClient, BTreeServer
from repro.bench.reporting import print_table
from repro.net.topology import DATACENTER, RACK, make_fabric
from repro.prism import HardwarePrismBackend
from repro.sim import Simulator

N_KEYS = 1000
PROBES = [7, 331, 1999, 2755]


def _measure(profile):
    sim = Simulator()
    fabric = make_fabric(sim, profile, ["client", "server"])
    server = BTreeServer(sim, fabric, "server", HardwarePrismBackend,
                         fanout=8, max_value_bytes=128)
    server.build([(key * 3 + 1, f"v{key}".encode()) for key in range(N_KEYS)])
    client = BTreeClient(sim, fabric, "client", server)
    results = {}

    def run():
        # Warm the cache once (a real deployment amortizes this).
        yield from client.get(PROBES[0], mode="rdma-cache")
        for key in PROBES:
            yield from client.get(key, mode="rdma-cache")
        for mode in BTreeClient.MODES:
            samples = []
            for key in PROBES:
                start = sim.now
                value = yield from client.get(key, mode=mode)
                assert value is not None
                samples.append(sim.now - start)
            results[mode] = sum(samples) / len(samples)

    sim.run_until_complete(sim.spawn(run()), limit=1e7)
    return results, server.height


def test_ext_btree_lookup_modes(benchmark):
    (rack, height), (datacenter, _h) = benchmark.pedantic(
        lambda: (_measure(RACK), _measure(DATACENTER)),
        rounds=1, iterations=1)
    print_table(
        f"Extension: remote B-tree lookup (height {height}) latency (µs)",
        ["mode", "round_trips", "rack", "datacenter"],
        [["rdma (cold walk)", height + 2, rack["rdma"],
          datacenter["rdma"]],
         ["rdma + index cache", 2, rack["rdma-cache"],
          datacenter["rdma-cache"]],
         ["prism + index cache", 1, rack["prism-cache"],
          datacenter["prism-cache"]]])

    for tier in (rack, datacenter):
        assert tier["prism-cache"] < tier["rdma-cache"] < tier["rdma"]
    # PRISM halves the cached-index lookup (one RT instead of two).
    assert rack["rdma-cache"] / rack["prism-cache"] > 1.5
    # The cold walk pays one RTT per level: brutal at datacenter scale.
    assert datacenter["rdma"] > (height + 1) * 20.0
    # The saved round trip is worth a full datacenter RTT.
    assert (datacenter["rdma-cache"] - datacenter["prism-cache"]) > 15.0


if __name__ == "__main__":
    import sys

    from repro.bench.cli import standalone_main

    sys.exit(standalone_main(test_ext_btree_lookup_modes,
                             "extension: B-tree lookup modes",
                             prefix="ext-btree"))
