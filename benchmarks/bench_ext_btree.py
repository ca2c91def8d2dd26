"""Extension: remote B-tree lookups (the Cell scenario, paper §9) — its
row, its claims and the measurement only it has."""

import sys
from functools import partial

from repro.apps.btree import BTreeClient, BTreeServer
from repro.bench.experiments import (
    Claim,
    Experiment,
    pytest_case,
    script_main,
    smallest_gap,
)
from repro.net.topology import DATACENTER, RACK, make_fabric
from repro.prism import HardwarePrismBackend
from repro.sim import Simulator

N_KEYS = 1000
PROBES = [7, 331, 1999, 2755]
#: lookup mode -> (label, round trips at tree height h)
MODES = {"rdma": ("rdma (cold walk)", lambda h: h + 2),
         "rdma-cache": ("rdma + index cache", lambda h: 2),
         "prism-cache": ("prism + index cache", lambda h: 1)}


def _measure(profile):
    """``{mode: mean lookup µs}`` plus the tree's ``"height"``."""
    sim = Simulator()
    fabric = make_fabric(sim, profile, ["client", "server"])
    server = BTreeServer(sim, fabric, "server", HardwarePrismBackend,
                         fanout=8, max_value_bytes=128)
    server.build([(key * 3 + 1, f"v{key}".encode()) for key in range(N_KEYS)])
    client = BTreeClient(sim, fabric, "client", server)
    results = {"height": server.height}

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
    return results


ROW = Experiment(
    "ext-btree", "Extension", "remote B-tree lookup latency (µs)",
    "\"Cell implements a B-tree, which requires even more round trips to "
    "perform a read (though caching can be effective)... PRISM's "
    "indirection primitives can help many of these systems\": a lookup "
    "by cold RDMA walk (h+2 round trips), cached index over RDMA (2) and "
    "cached index over PRISM (1 bounded indirect READ)",
    measure=lambda: {"rack": _measure(RACK),
                     "datacenter": _measure(DATACENTER)},
    table=lambda r: (["mode", "round_trips", *r],
                     [[label, trips(r["rack"]["height"]),
                       *(tier[mode] for tier in r.values())]
                      for mode, (label, trips) in MODES.items()]))

claim = partial(Claim, ROW.name, "§9")
CLAIMS = (
    claim("prism-cache < rdma-cache < rdma at both tiers: smallest gap (µs)",
          lambda r: min(smallest_gap(t["prism-cache"], t["rdma-cache"],
                                     t["rdma"]) for t in r.values()),
          lo=0, exclusive=True),
    claim("PRISM halves the cached-index lookup: rdma-cache / prism-cache "
          "at rack",
          lambda r: r["rack"]["rdma-cache"] / r["rack"]["prism-cache"],
          "2 RTTs vs 1", lo=1.5, exclusive=True),
    claim("the cold walk pays a datacenter RTT per level: µs per level + 1",
          lambda r: (r["datacenter"]["rdma"]
                     / (r["datacenter"]["height"] + 1)), "~24",
          lo=20.0, exclusive=True),
    claim("the saved round trip at datacenter latency (µs)",
          lambda r: (r["datacenter"]["rdma-cache"]
                     - r["datacenter"]["prism-cache"]), 24,
          lo=15.0, exclusive=True),
)

test_ext_btree_lookup_modes = pytest_case(ROW, CLAIMS)

if __name__ == "__main__":
    sys.exit(script_main(ROW, CLAIMS))
