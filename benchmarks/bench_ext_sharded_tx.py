"""Extension: PRISM-TX across shards (§8's full distributed setting) —
its row, its claims and the measurement only it has."""

import random
import sys
from functools import partial

from repro.apps.tx import PrismTxServer
from repro.apps.tx.sharded import ShardedPrismTxClient, load_sharded
from repro.bench.experiments import Claim, Experiment, pytest_case, script_main
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwarePrismBackend
from repro.sim import Simulator
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import TxnOp

KEYS_PER_SHARD = 2000
N_CLIENTS = 176
SHARD_COUNTS = (1, 2, 4)


class _CrossShardWorkload:
    """Single-key RMW transactions spread uniformly over all shards."""

    def __init__(self, n_keys, seed, client_id):
        self._rng = random.Random(seed * 7919 + client_id)
        self.n_keys = n_keys
        self._payload = bytes((client_id + i) % 256 for i in range(512))

    def next_op(self):
        key = self._rng.randrange(self.n_keys)
        return TxnOp("txn", (key,), (key,), self._payload)


def _run(n_shards):
    sim = Simulator()
    n_keys = KEYS_PER_SHARD * n_shards
    hosts = ([f"shard{i}" for i in range(n_shards)]
             + [f"client{i}" for i in range(11)])
    fabric = make_fabric(sim, RACK, hosts)
    servers = [PrismTxServer(sim, fabric, f"shard{i}", SoftwarePrismBackend,
                             n_keys=KEYS_PER_SHARD + 1, value_size=512,
                             spare_buffers=4096 + 48 * N_CLIENTS)
               for i in range(n_shards)]
    for key in range(n_keys):
        load_sharded(servers, key, bytes([key % 256]) * 512)
    driver = ClosedLoopDriver(sim, warmup_us=300.0, measure_us=1200.0)
    for index in range(N_CLIENTS):
        client = ShardedPrismTxClient(sim, fabric, f"client{index % 11}",
                                      servers, client_id=index + 1)
        driver.add_client(client.execute,
                          _CrossShardWorkload(n_keys, 41, index))
    return driver.run()


ROW = Experiment(
    "ext-sharded-tx", "Extension",
    f"PRISM-TX shard scaling ({N_CLIENTS} clients, uniform single-key RMW)",
    "the paper's testbed limited PRISM-TX to one shard; the protocol is "
    "defined for partitioned data. With the client as coordinator and "
    "timestamps fixing one serialization point, commit stays two round "
    "trips however many shards a transaction touches — throughput should "
    "scale with shards while per-transaction latency does not degrade",
    measure=lambda: {n: _run(n) for n in SHARD_COUNTS},
    table=lambda r: (["shards", "Mtxn/s", "mean_us", "aborts"],
                     [[n, r[n].throughput_ops_per_sec / 1e6,
                       r[n].mean_latency_us, r[n].aborts] for n in r]))

claim = partial(Claim, ROW.name, "§8")
CLAIMS = (
    claim("throughput, 4 shards / 1",
          lambda r: (r[4].throughput_ops_per_sec
                     / r[1].throughput_ops_per_sec), "scales",
          lo=1.6, exclusive=True),
    claim("throughput, 2 shards / 1",
          lambda r: (r[2].throughput_ops_per_sec
                     / r[1].throughput_ops_per_sec), "scales",
          lo=1.3, exclusive=True),
    claim("per-transaction latency, 4 shards / 1",
          lambda r: r[4].mean_latency_us / r[1].mean_latency_us,
          "does not degrade", hi=1.3, exclusive=True,
          note="the same 3 one-round-trip phases at any shard count"),
)

test_ext_sharded_tx_scaling = pytest_case(ROW, CLAIMS)

if __name__ == "__main__":
    sys.exit(script_main(ROW, CLAIMS))
