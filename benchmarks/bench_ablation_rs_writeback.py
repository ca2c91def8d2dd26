"""Ablation: PRISM-RS GET write-back phase.

ABD's read protocol performs a second (write-back) phase so a read's
observed value reaches a majority before the read returns (§7.1). An
often-cited optimization skips the write-back when all f+1 read-phase
replies carry the *same* tag — safe, because the value is already at a
majority. The paper implements the unconditional protocol; this
ablation quantifies what the optimization would save on a read-mostly
workload (and is exactly the kind of design-space point the PRISM
primitives make cheap to explore).
"""

from repro.bench.reporting import print_table
from repro.apps.blockstore import PrismRsClient, PrismRsReplica
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwarePrismBackend
from repro.sim import Simulator

N_BLOCKS = 256
REPEATS = 30


class OptimizedRsClient(PrismRsClient):
    """PRISM-RS with the unanimous-tag read optimization."""

    def get(self, block_id):
        read_len = 8 + self.layout.block_size
        from repro.apps.blockstore.quorum import quorum
        from repro.apps.blockstore.layout import RsLayout
        generators = [
            client.read(self.layout.addr_field(block_id), read_len,
                        rkey=replica.meta_rkey, indirect=True)
            for client, replica in zip(self.clients, self.replicas)
        ]
        replies = yield from quorum(self.sim, generators, self.f + 1,
                                    name=f"rs-read[{block_id}]")
        parsed = [RsLayout.unpack_buffer(data) for _i, data in replies]
        tags = {tag for tag, _value in parsed}
        best_tag, best_value = max(parsed, key=lambda pair: pair[0])
        if len(tags) > 1:
            # Disagreement: fall back to the full write-back phase.
            yield from self._write_phase(block_id, best_tag, best_value)
        self.gets += 1
        return best_value


def _measure(client_cls):
    sim = Simulator()
    fabric = make_fabric(sim, RACK,
                         [f"r{i}" for i in range(3)] + ["c0"])
    replicas = [PrismRsReplica(sim, fabric, f"r{i}", SoftwarePrismBackend,
                               n_blocks=N_BLOCKS, block_size=512)
                for i in range(3)]
    for block in range(N_BLOCKS):
        value = bytes([block % 256]) * 512
        for rep in replicas:
            rep.load(block, value)
    client = client_cls(sim, fabric, "c0", replicas, client_id=1)
    samples = []

    def run():
        for i in range(REPEATS):
            start = sim.now
            yield from client.get(i % N_BLOCKS)
            samples.append(sim.now - start)

    sim.run_until_complete(sim.spawn(run()), limit=1e7)
    return sum(samples) / len(samples)


def test_ablation_rs_read_writeback(benchmark):
    baseline, optimized = benchmark.pedantic(
        lambda: (_measure(PrismRsClient), _measure(OptimizedRsClient)),
        rounds=1, iterations=1)
    print_table(
        "Ablation: PRISM-RS GET write-back (quiescent reads, µs)",
        ["variant", "mean_us"],
        [["unconditional write-back (paper)", baseline],
         ["skip when tags unanimous", optimized]])
    # Skipping the write phase saves a full quorum round trip (~half
    # the read latency) when replicas agree.
    assert optimized < baseline
    assert baseline / optimized > 1.6


if __name__ == "__main__":
    import sys

    from repro.bench.cli import standalone_main

    sys.exit(standalone_main(test_ablation_rs_read_writeback,
                             "ablation: RS read writeback",
                             prefix="ablation-rs-writeback"))
