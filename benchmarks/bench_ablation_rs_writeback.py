"""Ablation: PRISM-RS GET write-back phase (§7.1) — its row, its claim
and the measurement only it has."""

import sys

from repro.apps.blockstore import PrismRsClient, PrismRsReplica
from repro.apps.blockstore.layout import RsLayout
from repro.bench.experiments import (
    Claim,
    Experiment,
    listing,
    pytest_case,
    script_main,
)
from repro.bench.microbench import mean_latency
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwarePrismBackend
from repro.sim import Phase, Simulator

N_BLOCKS = 256


class OptimizedRsClient(PrismRsClient):
    """PRISM-RS with the unanimous-tag read optimization."""

    def get(self, block_id):
        read_len = 8 + self.layout.block_size
        generators = [
            client.read(self.layout.addr_field(block_id), read_len,
                        rkey=replica.meta_rkey, indirect=True)
            for client, replica in zip(self.clients, self.replicas)
        ]
        replies = yield Phase(self.sim, generators, self.f + 1)
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
    return mean_latency(sim, lambda i: client.get(i % N_BLOCKS), repeats=30)


ROW = Experiment(
    "ablation-rs-writeback", "Ablation",
    "PRISM-RS GET write-back (quiescent reads, µs)",
    "ABD's read performs a write-back phase so the value it observed is "
    "at a majority before it returns; the paper implements it "
    "unconditionally. Skipping it when all f+1 read-phase replies carry "
    "the same tag is safe (the value already is at a majority) — the "
    "kind of design-space point the PRISM primitives make cheap to try",
    measure=lambda: {
        "unconditional write-back (paper)": _measure(PrismRsClient),
        "skip when tags unanimous": _measure(OptimizedRsClient)},
    table=listing("variant", "mean_us"))

CLAIMS = (
    Claim(ROW.name, "§7.1", "skipping the write phase saves a quorum round "
          "trip: unconditional / skipping",
          lambda r: (r["unconditional write-back (paper)"]
                     / r["skip when tags unanimous"]), "~2",
          lo=1.6, exclusive=True, note="about half the read latency"),
)

test_ablation_rs_read_writeback = pytest_case(ROW, CLAIMS)

if __name__ == "__main__":
    sys.exit(script_main(ROW, CLAIMS))
