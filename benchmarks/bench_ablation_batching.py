"""Ablation: request batching (doorbell batching) — its row, its claims
and the measurement only it has."""

import sys
from functools import partial

from repro.bench.experiments import Claim, Experiment, pytest_case, script_main
from repro.bench.microbench import execute, mean_latency, rig
from repro.core.ops import ReadOp
from repro.net.topology import RACK
from repro.prism import SoftwarePrismBackend

BATCH_SIZES = (1, 2, 4, 8)


def _measure(batch, batched):
    sim, server, client = rig(SoftwarePrismBackend, RACK)
    addr, rkey = server.add_region(64 * batch)
    return mean_latency(
        sim, lambda _i: execute(
            client, *(ReadOp(addr=addr + 64 * i, length=64, rkey=rkey)
                      for i in range(batch)), chained=batched),
        repeats=10)


ROW = Experiment(
    "ablation-batching", "Ablation",
    "batched vs sequential reads (prism-sw, µs)",
    "PRISM-TX issues each phase as ONE request carrying every key's "
    "operations (§8.2); batching pays the round trip and the software "
    "stack's per-request cost once, so per-op latency collapses as the "
    "batch grows — what makes multi-key transaction phases affordable",
    measure=lambda: {(batch, mode): _measure(batch, mode == "batched")
                     for batch in BATCH_SIZES
                     for mode in ("batched", "sequential")},
    table=lambda r: (["ops", "batched", "sequential", "batched_per_op"],
                     [[b, r[b, "batched"], r[b, "sequential"],
                       r[b, "batched"] / b] for b in BATCH_SIZES]))

claim = partial(Claim, ROW.name, "§8.2")
CLAIMS = (
    claim("batched beats sequential from 2 ops up: smallest gap (µs)",
          lambda r: min(r[b, "sequential"] - r[b, "batched"]
                        for b in BATCH_SIZES[1:]), "1 RTT vs n",
          lo=0, exclusive=True),
    claim("per-op cost collapses: 1-op / 8-op batched per-op latency",
          lambda r: r[1, "batched"] / (r[8, "batched"] / 8),
          lo=3, exclusive=True),
    claim("sequential scales linearly: 8 ops / 1 op",
          lambda r: r[8, "sequential"] / r[1, "sequential"], 8,
          6.0, 9.5, exclusive=True),
)

test_ablation_batching = pytest_case(ROW, CLAIMS)

if __name__ == "__main__":
    sys.exit(script_main(ROW, CLAIMS))
