"""Ablation: operation chaining (§3.4) — its row, its claims and the
measurement only it has."""

import sys
from functools import partial

from repro.bench.experiments import (
    Claim,
    Experiment,
    listing,
    pytest_case,
    script_main,
)
from repro.bench.microbench import execute, install_chain, mean_latency, rig
from repro.hw.layout import pack_uint
from repro.net.topology import RACK
from repro.prism import SoftwarePrismBackend

VALUE = b"v" * 512


def _measure(chained):
    sim, server, client = rig(SoftwarePrismBackend, RACK)
    slot, rkey = server.add_region(4096)
    freelist, buf_rkey = server.create_freelist(len(VALUE) + 16, 4096)
    server.space.write(slot, pack_uint(0, 8) + pack_uint(0, 8))
    return mean_latency(
        sim, lambda i: execute(client, *install_chain(
            i + 1, VALUE, client.sram_slot, server.sram_rkey, slot, rkey,
            freelist, buf_rkey, conditional=chained), chained=chained),
        repeats=20)


ROW = Experiment(
    "ablation-chaining", "Ablation",
    "chained vs unchained out-of-place install (µs)",
    "what chaining alone buys: PRISM-KV's PUT install as ONE request "
    "(WRITE / ALLOCATE / CAS, the real design) against the same three "
    "operations as dependent round trips — what the extended interface "
    "without chaining would force",
    measure=lambda: {"chained": _measure(True), "unchained": _measure(False)},
    table=listing("variant", "latency_us"))

claim = partial(Claim, ROW.name, "§3.4")
CLAIMS = (
    claim("chaining collapses three dependent round trips into one: "
          "unchained / chained", lambda r: r["unchained"] / r["chained"],
          "~3", lo=2, exclusive=True),
    claim("round trips saved, in µs", lambda r: r["unchained"] - r["chained"],
          "2 RTTs", lo=2 * 5.0, exclusive=True),
)

test_ablation_chaining = pytest_case(ROW, CLAIMS)

if __name__ == "__main__":
    sys.exit(script_main(ROW, CLAIMS))
