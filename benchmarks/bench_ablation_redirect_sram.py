"""Ablation: redirect scratch in on-NIC SRAM vs host memory (§4.2) — its
row, its claims and the measurement only it has."""

import sys
from functools import partial

from repro.bench.experiments import Claim, Experiment, pytest_case, script_main
from repro.bench.microbench import execute, install_chain, mean_latency, rig
from repro.net.topology import RACK
from repro.prism import HardwarePrismBackend, SoftwarePrismBackend

VALUE = b"r" * 512
BACKENDS = {"prism-hw": HardwarePrismBackend, "prism-sw": SoftwarePrismBackend}


def _measure(backend_cls, scratch_in_sram):
    sim, server, client = rig(backend_cls, RACK)
    slot, rkey = server.add_region(4096)
    tmp, tmp_rkey = server.add_region(64)
    freelist, buf_rkey = server.create_freelist(len(VALUE) + 16, 1024)
    if scratch_in_sram:
        tmp, tmp_rkey = client.sram_slot, server.sram_rkey
    return mean_latency(
        sim, lambda i: execute(client, *install_chain(
            i + 1, VALUE, tmp, tmp_rkey, slot, rkey, freelist, buf_rkey)),
        repeats=20)


def _penalty(r, backend):
    return r[backend, False] - r[backend, True]


ROW = Experiment(
    "ablation-redirect-sram", "Ablation",
    "chain scratch placement (install chain latency, µs)",
    "\"applications using output redirection should redirect to this "
    "on-NIC memory when possible\": a host-memory temporary costs the "
    "hardware NIC extra PCIe round trips on every chained access; the "
    "software stack is one load/store from either",
    measure=lambda: {(backend, in_sram): _measure(cls, in_sram)
                     for backend, cls in BACKENDS.items()
                     for in_sram in (True, False)},
    table=lambda r: (
        ["backend", "sram_scratch", "host_scratch", "penalty_us"],
        [[b, r[b, True], r[b, False], _penalty(r, b)] for b in BACKENDS]))

claim = partial(Claim, ROW.name, "§4.2")
CLAIMS = (
    claim("host-memory scratch costs the hardware NIC (µs)",
          lambda r: _penalty(r, "prism-hw"), "extra PCIe RTTs",
          lo=1.0, exclusive=True,
          note="write, read-back for the CAS operand, ..."),
    claim("the software stack barely cares: absolute penalty (µs)",
          lambda r: abs(_penalty(r, "prism-sw")), "~0",
          hi=0.5, exclusive=True),
)

test_ablation_redirect_target = pytest_case(ROW, CLAIMS)

if __name__ == "__main__":
    sys.exit(script_main(ROW, CLAIMS))
