"""Ablation: out-of-place CAS_GT installs vs lock-based in-place writes
(§2.2/§3.5) — its row, its claims and the measurement only it has."""

import sys
from functools import partial

from repro.bench.experiments import Claim, Experiment, pytest_case, script_main
from repro.bench.microbench import execute, install_chain
from repro.hw.layout import pack_uint
from repro.net.topology import RACK, make_fabric
from repro.prism import PrismClient, PrismServer, SoftwarePrismBackend
from repro.sim import SeededRng, Simulator
from repro.sim.stats import LatencyRecorder
from repro.workload.keydist import ZipfKeys

N_KEYS = 64
N_CLIENTS = 24
VALUE = b"u" * 256
WARMUP_US = 200.0
DURATION_US = 1500.0
VARIANTS = ("cas-install", "lock-inplace")
ZIPFS = (0.0, 1.2)


def _run(variant, zipf):
    sim = Simulator()
    fabric = make_fabric(sim, RACK,
                         ["server"] + [f"c{i}" for i in range(N_CLIENTS)])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend,
                         memory_bytes=64 << 20)
    # slot layout per key: [lock u64 | ver u64 | ptr u64 | inline value]
    stride = 24 + len(VALUE)
    base, rkey = server.add_region(N_KEYS * stride)
    # Enough buffers for the whole run (no recycler in this ablation:
    # retired buffers are simply not reused, isolating the update-path
    # comparison from recycling costs).
    freelist, buf_rkey = server.create_freelist(8 + len(VALUE), 24_000)
    recorder = LatencyRecorder(warmup_until=WARMUP_US)

    def client_loop(index):
        client = PrismClient(sim, fabric, f"c{index}", server)
        keys = ZipfKeys(N_KEYS, zipf, seed=index, permutation_seed=1)
        rng = SeededRng(index).stream("backoff")
        version = 0
        while sim.now < WARMUP_US + DURATION_US:
            slot = base + keys.sample() * stride
            start = sim.now
            version += 1
            if variant == "cas-install":
                yield from execute(client, *install_chain(
                    version, VALUE, client.sram_slot, server.sram_rkey,
                    slot + 8, rkey, freelist, buf_rkey))
            else:
                attempt = 0
                while True:
                    attempt += 1
                    locked, _ = yield from client.cas(
                        slot, data=pack_uint(index + 1, 8),
                        compare_data=pack_uint(0, 8), rkey=rkey)
                    if locked:
                        break
                    yield sim.timeout(rng.uniform(1.0, 4.0 * attempt))
                yield from client.write(slot + 24, VALUE, rkey=rkey)
                yield from client.cas(slot, data=pack_uint(0, 8),
                                      compare_data=pack_uint(index + 1, 8),
                                      rkey=rkey)
            recorder.record(sim.now, sim.now - start)

    processes = [sim.spawn(client_loop(i)) for i in range(N_CLIENTS)]
    waiter = sim.spawn((lambda d: (yield d))(sim.all_of(processes)))
    sim.run_until_complete(waiter, limit=1e7)
    return recorder.mean(), recorder.count / DURATION_US


def _slowdown(r, zipf):
    return r["lock-inplace", zipf][0] / r["cas-install", zipf][0]


ROW = Experiment(
    "ablation-inplace-locks", "Ablation",
    "out-of-place CAS install vs lock-based in-place (24 clients, 64 keys)",
    "the paper's core update pattern — write out of place, atomically "
    "swing a versioned pointer (chained ALLOCATE / CAS_GT, 1 round trip) "
    "— against CAS lock / WRITE in place / CAS unlock (3 round trips plus "
    "backoff) on one server, everything else identical",
    measure=lambda: {(variant, zipf): _run(variant, zipf)
                     for variant in VARIANTS for zipf in ZIPFS},
    table=lambda r: (["variant", "zipf", "mean_us", "Mops/s"],
                     [[*key, *r[key]] for key in r]))

claim = partial(Claim, ROW.name, "§3.5")
CLAIMS = (
    claim("one round trip beats three at any skew: smallest latency gap "
          "(µs)", lambda r: min(r["lock-inplace", z][0]
                                - r["cas-install", z][0] for z in ZIPFS),
          lo=0, exclusive=True),
    claim("... and smallest throughput gap (Mops/s)",
          lambda r: min(r["cas-install", z][1] - r["lock-inplace", z][1]
                        for z in ZIPFS), lo=0, exclusive=True),
    claim("the gap explodes under contention: lock slowdown at zipf 1.2 / "
          "uniform", lambda r: _slowdown(r, 1.2) / _slowdown(r, 0.0),
          lo=1, exclusive=True, note="lock convoys"),
)

test_ablation_out_of_place_vs_locks = pytest_case(ROW, CLAIMS)

if __name__ == "__main__":
    sys.exit(script_main(ROW, CLAIMS))
