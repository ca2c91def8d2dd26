"""Figure 9: PRISM-TX vs FaRM, YCSB-T (read-modify-write), uniform keys.

Paper: PRISM-TX commits with two one-sided round trips (prepare,
commit) plus one-round-trip execution reads, against FaRM's two-READ
accesses and three-phase commit with two RPCs — 5.5 µs lower latency
and ~1 M more transactions per second at saturation.
"""

from repro.bench.harness import sweep_clients
from repro.bench.reporting import (
    CURVE_HEADERS,
    curve_rows,
    low_load_latency,
    maybe_export,
    peak_throughput,
    print_table,
)
from repro.workload import YcsbTransactionalWorkload

N_KEYS = 8_000
CLIENTS = [1, 8, 32, 96, 176, 288]
SYSTEMS = ["prism-sw", "farm-hw", "farm-sw"]


def _workload(index):
    return YcsbTransactionalWorkload(N_KEYS, keys_per_txn=1, zipf=0.0,
                                     seed=23, client_id=index)


def _run():
    return {flavor: sweep_clients("tx", flavor, _workload, CLIENTS,
                                  n_keys=N_KEYS)
            for flavor in SYSTEMS}


def test_fig9_tx_uniform(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)
    maybe_export("fig9", curves)
    for flavor in SYSTEMS:
        print_table(f"Fig. 9: {flavor}, YCSB-T uniform",
                    CURVE_HEADERS, curve_rows(curves[flavor]))
    prism = curves["prism-sw"]
    farm_hw = curves["farm-hw"]

    lat_prism = low_load_latency(prism)
    lat_farm = low_load_latency(farm_hw)
    print_table("Fig. 9 summary: low-load transaction latency (µs)",
                ["system", "measured_us"],
                [["PRISM-TX (sw)", lat_prism],
                 ["FaRM (hw RDMA)", lat_farm]])
    # PRISM-TX is meaningfully faster per transaction (paper: 5.5 µs,
    # an 18% reduction).
    assert lat_prism < lat_farm
    assert 2.0 <= lat_farm - lat_prism <= 9.0
    # And reaches higher peak throughput (paper: ~1 M txn/s more).
    assert peak_throughput(prism) > 1.05 * peak_throughput(farm_hw)
    assert peak_throughput(prism) > 1.05 * peak_throughput(curves["farm-sw"])


if __name__ == "__main__":
    import sys

    from repro.bench.cli import bench_main

    sys.exit(bench_main(
        "tx", "prism-sw",
        lambda keys: (lambda i: YcsbTransactionalWorkload(
            keys, keys_per_txn=1, zipf=0.0, seed=23, client_id=i)),
        "Fig. 9 point: PRISM-TX (sw), YCSB-T uniform",
        seed=23, benchmark="fig9"))
