"""Figure 3: PRISM-KV vs Pilaf, YCSB-C (100% reads), uniform keys.

Paper: PRISM-KV reads in ~6 µs vs ~14 µs for Pilaf over software RDMA
(two round trips + CRCs) and ~8 µs for Pilaf over hardware RDMA; all
saturate the 40 GbE link, with PRISM-KV's single smaller reply giving
it ~22% higher read throughput.
"""

from repro.bench.harness import run_point, sweep_clients
from repro.bench.reporting import (
    CURVE_HEADERS,
    curve_rows,
    low_load_latency,
    maybe_export,
    peak_throughput,
    print_table,
)
from repro.workload import YCSB_C

N_KEYS = 8_000
CLIENTS = [1, 8, 32, 96, 176]
SYSTEMS = ["prism-sw", "pilaf-hw", "pilaf-sw"]


def _workload(index):
    return YCSB_C(N_KEYS, seed=11, client_id=index)


def _run():
    return {flavor: sweep_clients("kv", flavor, _workload, CLIENTS,
                                  n_keys=N_KEYS)
            for flavor in SYSTEMS}


def test_fig3_kv_read_only(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)
    maybe_export("fig3", curves)
    for flavor in SYSTEMS:
        print_table(f"Fig. 3: {flavor}, YCSB-C uniform",
                    CURVE_HEADERS, curve_rows(curves[flavor]))
    prism = curves["prism-sw"]
    pilaf_hw = curves["pilaf-hw"]
    pilaf_sw = curves["pilaf-sw"]

    # Low-load latency ordering and magnitudes (paper: 6 / 8 / 14 µs).
    lat_prism = low_load_latency(prism)
    lat_hw = low_load_latency(pilaf_hw)
    lat_sw = low_load_latency(pilaf_sw)
    print_table("Fig. 3 summary: low-load GET latency (µs)",
                ["system", "paper_us", "measured_us"],
                [["PRISM-KV (sw)", 6.0, lat_prism],
                 ["Pilaf (hw RDMA)", 8.0, lat_hw],
                 ["Pilaf (sw RDMA)", 14.0, lat_sw]])
    assert lat_prism < lat_hw < lat_sw
    assert 4.5 <= lat_prism <= 7.5
    assert 6.5 <= lat_hw <= 9.5
    assert 11.0 <= lat_sw <= 17.0
    # Indirect reads halve Pilaf-software's two round trips (~2x).
    assert 1.7 <= lat_sw / lat_prism <= 2.6

    # PRISM-KV sustains meaningfully higher read throughput (paper 22%).
    peak_prism = peak_throughput(prism)
    peak_hw = peak_throughput(pilaf_hw)
    assert peak_prism > 1.10 * peak_hw
    assert peak_prism > 1.10 * peak_throughput(pilaf_sw)


if __name__ == "__main__":
    import sys

    from repro.bench.cli import bench_main

    sys.exit(bench_main(
        "kv", "prism-sw",
        lambda keys: (lambda i: YCSB_C(keys, seed=11, client_id=i)),
        "Fig. 3 point: PRISM-KV (sw), YCSB-C uniform",
        seed=11, benchmark="fig3"))
