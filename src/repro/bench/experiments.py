"""The experiment table: every figure and every claim is a row.

An :class:`Experiment` is a figure as data; a :class:`Claim` is one
statement of the paper about an experiment's results — a measured
quantity (a difference, a ratio, a peak) set against the paper's value
within a stated band. :func:`run` executes a row and :func:`check` its
claims; ``repro.bench.cli``'s figure commands, the ``benchmarks/``
scripts (:func:`pytest_case`, :func:`script_main`),
``repro.bench.calibration`` and the generated EXPERIMENTS.md
(:func:`section`, :func:`document`) all read the same rows. The paper's
figures and the calibration anchors are :data:`EXPERIMENTS` and
:data:`CLAIMS` here, because the CLI runs them; an ablation or
extension script declares its own ``ROW`` and ``CLAIMS`` with the same
two types, next to the measurement code only it has (:func:`all_rows`).
"""

import argparse
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.bench.export import export_sweep_figure
from repro.bench.harness import run_point
from repro.bench.microbench import (
    BACKENDS,
    CLASSIC_PRIMITIVES,
    PRIMITIVES,
    measure_one_sided_read,
    measure_primitive,
    measure_rpc_read,
    measure_two_rdma_reads,
)
from repro.bench.observers import (
    FLIGHT,
    PROFILE,
    ROWS,
    UTIL,
    Session,
    add_flags,
    invalid_flag,
    profiled,
)
from repro.bench.reporting import (
    CURVE_HEADERS,
    curve_rows,
    format_cell,
    low_load_latency,
    peak_throughput,
    print_table,
)
from repro.net.topology import CLUSTER, DATACENTER, DIRECT, RACK
from repro.obs import RfpCrossoverProbe, analyze, format_analysis
from repro.workload import YCSB_A, YCSB_C, YcsbTransactionalWorkload


@dataclass(frozen=True)
class Experiment:
    """One figure: what the paper found, and how it is measured here."""

    name: str       #: CLI command, record name, profile-artifact prefix
    section: str    #: where the paper has it ("Ablation" etc. beyond it)
    caption: str
    paper: str      #: the paper's result (beyond it: the question asked)
    #: a row that is no harness sweep: ``() -> results``, and
    #: ``results -> (headers, rows)`` to show them
    measure: object = None
    table: object = None
    #: a harness sweep: ``systems`` of ``kind`` at every zipf x client
    #: count; results are ``{flavor: [RunResult, ...]}``
    kind: str = None
    systems: tuple = ()
    workload: object = None  #: ``(keys, zipf=, seed=, client_id=) -> it``
    seed: int = None
    keys: int = 8000
    clients: tuple = (1, 8, 32, 96, 176)
    zipfs: tuple = (0.0,)
    warmup_us: float = 300.0
    measure_us: float = 1500.0
    #: None: a client sweep, a result per client count, printed as a
    #: curve. ``(column, counter)``: a contention figure, a result per
    #: zipf — the point maximising ``column(result)`` over the clients —
    #: tabulated with that point's ``counter`` attribute.
    versus_zipf: tuple = None
    probes: tuple = ()       #: shadow probes ``--views`` arms
    #: ``(flavor, label, strict_sum)`` of the point the script's
    #: ``__main__`` runs traced; strict_sum is False where phase sums are
    #: total work across a parallel fan-out, not wall-clock latency
    traced: tuple = None
    #: flavor whose peak point runs again with a utilization collector
    #: armed; the verdict lands in that point's ``extra["bottleneck"]``
    diagnose: str = None

    @property
    def title(self):
        return f"{self.section}: {self.caption}"


@dataclass(frozen=True)
class Claim:
    """One checked statement: ``value(results)`` lies in the band."""

    experiment: str
    source: str             #: where the paper says it
    name: str
    value: object           #: ``results -> number``
    paper: object = "—"     #: the paper's number, or its wording
    lo: float = -math.inf
    hi: float = math.inf
    #: the band's ends are excluded: an ordering is its smallest gap
    #: with ``lo=0`` exclusive, so the report shows the margin
    exclusive: bool = False
    note: str = ""
    #: a recorded paper-vs-model difference: the band is what the model
    #: is held to, the note says why that is not the paper's value
    deviation: bool = False

    @property
    def band(self):
        ends = f"{self.lo:g}, {self.hi:g}".replace("inf", "∞")
        return f"({ends})" if self.exclusive else f"[{ends}]"

    def holds(self, measured):
        if self.exclusive:
            return self.lo < measured < self.hi
        return self.lo <= measured <= self.hi


# -- measurement code of the rows that are no harness sweep -------------------

TIERS = {"rack": RACK, "cluster": CLUSTER, "datacenter": DATACENTER}
FIG2_COLUMNS = ("2x-rdma", "prism-sw", "prism-bluefield", "prism-hw")


def _motivation():
    return {"one-sided READ": measure_one_sided_read(profile=RACK),
            "two-sided eRPC": measure_rpc_read(profile=RACK),
            "two dependent READs": measure_two_rdma_reads(profile=RACK)}


def _fig1():
    return {(primitive, backend): measure_primitive(backend, primitive,
                                                    profile=DIRECT)
            for primitive in PRIMITIVES for backend in BACKENDS
            if backend != "rdma" or primitive in CLASSIC_PRIMITIVES}


def _fig2():
    results = {}
    for tier, profile in TIERS.items():
        results[tier, "2x-rdma"] = measure_two_rdma_reads(profile=profile)
        for backend in FIG2_COLUMNS[1:]:
            results[tier, backend] = measure_primitive(
                backend, "indirect-read", profile=profile)
    return results


def _rtt(profile):
    return 2 * (profile.one_way_latency_us - DIRECT.one_way_latency_us)


#: name -> (paper value, tolerance, the model knobs that encode it,
#: measurer): the ``calibration`` row's results and claims
ANCHORS = {
    "rdma read 512B direct (µs)": (
        2.5, 0.4, "nic_base_op_us + PCIe + DIRECT profile",
        lambda: measure_primitive("rdma", "read", profile=DIRECT)),
    "prism-sw overhead (µs)": (
        2.65, 0.7, "sw_pipeline_latency_us + occupancies",
        lambda: (measure_primitive("prism-sw", "read", profile=DIRECT)
                 - measure_primitive("rdma", "read", profile=DIRECT))),
    "one-sided read 512B rack (µs)": (
        3.2, 0.4, "RACK profile (0.6 µs switch RTT)",
        lambda: measure_one_sided_read(profile=RACK)),
    "erpc 512B rack (µs)": (
        5.6, 0.6, "RpcConfig dispatch/service/client costs",
        lambda: measure_rpc_read(profile=RACK)),
    "2 reads minus 1 rpc (µs)": (
        0.8, 0.8, "emergent from the two rows above",
        lambda: (measure_two_rdma_reads(profile=RACK)
                 - measure_rpc_read(profile=RACK))),
    "ToR switch RTT (µs)": (
        0.6, 0.1, "RACK vs DIRECT one-way delta", lambda: _rtt(RACK)),
    "cluster RTT (µs)": (3.0, 0.3, "CLUSTER profile", lambda: _rtt(CLUSTER)),
    "datacenter RTT (µs)": (
        24.0, 1.0, "DATACENTER profile", lambda: _rtt(DATACENTER)),
    "40GbE bytes/µs": (
        5000.0, 1.0, "bytes_per_us = 5000", lambda: RACK.bytes_per_us),
}


def listing(*headers):
    """A table function for results that are a flat ``{label: value}``."""
    return lambda results: (headers, [list(item) for item in results.items()])


def ycsb_t(keys, **kwargs):
    return YcsbTransactionalWorkload(keys, keys_per_txn=1, **kwargs)


# -- the table: experiments ---------------------------------------------------

EXPERIMENTS = {row.name: row for row in (
    Experiment(
        "calibration", "§2.1/§4.3", "calibration anchors, paper vs model",
        "the measurements every timing constant is anchored to",
        measure=lambda: {name: anchor[3]()
                         for name, anchor in ANCHORS.items()},
        table=lambda r: (["anchor", "measured", "model knob(s)"],
                         [[name, r[name], ANCHORS[name][2]] for name in r])),
    Experiment(
        "motivation", "§2.1",
        "RPCs vs memory accesses (512 B, one ToR switch)",
        "one-sided READ ≈ 3.2 µs vs eRPC ≈ 5.6 µs (43% faster); two "
        "dependent READs ≈ 0.8 µs slower than a single RPC",
        measure=_motivation,
        table=listing("operation", "latency_us")),
    Experiment(
        "fig1", "Fig. 1", "primitive latency, direct link, 512 B (µs)",
        "hardware RDMA ops ≈ 2.5 µs; the software prototype adds 2.5-2.8 "
        "µs; the projected NIC only PCIe round trips; BlueField is slowest",
        measure=_fig1,
        table=lambda r: (["primitive", *BACKENDS],
                         [[p, *(r.get((p, b), "-") for b in BACKENDS)]
                          for p in PRIMITIVES])),
    Experiment(
        "fig2", "Fig. 2", "indirect read latency by deployment (µs)",
        "behind one ToR switch (0.6 µs), a three-tier cluster (3 µs) or "
        "datacenter RDMA latency (24 µs), software PRISM beats two RDMA "
        "round trips, by more as the network slows",
        measure=_fig2,
        table=lambda r: (["tier", *FIG2_COLUMNS],
                         [[t, *(r[t, c] for c in FIG2_COLUMNS)]
                          for t in TIERS])),
    Experiment(
        "fig3", "Fig. 3", "PRISM-KV vs Pilaf, YCSB-C (100% reads), uniform",
        "GETs in ~6 µs vs ~14 µs for Pilaf over software RDMA (two round "
        "trips + CRCs) and ~8 µs over hardware RDMA; all saturate 40 GbE, "
        "PRISM-KV ~22% higher (one smaller reply)",
        kind="kv",
        systems=("prism-sw", "pilaf-hw", "pilaf-sw"), workload=YCSB_C,
        seed=11, traced=("prism-sw", "PRISM-KV (sw), YCSB-C uniform", True)),
    Experiment(
        "fig4", "Fig. 4", "PRISM-KV vs Pilaf, YCSB-A (50% writes), uniform",
        "Pilaf PUTs with one RPC (~6 µs), PRISM-KV over two round trips "
        "(~12 µs), so Pilaf has the lower mixed latency; PRISM-KV matches "
        "its peak throughput with no server CPU on the data path",
        kind="kv",
        systems=("prism-sw", "pilaf-hw", "pilaf-sw"), workload=YCSB_A,
        seed=13, traced=("prism-sw", "PRISM-KV (sw), YCSB-A uniform", True),
        diagnose="prism-sw"),
    Experiment(
        "fig6", "Fig. 6",
        "PRISM-RS vs ABDLOCK, 3 replicas, 50% writes, uniform",
        "2 quorum round trips per operation vs ABDLOCK's 4 (lock, read, "
        "write, unlock): ~2 µs faster at low load, ~4 Mops/s higher at "
        "saturation, even against ABDLOCK on hardware RDMA",
        kind="rs",
        systems=("prism-sw", "abdlock-hw", "abdlock-sw"), workload=YCSB_A,
        seed=17,
        traced=("prism-sw", "PRISM-RS (sw), 50% writes uniform", False)),
    # The contention figures arm the demonstration probe: shadow-mode
    # RFP crossover detection (see repro.obs.views); it logs which
    # transport the RFP rule would pick and switches nothing. fig7's
    # window is longer so that lock-convoy victims complete inside it
    # (their latency belongs in the mean).
    Experiment(
        "fig7", "Fig. 7",
        "PRISM-RS vs ABDLOCK mean latency (µs) vs Zipf coefficient",
        "100 closed-loop clients on increasingly skewed keys: ABDLOCK "
        "degrades sharply (lock contention, backoff, retries), PRISM-RS "
        "stays flat — its CAS_GT install never blocks",
        kind="rs",
        systems=("prism-sw", "abdlock-hw"), workload=YCSB_A, seed=19,
        keys=4000, clients=(100,), zipfs=(0.0, 0.5, 0.9, 1.2),
        measure_us=2500.0, probes=(RfpCrossoverProbe,),
        versus_zipf=(lambda r: r.mean_latency_us, "retries")),
    Experiment(
        "fig9", "Fig. 9", "PRISM-TX vs FaRM, YCSB-T, uniform",
        "two one-sided commit round trips against FaRM's two-READ "
        "accesses and three-phase commit with two RPCs: 5.5 µs (18%) "
        "lower latency, ~1 M more txn/s at saturation",
        kind="tx",
        systems=("prism-sw", "farm-hw", "farm-sw"), workload=ycsb_t,
        seed=23, clients=(1, 8, 32, 96, 176, 288),
        traced=("prism-sw", "PRISM-TX (sw), YCSB-T uniform", True)),
    Experiment(     # peak = max over the client sweep, as the paper
        "fig10", "Fig. 10",
        "PRISM-TX vs FaRM peak throughput (Mtxn/s) vs Zipf coefficient",
        "both optimistic protocols lose throughput as skew (and conflict "
        "aborts) grows; PRISM-TX keeps its advantage at every level",
        kind="tx",
        systems=("prism-sw", "farm-hw"), workload=ycsb_t, seed=29,
        keys=4000, clients=(24, 96, 176), zipfs=(0.0, 0.6, 0.9, 1.2),
        measure_us=1200.0, probes=(RfpCrossoverProbe,),
        versus_zipf=(lambda r: r.throughput_ops_per_sec / 1e6, "aborts")),
)}


# -- the table: claims --------------------------------------------------------


def smallest_gap(*ascending):
    """Smallest step of a sequence claimed to be strictly ascending."""
    return min(b - a for a, b in zip(ascending, ascending[1:]))


def _low(flavor):
    return lambda r: low_load_latency(r[flavor])


def _low_gap(*flavors):
    """Smallest gap between low-load latencies claimed to ascend."""
    return lambda r: smallest_gap(*(low_load_latency(r[f]) for f in flavors))


def _peaks(flavor, over):
    return lambda r: peak_throughput(r[flavor]) / peak_throughput(r[over])


def _tput(r, flavor):
    return [point.throughput_ops_per_sec for point in r[flavor]]


def _tx_lead(r):
    """PRISM-TX / FaRM peak throughput at each skew."""
    return [p / f for p, f in zip(_tput(r, "prism-sw"), _tput(r, "farm-hw"))]


def _rx_bound(r):
    """Busy fraction of ``server.rx.port`` at PRISM-KV's peak point if
    the verdict names it as the wire-bound resource, else 0."""
    verdict = max(r["prism-sw"],
                  key=lambda p: p.throughput_ops_per_sec).extra["bottleneck"]
    named = (verdict["verdict"], verdict["resource"]) == (
        "wire-bound", "server.rx.port")
    return verdict["utilization"] if named else 0.0


_s21 = partial(Claim, "motivation", "§2.1")
_fig1c = partial(Claim, "fig1", "§4.3")
_fig2c = partial(Claim, "fig2", "§4.3")
_fig3c = partial(Claim, "fig3", "§6.2")
_fig4c = partial(Claim, "fig4", "§6.2")
_fig6c = partial(Claim, "fig6", "§7.4")
_fig7c = partial(Claim, "fig7", "§7.4")
_fig9c = partial(Claim, "fig9", "§8.4")
_fig10c = partial(Claim, "fig10", "§8.4")

CLAIMS = (
    *(Claim("calibration", "§2.1/§4.3", name, lambda r, name=name: r[name],
            paper, paper - tolerance, paper + tolerance)
      for name, (paper, tolerance, _knobs, _measure) in ANCHORS.items()),

    _s21("one-sided READ (µs)", lambda r: r["one-sided READ"], 3.2, 2.4, 4.0),
    _s21("two-sided eRPC (µs)", lambda r: r["two-sided eRPC"], 5.6, 4.6, 6.6),
    _s21("one READ is faster than one RPC by (µs)",
         lambda r: r["two-sided eRPC"] - r["one-sided READ"], 2.4,
         lo=0, exclusive=True),
    _s21("two dependent READs are slower than one RPC by (µs)",
         lambda r: r["two dependent READs"] - r["two-sided eRPC"],
         0.8, 0.2, 2.5,
         note="the dilemma PRISM resolves: one-sided wins for one access, "
              "chasing a pointer with two READs loses to a single RPC"),

    _fig1c("RDMA READ (µs)", lambda r: r["read", "rdma"], 2.5, 2.1, 2.9),
    _fig1c("RDMA WRITE (µs)", lambda r: r["write", "rdma"], 2.5, 2.1, 2.9),
    _fig1c("software prototype adds over RDMA, READ (µs)",
           lambda r: r["read", "prism-sw"] - r["read", "rdma"],
           "2.5-2.8", 1.8, 3.5),
    _fig1c("BlueField is slowest for every primitive: smallest margin over "
           "software (µs)",
           lambda r: min(r[p, "prism-bluefield"] - r[p, "prism-sw"]
                         for p in PRIMITIVES), lo=0, exclusive=True,
           note="off-path host-memory access"),
    _fig1c("the projected NIC beats software for every primitive: smallest "
           "margin (µs)",
           lambda r: min(r[p, "prism-sw"] - r[p, "prism-hw"]
                         for p in PRIMITIVES), lo=0, exclusive=True),
    _fig1c("projected-NIC READ vs today's RDMA READ: absolute difference "
           "(µs)", lambda r: abs(r["read", "prism-hw"] - r["read", "rdma"]),
           0, hi=0.3, exclusive=True),
    _fig1c("indirection costs the projected NIC one PCIe round trip (µs)",
           lambda r: r["indirect-read", "prism-hw"] - r["read", "prism-hw"],
           "1 PCIe RTT", 0.4, 1.6),

    _fig2c("software PRISM beats two RDMA READs at every tier: smallest gap "
           "(µs)",
           lambda r: min(r[t, "2x-rdma"] - r[t, "prism-sw"] for t in TIERS),
           lo=0, exclusive=True, note="despite executing on the CPU"),
    _fig2c("the projected NIC beats software at every tier: smallest gap "
           "(µs)",
           lambda r: min(r[t, "prism-sw"] - r[t, "prism-hw"] for t in TIERS),
           lo=0, exclusive=True),
    _fig2c("the benefit grows with network latency: smallest step between "
           "tiers (µs)",
           lambda r: smallest_gap(*(r[t, "2x-rdma"] - r[t, "prism-sw"]
                                    for t in TIERS)), lo=0, exclusive=True),
    _fig2c("gap at datacenter latency (µs)",
           lambda r: r["datacenter", "2x-rdma"] - r["datacenter", "prism-sw"],
           24.0, lo=12.0, exclusive=True, note="one whole round trip saved"),
    _fig2c("BlueField pays off once the network is slow: margin at "
           "datacenter latency (µs)",
           lambda r: (r["datacenter", "2x-rdma"]
                      - r["datacenter", "prism-bluefield"]),
           lo=0, exclusive=True),

    _fig3c("low-load GET latency PRISM-KV < Pilaf-hw < Pilaf-sw: smallest "
           "gap (µs)", _low_gap("prism-sw", "pilaf-hw", "pilaf-sw"),
           lo=0, exclusive=True),
    _fig3c("PRISM-KV low-load GET latency (µs)", _low("prism-sw"),
           6.0, 4.5, 7.5),
    _fig3c("Pilaf-hw low-load GET latency (µs)", _low("pilaf-hw"),
           8.0, 6.5, 9.5),
    _fig3c("Pilaf-sw low-load GET latency (µs)", _low("pilaf-sw"),
           14.0, 11.0, 17.0),
    _fig3c("Pilaf-sw / PRISM-KV low-load latency",
           lambda r: _low("pilaf-sw")(r) / _low("prism-sw")(r), "~2",
           1.7, 2.6, note="indirect reads halve Pilaf's two round trips"),
    _fig3c("PRISM-KV / Pilaf-hw peak read throughput",
           _peaks("prism-sw", "pilaf-hw"), 1.22, lo=1.10, exclusive=True,
           note="one smaller reply per GET vs two replies + CRCs"),
    _fig3c("PRISM-KV / Pilaf-sw peak read throughput",
           _peaks("prism-sw", "pilaf-sw"), 1.22, lo=1.10, exclusive=True),

    _fig4c("Pilaf-hw has the lower mixed latency: margin (µs)",
           _low_gap("pilaf-hw", "prism-sw"), lo=0, exclusive=True,
           note="its PUT is one RPC"),
    _fig4c("PRISM-KV low-load 50/50 mean latency (µs)", _low("prism-sw"),
           9.0, 7.5, 11.0,
           note="paper: GET ~6 µs, PUT ~12 µs over two round trips"),
    _fig4c("Pilaf-hw low-load 50/50 mean latency (µs)", _low("pilaf-hw"),
           7.25, 6.0, 8.5, note="paper: RPC PUT ~6 µs"),
    _fig4c("PRISM-KV / Pilaf-hw peak throughput",
           _peaks("prism-sw", "pilaf-hw"), "matches (≈1)",
           lo=0.75, exclusive=True, deviation=True,
           note="In this model both ends are wire-limited, and PRISM-KV's "
                "PUT costs more server-RX bytes (the probe round trip plus "
                "the chained request's extended-atomics masks), which caps "
                "it below Pilaf's RPC PUT. The CPU-side claim — no server "
                "CPU on the PRISM-KV data path — still holds. The next "
                "claim turns this argument into a check."),
    Claim("fig4", "model", "PRISM-KV's peak point is wire-bound on "
          "server.rx.port: its busy fraction", _rx_bound, lo=0.85, hi=1.0,
          note="repro.obs.analyze on the peak point, run again with a "
               "utilization collector armed; 0 if it names anything else"),

    _fig6c("low-load latency PRISM-RS < ABDLOCK-hw < ABDLOCK-sw: smallest "
           "gap (µs)", _low_gap("prism-sw", "abdlock-hw", "abdlock-sw"),
           lo=0, exclusive=True),
    _fig6c("PRISM-RS is faster than ABDLOCK-hw by (µs)",
           _low_gap("prism-sw", "abdlock-hw"), "~2", 0.8, 4.5,
           note="2 quorum round trips vs 4"),
    _fig6c("PRISM-RS / ABDLOCK-hw peak throughput",
           _peaks("prism-sw", "abdlock-hw"), "~4 Mops/s more",
           lo=1.15, exclusive=True),
    _fig6c("PRISM-RS / ABDLOCK-sw peak throughput",
           _peaks("prism-sw", "abdlock-sw"), lo=1.15, exclusive=True),

    _fig7c("PRISM-RS stays flat: max / min mean latency over the skews",
           lambda r: (max(p.mean_latency_us for p in r["prism-sw"])
                      / min(p.mean_latency_us for p in r["prism-sw"])),
           "flat", hi=1.35, note="CAS_GT installs never block"),
    _fig7c("ABDLOCK degrades with skew: mean latency, most skewed / uniform",
           lambda r: (r["abdlock-hw"][-1].mean_latency_us
                      / r["abdlock-hw"][0].mean_latency_us),
           "degrades sharply", lo=1.8, exclusive=True,
           note="lock convoys + backoff"),
    _fig7c("ABDLOCK / PRISM-RS mean latency at the highest skew",
           lambda r: (r["abdlock-hw"][-1].mean_latency_us
                      / r["prism-sw"][-1].mean_latency_us),
           lo=1.8, exclusive=True),
    _fig7c("ABDLOCK lock retries at the highest skew",
           lambda r: r["abdlock-hw"][-1].retries, lo=0, exclusive=True,
           note="the degradation is real"),

    _fig9c("PRISM-TX is faster than FaRM-hw by (µs)",
           _low_gap("prism-sw", "farm-hw"), 5.5, 2.0, 9.0,
           note="our FaRM validate phase shares the execution reads' batched "
                "round trips, so the gap sits at the low end of the band"),
    _fig9c("PRISM-TX / FaRM-hw peak throughput",
           _peaks("prism-sw", "farm-hw"), "~1 Mtxn/s more (≈1.25)",
           lo=1.05, exclusive=True),
    _fig9c("PRISM-TX / FaRM-sw peak throughput",
           _peaks("prism-sw", "farm-sw"), lo=1.05, exclusive=True),

    _fig10c("PRISM-TX leads FaRM up to zipf 0.9: smallest peak ratio",
            lambda r: min(_tx_lead(r)[:-1]), lo=1.0, exclusive=True),
    _fig10c("at worst parity deep in the collapse regime (zipf 1.2): peak "
            "ratio", lambda r: _tx_lead(r)[-1], lo=0.95, exclusive=True,
            note="both protocols are abort-bound there"),
    _fig10c("contention hurts PRISM-TX: peak, most skewed / uniform",
            lambda r: _tput(r, "prism-sw")[-1] / _tput(r, "prism-sw")[0],
            hi=1.0, exclusive=True),
    _fig10c("contention hurts FaRM: peak, most skewed / uniform",
            lambda r: _tput(r, "farm-hw")[-1] / _tput(r, "farm-hw")[0],
            hi=1.0, exclusive=True),
    _fig10c("PRISM-TX aborts at the highest skew",
            lambda r: r["prism-sw"][-1].aborts, lo=0, exclusive=True),
    _fig10c("FaRM aborts at the highest skew",
            lambda r: r["farm-hw"][-1].aborts, lo=0, exclusive=True),
)


def claims_of(row):
    return [claim for claim in CLAIMS if claim.experiment == row.name]


def all_rows(scripts=Path(__file__).resolve().parents[3] / "benchmarks"):
    """``[(row, claims, script path or None)]``: the table's rows, then
    those the ablation / extension scripts declare (a source checkout
    has the scripts; an installed package only the table)."""
    rows = {name: (row, claims_of(row), None)
            for name, row in EXPERIMENTS.items()}
    for path in sorted(scripts.glob("bench_*.py")):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        claims = getattr(module, "CLAIMS", None) or claims_of(module.ROW)
        rows[module.ROW.name] = (module.ROW, claims, path)
    return list(rows.values())


# -- the runner ---------------------------------------------------------------


def geometry(row, args=None):
    """``(keys, clients, zipfs, warmup_us, measure_us)`` of a run: each
    of ``args``' flags where given, else the row's own."""
    def pick(flag, default):
        value = getattr(args, flag, None)
        return default if value is None else value

    zipfs = (pick("zipfs", row.zipfs) if row.versus_zipf
             else (pick("zipf", row.zipfs[0]),))
    return (pick("keys", row.keys), tuple(pick("clients", row.clients)),
            tuple(zipfs), pick("warmup_us", row.warmup_us),
            pick("measure_us", row.measure_us))


def _sweep(row, args):
    keys, clients, zipfs, warmup_us, measure_us = geometry(row, args)
    windows = {"warmup_us": warmup_us, "measure_us": measure_us}
    # --trace on a sweep traces one designated point: the first flavor
    # at the most skewed zipf and the largest client count (the most
    # interesting trace, and one file — a trace per point would clobber
    # the same path).
    designated = (zipfs[-1], row.systems[0], max(clients))
    session = Session(args, row.name, probes=row.probes)
    results = {flavor: [] for flavor in row.systems}

    def workload(zipf):
        return lambda i: row.workload(keys, zipf=zipf, seed=row.seed,
                                      client_id=i)

    for zipf in zipfs:
        for flavor in row.systems:
            started = time.perf_counter()
            points = []
            for n_clients in clients:
                if not row.versus_zipf:
                    name = f"{flavor} c={n_clients}"
                elif len(clients) == 1:
                    name = f"{flavor} zipf={zipf}"
                else:
                    name = f"{flavor} zipf={zipf} c={n_clients}"
                config = {"kind": row.kind, "flavor": flavor,
                          "clients": n_clients, "keys": keys, "zipf": zipf,
                          "seed": row.seed, **windows}
                points.append(session.point(
                    f"{row.name}: {name}", row.kind, flavor, workload(zipf),
                    n_clients, config,
                    trace=(zipf, flavor, n_clients) == designated,
                    trace_note=f" ({name})", n_keys=keys, **windows))
                if args.json and row.versus_zipf:
                    # kind/flavor/clients repeat across the zipf axis
                    session.points[-1]["id"] += f"/z{zipf:g}"
            if row.versus_zipf:
                points = [max(points, key=row.versus_zipf[0])]
            else:
                wall_s = time.perf_counter() - started
                events = sum(r.extra.get("events_executed", 0)
                             for r in points)
                rate = (f", {events / wall_s:,.0f} events/s" if wall_s > 0
                        else "")
                print_table(
                    f"{row.name}: {flavor} ({wall_s:.1f}s wall{rate})",
                    CURVE_HEADERS, curve_rows(points))
            results[flavor] += points
    session.close()
    # REPRO_EXPORT_DIR=figures: every client sweep's CSV + gnuplot script
    if not row.versus_zipf and os.environ.get("REPRO_EXPORT_DIR"):
        export_sweep_figure(row.name, results,
                            out_dir=os.environ["REPRO_EXPORT_DIR"])
    if row.diagnose:
        peak = max(results[row.diagnose],
                   key=lambda r: r.throughput_ops_per_sec)
        collector = UTIL.factory(None, ())
        run_point(row.kind, row.diagnose, workload(zipfs[0]), peak.clients,
                  n_keys=keys, utilization=collector, **windows)
        peak.extra["bottleneck"] = analyze(collector.report())
        print(f"{row.name}: {row.diagnose} c={peak.clients} (its peak), "
              + format_analysis(peak.extra["bottleneck"]))
    return results


def summary(row, results, zipfs=None):
    """``(headers, rows)`` of the row's result table (``zipfs``: the
    swept skews of a contention figure, where not the row's own)."""
    if row.table is not None:
        return row.table(results)
    if row.versus_zipf:
        column, counter = row.versus_zipf
        return (["zipf", *results, *(f"{f} {counter}" for f in results)],
                [[zipf, *(column(points[i]) for points in results.values()),
                  *(getattr(points[i], counter)
                    for points in results.values())]
                 for i, zipf in enumerate(zipfs or row.zipfs)])
    peaks = {flavor: max(curve, key=lambda r: r.throughput_ops_per_sec)
             for flavor, curve in results.items()}
    return (["system", "low-load mean_us", "peak Mops/s", "at clients"],
            [[flavor, low_load_latency(curve),
              peaks[flavor].throughput_ops_per_sec / 1e6,
              peaks[flavor].clients] for flavor, curve in results.items()])


def run(row, args=None):
    """Execute ``row`` — at the geometry and with the observers ``args``
    asks for; without, bare and at its own — print its tables, return
    its results."""
    if row.measure is not None:
        results = row.measure()
    else:
        if args is None:        # bare: every observer flag at its default
            parser = argparse.ArgumentParser()
            add_flags(parser)
            args = parser.parse_args([])
        results = _sweep(row, args)
    print_table(row.title, *summary(row, results, geometry(row, args)[2]))
    return results


def check(results, claims):
    """Evaluate each claim: ``[(claim, measured, holds)]``."""
    return [(claim, measured := claim.value(results), claim.holds(measured))
            for claim in claims]


CLAIM_HEADERS = ["claim", "source", "paper", "measured", "band", "status"]


def _claim_rows(verdicts):
    return [[claim.name, claim.source, claim.paper, measured, claim.band,
             "VIOLATED" if not ok else "deviation" if claim.deviation
             else "✓"] for claim, measured, ok in verdicts]


def conclude(row, verdicts):
    """Print the row's claims with their verdicts; returns one line per
    violated claim, naming experiment, claim, measured value and band."""
    print_table(f"{row.name}: claims", CLAIM_HEADERS, _claim_rows(verdicts))
    return [f"{claim.experiment}: claim {claim.name!r} violated: measured "
            f"{measured:.6g}, band {claim.band} (paper: {claim.paper}, "
            f"{claim.source})" for claim, measured, ok in verdicts if not ok]


def exit_status(row, results, claims=None):
    """Check and print the row's claims: 0, or 1 with each violated
    claim named on stderr."""
    violated = conclude(row, check(results, claims or claims_of(row)))
    for line in violated:
        print(line, file=sys.stderr)
    return int(bool(violated))


# -- front ends ---------------------------------------------------------------


def record(row, results, sections, claims=None, script=None):
    """Check ``results``, file the row's rendered section under
    ``sections[row]``, raise naming each violated claim."""
    verdicts = check(results, claims or claims_of(row))
    sections[row] = section(row, results, verdicts, script)
    violated = conclude(row, verdicts)
    if violated:
        raise AssertionError("\n".join(violated))


def pytest_case(row, claims=None):
    """The row as a pytest-benchmark test: run once under the
    ``benchmark`` fixture (so ``--benchmark-only`` selects it), and
    :func:`record` into ``sections``, the fixture of
    ``benchmarks/conftest.py`` that ``--experiments-md`` writes out."""
    def test(benchmark, sections, request):
        record(row, benchmark.pedantic(run, args=(row,), rounds=1,
                                       iterations=1), sections, claims,
               request.node.path.name)
    return test


def _traced_point(row, argv):
    """One traced point of ``row``, with every observer flag but
    ``--flight``; it can also model an aggregated open-loop population."""
    flavor, label, strict_sum = row.traced
    title = f"{row.section} point: {label}"
    parser = argparse.ArgumentParser(description=title)
    add_flags(parser, [flag for flag in ROWS if flag is not FLIGHT])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--clients-aggregated", type=int, default=None,
                        metavar="N",
                        help="model N clients (10⁵–10⁶ is fine) with "
                             "aggregated open-loop arrival sources instead "
                             "of closed-loop coroutines (see "
                             "repro.workload.sources)")
    parser.add_argument("--arrival-rate", type=float, default=50.0,
                        metavar="OPS_PER_S",
                        help="with --clients-aggregated, each modeled "
                             "client's Poisson op rate (default 50 op/s)")
    parser.add_argument("--source-window", type=int, default=None,
                        metavar="W",
                        help="with --clients-aggregated, max ops in "
                             "flight per source coroutine (default: "
                             "population-scaled, see sources module)")
    parser.add_argument("--keys", type=int, default=4000)
    parser.add_argument("--profile-stride", type=int, default=16,
                        metavar="N",
                        help="with --profile, time bucket attribution on "
                             "every N-th kernel event (default 16; 1 is "
                             "exhaustive and slower); events/sec and "
                             "counters stay exact")
    args = parser.parse_args(argv)
    complaint = invalid_flag(args)
    if complaint is not None:
        parser.error(complaint)
    source_model = None
    n_clients = args.clients
    if args.clients_aggregated is not None:
        source_model = {"rate_per_client_ops_s": args.arrival_rate,
                        "seed": row.seed}
        if args.source_window is not None:
            source_model["window"] = args.source_window
        n_clients = args.clients_aggregated
    config = {"kind": row.kind, "flavor": flavor, "clients": n_clients,
              "keys": args.keys, "seed": row.seed}

    def headline(result):
        print_table(title, ["clients", "ops", "Mops/s", "mean_us", "p99_us"],
                    [[result.clients, result.ops,
                      round(result.throughput_ops_per_sec / 1e6, 3),
                      round(result.mean_latency_us, 2),
                      round(result.p99_latency_us, 2)]])
        if source_model is not None:
            model = result.extra["source_model"]
            print(f"source model: aggregated open-loop, "
                  f"{model['clients']:,} modeled clients over "
                  f"{model['n_sources']} sources at "
                  f"{model['rate_per_client_ops_s']:g} op/s each "
                  f"(window {model['window']}, "
                  f"{result.extra['stalled_arrivals']} stalled arrivals)")

    session = Session(args, row.name, single=True, sep=":", traced=True,
                      breakdown=True, strict_sum=strict_sum, wall=True,
                      headline=headline)
    profiled(args, row.name, title, lambda: session.point(
        title, row.kind, flavor,
        lambda i: row.workload(args.keys, zipf=row.zipfs[0], seed=row.seed,
                               client_id=i),
        n_clients, config, n_keys=args.keys, source_model=source_model))
    return 0


def script_main(row, claims=None, argv=None):
    """``__main__`` of a ``benchmarks/`` script: the row's traced point
    where it designates one, else the whole row with its claims checked.
    The only flag then is ``--profile``: an ambient profiler meters every
    simulator the row builds."""
    if row.traced:
        return _traced_point(row, argv)
    parser = argparse.ArgumentParser(description=row.title)
    add_flags(parser, [PROFILE])
    args = parser.parse_args(argv)
    return profiled(args, row.name, row.title,
                    lambda: exit_status(row, run(row), claims))


# -- the generated EXPERIMENTS.md ---------------------------------------------

COMMAND = "PYTHONPATH=src python -m pytest benchmarks/ --experiments-md " \
          "EXPERIMENTS.md"

PREAMBLE = f"""\
<!-- Generated by `{COMMAND}` from the rows of repro.bench.experiments \
and benchmarks/bench_*.py. Do not edit: change a row and regenerate. -->
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, the calibration
anchors under them, and the ablations and extensions beyond them, as
measured on DESIGN.md §1's simulated testbed by the run that generated
this file. An experiment is one `Experiment` row, a statement about it
one `Claim` row: a measured quantity set against the paper's value
inside a band, closed `[lo, hi]` or open `(lo, hi)`. An ordering is
reported as its smallest gap with band `(0, ∞)`, so the margin shows.
Absolute values track the paper because the device models are
calibrated to its §4.3 microbenchmarks (first section); the meaningful
claims are the orderings, ratios and crossovers. Status `deviation`
marks a recorded paper-vs-model difference: the band is what the model
is held to, and the section's *Deviations* says why. CI's `fidelity`
job runs every row at the scale shown, fails naming each violated
claim, and requires this file to regenerate byte for byte.
"""


def _markdown(headers, rows):
    return ["| " + " | ".join(map(format_cell, cells)) + " |"
            for cells in (headers, ["---"] * len(headers), *rows)]


def _how(row, script):
    """How to run a row, and for a sweep at what scale."""
    ways = []
    if row.name in EXPERIMENTS:
        ways.append(f"`python -m repro.bench.cli {row.name}`")
    if script:
        ways.append(f"`benchmarks/{script}`")
    if row.kind:
        keys, clients, zipfs, warmup_us, measure_us = geometry(row)
        ways.append(f"{keys:,} keys, clients "
                    f"{' / '.join(map(str, clients))}, zipf "
                    f"{' / '.join(f'{zipf:g}' for zipf in zipfs)}, seed "
                    f"{row.seed}, {warmup_us:g} + {measure_us:g} µs")
    return " · ".join(ways)


def section(row, results, verdicts, script=None):
    """One experiment's section of EXPERIMENTS.md (``script``: the name
    of its ``benchmarks/`` front end)."""
    lines = [f"## {row.section} — {row.caption}", "", _how(row, script), "",
             f"> {row.paper}.", "", *_markdown(*summary(row, results)), "",
             *_markdown(CLAIM_HEADERS, _claim_rows(verdicts))]
    for heading, marked in (("Notes", False), ("Deviations", True)):
        notes = [f"- *{claim.name}* — {claim.note}"
                 for claim, _measured, _ok in verdicts
                 if claim.note and claim.deviation == marked]
        if notes:
            lines += ["", f"### {heading}", "", *notes]
    return "\n".join(lines) + "\n"


def document(sections):
    """EXPERIMENTS.md from ``{row: section}``: the table's rows in table
    order, then the scripts' own by name."""
    names = list(EXPERIMENTS)
    rows = sorted(sections, key=lambda row: (
        names.index(row.name) if row.name in names else len(names), row.name))
    index = _markdown(
        ["experiment", "the paper's result (beyond it: the question)"],
        [[row.title, row.paper] for row in rows])
    return "\n".join([PREAMBLE, "## Index", "", *index, "",
                      *(sections[row] for row in rows)])
