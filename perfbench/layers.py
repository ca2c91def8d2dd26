"""The traced run: the per-layer ledger of one workload.

Four passes, all at one third of the workload's simulated duration:

* **reference** - untraced calibrated repeats, the base of the overhead ratios;
* **collectors** - ``HostProfiler``, ``PrimitiveCollector``,
  ``UtilizationCollector`` and ``Tracer`` handed to ``run_point``;
* **cprofile** - ``cProfile`` around the run (started once the servers are
  built and loaded), ``tottime``/``ncalls`` folded by ``repro.<package>``;
* **layers** - the workload-independent micro-benchmarks of ``micro.py``.

Every pass is a benchmark-owned span; the spans and the cProfile fold are
written to ``perfbench/out/<workload>.trace.json`` when the run ends. Rates
and shares are host-side and calibration-normalised where they are times;
counts are exact and must repeat.
"""

import cProfile
import gc
import json
import os
import pstats
import statistics
import traceback

from repro.bench import calibration as model_calibration
from repro.hw.memory import HostMemory
from repro.obs import (
    HostProfiler,
    PrimitiveCollector,
    Tracer,
    UtilizationCollector,
    breakdown,
)
from repro.sim import Resource, Simulator
from repro.sim.kernel import Process

from perfbench import micro
from perfbench.calib import calibration_loop, normalised
from perfbench.endtoend import (
    QUICK_SCALE,
    differing_fields,
    host_metrics,
    timed_repeats,
)
from perfbench.spans import SpanLog
from perfbench.stats import quartiles
from perfbench.spec import OUT_DIR
from perfbench.workloads import (
    OpCounter,
    Workload,
    run_once,
    ycsb_a,
    ycsb_c,
    ycsb_t,
)

TRACED_SCALE = 1.0 / 3.0
REFERENCE_REPEATS = 3
_PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: every package a profiled function can fold into
PACKAGES = ("sim", "net", "hw", "core", "prism", "rdma", "rpc", "apps",
            "workload", "obs", "faults", "verify", "bench", "stdlib")

#: ``<package>.<module>`` self-time shares the ledger reports by name
MODULE_SHARES = ("sim.kernel", "sim.events", "sim.resources", "net.fabric",
                 "net.port", "hw.memory", "hw.layout", "core.wire",
                 "prism.engine", "prism.backend", "prism.server",
                 "prism.client", "rpc.erpc")
PACKAGE_SHARES = ("rdma", "apps", "workload", "obs", "faults", "stdlib")


# -- folding a cProfile ---------------------------------------------------------


def package_of(filename):
    """``(package, module)`` a profiled function belongs to.

    ``repro/<package>/...`` folds into that package (``module`` is the file's
    stem), the benchmark's own frames into ``bench``, and everything else -
    builtins, the standard library, numpy - into ``stdlib``.
    """
    marker = f"{os.sep}repro{os.sep}"
    if marker in filename:
        parts = filename.split(marker, 1)[1].split(os.sep)
        if len(parts) >= 2 and parts[0] in PACKAGES:
            return parts[0], os.path.splitext(parts[-1])[0]
    if filename.startswith(_PERFBENCH_DIR):
        return "bench", "perfbench"
    return "stdlib", "stdlib"


def fold_profile(stats):
    """Fold a ``pstats`` table by package and module.

    Returns ``(packages, modules, edges)``: self seconds and calls per package
    and per ``package.module``, and caller-package -> callee-package edges
    with the calls made and the callee's inclusive and self seconds
    apportioned by call count.
    """
    packages = {name: {"self_s": 0.0, "calls": 0} for name in PACKAGES}
    modules = {}
    edges = {}
    for (filename, _line, _name), (_cc, ncalls, tottime, cumtime, callers) \
            in stats.items():
        package, module = package_of(filename)
        packages[package]["self_s"] += tottime
        packages[package]["calls"] += ncalls
        row = modules.setdefault(f"{package}.{module}",
                                 {"self_s": 0.0, "calls": 0})
        row["self_s"] += tottime
        row["calls"] += ncalls
        for (caller_file, _l, _n), (calls, _prim, self_s, inclusive_s) \
                in callers.items():
            edge = edges.setdefault(
                (package_of(caller_file)[0], package),
                {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
            edge["calls"] += calls
            edge["self_s"] += self_s
            edge["inclusive_s"] += inclusive_s
    return packages, modules, edges


def _calls(stats, function):
    """Exact ``ncalls`` of a Python function in a ``pstats`` table."""
    code = function.__code__
    row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return row[1] if row else 0


def _builtin_calls(stats, label):
    return sum(row[1] for (filename, _line, name), row in stats.items()
               if filename == "~" and label in name)


# -- the passes -----------------------------------------------------------------


def _reference_pass(workload, seed, scale, seconds, quick):
    if quick:
        rows, crashed = timed_repeats(workload, seed, scale, 0.0, 1)
    else:
        rows, crashed = timed_repeats(workload, seed, scale, seconds / 4.0,
                                      REFERENCE_REPEATS)
    if crashed or not rows:
        raise RuntimeError("the untraced reference pass raised")
    return rows


def _observed_pass(workload, seed, scale, profiler=None, **collectors):
    """One calibrated repeat with observers on; normalised host us/op too.

    ``profiler`` (a ``cProfile.Profile``) is switched on once the servers are
    built and loaded and off as soon as ``run_point`` returns, so bulk load
    and the calibration loops stay out of the profile.
    """
    gc.collect()
    before = calibration_loop()
    try:
        repeat = run_once(
            workload, seed, scale, OpCounter(),
            after_build=None if profiler is None else profiler.enable,
            **collectors)
    finally:
        if profiler is not None:
            profiler.disable()
    after = calibration_loop()
    return repeat, host_metrics([(repeat, before, after)])[0][0]


def _weighted_phase_us(report, phase):
    """Mean simulated us per operation spent in ``phase``, over op kinds."""
    count = sum(entry["count"] for entry in report.values())
    if not count:
        return 0.0
    return sum(entry["count"] * entry["phases"].get(phase, 0.0)
               for entry in report.values()) / count


def _collector_metrics(repeat, hostprof, primitives, utilization, tracer):
    record = repeat.record
    ops = record["attempted"]
    host = hostprof.report()
    buckets = {name: row["share"] for name, row in host["buckets"].items()}
    prims = primitives.report()
    rows = utilization.report()
    phases = breakdown(tracer.roots)

    def busiest(kind, suffix=""):
        shares = [row["utilization"] for row in rows
                  if row["kind"] == kind and row["name"].endswith(suffix)
                  and not row["name"].startswith("client")
                  and row["utilization"] is not None]
        return max(shares, default=0.0)

    sends = sum(row.get("enters", 0) for row in rows
                if row["name"] == "fabric.inflight")
    depths = [(hops, count)
              for hist in prims["pointer_chase"]["depth_by_op"].values()
              for hops, count in hist]
    derefs = sum(count for _hops, count in depths)
    naks = sum(count for reasons in prims["chains"]["nak_reasons"].values()
               for count in reasons.values())
    watermarks = [row["low_watermark"] for row in prims["allocator"]]
    faults = record["faults"]
    return {
        "sim.kernel.dispatch_share": buckets["dispatch"],
        "sim.kernel.resume_share": buckets["resume"],
        "sim.resources.bucket_share": buckets["resource"],
        "hw.codec_bucket_share": buckets["codec"],
        "obs.hooks_bucket_share": buckets["hooks.obs"],
        "faults.hooks_bucket_share": buckets["hooks.faults"],
        "sim.kernel.resumes_per_op": host["resumes"] / ops,
        "net.fabric.sends_per_op": sends / ops,
        "net.port.retransmits_per_op": faults["retransmissions"] / ops,
        "net.port.timeouts_per_op": faults["timeouts"] / ops,
        "net.server_tx.busy_share": busiest("wire", ".tx.port"),
        "hw.cpu.busy_share": busiest("cpu"),
        "net.wire_us_per_op": _weighted_phase_us(phases, "wire"),
        "net.queue_us_per_op": _weighted_phase_us(phases, "queue"),
        "hw.pcie_us_per_op": _weighted_phase_us(phases, "pcie"),
        "hw.cpu_us_per_op": _weighted_phase_us(phases, "cpu"),
        "prism.engine.ops_per_op": prims["chains"]["ops_executed"] / ops,
        "prism.engine.cas_miss_ratio": prims["cas"]["miss_rate"],
        "prism.engine.chase_depth_mean": (
            sum(hops * count for hops, count in depths) / derefs
            if derefs else 0.0),
        "prism.engine.naks_per_op": naks / ops,
        "prism.allocator.freelist_low_watermark": min(watermarks, default=0),
        "apps.abort_ratio": record["aborts"] / max(
            record["aborts"] + record["ops"], 1),
        "apps.retries_per_op": record["retries"] / max(record["ops"], 1),
        "workload.sources.stalled_share": record["stalled_arrivals"] / ops,
        "faults.drops_per_kop": faults["messages_dropped"] / ops * 1000.0,
    }


def _profile_metrics(repeat, stats):
    ops = repeat.record["attempted"]
    packages, modules, edges = fold_profile(stats)
    total = sum(row["self_s"] for row in packages.values())
    metrics = {}
    for name in MODULE_SHARES:
        row = modules.get(name, {"self_s": 0.0})
        metrics[f"{name}.self_share"] = row["self_s"] / total
    for name in PACKAGE_SHARES:
        metrics[f"{name}.self_share"] = packages[name]["self_s"] / total
    memory_reads = sum(_calls(stats, function) for function in (
        HostMemory.read, HostMemory.read_uint, HostMemory.read_ptr))
    memory_writes = sum(_calls(stats, function) for function in (
        HostMemory.write, HostMemory.write_uint))
    metrics.update({
        "sim.kernel.spawns_per_op": _calls(stats, Process.__init__) / ops,
        "sim.kernel.timers_per_op": _calls(stats, Simulator.timeout) / ops,
        "sim.kernel.heap_pushes_per_op":
            _builtin_calls(stats, "heappush") / ops,
        "sim.resources.acquires_per_op":
            _calls(stats, Resource.acquire) / ops,
        "hw.memory.reads_per_op": memory_reads / ops,
        "hw.memory.writes_per_op": memory_writes / ops,
        # Every profiled call, Python or builtin: an exact, noise-free
        # stand-in for host cost where the clock cannot resolve a change.
        "bench.profiled_calls_per_op":
            sum(row["calls"] for row in packages.values()) / ops,
    })
    fold = {
        "package_self_share": {name: row["self_s"] / total
                               for name, row in packages.items()},
        "package_calls": {name: row["calls"]
                          for name, row in packages.items()},
        "module_self_s": {name: row["self_s"]
                          for name, row in sorted(modules.items())},
        "edges": [dict(caller=caller, callee=callee, **edge)
                  for (caller, callee), edge in sorted(edges.items())],
    }
    return metrics, fold


MICROS = (
    # span name, function, {metric: key of the result, or "rate"}
    ("sim.kernel.timers", micro.kernel_timers,
     {"sim.kernel.timer_events_per_s": "rate"}),
    ("sim.kernel.pingpong", micro.kernel_pingpong,
     {"sim.kernel.pingpong_resumes_per_s": "rate"}),
    ("sim.resources.handoffs", micro.resource_handoffs,
     {"sim.resources.handoffs_per_s": "rate"}),
    ("sim.kernel.timeout_races", micro.timeout_races,
     {"sim.kernel.timeout_races_per_s": "rate",
      "sim.kernel.timeout_race_heap_residue": "heap_residue"}),
    ("net.fabric", micro.fabric_messages,
     {"net.fabric.msgs_per_s": "rate",
      "net.fabric.events_per_msg": "events_per_work"}),
    ("net.port", micro.channel_roundtrips,
     {"net.port.roundtrips_per_s": "rate",
      "net.port.events_per_roundtrip": "events_per_work"}),
    ("hw.memory.u64", micro.memory_u64, {"hw.memory.u64_rw_per_s": "rate"}),
    ("hw.memory.block512", micro.memory_block512,
     {"hw.memory.block512_rw_per_s": "rate"}),
    ("core.wire.encode", micro.wire_encode,
     {"core.wire.encode_chains_per_s": "rate",
      "core.wire.bytes_per_chain": "bytes_per_chain"}),
    ("core.wire.decode", micro.wire_decode,
     {"core.wire.decode_chains_per_s": "rate"}),
    ("prism.engine.indirect_reads", micro.engine_indirect_reads,
     {"prism.engine.indirect_reads_per_s": "rate"}),
    ("prism.engine.install_chains", micro.engine_install_chains,
     {"prism.engine.install_chains_per_s": "rate"}),
    ("rdma.verbs", lambda: micro.backend_reads("rdma_hw", n=4000),
     {"rdma.verbs.reads_per_s": "rate",
      "rdma.verbs.events_per_read": "events_per_work"}),
    ("rpc.erpc", micro.rpc_calls,
     {"rpc.erpc.calls_per_s": "rate",
      "rpc.erpc.events_per_call": "events_per_work"}),
    ("apps.btree", micro.btree_gets,
     {"apps.btree.events_per_op": "events_per_work"}),
    ("apps.shared_log", micro.shared_log_appends,
     {"apps.shared_log.events_per_op": "events_per_work"}),
    ("workload.ycsb.uniform", lambda: micro.ycsb_ops(0.0),
     {"workload.ycsb.uniform_ops_per_s": "rate"}),
    ("workload.ycsb.zipf", lambda: micro.ycsb_ops(0.99),
     {"workload.ycsb.zipf_ops_per_s": "rate"}),
    ("workload.sources", micro.source_arrivals,
     {"workload.sources.arrivals_per_s": "rate"}),
    ("verify.linearizability", micro.linearizability_checks,
     {"verify.linearizability.ops_per_s": "rate"}),
    ("verify.serializability", micro.serializability_checks,
     {"verify.serializability.txns_per_s": "rate"}),
) + tuple(
    (f"prism.backend.{backend}",
     lambda backend=backend: micro.backend_reads(backend),
     {f"prism.backend.{backend}.events_per_op": "events_per_work"})
    for backend in micro.BACKENDS)


def _one_client(kind, flavor, ycsb):
    return Workload(name=flavor, why="", kind=kind, flavor=flavor, clients=1,
                    measure_us=200.0, ycsb=ycsb)


#: one closed-loop client on the application families no workload runs
ONE_CLIENT_APPS = (
    ("apps.pilaf.events_per_op", _one_client("kv", "pilaf-hw", ycsb_c)),
    ("apps.abdlock.events_per_op", _one_client("rs", "abdlock-hw", ycsb_a)),
    ("apps.prism_tx.events_per_op", _one_client("tx", "prism-sw", ycsb_t)),
)


def _micro_metrics(spans):
    metrics = {}
    for name, function, outputs in MICROS:
        before = calibration_loop(rounds=30_000)
        with spans.span(f"micro:{name}"):
            result = function()
        after = calibration_loop(rounds=30_000)
        derived = dict(result)
        derived["rate"] = result["work"] / normalised(
            result["wall_s"], before, after)
        if "events" in result:
            derived["events_per_work"] = result["events"] / result["work"]
        for metric, key in outputs.items():
            metrics[metric] = derived[key]
    return metrics


def _one_client_metrics(spans, seed):
    metrics = {}
    for metric, workload in ONE_CLIENT_APPS:
        with spans.span(f"one-client:{workload.flavor}"):
            repeat = run_once(workload, seed, 1.0, OpCounter())
        metrics[metric] = (repeat.record["events_executed"]
                           / repeat.record["attempted"])
    return metrics


def _model_error_pct():
    """Worst relative error of the model against the paper's 4.3 anchors."""
    return max(abs(row["measured"] - row["paper"]) / row["paper"] * 100.0
               for row in model_calibration.report())


def trace(workload, seed, seconds, import_s, quick=False):
    """Run the traced passes; returns the detailed result document."""
    scale = QUICK_SCALE if quick else TRACED_SCALE
    spans = SpanLog()
    problems = []
    metrics = {}
    attempted = 0
    try:
        with spans.span(f"workload:{workload.name}"):
            with spans.span("pass:reference"):
                rows = _reference_pass(workload, seed, scale, seconds, quick)
            reference = rows[0][0].record
            attempted += reference["attempted"] * len(rows)
            for repeat, _before, _after in rows[1:]:
                _check_unperturbed("reference", repeat, reference, problems)
            walls = [repeat.wall_s for repeat, _b, _a in rows]
            untraced_us_per_op = statistics.median(host_metrics(rows)[0])
            metrics["bench.wall_s_raw"] = statistics.median(walls)
            q1, median, q3 = quartiles(walls)
            metrics["bench.wall_iqr_rel"] = (q3 - q1) / median
            metrics["bench.calib_loop_s"] = statistics.median(
                [rows[0][1]] + [after for _r, _b, after in rows])

            with spans.span("pass:collectors"):
                collectors = dict(hostprof=HostProfiler(),
                                  primitives=PrimitiveCollector(),
                                  utilization=UtilizationCollector(),
                                  tracer=Tracer())
                repeat, us_per_op = _observed_pass(workload, seed, scale,
                                                   **collectors)
            metrics.update(_collector_metrics(repeat, **collectors))
            metrics["obs.collectors_overhead_ratio"] = (
                us_per_op / untraced_us_per_op)
            _check_unperturbed("collectors", repeat, reference, problems)
            attempted += repeat.record["attempted"]

            with spans.span("pass:cprofile"):
                profiler = cProfile.Profile()
                repeat, us_per_op = _observed_pass(workload, seed, scale,
                                                   profiler=profiler)
            stats = pstats.Stats(profiler).stats
            profile_metrics, fold = _profile_metrics(repeat, stats)
            metrics.update(profile_metrics)
            metrics["obs.cprofile_overhead_ratio"] = (
                us_per_op / untraced_us_per_op)
            _check_unperturbed("cprofile", repeat, reference, problems)
            attempted += repeat.record["attempted"]

            with spans.span("pass:layers"):
                metrics.update(_micro_metrics(spans))
                metrics.update(_one_client_metrics(spans, seed))
                with spans.span("bench.calibration"):
                    metrics["bench.calibration.max_rel_err_pct"] = (
                        _model_error_pct())
            metrics["bench.import_s"] = import_s
        _write_artifacts(workload, seed, profiler, spans, fold)
    except Exception as exc:
        traceback.print_exc()
        problems.append(f"the traced run raised: {exc}")
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 1,
        "quick": quick,
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": 0 if not problems else max(attempted, 1),
        "problems": problems,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def _check_unperturbed(name, repeat, reference, problems):
    fields = differing_fields(repeat.record, reference)
    if fields:
        problems.append(f"the {name} pass changed simulated results: "
                        f"{', '.join(fields)}")


def _write_artifacts(workload, seed, profiler, spans, fold):
    os.makedirs(OUT_DIR, exist_ok=True)
    profiler.dump_stats(os.path.join(OUT_DIR, f"{workload.name}.pstats"))
    document = {
        "workload": workload.name,
        "seed": seed,
        "traceEvents": spans.chrome_events(),
        "cprofile": fold,
    }
    path = os.path.join(OUT_DIR, f"{workload.name}.trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
