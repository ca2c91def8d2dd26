"""Machine-readable benchmark results and regression comparison.

Every benchmark run can be captured as a versioned JSON record —
config, seed, git commit, throughput, mean/p50/p99 latency, per-phase
breakdown, per-resource utilization, bottleneck verdict — via
``--json PATH`` on the bench CLI and the ``benchmarks/bench_fig*``
scripts. :func:`compare` then diffs two records under per-metric
tolerance bands, so "did this change regress fig3?" is a command with
an exit code instead of a table to eyeball::

    PYTHONPATH=src python benchmarks/bench_fig3_kv_read.py \\
        --clients 4 --keys 1000 --json /tmp/run.json
    PYTHONPATH=src python -m repro.bench.cli compare \\
        benchmarks/BENCH_baseline.json /tmp/run.json   # exit 1 on regression

The simulator is deterministic, so a same-commit self-compare matches
exactly; the tolerance bands absorb legitimate model recalibration and
cross-platform float noise, and anything beyond them is a regression.

Record shape (one file, one or more measurement points)::

    {"schema": "repro-bench-result", "schema_version": 6,
     "benchmark": "fig3",
     "provenance": {"git_commit": ..., "python": ...},
     "points": [{"id": "kv/prism-sw/c4",
                 "config": {...}, "metrics": {...},
                 "phases": {...}, "utilization": [...],
                 "bottleneck": {...},
                 "primitives": {...}, "critpath": {...},
                 "faults": {...}, "host": {...}, "series": {...},
                 "views": {...}, "wall": {...}}]}

Every point field after ``metrics`` is optional — a section is there
when its observer was armed (``repro.bench.observers``) — and only
metrics present in both baseline and tolerance bands are diffed.

The ``host`` and ``wall`` sections are *wall-clock* numbers about the
simulator itself (events/sec, host-time bucket shares; see
:mod:`repro.obs.hostprof`) — they describe the machine the benchmark
ran on, not the simulated system, so :func:`compare` never looks at
them: they are a diagnostic, and host cost is gated by ``perfbench``.
"""

import json
import math
import platform
import subprocess

SCHEMA = "repro-bench-result"
#: One version is written and one is read. Records are regenerated,
#: not migrated: every optional section is additive, so a version is
#: only bumped when an existing field changes meaning.
SCHEMA_VERSION = 6

#: per-metric tolerance bands: direction is which way is *better*;
#: ``rel`` is the allowed relative degradation before failing
DEFAULT_TOLERANCES = {
    "throughput_ops_per_sec": {"direction": "higher", "rel": 0.02},
    "mean_us": {"direction": "lower", "rel": 0.02},
    "p50_us": {"direction": "lower", "rel": 0.02},
    "p99_us": {"direction": "lower", "rel": 0.05},
    "ops": {"direction": "higher", "rel": 0.02},
}

#: bands for ``compare(series=True)``: steady-state-only aggregates
#: from the windowed series (transient windows excluded by the MSER
#: detector), so these can be as tight as the end-of-run bands without
#: averaging warm-up noise into the gate.
SERIES_TOLERANCES = {
    "series.steady_tput_ops_per_sec": {"direction": "higher", "rel": 0.02},
    "series.steady_mean_us": {"direction": "lower", "rel": 0.02},
    "series.steady_p99_us": {"direction": "lower", "rel": 0.05},
}


def git_commit():
    """Current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def point_id(kind, flavor, clients):
    return f"{kind}/{flavor}/c{clients}"


def result_metrics(result):
    """The comparable metrics of a :class:`~repro.workload.driver.RunResult`."""
    return {
        "ops": result.ops,
        "throughput_ops_per_sec": result.throughput_ops_per_sec,
        "mean_us": result.mean_latency_us,
        "p50_us": result.median_latency_us,
        "p99_us": result.p99_latency_us,
        "aborts": result.aborts,
        "retries": result.retries,
    }


def wall_section(result):
    """The ``wall`` point section from a :class:`RunResult`.

    Returns None when the harness did not record wall timing (old
    callers leave ``wall_s`` at 0.0), keeping the section strictly
    additive.
    """
    wall_s = getattr(result, "wall_s", 0.0)
    if not wall_s:
        return None
    events = result.extra.get("events_executed", 0)
    return {
        "wall_s": wall_s,
        "events_executed": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
    }


def make_point(kind, flavor, result, config, **sections):
    """One measurement point: config + metrics (+ optional telemetry).

    ``config`` must contain everything needed to reproduce the point
    (clients, keys, seed, windows); it is compared verbatim by
    :func:`compare`, so a config drift fails loudly instead of
    producing an apples-to-oranges diff. ``sections`` are the
    observers' reports by record key (``phases``, ``utilization``,
    ``series``, ...); one that is None is left out.
    """
    point = {
        "id": point_id(kind, flavor, result.clients),
        "kind": kind,
        "flavor": flavor,
        "config": dict(config),
        "metrics": result_metrics(result),
    }
    point.update((key, report) for key, report in sections.items()
                 if report is not None)
    return point


def make_record(benchmark, points):
    """Wrap measurement points in the versioned result envelope."""
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "provenance": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
        },
        "points": list(points),
    }


def write_record(record, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_record(path):
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} file")
    if record.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {record.get('schema_version')}, but "
            f"this tool reads only version {SCHEMA_VERSION} — regenerate "
            "the record by rerunning its benchmark with --json")
    return record


# -- comparison -------------------------------------------------------------


def _is_nan(value):
    return isinstance(value, float) and math.isnan(value)


def _check_metric(metric, base, run, band):
    """One finding dict for one metric of one point."""
    finding = {"metric": metric, "baseline": base, "run": run,
               "limit_rel": band["rel"], "direction": band["direction"]}
    if _is_nan(base) and _is_nan(run):
        finding.update(status="ok", delta_rel=0.0)
        return finding
    if _is_nan(run):
        finding.update(status="regression", delta_rel=float("inf"))
        return finding
    if _is_nan(base) or base == 0:
        # No meaningful baseline: a real measurement can only be news.
        finding.update(status="ok", delta_rel=0.0)
        return finding
    delta = (run - base) / base
    if band["direction"] == "higher":
        degraded = delta < -band["rel"]
        improved = delta > 0
    else:
        degraded = delta > band["rel"]
        improved = delta < 0
    finding["delta_rel"] = delta
    finding["status"] = ("regression" if degraded
                         else "improved" if improved else "ok")
    return finding


def compare(baseline, run, tolerances=None, series=False):
    """Diff two result records; returns a report dict.

    ``report["ok"]`` is False when any baseline point is missing from
    the run, any point's config drifted, or any metric degraded beyond
    its tolerance band. Improvements never fail.

    ``series=True`` compares *steady-state-only* aggregates from the
    windowed series sections (``series.steady_state``) instead of the
    end-of-run metrics, under :data:`SERIES_TOLERANCES` — the MSER
    detector has already excluded transient windows, so these gates
    never average warm-up noise. A baseline point without a ``series``
    section (a run made without ``--series``) is skipped silently.
    ``tolerances`` overrides are looked up in the selected family.
    """
    bands = dict(SERIES_TOLERANCES if series else DEFAULT_TOLERANCES)
    if tolerances:
        for metric, rel in tolerances.items():
            if metric not in bands:
                raise ValueError(f"no tolerance band for metric {metric!r}")
            bands[metric] = dict(bands[metric], rel=rel)

    findings = []
    run_points = {point["id"]: point for point in run["points"]}
    for base_point in baseline["points"]:
        pid = base_point["id"]
        run_point = run_points.get(pid)
        if run_point is None:
            findings.append({"point": pid, "metric": "-", "status": "missing",
                             "baseline": None, "run": None,
                             "delta_rel": None, "limit_rel": None,
                             "direction": None})
            continue
        drifted = sorted(
            key for key in
            set(base_point["config"]) | set(run_point["config"])
            if base_point["config"].get(key) != run_point["config"].get(key))
        if drifted:
            findings.append({
                "point": pid, "metric": f"config:{','.join(drifted)}",
                "status": "config-drift", "baseline": None, "run": None,
                "delta_rel": None, "limit_rel": None, "direction": None})
            continue
        if series:
            base_values = (base_point.get("series")
                           or {}).get("steady_state") or {}
            run_values = (run_point.get("series")
                          or {}).get("steady_state") or {}
        else:
            base_values, run_values = (base_point["metrics"],
                                       run_point["metrics"])
        for metric, band in bands.items():
            key = metric.removeprefix("series.")
            if key not in base_values:
                continue
            finding = _check_metric(metric, base_values[key],
                                    run_values.get(key, float("nan")), band)
            finding["point"] = pid
            findings.append(finding)

    bad = [f for f in findings
           if f["status"] in ("regression", "missing", "config-drift")]
    return {
        "ok": not bad,
        "baseline_commit": baseline.get("provenance", {}).get("git_commit"),
        "run_commit": run.get("provenance", {}).get("git_commit"),
        "findings": findings,
        "regressions": bad,
    }


def format_compare(report):
    """Plain-text rendering of a :func:`compare` report."""

    def fmt(value):
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    lines = []
    for finding in report["findings"]:
        delta = finding.get("delta_rel")
        delta_text = "-" if delta is None else f"{delta:+.2%}"
        lines.append(
            f"  {finding['status']:<12} {finding['point']:<24} "
            f"{finding['metric']:<24} base={fmt(finding['baseline'])} "
            f"run={fmt(finding['run'])} delta={delta_text}")
    verdict = "PASS" if report["ok"] else "FAIL"
    lines.append(f"compare: {verdict} "
                 f"({len(report['regressions'])} finding(s) over tolerance)")
    return "\n".join(lines)
