"""Machine-readable benchmark result records.

Every benchmark run can be captured as a versioned JSON record —
config, seed, git commit, throughput, mean/p50/p99 latency, per-phase
breakdown, per-resource utilization, bottleneck verdict — via
``--json PATH`` on the bench CLI and the ``benchmarks/bench_fig*``
scripts::

    PYTHONPATH=src python benchmarks/bench_fig3_kv_read.py \\
        --clients 4 --keys 1000 --json /tmp/run.json

A record is an artifact, not a gate. The simulator is deterministic, so
a number that must not move is pinned bit for bit
(``tests/bench/test_bit_identity.py``), a number moved on purpose is
checked against its paper band by a claim (``repro.bench.experiments``),
and host cost is measured by ``perfbench``.

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
when its observer was armed (``repro.bench.observers``).

The ``host`` and ``wall`` sections are *wall-clock* numbers about the
simulator itself (events/sec, host-time bucket shares; see
:mod:`repro.obs.hostprof`) — they describe the machine the benchmark
ran on, not the simulated system.
"""

import json
import platform
import subprocess

SCHEMA = "repro-bench-result"
#: One version is written and one is read. Records are regenerated,
#: not migrated: every optional section is additive, so a version is
#: only bumped when an existing field changes meaning.
SCHEMA_VERSION = 6


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
    """The headline metrics of a :class:`~repro.workload.driver.RunResult`."""
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
        "setup_s": result.setup_s,
        "events_executed": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
    }


def make_point(kind, flavor, result, config, **sections):
    """One measurement point: config + metrics (+ optional telemetry).

    ``config`` must contain everything needed to reproduce the point
    (clients, keys, seed, windows). ``sections`` are the
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
