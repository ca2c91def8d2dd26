"""The optimized kernel must reproduce the committed baseline exactly.

The hot-path overhaul (slotted events, ready-deque kernel, timer
withdrawal, struct codecs, batched RNG draws) is only legal because it
never changes simulated semantics. This test enforces that end to end:
a fresh subprocess runs the perf-smoke fig3 point and its simulated
metrics must equal ``benchmarks/BENCH_baseline.json`` **bit for bit**
— not within tolerance.

The fig3 point has four clients and idle ports, so nothing in it ever
happens twice at one instant. ``benchmarks/BENCH_pins.json`` adds the
points where it does: a lockstep quorum fan-out whose replies queue on
client RX ports (a same-instant reordering of two port finishes moves
its p50), a FaRM transactional point, and a quorum point under drop +
dup + jitter. Each pin records its ``repro.bench.cli`` arguments — or,
for a point the CLI cannot express (an open-loop population of
aggregated sources), a figure script's path and arguments — and the
metrics of the commit named in ``recorded_at``; to re-record one, run
its ``argv`` with ``--json`` at the reference commit and copy
``points[].metrics``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "BENCH_baseline.json"
PINS = json.loads((REPO / "benchmarks" / "BENCH_pins.json").read_text())["pins"]

#: metrics that must match exactly (floats included: the simulation is
#: deterministic, so equality is the correct bar)
EXACT_METRICS = ("ops", "throughput_ops_per_sec", "mean_us", "p50_us",
                 "p99_us", "aborts", "retries")


def _assert_reproduces(argv, golden_points, tmp_path):
    """Run ``python <argv> --json`` fresh; its points must equal
    ``golden_points`` on every one of :data:`EXACT_METRICS`."""
    out = tmp_path / "run.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, *argv, "--json", str(out)],
        check=True, env=env, cwd=tmp_path, capture_output=True, timeout=300)
    baseline_points = {point["id"]: point for point in golden_points}
    run_points = {point["id"]: point
                  for point in json.loads(out.read_text())["points"]}
    assert set(baseline_points) == set(run_points)
    for pid, base in baseline_points.items():
        run = run_points[pid]
        for metric in EXACT_METRICS:
            if metric not in base["metrics"]:
                continue
            assert run["metrics"][metric] == base["metrics"][metric], (
                f"{pid}: {metric} drifted from "
                f"{base['metrics'][metric]!r} to "
                f"{run['metrics'][metric]!r} — the kernel optimization "
                f"changed simulated results")


def test_fig3_point_reproduces_baseline_bit_identical(tmp_path):
    _assert_reproduces(
        [str(REPO / "benchmarks" / "bench_fig3_kv_read.py"),
         "--clients", "4", "--keys", "1000"],
        json.loads(BASELINE.read_text())["points"], tmp_path)


def _pin_command(argv):
    """A pin runs ``repro.bench.cli`` unless its argv starts with a
    script under the repository."""
    if argv[0].endswith(".py"):
        return [str(REPO / argv[0]), *argv[1:]]
    return ["-m", "repro.bench.cli", *argv]


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin["name"])
def test_contended_point_reproduces_pin_bit_identical(pin, tmp_path):
    _assert_reproduces(_pin_command(pin["argv"]), pin["points"], tmp_path)
