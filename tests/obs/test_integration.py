"""End-to-end tracing invariants on a small PRISM-KV run.

Two properties the whole subsystem stands on:

* tracing is *free*: a traced run and an untraced run of the same
  point produce identical results (spans only read the clock);
* the breakdown *reconciles*: per-phase attribution of the measured
  operations sums to the measured mean latency (within the 1%
  acceptance bound; it is exact for sequential systems).
"""

import json

import pytest

from repro.bench.harness import run_point
from repro.bench.observers import run_traced_point
from repro.bench.tracing import check_breakdown, measured_roots
from repro.obs import Tracer, breakdown, phase_attribution
from repro.workload import YCSB_A

POINT = dict(n_keys=400, value_size=128, warmup_us=60.0, measure_us=400.0)


def _workload(index):
    return YCSB_A(400, value_size=128, seed=5, client_id=index)


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    result = run_point("kv", "prism-sw", _workload, 2, tracer=tracer,
                       **POINT)
    return result, tracer


def test_tracing_changes_no_result(traced):
    result, _tracer = traced
    untraced = run_point("kv", "prism-sw", _workload, 2, **POINT)
    assert untraced.ops == result.ops
    assert untraced.mean_latency_us == result.mean_latency_us
    assert untraced.p99_latency_us == result.p99_latency_us
    assert untraced.throughput_ops_per_sec == result.throughput_ops_per_sec


def test_roots_cover_measured_ops(traced):
    result, tracer = traced
    roots = measured_roots(tracer)
    assert len(roots) == result.ops
    assert {root.name for root in roots} == {"op.get", "op.put"}


def test_breakdown_sums_to_total(traced):
    result, tracer = traced
    roots = measured_roots(tracer)
    # exact per-operation tiling: sequential ops sum to their latency
    for root in roots:
        totals = phase_attribution(root)
        assert sum(totals.values()) == pytest.approx(root.duration,
                                                     abs=1e-9)
    report = breakdown(roots)
    weighted = check_breakdown(result, report, tolerance=0.01)
    assert weighted == pytest.approx(result.mean_latency_us, rel=1e-6)


def test_phases_are_meaningfully_populated(traced):
    _result, tracer = traced
    report = breakdown(measured_roots(tracer))
    get = report["op.get"]
    # software PRISM: host CPU executes ops, the wire carries them
    assert get["phases"]["cpu"] > 0.0
    assert get["phases"]["wire"] > 0.0


def test_run_traced_point_writes_chrome_trace(tmp_path):
    path = tmp_path / "kv.json"
    result, report, _tracer = run_traced_point(
        "kv", "prism-sw", _workload, 1, trace_path=str(path), **POINT)
    data = json.loads(path.read_text())
    assert data["traceEvents"]
    check_breakdown(result, report)
