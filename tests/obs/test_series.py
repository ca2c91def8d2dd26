"""Windowed time-series telemetry: digests, MSER, annotations."""

import json
import math

import pytest

from repro.bench.cli import main
from repro.bench.harness import run_point
from repro.obs import quantiles
from repro.obs.series import SeriesCollector, detect_steady_state
from repro.obs.windows import LatencyDigest, merge_digests
from repro.sim import Simulator
from repro.workload import YCSB_C


class TestLatencyDigest:
    def test_exact_below_cap(self):
        digest = LatencyDigest(cap=16)
        samples = [5.0, 1.0, 9.0, 3.0, 7.0]
        for sample in samples:
            digest.add(sample)
        assert digest.exact
        assert digest.items() == [(v, 1) for v in sorted(samples)]
        summary = digest.summary()
        ordered = sorted(samples)
        assert summary["count"] == len(samples)
        assert summary["p50"] == quantiles.percentile_sorted(ordered, 50)
        assert summary["p99"] == quantiles.percentile_sorted(ordered, 99)
        assert summary["max"] == 9.0

    def test_empty_summary_is_nan(self):
        summary = LatencyDigest().summary()
        assert summary["count"] == 0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["max"])

    def test_compression_bounds_memory(self):
        digest = LatencyDigest(cap=16, sketch_k=8)
        samples = [float((i * 37) % 100) for i in range(200)]
        for sample in samples:
            digest.add(sample)
        assert not digest.exact
        assert digest.count == len(samples)
        items = digest.items()
        # extreme pinning may add one centroid at each end
        assert len(items) <= 8 + 2
        assert sum(weight for _, weight in items) == len(samples)

    def test_compression_preserves_extremes(self):
        digest = LatencyDigest(cap=8, sketch_k=4)
        samples = [50.0] * 30 + [1.0, 999.0]
        for sample in samples:
            digest.add(sample)
        values = [value for value, _ in digest.items()]
        assert min(values) == 1.0
        assert max(values) == 999.0
        assert digest.summary()["max"] == 999.0

    def test_merge_exact_digests_reproduces_quantiles(self):
        everything = [float(i % 13) + 0.25 for i in range(60)]
        digests = [LatencyDigest(), LatencyDigest(), LatencyDigest()]
        for i, sample in enumerate(everything):
            digests[i % 3].add(sample)
        items, exact = merge_digests(digests)
        assert exact
        ordered = sorted(everything)
        for p in (0, 50, 99, 100):
            assert quantiles.percentile_weighted(items, p) == \
                quantiles.percentile_sorted(ordered, p)

    def test_merge_flags_compressed_contributor(self):
        compressed = LatencyDigest(cap=4, sketch_k=4)
        for sample in range(20):
            compressed.add(float(sample))
        _items, exact = merge_digests([LatencyDigest(), compressed])
        assert not exact


class TestCollectorAccounting:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="window_us"):
            SeriesCollector(window_us=0.0)

    def test_window_sums_reconcile_with_totals(self):
        series = SeriesCollector(window_us=10.0)
        measured_samples = []
        for i in range(57):
            t = i * 3.5
            measured = t >= 30.0
            latency = 5.0 + (i % 7)
            series.record_op(t, latency, measured, ok=(i % 9 != 0))
            if measured:
                measured_samples.append(latency)
        series.finish(200.0)
        report = series.report()
        reconciliation = report["reconciliation"]
        assert reconciliation["measured_ops"] == len(measured_samples)
        assert reconciliation["window_measured_sum"] == len(measured_samples)
        assert reconciliation["digest_exact"]
        ordered = sorted(measured_samples)
        merged = reconciliation["merged"]
        assert merged["p50_us"] == quantiles.percentile_sorted(ordered, 50)
        assert merged["p99_us"] == quantiles.percentile_sorted(ordered, 99)
        assert merged["max_us"] == ordered[-1]
        assert sum(w["ops"] for w in report["windows"]) == 57

    def test_grid_is_dense_and_clipped_to_end(self):
        series = SeriesCollector(window_us=10.0)
        series.record_op(5.0, 1.0, False)
        series.record_op(95.0, 1.0, True)
        series.finish(95.0)
        report = series.report()
        windows = report["windows"]
        # every window between first and last exists, even idle ones
        assert [w["start"] for w in windows] == \
            [10.0 * i for i in range(10)]
        assert windows[-1]["end"] == 95.0  # final window clips to run end
        assert all(w["ops"] == 0 for w in windows[1:-1])

    def test_count_buckets_into_explicit_window(self):
        series = SeriesCollector(window_us=10.0)
        series.record_op(5.0, 1.0, True)
        series.count("timeouts", t=25.0)
        series.count("timeouts", n=2, t=27.0)
        series.finish(30.0)
        windows = series.report()["windows"]
        assert "counters" not in windows[0]
        assert windows[2]["counters"] == {"timeouts": 3}

    def test_off_by_default(self):
        assert Simulator().series is None

    def test_attach_binds(self):
        sim = Simulator()
        series = sim.attach(SeriesCollector())
        assert sim.series is series


class TestDetectSteadyState:
    def test_short_series_yields_zero(self):
        assert detect_steady_state([]) == 0
        assert detect_steady_state([9.0, 1.0, 1.0]) == 0

    def test_flat_series_yields_zero(self):
        assert detect_steady_state([5.0] * 20) == 0

    def test_decaying_transient_is_cut(self):
        values = [100.0, 50.0, 25.0] + [10.0] * 9
        assert detect_steady_state(values) == 3

    def test_truncation_is_bounded(self):
        # even a series that never settles truncates at most half
        values = [float(i) for i in range(20)]
        assert detect_steady_state(values) <= 10


@pytest.fixture(scope="module")
def collected_run():
    series = SeriesCollector(window_us=50.0)
    result = run_point("kv", "prism-sw",
                       lambda i: YCSB_C(200, seed=11, client_id=i), 2,
                       n_keys=200, series=series)
    return series, result


class TestHarnessReconciliation:
    """Merged window digests must equal the end-of-run recorder."""

    def test_measured_ops_reconcile(self, collected_run):
        series, result = collected_run
        reconciliation = series.report()["reconciliation"]
        assert reconciliation["measured_ops"] == result.ops
        assert reconciliation["window_measured_sum"] == result.ops
        assert reconciliation["digest_exact"]

    def test_quantiles_reconcile_exactly(self, collected_run):
        series, result = collected_run
        merged = series.report()["reconciliation"]["merged"]
        assert merged["p50_us"] == result.median_latency_us
        assert merged["p99_us"] == result.p99_latency_us
        # mean is summed per window, then across windows: identical up
        # to float summation order (last couple of ulps), never more
        assert merged["mean_us"] == \
            pytest.approx(result.mean_latency_us, rel=1e-12)

    def test_default_warmup_covers_transient(self, collected_run):
        series, _result = collected_run
        steady = series.report()["steady_state"]
        assert steady["detector"] == "mser"
        assert steady["configured_warmup_us"] == 300.0
        assert steady["transient_end_us"] <= 300.0
        assert steady["warmup_sufficient"]
        assert steady["steady_measured_ops"] > 0
        assert steady["steady_tput_ops_per_sec"] > 0

    def test_report_embeds_geometry(self, collected_run):
        series, _result = collected_run
        report = series.report()
        assert report["window_us"] == 50.0
        assert report["warmup_us"] == 300.0
        assert report["measure_end_us"] == 1800.0
        assert report["n_windows"] >= 36


def test_too_short_warmup_is_flagged():
    # The acceptance case: 16 staggered closed-loop clients take a few
    # windows to fill the server queues, so a 10 µs warmup cannot cover
    # the ramp-up transient — and the detector says so.
    series = SeriesCollector(window_us=50.0)
    run_point("kv", "prism-sw",
              lambda i: YCSB_C(2000, seed=11, client_id=i), 16,
              n_keys=2000, warmup_us=10.0, measure_us=1500.0, series=series)
    steady = series.report()["steady_state"]
    assert steady["transient_end_us"] > 10.0
    assert steady["warmup_sufficient"] is False


@pytest.fixture(scope="module")
def chaos_point(tmp_path_factory):
    path = tmp_path_factory.mktemp("series") / "chaos.json"
    assert main(["point", "--kind", "rs", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--faults", "seed=3,drop=0.01,crash=replica1@600+300",
                 "--series", "--json", str(path)]) == 0
    return json.loads(path.read_text())["points"][0]


class TestChaosAnnotations:
    """Injected fault windows surface as named annotations."""

    def test_crash_window_is_annotated(self, chaos_point):
        annotations = chaos_point["series"]["annotations"]
        crashes = [a for a in annotations if a["kind"] == "fault.crash"]
        assert len(crashes) == 1
        crash = crashes[0]
        assert crash["start_us"] == 600.0
        assert crash["end_us"] == 900.0
        assert "replica1" in crash["label"]

    def test_drop_windows_are_annotated(self, chaos_point):
        annotations = chaos_point["series"]["annotations"]
        drops = [a for a in annotations if a["kind"] == "fault.drop"]
        assert len(drops) == 1
        assert "drops injected" in drops[0]["label"]

    def test_deviations_carry_injected_causes(self, chaos_point):
        deviations = [a for a in chaos_point["series"]["annotations"]
                      if not a["kind"].startswith("fault.")]
        assert deviations, "crash should disturb at least one window"
        assert any(a["cause"] and a["cause"].startswith("fault:")
                   for a in deviations)

    def test_injected_counters_reconcile_with_injector(self, chaos_point):
        counters = {}
        for window in chaos_point["series"]["windows"]:
            for name, n in (window.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + n
        faults = chaos_point["faults"]
        assert counters.get("drops", 0) == faults["messages_dropped"] > 0
        assert counters.get("crash_drops", 0) == faults["crash_drops"]
        assert counters.get("retransmissions", 0) == \
            faults["retransmissions"]

    def test_utilization_rows_cover_grid(self, chaos_point):
        rows = chaos_point["series"]["utilization"]
        assert rows
        n_windows = chaos_point["series"]["n_windows"]
        for row in rows:
            assert len(row["busy"]) == n_windows
            assert all(0.0 <= b <= 1.0 + 1e-9 for b in row["busy"])
