"""The machine-readable result schema and regression comparator."""

import copy
import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import run_point
from repro.bench.regress import (
    DEFAULT_TOLERANCES,
    SCHEMA,
    SCHEMA_VERSION,
    SERIES_TOLERANCES,
    compare,
    format_compare,
    load_record,
    make_point,
    make_record,
    point_id,
    wall_section,
    write_record,
)
from repro.workload import YCSB_C


@pytest.fixture(scope="module")
def small_result():
    return run_point("kv", "prism-sw",
                     lambda i: YCSB_C(200, seed=11, client_id=i), 2,
                     n_keys=200)


@pytest.fixture
def record(small_result):
    config = {"kind": "kv", "flavor": "prism-sw", "clients": 2,
              "keys": 200, "seed": 11}
    point = make_point("kv", "prism-sw", small_result, config)
    return make_record("test", [point])


class TestRecord:
    def test_envelope(self, record):
        assert record["schema"] == SCHEMA
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["benchmark"] == "test"
        assert "python" in record["provenance"]

    def test_point_shape(self, record, small_result):
        point = record["points"][0]
        assert point["id"] == point_id("kv", "prism-sw", 2)
        metrics = point["metrics"]
        assert metrics["throughput_ops_per_sec"] == \
            small_result.throughput_ops_per_sec
        assert metrics["mean_us"] == small_result.mean_latency_us
        assert metrics["p99_us"] == small_result.p99_latency_us

    def test_round_trip(self, record, tmp_path):
        path = tmp_path / "r.json"
        write_record(record, path)
        loaded = load_record(path)
        assert loaded == json.loads(json.dumps(record))

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"some": "thing"}')
        with pytest.raises(ValueError, match="not a"):
            load_record(path)

    def test_load_rejects_future_schema(self, record, tmp_path):
        record = dict(record, schema_version=SCHEMA_VERSION + 1)
        path = tmp_path / "future.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="schema_version"):
            load_record(path)

    def test_load_rejects_older_schema_and_says_how_to_regenerate(
            self, record, tmp_path):
        # One schema: the committed baseline was migrated to the current
        # version, so an older record is outside input to refuse.
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dict(record, schema_version=4)))
        with pytest.raises(ValueError, match="regenerate"):
            load_record(path)


def _degrade(record, metric, factor):
    worse = copy.deepcopy(record)
    worse["points"][0]["metrics"][metric] *= factor
    return worse


class TestCompare:
    def test_self_compare_passes(self, record):
        report = compare(record, record)
        assert report["ok"]
        assert report["regressions"] == []
        assert all(f["status"] == "ok" for f in report["findings"])

    def test_degraded_throughput_fails(self, record):
        report = compare(record, _degrade(record,
                                          "throughput_ops_per_sec", 0.90))
        assert not report["ok"]
        bad = report["regressions"]
        assert [f["metric"] for f in bad] == ["throughput_ops_per_sec"]
        assert bad[0]["delta_rel"] == pytest.approx(-0.10)

    def test_degraded_latency_fails(self, record):
        report = compare(record, _degrade(record, "p99_us", 1.10))
        assert not report["ok"]
        assert report["regressions"][0]["metric"] == "p99_us"

    def test_improvement_never_fails(self, record):
        better = _degrade(record, "throughput_ops_per_sec", 1.30)
        better = _degrade(better, "mean_us", 0.70)
        report = compare(record, better)
        assert report["ok"]
        improved = {f["metric"] for f in report["findings"]
                    if f["status"] == "improved"}
        assert {"throughput_ops_per_sec", "mean_us"} <= improved

    def test_within_tolerance_passes(self, record):
        # p99 band is 5%: a 3% slip is noise, not a regression.
        report = compare(record, _degrade(record, "p99_us", 1.03))
        assert report["ok"]

    def test_tolerance_override(self, record):
        slipped = _degrade(record, "p99_us", 1.03)
        assert not compare(record, slipped,
                           tolerances={"p99_us": 0.01})["ok"]
        assert compare(record, _degrade(record, "mean_us", 1.10),
                       tolerances={"mean_us": 0.20})["ok"]

    def test_unknown_tolerance_metric_rejected(self, record):
        with pytest.raises(ValueError, match="no tolerance band"):
            compare(record, record, tolerances={"bogus": 0.1})

    def test_missing_point_fails(self, record):
        empty = dict(record, points=[])
        report = compare(record, empty)
        assert not report["ok"]
        assert report["regressions"][0]["status"] == "missing"

    def test_config_drift_fails(self, record):
        drifted = copy.deepcopy(record)
        drifted["points"][0]["config"]["keys"] = 999
        report = compare(record, drifted)
        assert not report["ok"]
        finding = report["regressions"][0]
        assert finding["status"] == "config-drift"
        assert "keys" in finding["metric"]

    def test_nan_handling(self, record):
        nan = float("nan")
        both_nan = copy.deepcopy(record)
        both_nan["points"][0]["metrics"]["p99_us"] = nan
        assert compare(both_nan, both_nan)["ok"]
        run_nan = copy.deepcopy(record)
        run_nan["points"][0]["metrics"]["p99_us"] = nan
        assert not compare(record, run_nan)["ok"]

    def test_format_ends_with_verdict(self, record):
        assert format_compare(compare(record, record)).endswith(
            "compare: PASS (0 finding(s) over tolerance)")
        text = format_compare(
            compare(record, _degrade(record, "mean_us", 2.0)))
        assert "FAIL" in text.splitlines()[-1]

    def test_default_bands_cover_core_metrics(self):
        assert {"throughput_ops_per_sec", "mean_us", "p50_us",
                "p99_us"} <= set(DEFAULT_TOLERANCES)


class TestCli:
    def _write_run(self, tmp_path, name="run.json"):
        path = tmp_path / name
        assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                     "--clients", "2", "--keys", "200",
                     "--json", str(path)]) == 0
        return path

    def test_json_flag_writes_record(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        record = load_record(path)
        assert record["points"][0]["id"] == "kv/prism-sw/c2"
        assert record["points"][0]["utilization"]
        assert record["points"][0]["bottleneck"]["verdict"]
        assert "result record written" in capsys.readouterr().out

    def test_util_flag_prints_report(self, capsys):
        assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                     "--clients", "2", "--keys", "200", "--util"]) == 0
        out = capsys.readouterr().out
        assert "resource utilization" in out
        assert "bottleneck:" in out

    def test_compare_self_exits_zero(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["compare", str(path), str(path)]) == 0
        assert "compare: PASS" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        worse = json.loads(path.read_text())
        worse["points"][0]["metrics"]["throughput_ops_per_sec"] *= 0.5
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        assert main(["compare", str(path), str(worse_path)]) == 1
        assert "compare: FAIL" in capsys.readouterr().out

    def test_compare_tolerance_flag(self, tmp_path):
        path = self._write_run(tmp_path)
        slightly = json.loads(path.read_text())
        slightly["points"][0]["metrics"]["p99_us"] *= 1.03
        other = tmp_path / "slip.json"
        other.write_text(json.dumps(slightly))
        assert main(["compare", str(path), str(other)]) == 0
        assert main(["compare", str(path), str(other),
                     "--tolerance", "p99_us=0.01"]) == 1

    def test_compare_wants_two_paths(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["compare", str(path)]) == 2
        assert "usage" in capsys.readouterr().err

    def test_sweep_json(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert main(["fig3", "--clients", "1,2", "--keys", "200",
                     "--json", str(path)]) == 0
        record = load_record(path)
        assert record["benchmark"] == "fig3"
        ids = {point["id"] for point in record["points"]}
        # one point per (flavor, client count)
        assert "kv/prism-sw/c1" in ids and "kv/pilaf-hw/c2" in ids
        assert len(record["points"]) == 6


class TestSchemaV2:
    """The ``primitives``/``critpath`` sections are optional."""

    def test_telemetry_fields_are_optional(self, small_result):
        config = {"kind": "kv", "flavor": "prism-sw", "clients": 2}
        bare = make_point("kv", "prism-sw", small_result, config)
        assert "primitives" not in bare
        assert "critpath" not in bare
        rich = make_point("kv", "prism-sw", small_result, config,
                          primitives={"cas": {}}, critpath={})
        assert rich["primitives"] == {"cas": {}}
        assert rich["critpath"] == {}

    def test_ops_band_present(self):
        assert DEFAULT_TOLERANCES["ops"]["direction"] == "higher"


def _host_section(events_per_sec=100_000.0, wall_s=0.5):
    return {
        "wall_s": wall_s,
        "runs": 1,
        "events": int(events_per_sec * wall_s),
        "resumes": int(events_per_sec * wall_s / 2),
        "events_per_sec": events_per_sec,
        "resumes_per_sec": events_per_sec / 2,
        "stride": 1,
        "buckets": {"dispatch": {"seconds": wall_s / 4, "share": 0.25}},
        "attributed_share": 0.25,
    }


class TestSchemaV3:
    """Points may carry a wall-clock ``host`` section: a diagnostic
    that round-trips and that ``compare`` never gates on."""

    @pytest.fixture
    def config(self):
        return {"kind": "kv", "flavor": "prism-sw", "clients": 2,
                "keys": 200, "seed": 11}

    @pytest.fixture
    def v3_record(self, small_result, config):
        point = make_point("kv", "prism-sw", small_result, config,
                           host=_host_section())
        return make_record("test", [point])

    def test_host_field_is_optional(self, small_result, config):
        bare = make_point("kv", "prism-sw", small_result, config)
        assert "host" not in bare
        rich = make_point("kv", "prism-sw", small_result, config,
                          host=_host_section())
        assert rich["host"]["events_per_sec"] == 100_000.0

    def test_v3_round_trip(self, v3_record, tmp_path):
        path = tmp_path / "v3.json"
        write_record(v3_record, path)
        loaded = load_record(path)
        assert loaded["points"][0]["host"]["wall_s"] == 0.5

    def test_host_metrics_unknown_outside_host_mode(self, v3_record):
        with pytest.raises(ValueError, match="no tolerance band"):
            compare(v3_record, v3_record,
                    tolerances={"host.events_per_sec": 0.1})


def _series_section(mean_us=10.0, p99_us=20.0, tput=100_000.0):
    return {
        "window_us": 50.0,
        "steady_state": {
            "detector": "mser",
            "transient_windows": 2,
            "transient_end_us": 100.0,
            "configured_warmup_us": 300.0,
            "warmup_sufficient": True,
            "steady_mean_us": mean_us,
            "steady_p99_us": p99_us,
            "steady_tput_ops_per_sec": tput,
        },
        "annotations": [],
    }


class TestSchemaV4:
    """Points may carry a windowed ``series`` section."""

    @pytest.fixture
    def config(self):
        return {"kind": "kv", "flavor": "prism-sw", "clients": 2,
                "keys": 200, "seed": 11}

    @pytest.fixture
    def v4_record(self, small_result, config):
        point = make_point("kv", "prism-sw", small_result, config,
                           series=_series_section())
        return make_record("test", [point])

    def test_current_version_is_v6(self):
        assert SCHEMA_VERSION == 6

    def test_series_field_is_optional(self, small_result, config):
        bare = make_point("kv", "prism-sw", small_result, config)
        assert "series" not in bare
        rich = make_point("kv", "prism-sw", small_result, config,
                          series=_series_section())
        assert rich["series"]["steady_state"]["detector"] == "mser"

    def test_v4_round_trip(self, v4_record, tmp_path):
        path = tmp_path / "v4.json"
        write_record(v4_record, path)
        loaded = load_record(path)
        assert loaded["schema_version"] == 6
        assert loaded["points"][0]["series"]["window_us"] == 50.0

    def test_series_self_compare_passes(self, v4_record):
        report = compare(v4_record, v4_record, series=True)
        assert report["ok"]
        assert {f["metric"] for f in report["findings"]} == \
            set(SERIES_TOLERANCES)

    def test_series_mode_ignores_simulated_metrics(self, v4_record):
        worse = _degrade(v4_record, "throughput_ops_per_sec", 0.5)
        assert compare(v4_record, worse, series=True)["ok"]
        assert not compare(v4_record, worse)["ok"]

    def test_steady_state_regression_fails(self, small_result, config,
                                           v4_record):
        slow = make_record("test", [make_point(
            "kv", "prism-sw", small_result, config,
            series=_series_section(mean_us=15.0, tput=60_000.0))])
        report = compare(v4_record, slow, series=True)
        assert not report["ok"]
        assert {f["metric"] for f in report["regressions"]} == \
            {"series.steady_mean_us", "series.steady_tput_ops_per_sec"}

    def test_baseline_without_series_is_not_an_error(
            self, small_result, config, v4_record):
        old = make_record(
            "test", [make_point("kv", "prism-sw", small_result, config)])
        report = compare(old, v4_record, series=True)
        assert report["ok"]
        assert report["findings"] == []

    def test_run_without_series_is_a_regression(self, small_result,
                                                config, v4_record):
        uncollected = make_record(
            "test", [make_point("kv", "prism-sw", small_result, config)])
        assert not compare(v4_record, uncollected, series=True)["ok"]

    def test_series_tolerance_override(self, v4_record, small_result,
                                       config):
        slipped = make_record("test", [make_point(
            "kv", "prism-sw", small_result, config,
            series=_series_section(mean_us=10.1))])
        assert compare(v4_record, slipped, series=True)["ok"]
        assert not compare(v4_record, slipped, series=True,
                           tolerances={"series.steady_mean_us": 0.001})["ok"]

    def test_series_metrics_unknown_outside_series_mode(self, v4_record):
        with pytest.raises(ValueError, match="no tolerance band"):
            compare(v4_record, v4_record,
                    tolerances={"series.steady_mean_us": 0.1})


class TestPrimitivesCli:
    def test_point_primitives_prints_telemetry(self, capsys):
        assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                     "--clients", "2", "--keys", "200",
                     "--primitives"]) == 0
        out = capsys.readouterr().out
        assert "primitive telemetry" in out
        assert "chains:" in out
        assert "critical path" in out
        assert "critical-path sum" in out
        assert "== mean latency" in out

    def test_json_with_primitives_embeds_reports(self, tmp_path, capsys):
        path = tmp_path / "prim.json"
        assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                     "--clients", "2", "--keys", "200",
                     "--primitives", "--json", str(path)]) == 0
        record = load_record(path)
        point = record["points"][0]
        assert record["schema_version"] == SCHEMA_VERSION
        assert point["primitives"]["chains"]["requests"] > 0
        assert point["critpath"]
        # The telemetry must not leak into the config fingerprint: a
        # baseline of the same point without it would otherwise drift.
        assert "primitives" not in point["config"]
        capsys.readouterr()


class TestWallSection:
    """The wall-clock record available on every run."""

    def test_wall_section_from_harness_result(self, small_result):
        wall = wall_section(small_result)
        assert wall is not None
        assert wall["wall_s"] > 0
        assert wall["events_executed"] > 0
        assert wall["events_per_sec"] == pytest.approx(
            wall["events_executed"] / wall["wall_s"])

    def test_wall_section_absent_without_timing(self, small_result):
        stripped = copy.deepcopy(small_result)
        stripped.wall_s = 0.0
        assert wall_section(stripped) is None

    def test_wall_field_is_additive(self, small_result):
        config = {"kind": "kv", "flavor": "prism-sw", "clients": 2,
                  "keys": 200, "seed": 11}
        bare = make_point("kv", "prism-sw", small_result, config)
        assert "wall" not in bare
        rich = make_point("kv", "prism-sw", small_result, config,
                          wall=wall_section(small_result))
        assert rich["wall"]["events_executed"] > 0
        # records with the field still compare (on the simulated metrics)
        record = make_record("test", [rich])
        report = compare(record, record)
        assert report["ok"]
