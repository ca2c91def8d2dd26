"""The machine-readable result schema."""

import copy
import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import run_point
from repro.bench.regress import (
    SCHEMA,
    SCHEMA_VERSION,
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
    that round-trips."""

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


def _series_section():
    return {
        "window_us": 50.0,
        "steady_state": {
            "detector": "mser",
            "transient_windows": 2,
            "transient_end_us": 100.0,
            "configured_warmup_us": 300.0,
            "warmup_sufficient": True,
            "steady_mean_us": 10.0,
            "steady_p99_us": 20.0,
            "steady_tput_ops_per_sec": 100_000.0,
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
        # The telemetry must not leak into the config fingerprint: the
        # same point without it must have the same config.
        assert "primitives" not in point["config"]
        capsys.readouterr()


class TestWallSection:
    """The wall-clock record available on every run."""

    def test_wall_section_from_harness_result(self, small_result):
        wall = wall_section(small_result)
        assert wall is not None
        assert wall["wall_s"] > 0
        assert wall["setup_s"] == small_result.setup_s > 0
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
