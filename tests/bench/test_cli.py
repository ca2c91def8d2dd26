"""CLI smoke tests (small scales)."""

import json
import os

import pytest

from repro.bench.cli import build_parser, main
from repro.bench.experiments import EXPERIMENTS, geometry


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    # every row of the table, the scripts' own ablations included
    for name in ("calibration", "fig9", "ablation-chaining", "ext-btree"):
        assert name in out


def test_parser_defaults():
    # a geometry flag left out is the row's own default, not a CLI-wide one
    args = build_parser().parse_args(["fig3"])
    assert args.keys is None and args.clients is None
    keys, clients, *_ = geometry(EXPERIMENTS["fig3"], args)
    assert keys == 8000
    assert clients == (1, 8, 32, 96, 176)
    assert geometry(EXPERIMENTS["fig7"],
                    build_parser().parse_args(["fig7"]))[0] == 4000


def test_parser_client_list():
    args = build_parser().parse_args(["fig3", "--clients", "1,2,4"])
    assert args.clients == [1, 2, 4]


def test_point_kv(capsys):
    assert main(["point", "--kind", "kv", "--flavor", "prism-hw",
                 "--clients", "2", "--keys", "200"]) == 0
    out = capsys.readouterr().out
    assert "kv/prism-hw" in out


def test_point_tx(capsys):
    assert main(["point", "--kind", "tx", "--flavor", "farm-hw",
                 "--clients", "2", "--keys", "200"]) == 0
    assert "tx/farm-hw" in capsys.readouterr().out


def test_point_with_faults(capsys, tmp_path):
    record = tmp_path / "chaos.json"
    assert main(["point", "--kind", "rs", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--faults", "seed=3,drop=0.01",
                 "--json", str(record)]) == 0
    out = capsys.readouterr().out
    assert "goodput under faults" in out
    assert "retransmissions" in out
    import json
    point = json.loads(record.read_text())["points"][0]
    assert point["config"]["faults"] == "seed=3,drop=0.01"
    assert point["faults"]["plan"]["drop"] == 0.01


def test_motivation(capsys):
    assert main(["motivation"]) == 0
    assert "one-sided READ" in capsys.readouterr().out


def test_fig3_tiny_sweep(capsys):
    assert main(["fig3", "--clients", "1,2", "--keys", "300"]) == 0
    out = capsys.readouterr().out
    assert "prism-sw" in out and "pilaf-hw" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nope"])


def test_parser_profile_modes():
    parser = build_parser()
    assert parser.parse_args(["point"]).profile is None
    assert parser.parse_args(["point", "--profile"]).profile == "sample"
    assert parser.parse_args(
        ["point", "--profile=cprofile"]).profile == "cprofile"
    with pytest.raises(SystemExit):
        parser.parse_args(["point", "--profile", "perf"])


def test_point_profile_writes_host_record(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "run.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--json", str(record), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "host self-profile" in out
    assert "events/s" in out
    assert "profile artifact written" in out
    data = json.loads(record.read_text())
    assert data["schema_version"] == 6
    host = data["points"][0]["host"]
    assert host["events_per_sec"] > 0
    assert host["wall_s"] > 0
    shares = sum(entry["share"] for entry in host["buckets"].values())
    assert 0 < shares <= 1.0 + 1e-9
    assert os.path.exists(tmp_path / "flame.point.txt")


def test_point_profile_cprofile_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--profile=cprofile"]) == 0
    capsys.readouterr()
    assert os.path.exists(tmp_path / "point.pstats")
    assert os.path.exists(tmp_path / "flame.point.txt")


def test_record_identical_apart_from_host_section(tmp_path):
    # The host section is the ONLY difference --profile makes to the
    # record: wall-clock numbers never leak into simulated metrics.
    # Fresh interpreter per run — in-process back-to-back runs differ
    # in global channel-name counters, which is not what users diff.
    import subprocess
    import sys

    import repro
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    base = [sys.executable, "-m", "repro.bench.cli", "point",
            "--kind", "kv", "--flavor", "prism-sw",
            "--clients", "2", "--keys", "200"]
    plain, profiled = tmp_path / "plain.json", tmp_path / "prof.json"
    for extra in ([f"--json={plain}"], [f"--json={profiled}", "--profile"]):
        proc = subprocess.run(base + extra, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    expected = json.loads(plain.read_text())
    observed = json.loads(profiled.read_text())
    del observed["points"][0]["host"]
    assert observed == expected


def test_sweep_wall_line_reports_events_per_sec(capsys):
    assert main(["fig3", "--clients", "1", "--keys", "200"]) == 0
    out = capsys.readouterr().out
    assert "s wall" in out
    assert "events/s" in out


def test_fig1_profile_meters_internal_simulators(tmp_path, monkeypatch,
                                                 capsys):
    # fig1 builds its simulators inside the microbench helpers; the
    # ambient profiler must still meter them.
    monkeypatch.chdir(tmp_path)
    assert main(["fig1", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "host self-profile" in out
    assert os.path.exists(tmp_path / "flame.fig1.txt")


def test_parser_flight_modes():
    parser = build_parser()
    assert parser.parse_args(["point"]).flight is None
    assert parser.parse_args(["point", "--flight"]).flight == 65536
    assert parser.parse_args(["point", "--flight=128"]).flight == 128


def test_flight_dump_and_explain(capsys, tmp_path):
    dump = tmp_path / "flight.json"
    assert main(["point", "--kind", "rs", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--faults", "seed=3,drop=0.02",
                 "--flight", "--flight-dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "flight recorder" in out
    assert f"flight dump written to {dump}" in out
    data = json.loads(dump.read_text())
    assert data["ops_opened"] == data["ops_closed"] > 0
    assert main(["explain", str(dump), "--top", "2"]) == 0
    text = capsys.readouterr().out
    assert "anomalous requests" in text
    assert "causes:" in text
    assert "= measured" in text


def test_flight_dump_on_anomaly_without_explicit_path(capsys, monkeypatch,
                                                      tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["point", "--kind", "rs", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--faults", "seed=3,drop=0.02", "--flight"]) == 0
    out = capsys.readouterr().out
    assert "anomaly detected" in out
    assert os.path.exists(tmp_path / "flight.point.json")


def test_flight_clean_run_writes_no_dump(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200", "--flight"]) == 0
    out = capsys.readouterr().out
    assert "flight recorder" in out
    assert "flight dump written" not in out
    assert not os.path.exists(tmp_path / "flight.point.json")


def test_record_identical_with_flight(tmp_path):
    # --flight must leave the --json record byte-identical: the flight
    # recorder observes transitions, it never creates or times them.
    import subprocess
    import sys

    import repro
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    base = [sys.executable, "-m", "repro.bench.cli", "point",
            "--kind", "rs", "--flavor", "prism-sw",
            "--clients", "2", "--keys", "200",
            "--faults", "seed=3,drop=0.02"]
    plain, flighted = tmp_path / "plain.json", tmp_path / "flight.json"
    for extra in ([f"--json={plain}"], [f"--json={flighted}", "--flight"]):
        proc = subprocess.run(base + extra, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert json.loads(flighted.read_text()) == json.loads(plain.read_text())


def test_sweep_trace_writes_designated_point(capsys, tmp_path):
    # Satellite: --trace used to be silently ignored on fig sweeps.
    trace = tmp_path / "fig3.trace.json"
    assert main(["fig3", "--clients", "1,2", "--keys", "200",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"chrome trace written to {trace} (prism-sw c=2)" in out
    assert json.loads(trace.read_text())


def test_contention_trace_writes_designated_point(capsys, tmp_path):
    trace = tmp_path / "fig7.trace.json"
    assert main(["fig7", "--clients", "2", "--keys", "200",
                 "--zipfs", "0.0,0.9", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"chrome trace written to {trace} (prism-sw zipf=0.9)" in out
    assert json.loads(trace.read_text())


def test_sweep_flight_dumps_first_anomalous_point(capsys, tmp_path):
    dump = tmp_path / "sweep-flight.json"
    assert main(["fig6", "--clients", "1,2", "--keys", "200",
                 "--faults", "seed=3,drop=0.02",
                 "--flight", "--flight-dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert out.count("flight dump written") == 1
    assert json.loads(dump.read_text())["ops_opened"] > 0


def test_trace_and_flight_rejected_off_point_commands(capsys):
    assert main(["fig1", "--trace", "x.json"]) == 2
    assert "--trace is not supported" in capsys.readouterr().err
    assert main(["list", "--flight"]) == 2
    assert "--flight is not supported" in capsys.readouterr().err
    assert main(["point", "--flight=0"]) == 2
    assert "capacity" in capsys.readouterr().err


def test_explain_requires_one_path(capsys):
    assert main(["explain"]) == 2
    assert "usage" in capsys.readouterr().err


def test_parser_series_modes():
    parser = build_parser()
    assert parser.parse_args(["point"]).series is None
    assert parser.parse_args(["point", "--series"]).series == 50.0
    assert parser.parse_args(["point", "--series=25"]).series == 25.0


def test_series_point_prints_report(capsys):
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200", "--series"]) == 0
    out = capsys.readouterr().out
    assert "time series" in out
    assert "steady state" in out
    assert "reconciliation" in out
    assert "tput" in out and "lat" in out


def test_series_rejected_off_point_commands(capsys):
    assert main(["fig1", "--series"]) == 2
    assert "--series is not supported" in capsys.readouterr().err
    assert main(["list", "--series"]) == 2
    assert "--series is not supported" in capsys.readouterr().err


def test_series_window_must_be_positive(capsys):
    assert main(["point", "--series=0"]) == 2
    assert "window must be > 0" in capsys.readouterr().err


def test_warmup_measure_flags_validated(capsys):
    assert main(["point", "--warmup-us", "-1"]) == 2
    assert "--warmup-us must be positive" in capsys.readouterr().err
    assert main(["point", "--measure-us", "0"]) == 2
    assert "--measure-us must be positive" in capsys.readouterr().err
    assert main(["list", "--warmup-us", "10"]) == 2
    assert "--warmup-us is not supported" in capsys.readouterr().err


def test_warmup_measure_recorded_in_config(tmp_path, capsys):
    record = tmp_path / "windows.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--warmup-us", "100", "--measure-us", "800",
                 "--json", str(record)]) == 0
    capsys.readouterr()
    config = json.loads(record.read_text())["points"][0]["config"]
    assert config["warmup_us"] == 100.0
    assert config["measure_us"] == 800.0


def test_series_json_embeds_report(tmp_path, capsys):
    record = tmp_path / "series.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--series", "--json", str(record)]) == 0
    capsys.readouterr()
    data = json.loads(record.read_text())
    assert data["schema_version"] == 6
    series = data["points"][0]["series"]
    assert series["windows"]
    assert series["steady_state"]["detector"] == "mser"
    assert series["reconciliation"]["window_measured_sum"] == \
        data["points"][0]["metrics"]["ops"]


def test_record_identical_with_series(tmp_path):
    # --series must leave the rest of the --json record byte-identical,
    # faults included: the collector observes transitions, it never
    # creates or times them.
    import subprocess
    import sys

    import repro
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    base = [sys.executable, "-m", "repro.bench.cli", "point",
            "--kind", "rs", "--flavor", "prism-sw",
            "--clients", "2", "--keys", "200",
            "--faults", "seed=3,drop=0.02"]
    plain, collected = tmp_path / "plain.json", tmp_path / "series.json"
    for extra in ([f"--json={plain}"], [f"--json={collected}", "--series"]):
        proc = subprocess.run(base + extra, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    expected = json.loads(plain.read_text())
    observed = json.loads(collected.read_text())
    del observed["points"][0]["series"]
    assert observed == expected


def test_sweep_series_prints_per_point(capsys):
    assert main(["fig3", "--clients", "1,2", "--keys", "200",
                 "--series"]) == 0
    out = capsys.readouterr().out
    # one series block per (flavor, client count) point
    assert out.count("time series") == 6
    assert "steady state" in out


def test_compare_series_flag(tmp_path, capsys):
    record = tmp_path / "series.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--series", "--json", str(record)]) == 0
    capsys.readouterr()
    assert main(["compare", str(record), str(record), "--series"]) == 0
    out = capsys.readouterr().out
    assert "series.steady_mean_us" in out
    assert "compare: PASS" in out
