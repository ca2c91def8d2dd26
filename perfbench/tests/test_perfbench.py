"""The benchmark's own tests: ``pytest perfbench/tests`` (about 20 s).

They run the real benchmark in ``--quick`` mode (2 repeats at a tenth of the
simulated duration, every check on), so a change that breaks a workload, the
output contract or a check shows here before a full run is spent on it.
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import compare, endtoend, spec as spec_module
from perfbench.workloads import BY_NAME

ROOT = spec_module.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = spec_module.load()


def _run(*arguments):
    finished = subprocess.run(
        [sys.executable, "-m", "perfbench", *arguments], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    return finished, finished.stdout.strip().splitlines()


def _check_contract_line(line, specs):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(specs)
    for name, row in result["metrics"].items():
        assert NAME.match(name)
        assert set(row) == {"value", "unit"}
        assert row["unit"] == specs[name].unit
        assert isinstance(row["value"], (int, float))
    return result


def test_benchmark_json_is_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        document = json.load(f)
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["perfbench"]
    assert [row["name"] for row in document["workloads"]] == list(BY_NAME)
    for row in document["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
    names = [row["name"] for section in ("workloads", "end_to_end",
                                         "per_layer")
             for row in document[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in document["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in document["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(row["unit"]) and row["better"] in ("lower",
                                                              "higher")
    setup = SPEC.end_to_end["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in SPEC.end_to_end.values())
    assert len(document["per_layer"]) <= 128


def test_quick_suite_emits_every_end_to_end_metric(tmp_path):
    out = tmp_path / "suite.json"
    finished, _lines = _run("--quick", "--out", str(out))
    assert finished.returncode == 0, finished.stdout + finished.stderr
    suite = json.loads(out.read_text())
    assert suite["seed"] == 1 and suite["quick"] is True
    assert list(suite["workloads"]) == list(BY_NAME)
    for name, entry in suite["workloads"].items():
        document = entry["end_to_end"]
        assert document["workload"] == name and document["seed"] == 1
        assert document["correct"] and document["failed_share"] == 0
        assert document["repeats"] == endtoend.QUICK_REPEATS
        assert set(document["metrics"]) == set(SPEC.end_to_end)
        for row in document["metrics"].values():
            assert row["q1"] <= row["value"] <= row["q3"] and row["value"] > 0


def test_contract_run_prints_the_result_as_its_last_line():
    finished, lines = _run("--workload", "kv_open_chaos", "--seed", "7",
                           "--seconds", "1", "--trace", "0", "--quick")
    assert finished.returncode == 0, finished.stdout + finished.stderr
    _check_contract_line(lines[-1], SPEC.end_to_end)
    printed = "\n".join(lines[:-1])
    for name, metric in SPEC.end_to_end.items():
        assert re.search(rf"{re.escape(name)}\s+\S+ {re.escape(metric.unit)}",
                         printed)


def test_traced_run_emits_the_whole_ledger_and_a_fold_that_sums_to_one():
    finished, lines = _run("--workload", "rs_mixed", "--seconds", "1",
                           "--trace", "1", "--quick")
    assert finished.returncode == 0, finished.stdout + finished.stderr
    result = _check_contract_line(lines[-1], SPEC.per_layer)
    assert result["metrics"]["faults.self_share"]["value"] == 0
    assert result["metrics"]["prism.engine.ops_per_op"]["value"] > 1
    with open(os.path.join(spec_module.OUT_DIR, "rs_mixed.trace.json"),
              encoding="utf-8") as handle:
        trace = json.load(handle)
    shares = trace["cprofile"]["package_self_share"]
    from perfbench.layers import PACKAGES
    assert set(shares) == set(PACKAGES)
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"pass:reference", "pass:collectors", "pass:cprofile",
            "pass:layers"} <= names
    assert os.path.exists(os.path.join(spec_module.OUT_DIR,
                                       "rs_mixed.pstats"))


def test_every_profiled_function_folds_into_exactly_one_package():
    from perfbench.layers import PACKAGES, package_of
    src = os.path.join(ROOT, "src", "repro")
    assert package_of(os.path.join(src, "sim", "kernel.py")) == (
        "sim", "kernel")
    assert package_of(os.path.join(src, "apps", "kv", "prism_kv.py")) == (
        "apps", "prism_kv")
    assert package_of(os.path.join(ROOT, "perfbench", "workloads.py"))[0] \
        == "bench"
    assert package_of("~")[0] == "stdlib"
    assert package_of(os.__file__)[0] == "stdlib"
    for package in os.listdir(src):
        if os.path.isdir(os.path.join(src, package)) and package[0] != "_":
            assert package in PACKAGES


def test_unknown_workload_is_refused():
    finished, _lines = _run("--workload", "nope")
    assert finished.returncode != 0


# -- the determinism check ------------------------------------------------------


def test_determinism_check_names_the_doctored_field():
    reference = {"ops": 10, "events_executed": 330, "faults": {"timeouts": 2}}
    assert endtoend.differing_fields(copy.deepcopy(reference), reference) == []
    doctored = copy.deepcopy(reference)
    doctored["events_executed"] += 1
    doctored["faults"]["timeouts"] = 3
    assert endtoend.differing_fields(doctored, reference) == [
        "events_executed", "faults"]


def test_a_repeat_that_differs_from_the_audit_fails_the_run(monkeypatch):
    real_run_once = endtoend.run_once
    calls = []

    def doctoring_run_once(*args, **kwargs):
        repeat = real_run_once(*args, **kwargs)
        calls.append(repeat)
        if len(calls) == 3:     # audit, repeat 0, then this one
            repeat.record["p99_latency_us"] += 1e-9
        return repeat

    monkeypatch.setattr(endtoend, "run_once", doctoring_run_once)
    document = endtoend.measure(BY_NAME["kv_read"], seed=1, seconds=0,
                                quick=True)
    assert document["correct"] is False
    assert any("repeat 1 is not deterministic: p99_latency_us" in problem
               for problem in document["problems"])


# -- compare ----------------------------------------------------------------------


def _suite(host_us_per_op, events_per_op=30.0, failed_share=0.0):
    """A synthetic ``--out`` file with one workload."""
    q1, median, q3 = host_us_per_op
    metrics = {name: {"q1": 1.0, "value": 1.0, "q3": 1.0}
               for name in SPEC.end_to_end}
    metrics["host_us_per_op"] = {"q1": q1, "value": median, "q3": q3}
    metrics["events_per_op"] = dict.fromkeys(("q1", "value", "q3"),
                                             events_per_op)
    return {"seed": 1, "quick": False, "workloads": {"kv_read": {
        "end_to_end": {"failed_share": failed_share, "metrics": metrics}}}}


def _verdicts(parent, child):
    rows, regressions = compare.compare_documents(parent, child, SPEC)
    return {row[1].name: row[4] for row in rows}, regressions


def test_compare_returns_each_of_its_four_verdicts():
    bound = SPEC.end_to_end["host_us_per_op"].bound
    parent = _suite((99.0, 100.0, 101.0))
    verdicts, regressions = _verdicts(parent, _suite((99.5, 100.5, 101.5)))
    assert verdicts["host_us_per_op"] == "same" and not regressions
    verdicts, _ = _verdicts(parent, _suite((90.0, 91.0, 92.0)))
    assert verdicts["host_us_per_op"] == "better"
    worse = 100.0 * (1 + bound) + 1
    verdicts, _ = _verdicts(parent, _suite((worse, worse, worse)))
    assert verdicts["host_us_per_op"] == "worse"
    noisy = _suite((100.0 - 100 * bound, 100.0, 100.0 + 100 * bound))
    verdicts, _ = _verdicts(noisy, _suite((worse, worse, worse)))
    assert verdicts["host_us_per_op"] == "unresolved"
    assert set(verdicts.values()) <= set(compare.VERDICTS)
    # an exact count has no spread: a tenth of its bound is the threshold
    verdicts, _ = _verdicts(parent, _suite((99.0, 100.0, 101.0), 29.0))
    assert verdicts["events_per_op"] == "better"
    verdicts, _ = _verdicts(parent, _suite((99.0, 100.0, 101.0), 29.99))
    assert verdicts["events_per_op"] == "same"
    assert verdicts["sim_p50_us"] == "same"


def test_compare_pairs_needs_nine_wins_in_ten():
    metric = SPEC.end_to_end["host_us_per_op"]
    parent = (99.0, 100.0, 101.0)
    assert compare.verdict(metric, parent, 95.0, wins=9, pairs=10) == "better"
    assert compare.verdict(metric, parent, 95.0, wins=8, pairs=10) == "same"


def test_compare_exit_code(tmp_path):
    bound = SPEC.end_to_end["host_us_per_op"].bound
    files = {}
    for name, suite in {
            "parent": _suite((99.0, 100.0, 101.0)),
            "same": _suite((99.0, 100.5, 101.0)),
            "worse": _suite((1, 1, 1), events_per_op=30.0 * (1.5 + bound)),
            "failing": _suite((99.0, 100.0, 101.0), failed_share=0.01)}.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(suite))
    assert compare.main([str(files["parent"]), str(files["same"])]) == 0
    assert compare.main([str(files["parent"]), str(files["worse"])]) == 1
    assert compare.main([str(files["parent"]), str(files["failing"])]) == 1
