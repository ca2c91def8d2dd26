"""Online telemetry views: windows, eviction, probes, identity.

Three families of guarantees:

* **Mechanics** — the O(1) ring windows evict on time, the per-key map
  stays bounded, EWMAs and the chase-depth sketch compute the documented
  values, and the decision log is a bounded ring.
* **Reconciliation** — the views' lifetime totals equal the post-hoc
  collectors' aggregates on the same deterministic run (primitives for
  CAS/chase/NAK, series window counters for timeouts/backoffs).
* **Identity** — ``--views`` off is byte-identical: in-process
  ``RunResult`` equality and a subprocess ``--json`` record diff, both
  with and without a fault plan.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import run_point
from repro.obs import (
    PrimitiveCollector,
    RfpCrossoverProbe,
    SeriesCollector,
    ViewCollector,
    crossover_vs_series,
)
from repro.obs.views import EWMA_ALPHA
from repro.sim import Simulator
from repro.sim.events import SimulationError
from repro.workload import YCSB_C, YcsbWorkload

REPO = Path(__file__).resolve().parents[2]

CLIENTS = 4
KEYS = 400


def _workloads(index):
    return YCSB_C(KEYS, zipf=0.9, seed=11, client_id=index)


def _run(**collectors):
    return run_point("kv", "prism-sw", _workloads, CLIENTS,
                     n_keys=KEYS, warmup_us=100.0, measure_us=500.0,
                     **collectors)


class _FakeSim:
    """Just enough simulator for unit-testing the collector: a clock."""

    def __init__(self):
        self._now = 0.0
        self.hostprof = None


def _bound_views(**kwargs):
    sim = _FakeSim()
    views = ViewCollector(**kwargs).bind(sim)
    return sim, views


# -- window mechanics --------------------------------------------------------


class TestWindows:
    def test_rate_is_windowed_sum_over_window(self):
        sim, views = _bound_views(window_us=50.0, n_buckets=8)
        for _ in range(10):
            views.note_cas(1, 0x100, swapped=False)
        # 10 retries in a 50 µs window = 200k events/s.
        assert views.rate("cas_retry", 1) == pytest.approx(200_000.0)
        assert views.rate("cas_attempt", 1) == pytest.approx(200_000.0)

    def test_events_age_out_after_the_window(self):
        sim, views = _bound_views(window_us=50.0, n_buckets=8)
        views.note_cas(1, 0x100, swapped=False)
        assert views.rate("cas_retry", 1) > 0
        sim._now = 49.0
        assert views.rate("cas_retry", 1) > 0
        sim._now = 50.0 + 50.0 / 8  # fully past the last live sub-bucket
        assert views.rate("cas_retry", 1) == 0.0
        assert views.rate("cas_retry", key=0x100) == 0.0
        # Lifetime totals survive eviction (the reconciliation channel).
        assert views._global.lifetime("cas_retry") == 1.0

    def test_partial_eviction_keeps_recent_buckets(self):
        sim, views = _bound_views(window_us=80.0, n_buckets=8)
        views.note_timeout("c0")          # t=0, sub-bucket 0
        sim._now = 70.0                    # sub-bucket 7: 0 still live
        views.note_timeout("c0")
        assert views.rate("timeout", "c0") == pytest.approx(2 / 80e-6)
        sim._now = 85.0                    # sub-bucket 10 > 8: bucket 0 gone
        assert views.rate("timeout", "c0") == pytest.approx(1 / 80e-6)

    def test_untracked_conn_and_key_read_zero(self):
        _sim, views = _bound_views()
        assert views.rate("nak", "nobody") == 0.0
        assert views.rate("cas_retry", key=0xdead) == 0.0
        assert math.isnan(views.ewma("chase_depth", "nobody"))
        assert math.isnan(views.quantile("chase_depth", 0.99))

    def test_unknown_signals_raise(self):
        _sim, views = _bound_views()
        with pytest.raises(ValueError, match="unknown rate signal"):
            views.rate("bogus")
        with pytest.raises(ValueError, match="unknown ewma signal"):
            views.ewma("bogus")
        with pytest.raises(ValueError, match="cas_retry"):
            views.rate("nak", key=1)
        with pytest.raises(ValueError, match="chase_depth"):
            views.quantile("service_time_us", 0.5)


class TestKeyEviction:
    def test_key_map_is_bounded_with_stalest_evicted(self):
        sim, views = _bound_views(window_us=50.0, max_keys=16)
        for i in range(64):
            sim._now = float(i)
            views.note_cas(1, 0x1000 + i, swapped=False)
        assert len(views._keys) <= 16
        assert views.evicted_keys == 64 - 16
        # The freshest keys survive; the stalest were evicted.
        assert views.rate("cas_retry", key=0x1000 + 63) > 0
        assert views.rate("cas_retry", key=0x1000) == 0.0
        report = views.report()
        assert report["tracked_keys"] <= 16
        assert report["evicted_keys"] == 48


class TestEwmaAndSketch:
    def test_ewma_matches_the_recurrence(self):
        sim, views = _bound_views()
        samples = [4.0, 8.0, 2.0, 6.0]
        expected = samples[0]
        for sample in samples[1:]:
            expected = EWMA_ALPHA * sample + (1 - EWMA_ALPHA) * expected
        for sample in samples:
            views.note_service_time(7, sample)
        assert views.ewma("service_time_us", 7) == pytest.approx(expected)
        # conn=None is the global view, fed by every connection.
        assert views.ewma("service_time_us") == pytest.approx(expected)

    def test_chase_depth_quantile_over_exact_histogram(self):
        sim, views = _bound_views()
        for hops in [0] * 90 + [1] * 9 + [2]:
            views.note_chase(3, "READ", hops)
        assert views.quantile("chase_depth", 0.5, 3) <= 1.0
        assert views.quantile("chase_depth", 0.99, 3) >= 1.0
        assert 0.0 <= views.ewma("chase_depth", 3) <= 2.0
        # The global sketch merges per-conn histograms.
        assert views.quantile("chase_depth", 0.99) == \
            views.quantile("chase_depth", 0.99, 3)


class TestDecisionLog:
    def test_log_is_a_bounded_ring_in_record_order(self):
        sim, views = _bound_views(decision_capacity=8)
        for i in range(20):
            sim._now = float(i)
            views.probe("p", {"i": i}, "go")
        assert len(views.decisions) == 8
        assert views.decisions_recorded == 20
        assert views.decisions_evicted == 12
        log = views.decision_log()
        assert [entry["inputs"]["i"] for entry in log] == list(range(12, 20))
        assert [entry["seq"] for entry in log] == list(range(12, 20))
        assert log[0]["t_us"] == 12.0

    def test_report_embeds_the_log(self):
        sim, views = _bound_views()
        views.probe("p", {"x": 1.0}, "stay")
        report = views.report()
        assert report["decisions"]["recorded"] == 1
        assert report["decisions"]["log"][0]["verdict"] == "stay"


class TestProbes:
    def test_probe_fires_once_per_window_per_conn(self):
        sim, views = _bound_views(window_us=50.0)
        seen = []

        class Spy:
            name = "spy"

            def evaluate(self, v, conn, window_start_us):
                seen.append((conn, window_start_us))

        views.add_probe(Spy())
        views.note_timeout("a")
        views.note_timeout("a")          # same window: no re-evaluation
        sim._now = 75.0
        views.note_timeout("a")          # window 1
        views.note_timeout("b")          # other conn, same window
        assert seen == [("a", 0.0), ("a", 50.0), ("b", 50.0)]

    def test_rfp_probe_logs_first_eval_and_transitions_only(self):
        sim, views = _bound_views(window_us=50.0)
        probe = views.add_probe(RfpCrossoverProbe(cas_retry_per_s=50_000.0))
        views.note_cas(1, 0x10, swapped=True)   # quiet: one-sided verdict
        assert [d["verdict"] for d in views.decision_log()] == ["one-sided"]
        # Storm of misses in window 1; probes evaluate on the *first*
        # event of a window, so the verdict flips at the next window
        # boundary while the storm is still inside the sliding window.
        sim._now = 60.0
        for _ in range(20):
            views.note_cas(1, 0x10, swapped=False)
        sim._now = 101.0
        views.note_cas(1, 0x10, swapped=False)
        log = views.decision_log()
        assert [d["verdict"] for d in log] == ["one-sided", "rpc"]
        assert log[-1]["name"] == probe.name
        assert log[-1]["inputs"]["cas_retry_per_s"] >= 50_000.0
        # Staying contended across the next window logs nothing new.
        sim._now = 110.0
        for _ in range(20):
            views.note_cas(1, 0x10, swapped=False)
        sim._now = 151.0
        views.note_cas(1, 0x10, swapped=False)
        assert len(views.decision_log()) == 2


# -- install contract --------------------------------------------------------


class TestInstallContract:
    @pytest.mark.parametrize("collector", [
        ViewCollector(),
        PrimitiveCollector(),
        SeriesCollector(),
    ])
    def test_late_install_raises(self, collector):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.run()
        assert sim.events_executed > 0
        with pytest.raises(SimulationError, match="before the"):
            sim.attach(collector)

    def test_late_flight_and_faults_install_raise(self):
        from repro.faults import parse_faults
        from repro.obs import FlightRecorder
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError, match="attach"):
            sim.attach(FlightRecorder())
        with pytest.raises(SimulationError, match="set_faults"):
            sim.set_faults(parse_faults("seed=1,drop=0.01"))

    def test_install_before_run_still_works(self):
        sim = Simulator()
        views = sim.attach(ViewCollector())
        assert sim.views is views


# -- identity ----------------------------------------------------------------


class TestOffByDefaultIdentity:
    def test_views_do_not_perturb_simulated_time(self):
        bare = _run()
        monitored = _run(views=ViewCollector())
        assert monitored == bare

    def test_views_do_not_perturb_faulty_runs(self):
        spec = "seed=3,drop=0.01"
        bare = _run(faults=spec)
        monitored = _run(faults=spec, views=ViewCollector())
        assert monitored == bare

    def test_views_saw_the_run(self):
        views = ViewCollector()
        _run(views=views)
        report = views.report()
        # YCSB-C is read-only: no CAS, but every round trip feeds the
        # service-time EWMA and every READ feeds the chase sketch.
        assert report["connections"]
        row = next(iter(report["connections"].values()))
        assert row["service_time_ewma_us"] > 0
        assert row["chase_ops"] > 0
        assert report["end_us"] is not None


def _strip_views(record_text):
    record = json.loads(record_text)
    for point in record["points"]:
        point.pop("views", None)
        assert point["config"].get("views") is None
    return json.dumps(record, indent=2, sort_keys=True)


def _cli_point(tmp_path, name, *extra, kind="kv"):
    out = tmp_path / name
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.bench.cli", "point",
         "--kind", kind, "--flavor", "prism-sw",
         "--clients", "2", "--keys", "200", "--json", str(out), *extra],
        check=True, env=env, cwd=tmp_path, capture_output=True, timeout=300)
    return out.read_text()


class TestSubprocessRecordIdentity:
    def test_views_leave_the_json_record_byte_identical(self, tmp_path):
        bare = _cli_point(tmp_path, "bare.json")
        again = _cli_point(tmp_path, "again.json")
        assert bare == again  # determinism floor for the comparison
        with_views = _cli_point(tmp_path, "views.json", "--views")
        assert json.loads(with_views)["points"][0]["views"]
        assert _strip_views(with_views) == _strip_views(bare)

    def test_views_leave_faulty_records_byte_identical(self, tmp_path):
        # rs chains are retry-safe by protocol design, so a lossy run
        # completes (the same spec the --flight identity test uses).
        spec = "seed=3,drop=0.02"
        bare = _cli_point(tmp_path, "bare.json", "--faults", spec,
                          kind="rs")
        with_views = _cli_point(tmp_path, "views.json", "--faults", spec,
                                "--views", kind="rs")
        assert _strip_views(with_views) == _strip_views(bare)


# -- reconciliation ----------------------------------------------------------


def _merged_hist(per_op):
    merged = {}
    for hist in per_op.values():
        for bucket, count in hist:
            merged[bucket] = merged.get(bucket, 0) + count
    return merged


class TestReconciliation:
    @pytest.fixture(scope="class")
    def collected(self):
        views = ViewCollector()
        primitives = PrimitiveCollector()
        series = SeriesCollector()
        result = run_point(
            "rs", "prism-sw",
            lambda i: YcsbWorkload(50, read_fraction=0.5, zipf=1.2,
                                   seed=19, client_id=i),
            8, n_keys=50, warmup_us=100.0, measure_us=500.0,
            views=views, primitives=primitives, series=series,
            faults="seed=5,drop=0.05")
        return views, primitives.report(), series.report(), result

    def test_cas_totals_match_primitives(self, collected):
        views, prim, _series, _result = collected
        report = views.report()
        assert report["signals"]["cas_attempt"]["total"] == \
            prim["cas"]["attempts"]
        assert report["signals"]["cas_retry"]["total"] == \
            prim["cas"]["misses"]

    def test_chase_histograms_match_primitives(self, collected):
        views, prim, _series, _result = collected
        merged = {}
        for hist in views._chase_hist.values():
            for hops, count in hist.items():
                merged[hops] = merged.get(hops, 0) + count
        assert merged == _merged_hist(prim["pointer_chase"]["depth_by_op"])

    def test_nak_totals_match_primitives(self, collected):
        views, prim, _series, _result = collected
        nak_total = sum(
            count for classes in prim["chains"]["nak_reasons"].values()
            for count in classes.values())
        assert views.report()["signals"]["nak"]["total"] == nak_total

    def test_timeout_and_backoff_totals_match_series_counters(
            self, collected):
        views, _prim, series, _result = collected
        report = views.report()

        def counter_sum(name):
            return sum((w.get("counters") or {}).get(name, 0)
                       for w in series["windows"])

        assert counter_sum("timeouts") > 0  # the drop plan actually bit
        assert report["signals"]["timeout"]["total"] == \
            counter_sum("timeouts")
        assert report["signals"]["backoff"]["total"] == \
            counter_sum("retransmissions")


# -- the demonstration probe -------------------------------------------------


class TestShadowProbeAcceptance:
    def test_contended_run_logs_decisions_that_agree_with_series(self):
        # A fig7-style contended point: hot-key CAS on PRISM-RS.
        views = ViewCollector()
        views.add_probe(RfpCrossoverProbe())
        series = SeriesCollector()
        run_point("rs", "prism-sw",
                  lambda i: YcsbWorkload(50, read_fraction=0.5, zipf=1.2,
                                         seed=19, client_id=i),
                  8, n_keys=50, warmup_us=100.0, measure_us=500.0,
                  views=views, series=series)
        decisions = views.decision_log()
        assert decisions, "contended run must log at least one decision"
        check = crossover_vs_series(decisions, series.report())
        assert check["decisions"] == len(decisions)
        assert check["agree"], check["conflicts"]

    def test_quiet_run_stays_one_sided(self):
        views = ViewCollector()
        views.add_probe(RfpCrossoverProbe())
        _run(views=views)
        verdicts = {d["verdict"] for d in views.decision_log()}
        assert verdicts == {"one-sided"}
