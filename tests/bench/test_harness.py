"""The benchmark harness itself: every flavor builds and measures."""

import pytest

from repro.bench.harness import build_system, run_point, sweep_clients
from repro.bench.microbench import (
    CLASSIC_PRIMITIVES,
    PRIMITIVES,
    measure_primitive,
)
from repro.bench.reporting import (
    CURVE_HEADERS,
    curve_rows,
    low_load_latency,
    peak_throughput,
    print_table,
)
from repro.sim import Simulator
from repro.workload import YCSB_A, YCSB_C, YcsbTransactionalWorkload

KV_FLAVORS = ["prism-sw", "prism-hw", "prism-bluefield", "pilaf-hw",
              "pilaf-sw"]
RS_FLAVORS = ["prism-sw", "abdlock-hw", "abdlock-sw"]
TX_FLAVORS = ["prism-sw", "farm-hw", "farm-sw"]


@pytest.mark.parametrize("flavor", KV_FLAVORS)
def test_kv_flavors_build_and_run(flavor):
    result = run_point("kv", flavor,
                       lambda i: YCSB_A(200, seed=1, client_id=i),
                       n_clients=2, n_keys=200, warmup_us=50,
                       measure_us=400)
    assert result.ops > 0
    assert result.mean_latency_us > 0


@pytest.mark.parametrize("flavor", RS_FLAVORS)
def test_rs_flavors_build_and_run(flavor):
    result = run_point("rs", flavor,
                       lambda i: YCSB_A(100, seed=1, client_id=i),
                       n_clients=2, n_keys=100, warmup_us=50,
                       measure_us=400)
    assert result.ops > 0


@pytest.mark.parametrize("flavor", TX_FLAVORS)
def test_tx_flavors_build_and_run(flavor):
    result = run_point(
        "tx", flavor,
        lambda i: YcsbTransactionalWorkload(100, keys_per_txn=1, seed=1,
                                            client_id=i),
        n_clients=2, n_keys=100, warmup_us=50, measure_us=400)
    assert result.ops > 0


def test_unknown_flavor_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="unknown kv flavor"):
        build_system("kv", "nonsense", sim, n_keys=10)


def test_loaded_values_are_value_size_bytes():
    """The bulk-loaded value is exactly ``value_size`` bytes — the size
    YCSB PUTs write — also when that is not a multiple of 8: the key's
    8-byte pattern, repeated and cut."""
    from repro.apps.kv.layout import KvLayout
    server = build_system("kv", "prism-sw", Simulator(), n_keys=50,
                          value_size=100).server
    for key in (0, 5, 49):
        slot = server.layout.slot_addr(
            server.slot_index(KvLayout.encode_key(key)))
        _ver, ptr, bound = KvLayout.unpack_slot(
            server.prism.space.read(slot, 24))
        _ver, _key, value = KvLayout.unpack_entry(
            server.prism.space.read(ptr, bound))
        pattern = bytes((key * 31 + i) % 256 for i in range(8))
        assert value == (pattern * 13)[:100]


def test_sweep_produces_monotone_throughput():
    results = sweep_clients(
        "kv", "prism-sw", lambda i: YCSB_C(500, seed=2, client_id=i),
        [1, 4], n_keys=500, warmup_us=50, measure_us=400)
    assert len(results) == 2
    assert (results[1].throughput_ops_per_sec
            > results[0].throughput_ops_per_sec)
    assert peak_throughput(results) == results[1].throughput_ops_per_sec
    assert low_load_latency(results) == results[0].mean_latency_us


def test_all_primitives_measurable_on_all_prism_backends():
    for backend in ("prism-sw", "prism-hw", "prism-bluefield"):
        for primitive in PRIMITIVES:
            latency = measure_primitive(backend, primitive, repeats=2)
            assert latency > 0


def test_classic_primitives_on_rdma_backend():
    for primitive in CLASSIC_PRIMITIVES:
        assert measure_primitive("rdma", primitive, repeats=2) > 0


def test_print_table_formats(capsys):
    print_table("demo", ["a", "b"], [[1, 2.5], ["x", 3.25]])
    out = capsys.readouterr().out
    assert "== demo ==" in out
    assert "2.50" in out
    assert "x" in out


def test_curve_rows_shape():
    results = sweep_clients(
        "kv", "prism-sw", lambda i: YCSB_C(200, seed=3, client_id=i),
        [1], n_keys=200, warmup_us=50, measure_us=200)
    rows = curve_rows(results)
    assert len(rows) == 1
    assert len(rows[0]) == len(CURVE_HEADERS)


class TestAggregatedSourceModel:
    MODEL = {"rate_per_client_ops_s": 200.0, "seed": 3, "window": 8}

    def run_aggregated(self, n_clients=10_000):
        return run_point("kv", "prism-sw", None, n_clients=n_clients,
                         n_keys=200, warmup_us=100, measure_us=500,
                         source_model=dict(self.MODEL))

    def test_aggregated_point_runs(self):
        result = self.run_aggregated()
        assert result.clients == 10_000
        assert result.ops > 100
        assert result.mean_latency_us > 0
        model = result.extra["source_model"]
        assert model["model"] == "aggregated-open-loop"
        assert model["clients"] == 10_000
        assert model["n_sources"] == 11
        assert model["windows"] == [8] * 11
        assert result.extra["stalled_arrivals"] >= 0

    def test_aggregated_point_deterministic(self):
        first = self.run_aggregated()
        second = self.run_aggregated()
        assert first.ops == second.ops
        assert first.mean_latency_us == second.mean_latency_us
        assert first.extra["events_executed"] == \
            second.extra["events_executed"]

    def test_wall_section_recorded_on_every_run(self):
        result = run_point("kv", "prism-sw",
                           lambda i: YCSB_C(100, seed=1, client_id=i),
                           n_clients=2, n_keys=100, warmup_us=50,
                           measure_us=200)
        assert result.wall_s > 0
        assert result.setup_s > 0
        assert result.extra["events_executed"] > 0


def test_observer_keywords_accept_none_and_reject_unknown_names():
    point = dict(n_clients=2, n_keys=200, warmup_us=50, measure_us=300)

    def workload(index):
        return YCSB_C(200, seed=1, client_id=index)

    bare = run_point("kv", "prism-sw", workload, **point)
    # An observer keyword set to None is an observer left off.
    assert run_point("kv", "prism-sw", workload, utilization=None,
                     tracer=None, faults=None, **point) == bare
    with pytest.raises(TypeError, match="unexpected keyword argument 'n_key'"):
        run_point("kv", "prism-sw", workload, n_key=5, **point)
