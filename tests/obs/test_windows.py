"""The one windowed store: buckets, rings, and the reports built on them.

Utilization, the time series and the online views keep their windowed
data in :mod:`repro.obs.windows`. The unit tests pin the store's grid,
layout and eviction rules; the last test pins what the collectors
report from it on the committed fig3 baseline point, bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.windows import Buckets, Rings

REPO = Path(__file__).resolve().parents[2]


class TestBuckets:
    def test_cells_are_made_on_first_touch(self):
        buckets = Buckets(10.0, lambda: [0])
        buckets.at(3.0)[0] += 1
        buckets.at(9.999)[0] += 1
        buckets.at(25.0)[0] += 1
        assert sorted(buckets.cells) == [0, 2]
        assert buckets.cells[0] == [2]
        assert buckets.cell(2) is buckets.at(20.0)

    def test_spans_are_dense_and_clipped_to_the_end(self):
        buckets = Buckets(10.0, list)
        buckets.cell(0)
        buckets.cell(2)
        spans = buckets.spans(25.0)
        assert [(lo, hi) for lo, hi, _cell in spans] == \
            [(0.0, 10.0), (10.0, 20.0), (20.0, 25.0)]
        assert spans[1][2] is None
        # no end: the last touched bucket is whole
        assert buckets.spans()[-1][:2] == (20.0, 30.0)
        # an end on an edge lays out the empty bucket starting there
        assert buckets.spans(30.0)[-1][:2] == (30.0, 30.0)
        assert Buckets(10.0, list).spans(50.0) == []

    def test_overlap_attributes_each_bucket_proportionally(self):
        buckets = Buckets(10.0, lambda: [0.0])
        buckets.cell(0)[0] = 10.0
        buckets.cell(1)[0] = 4.0        # the run ends at 15: 5 µs wide
        assert buckets.overlap(5.0, 12.5, 0, until=15.0) == \
            10.0 * 5.0 / 10.0 + 4.0 * 2.5 / 5.0
        assert buckets.overlap(0.0, 100.0, 0, until=15.0) == 14.0
        assert buckets.overlap(15.0, 30.0, 0, until=15.0) == 0.0

    def test_rejects_a_nonpositive_width(self):
        with pytest.raises(ValueError, match="window_us"):
            Buckets(0.0, list)


class TestRings:
    def test_total_reads_the_last_n_buckets(self):
        rings = Rings(40.0, 4)          # four 10 µs buckets
        rings.add("a", 0.0)
        rings.add("a", 35.0)
        assert rings.total("a", 39.0) == 2.0
        assert rings.total("a", 40.0) == 1.0    # bucket 0 expired
        assert rings.total("a", 80.0) == 0.0    # a gap of n clears it
        assert rings.lifetime("a") == 2.0
        assert rings.total("b", 80.0) == 0.0
        assert rings.lifetime("b") == 0.0
        assert list(rings.keys()) == ["a"]

    def test_a_bounded_map_evicts_the_key_touched_longest_ago(self):
        rings = Rings(40.0, 4, max_keys=2)
        rings.add("old", 0.0)
        rings.add("new", 5.0)
        rings.add("old", 12.0)          # "new" is now the stalest
        rings.add("third", 20.0)
        assert sorted(rings.keys()) == ["old", "third"]
        assert len(rings) == 2
        assert rings.evicted == 1
        assert rings.lifetime("new") == 0.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="window_us"):
            Rings(0.0, 4)
        with pytest.raises(ValueError, match="n_buckets"):
            Rings(40.0, 0)
        with pytest.raises(ValueError, match="max_keys"):
            Rings(40.0, 4, max_keys=0)


def test_baseline_point_reproduces_every_section_bit_identical(tmp_path):
    """The fig3 baseline point, with ``--series``, reproduces every
    section of ``benchmarks/BENCH_baseline.json`` exactly: the series
    windows, steady state and annotations, the utilization rows and
    bottleneck verdict, and the phases — not only the metrics
    ``tests/bench/test_bit_identity.py`` pins. Only ``wall`` (host
    time) is left out. A change that moves a simulated number on
    purpose re-records the file with the same command."""
    out = tmp_path / "run.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "bench_fig3_kv_read.py"),
         "--clients", "4", "--keys", "1000", "--series", "--json", str(out)],
        check=True, env=env, cwd=tmp_path, capture_output=True, timeout=300)
    run = json.loads(out.read_text())["points"]
    for point in run:
        point.pop("wall")
    baseline = json.loads(
        (REPO / "benchmarks" / "BENCH_baseline.json").read_text())["points"]
    assert json.dumps(run, sort_keys=True) == \
        json.dumps(baseline, sort_keys=True)
