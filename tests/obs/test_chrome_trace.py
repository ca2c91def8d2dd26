"""Chrome trace-event export: valid JSON, ordering, track metadata."""

import json

from repro.obs.chrome_trace import (
    OPS_PID,
    PROCESS_PID,
    to_chrome_events,
    write_chrome_trace,
)
from repro.obs.trace import Tracer
from repro.sim import Simulator


def _traced_run():
    sim = Simulator()
    tracer = sim.attach(Tracer(trace_processes=True))

    def op(name):
        with tracer.root(name) as root:
            yield sim.timeout(1.0)
            with root.child(f"{name}.leaf", phase="wire", bytes=512) as leaf:
                leaf.parts = {"wire": 0.5, "queue": 0.5}
                yield sim.timeout(1.0)

    sim.spawn(op("get"), name="client0")
    sim.spawn(op("put"), name="client1")
    sim.run(until=100)
    return tracer


class TestToChromeEvents:
    def test_event_shapes(self):
        events = to_chrome_events(_traced_run().roots)
        timed = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 2          # one thread_name per operation
        assert len(timed) == 4         # two roots, two leaves
        for event in timed:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur",
                                  "pid", "tid"}
            assert event["pid"] == OPS_PID

    def test_timestamps_sorted_and_nested(self):
        events = to_chrome_events(_traced_run().roots)
        timed = [e for e in events if e["ph"] == "X"]
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        # each leaf is contained in its root's interval
        by_tid = {}
        for event in timed:
            by_tid.setdefault(event["tid"], []).append(event)
        for track in by_tid.values():
            root = max(track, key=lambda e: e["dur"])
            for event in track:
                assert event["ts"] >= root["ts"]
                assert event["ts"] + event["dur"] <= root["ts"] + root["dur"]

    def test_parts_and_attrs_exported(self):
        events = to_chrome_events(_traced_run().roots)
        leaf = next(e for e in events if e["name"] == "get.leaf")
        assert leaf["args"]["bytes"] == 512
        assert leaf["args"]["parts_us"] == {"wire": 0.5, "queue": 0.5}

    def test_process_spans_get_their_own_pid(self):
        tracer = _traced_run()
        events = to_chrome_events(tracer.roots, tracer.process_spans)
        process_events = [e for e in events
                          if e["ph"] == "X" and e["pid"] == PROCESS_PID]
        assert {e["name"] for e in process_events} == {"client0", "client1"}

    def test_unfinished_spans_skipped(self):
        sim = Simulator()
        tracer = sim.attach(Tracer())
        tracer.root("never-finished")
        assert to_chrome_events(tracer.roots) == []


class TestWriteChromeTrace:
    def test_round_trip(self, tmp_path):
        tracer = _traced_run()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer.roots, str(path),
                                     process_spans=tracer.process_spans)
        assert written == str(path)
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["traceEvents"], "trace must not be empty"
        ts = [e["ts"] for e in data["traceEvents"] if e["ph"] == "X"]
        assert ts == sorted(ts)
