"""Span tracer: simulated-clock stamping, nesting, no-op path."""

import pytest

from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.sim import Simulator


class TestSpanNesting:
    def test_spans_stamp_simulated_time(self, sim, drive):
        tracer = sim.attach(Tracer())

        def work():
            with tracer.root("op") as root:
                yield sim.timeout(2.0)
                with root.child("inner", phase="cpu") as inner:
                    yield sim.timeout(3.0)
                yield sim.timeout(1.0)

        drive(sim, work())
        (root,) = tracer.roots
        assert root.start == 0.0
        assert root.end == pytest.approx(6.0)
        assert root.duration == pytest.approx(6.0)
        (inner,) = root.children
        assert inner.parent is root
        assert inner.start == pytest.approx(2.0)
        assert inner.duration == pytest.approx(3.0)
        assert inner.phase == "cpu"

    def test_interleaved_processes_keep_separate_trees(self, sim):
        """Two concurrent operations never share children — the reason
        parents are passed explicitly instead of via a global stack."""
        tracer = sim.attach(Tracer())

        def op(name, delay):
            with tracer.root(name) as root:
                yield sim.timeout(delay)
                with root.child(f"{name}.leaf"):
                    yield sim.timeout(1.0)

        sim.spawn(op("a", 0.5))
        sim.spawn(op("b", 0.25))
        sim.run(until=10)
        trees = {root.name: [c.name for c in root.children]
                 for root in tracer.roots}
        assert trees == {"a": ["a.leaf"], "b": ["b.leaf"]}

    def test_finish_is_idempotent(self, sim):
        tracer = sim.attach(Tracer())
        span = tracer.root("op")
        span.finish()
        end = span.end
        span.finish()
        assert span.end == end

    def test_walk_preorder(self, sim):
        tracer = sim.attach(Tracer())
        root = tracer.root("r")
        a = root.child("a")
        a.child("a1")
        root.child("b")
        assert [s.name for s in root.walk()] == ["r", "a", "a1", "b"]

    def test_annotate_and_parts(self, sim):
        tracer = sim.attach(Tracer())
        span = tracer.root("op").annotate(key=7)
        span.parts = {"nic": 0.3, "pcie": 0.7}
        assert span.attrs["key"] == 7
        assert span.parts == {"nic": 0.3, "pcie": 0.7}


class TestNullPath:
    def test_null_span_is_a_fixed_point(self):
        assert NULL_SPAN.child("x", phase="wire") is NULL_SPAN
        assert NULL_SPAN.annotate(a=1) is NULL_SPAN
        assert not NULL_SPAN.enabled
        with NULL_SPAN as span:
            assert span is NULL_SPAN
        assert list(NULL_SPAN.walk()) == []

    def test_null_tracer_roots_are_null(self):
        assert NULL_TRACER.root("op") is NULL_SPAN
        assert not NULL_TRACER.enabled
        assert NullTracer().bind(object()) is not None

    def test_simulator_defaults_to_null_tracer(self):
        assert Simulator().tracer is NULL_TRACER

    def test_null_tracer_allocates_nothing(self, sim, drive):
        """The untraced hot path creates no span objects at all."""

        def work():
            span = sim.tracer.root("op")
            with span.child("a", phase="cpu") as child:
                yield sim.timeout(1.0)
                assert child is NULL_SPAN

        drive(sim, work())
        assert sim.tracer.roots == ()


class TestProcessSpans:
    def test_process_lifetimes_recorded(self, sim):
        tracer = sim.attach(Tracer(trace_processes=True))

        def work():
            yield sim.timeout(4.0)

        sim.spawn(work(), name="worker")
        sim.run(until=10)
        (span,) = tracer.process_spans
        assert span.name == "worker"
        assert span.duration == pytest.approx(4.0)

    def test_processes_untracked_by_default(self, sim):
        tracer = sim.attach(Tracer())

        def work():
            yield sim.timeout(1.0)

        sim.spawn(work())
        sim.run(until=10)
        assert tracer.process_spans == []
