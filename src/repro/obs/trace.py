"""Span tracing on the simulated clock.

A :class:`Span` is one timed interval of an operation's life — a wire
serialization, a PCIe access, a core occupancy — stamped with
``sim.now`` at open and close and labeled with a *phase* (see
:data:`repro.obs.breakdown.PHASES`). Spans form a tree: every
instrumentation point receives its parent span and opens children
around the work it times, so one PRISM request traces as

    get
    └── roundtrip
        ├── client.post            (cpu)
        ├── client0.tx.queue       (queue)
        ├── client0.tx.xmit        (wire)
        ├── net.propagate          (wire)
        ├── server.rx.xmit         (wire)
        ├── server.process         (queue)
        │   ├── admission          (cpu/queue)
        │   └── op.read            (nic, parts={nic, pcie})
        ├── server.tx.xmit         (wire)   # reply
        ├── net.propagate          (wire)
        ├── client0.rx.xmit        (wire)
        └── client.completion      (cpu)

Parents are passed *explicitly* (there is no ambient "current span"):
simulation processes interleave on one thread, so any global stack
would attach one client's children to another client's operation.

A span also names its operation: ``op`` is the id the workload driver
gave the client operation at its root, inherited by every child, so
the span a call site already holds is the one per-operation handle —
the probe bus's flight-logged events carry its ``op``, and a message,
an execution or a launched task knows its operation because it holds
the span.

The no-op path: :data:`NULL_SPAN` is a singleton whose ``child()``
returns itself and whose context-manager hooks do nothing. Untraced
code threads it through the same call sites at the cost of a method
call per instrumentation point — no allocation, no clock reads. With
the probe bus armed and tracing off, the driver's root is an
*untraced* span: a null span that carries its operation's ``op`` and
nothing else (:meth:`Span.untraced` makes one from a traced span, for
work attributed to an operation but not traced under it).
"""

from repro.obs.bus import Observer


class Span:
    """One timed, labeled interval; node of a per-operation tree."""

    __slots__ = ("tracer", "name", "phase", "parent", "start", "end",
                 "attrs", "children", "parts", "op")

    #: real spans record; the NULL_SPAN overrides this with False
    enabled = True

    def __init__(self, tracer, name, phase, parent, start, attrs, op=None):
        self.tracer = tracer
        self.name = name
        self.phase = phase
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = attrs
        self.children = []
        #: optional {phase: µs} refinement of this span's own duration,
        #: for work the simulator charges as one lump (an executed op:
        #: the split its backend's op_time returns with the duration).
        self.parts = None
        #: the client operation's id (None outside one); a child's is
        #: its parent's
        self.op = op

    # -- construction ------------------------------------------------------

    def child(self, name, phase="other", **attrs):
        """Open a child span starting now."""
        # Clock read inlined (tracer.now -> sim.now are two property
        # hops); child() runs several times per simulated operation.
        # Falls back to the ``now`` property for duck-typed clocks.
        tracer = self.tracer
        try:
            now = tracer._sim._now
        except AttributeError:
            now = tracer._sim.now
        span = Span(tracer, name, phase, self, now, attrs, self.op)
        self.children.append(span)
        return span

    def untraced(self):
        """This span's operation without its tracing: work attributed
        to the operation that adds nothing to its trace."""
        return _NullSpan(self.op)

    # -- lifecycle ---------------------------------------------------------

    def finish(self):
        """Close the span at the current simulated time (idempotent)."""
        if self.end is None:
            sim = self.tracer._sim
            try:
                self.end = sim._now
            except AttributeError:
                self.end = sim.now

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.finish()
        return False

    # -- annotation --------------------------------------------------------

    def annotate(self, **attrs):
        self.attrs.update(attrs)
        return self

    # -- inspection --------------------------------------------------------

    @property
    def duration(self):
        """Length in µs; an open span measures up to the current time."""
        end = self.end if self.end is not None else self.tracer.now
        return end - self.start

    def walk(self):
        """Yield this span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        state = f"{self.duration:.3f}us" if self.end is not None else "open"
        return f"<Span {self.name} [{self.phase}] {state}>"


class _NullSpan:
    """The do-nothing span: every operation returns self or a constant.

    ``op`` is the one thing it carries: None for :data:`NULL_SPAN`, an
    operation's id for an untraced span.
    """

    __slots__ = ("op",)

    enabled = False
    name = "null"
    phase = "other"
    parent = None
    start = 0.0
    end = 0.0
    duration = 0.0
    parts = None
    children = ()
    attrs = {}

    def __init__(self, op=None):
        self.op = op

    def child(self, name, phase="other", **attrs):
        return self

    def untraced(self):
        return self

    def finish(self):
        pass

    def annotate(self, **attrs):
        return self

    def walk(self):
        return iter(())

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __repr__(self):
        return "<NullSpan>"


#: shared no-op span: the default value of every ``span=`` parameter
NULL_SPAN = _NullSpan()


class Tracer(Observer):
    """Collects span trees for one simulation run.

    Bind it to a simulator (``Tracer(sim)`` or :meth:`bind`) so spans
    read the simulated clock; then create per-operation roots with
    :meth:`root` and thread them through the instrumented call sites.

    ``trace_processes=True`` additionally records every kernel process
    lifetime (spawn → completion) as a flat span list — the
    ``sim/kernel`` timing hook — exported on its own track.
    """

    enabled = True

    def __init__(self, sim=None, trace_processes=False):
        self._sim = sim
        self.trace_processes = trace_processes
        #: finished (or still-open) root spans, in creation order
        self.roots = []
        #: process-lifetime spans when ``trace_processes`` is on
        self.process_spans = []
        self._live_processes = {}

    def bind(self, sim):
        """Attach to the simulator whose clock stamps the spans
        (``sim.attach`` calls this); instrumented layers read
        ``sim.tracer``."""
        self._sim = sim
        sim.tracer = self
        return self

    @property
    def now(self):
        return self._sim.now

    def root(self, name, phase="other", op=None, **attrs):
        """Open a new top-level span (one per traced operation) for
        operation ``op``."""
        try:
            now = self._sim._now
        except AttributeError:
            now = self._sim.now
        span = Span(self, name, phase, None, now, attrs, op)
        self.roots.append(span)
        return span

    # -- kernel hooks ------------------------------------------------------

    def process_started(self, process):
        if self.trace_processes:
            span = Span(self, process.name, "process", None, self.now, {})
            self._live_processes[id(process)] = span
            self.process_spans.append(span)

    def process_finished(self, process):
        if self.trace_processes:
            span = self._live_processes.pop(id(process), None)
            if span is not None:
                span.finish()


class NullTracer:
    """Default tracer: records nothing, creates only the NULL_SPAN."""

    enabled = False
    trace_processes = False
    roots = ()
    process_spans = ()

    def bind(self, sim):
        return self

    def root(self, name, phase="other", op=None, **attrs):
        """The untraced span of operation ``op`` (NULL_SPAN for none)."""
        return NULL_SPAN if op is None else _NullSpan(op)

    def process_started(self, process):
        pass

    def process_finished(self, process):
        pass


#: shared no-op tracer: the default value of ``Simulator.tracer``
NULL_TRACER = NullTracer()
