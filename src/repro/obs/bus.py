"""The probe bus: one event stream, every collector a subscriber.

Each hook site in the stack reports a transition exactly once —
``bus.emit(kind, *fields)`` behind a single ``if bus is not None``
guard — and never names who is listening. The collectors (primitives,
series, views, flight) are folds over that one stream, so their totals
reconcile by construction: one ``req.timeout`` is one timeout in the
series windows, the views' rings, and the flight log alike.

The install contract, the same for every observer (the tracer, the
utilization monitors and the host profiler included — they are
:class:`Observer` s that do not subscribe)::

    collector = sim.attach(Collector(...))   # BEFORE system construction
    ... build system, run ...
    collector.report()

``Simulator.attach`` binds the collector to the simulated clock and, if
it has ``subscribe``, creates ``sim.bus`` on first use and has
``collector.subscribe(bus)`` register its handlers per kind; attaching
after the run has started raises. Off
by default: ``sim.bus`` is None until something attaches, so an
unobserved run pays one attribute load per hook site. Handlers only
update host-side state at transitions the run already makes — they
never read or schedule simulator events — so an observed run is
bit-identical in simulated time to a bare one.
"""

#: The event vocabulary: ``kind -> (positional fields, emitting module)``.
#: A new hook is one ``emit`` at the site plus one row here;
#: ``tests/obs/test_bus.py`` checks every emit in the tree against it.
#: ``conn``, where carried, is last: the routing tag (connection id, or
#: host name for channels outside the PRISM client path) that
#: per-connection subscribers key on and the flight log leaves out.
#: ``op``, on every kind the flight recorder logs, is the client
#: operation the event belongs to (the ``op`` of the span the emitting
#: site holds; None outside an operation), last or just before ``conn``;
#: the crash and starvation schedules' kinds belong to no operation.
#: A NAK reply is ``req.reply`` with ok=False; ``chain.done``'s
#: ``reason`` is None for a committed chain.
VOCABULARY = {
    "op.open": ("name client op", "workload.driver"),
    "op.close": ("status latency_us aborts retries measured op",
                 "workload.driver"),
    "req.send": ("logical req dst service op", "net.port"),
    "req.reply": ("logical req ok op", "net.port"),
    "req.stale": ("logical req ok op", "net.port"),
    "req.timeout": ("logical req dst timeout_us op conn", "net.port"),
    "req.backoff": ("logical attempt backoff_us op conn", "net.port"),
    "req.exhausted": ("logical attempts op", "net.port"),
    "chain.submit": ("ops kinds server op", "prism.client"),
    "chain.roundtrip": ("latency_us conn", "prism.client"),
    "rpc.submit": ("method server op", "rpc.erpc"),
    "chain.done": ("chain results logical reason", "prism.engine"),
    "chain.abort": ("logical ops reason op", "prism.engine"),
    "op.deref": ("opname hops bounded conn", "prism.engine"),
    "op.nak": ("opname error op conn", "prism.engine"),
    "cas.attempt": ("target mode swapped conn", "prism.engine"),
    "cas.miss": ("target mode op", "prism.engine"),
    "alloc.pop": ("freelist queue", "prism.engine"),
    "alloc.exhausted": ("freelist queue", "prism.engine"),
    "freelist.register": ("freelist queue", "prism.server"),
    "app.key": ("app kind key", "apps.common"),
    "fault.drop": ("msg logical dst service op", "faults.injector"),
    "fault.dup": ("msg logical dst service op", "faults.injector"),
    "fault.delay": ("msg logical dst service delay_us op", "faults.injector"),
    "fault.crash_drop": ("msg logical host dst op", "faults.injector"),
    "fault.crash": ("host", "faults.injector"),
    "fault.recover": ("host", "faults.injector"),
    "fault.starve": ("freelist name taken", "faults.injector"),
    "fault.restore": ("freelist name restored", "faults.injector"),
}


class Observer:
    """What ``Simulator.attach`` and the bench harness ask of a collector.

    ``bind(sim)`` takes the collector's named handle on the simulator
    (``sim.tracer``, ``sim.flight``, ...) and returns the collector; one
    that folds bus events also defines ``subscribe(bus)``. The harness
    brackets a run with :meth:`configure` and :meth:`finish`; these
    defaults serve the collectors that need neither.
    """

    __slots__ = ()

    def configure(self, warmup_us, measure_us):
        """The run's measurement geometry, before the system is built."""

    def finish(self, now):
        """The run ended at simulated time ``now``."""


class Bus:
    """``kind -> tuple(handlers)``; handlers run in subscription order."""

    def __init__(self):
        self._handlers = {}

    def subscribe(self, kind, handler):
        """Call ``handler(*fields)`` on every ``kind`` event."""
        if kind not in VOCABULARY:
            raise KeyError(f"unknown probe kind {kind!r}: add a row to "
                           "repro.obs.bus.VOCABULARY")
        self._handlers[kind] = self._handlers.get(kind, ()) + (handler,)

    def emit(self, kind, *fields):
        """Deliver one event; a kind nobody subscribed to is a no-op."""
        for handler in self._handlers.get(kind, ()):
            handler(*fields)
