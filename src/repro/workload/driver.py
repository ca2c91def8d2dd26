"""Closed-loop measurement driver.

Mirrors the paper's methodology: a fixed population of closed-loop
clients (no think time) issue operations back to back; after a warmup
window, latencies and completions are recorded for the measurement
window. Sweeping the client population out traces the
throughput-versus-latency curves of Figs. 3, 4, 6, and 9.
"""

from dataclasses import dataclass, field
from itertools import count

from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.sim.events import SimulationError
from repro.sim.kernel import _Task
from repro.sim.stats import LatencyRecorder

#: How long past ``end_time`` a run may spend draining the operations
#: still in flight before it is declared livelocked. A legitimate tail
#: is one operation: tens of µs, or a few ms when a request exhausts
#: its retries (8 x (75 µs timeout + a backoff capped at 256 µs)) — so
#: 100 simulated ms is two orders of magnitude beyond it, and costs a
#: spinning client a couple of host seconds instead of forever.
DRAIN_LIMIT_US = 100_000.0


@dataclass
class RunResult:
    """Summary of one driver run (one point on a curve)."""

    clients: int
    ops: int
    throughput_ops_per_sec: float
    mean_latency_us: float
    median_latency_us: float
    p99_latency_us: float
    aborts: int = 0
    retries: int = 0
    extra: dict = field(default_factory=dict)
    #: wall-clock seconds the simulated run cost on the host (regress
    #: schema ``wall`` section). Excluded from equality: two identical
    #: simulations never take identical host time, and the
    #: observers-don't-perturb tests compare results exactly.
    wall_s: float = field(default=0.0, compare=False)
    #: wall-clock seconds spent before the run: building and
    #: bulk-loading the system and attaching the clients (host-side,
    #: excluded from equality like ``wall_s``)
    setup_s: float = field(default=0.0, compare=False)

    def row(self):
        """Compact dict for printing benchmark tables."""
        return {
            "clients": self.clients,
            "ops": self.ops,
            "tput_Mops": self.throughput_ops_per_sec / 1e6,
            "mean_us": round(self.mean_latency_us, 2),
            "p99_us": round(self.p99_latency_us, 2),
        }


def _open_op(tracer, bus, op_ids, labels, op, index):
    """Shared head of one operation, for both drivers: number it, report
    it on the probe bus and open its root span — traced, or untraced
    carrying only the operation's id."""
    name = getattr(op, "kind", None) or type(op).__name__
    label = labels.get(name)
    if label is None:
        # Root-span labels are one of a few op kinds: cached per client
        # (or source) instead of rebuilt per operation.
        label = labels[name] = f"op.{name}"
    op_id = next(op_ids)
    if bus is not None:
        bus.emit("op.open", label, index, op_id)
    return tracer.root(label, op=op_id, client=index)


def _close_op(sim, bus, root, start, info, recorder, counters, warmup_until,
              end_time):
    """Shared tail of one operation, for both drivers: report it on the
    probe bus and, inside the measurement window, account for it."""
    finish = sim._now
    measured = start >= warmup_until and finish <= end_time
    aborts = info.get("aborts", 0) if info else 0
    if bus is not None:
        bus.emit("op.close", "aborted" if aborts else "ok", finish - start,
                 aborts, info.get("retries", 0) if info else 0, measured,
                 root.op)
    if measured:
        recorder.record(finish, finish - start)
        counters["ops"] += 1
        if root.enabled:
            root.annotate(measured=True)
        if info:
            counters["aborts"] += aborts
            counters["retries"] += info.get("retries", 0)


class ClosedLoopDriver:
    """Runs N closed-loop clients against an application adapter.

    Each client needs an *executor*: a callable ``executor(op,
    span=NULL_SPAN)`` returning a process generator that performs the
    operation under ``span`` and optionally returns a dict (e.g.
    ``{"retries": 2}``). With the probe bus or a tracer attached, every
    operation is numbered (from 1, in the order they open) and ``span``
    is its root, which names it (see :mod:`repro.obs.trace`); with
    neither there is nothing to name, and the executor is called as
    ``executor(op)``.
    """

    GOLDEN = 0.6180339887498949  # low-discrepancy stagger sequence

    def __init__(self, sim, warmup_us=200.0, measure_us=2_000.0,
                 stagger_us=30.0, tracer=None):
        self.sim = sim
        self.warmup_us = warmup_us
        self.measure_us = measure_us
        #: clients start spread over [0, stagger_us) — without this,
        #: identical closed-loop clients phase-lock into convoys that
        #: burst-queue at the server ports, inflating latency in a way
        #: real (decorrelated) clients do not.
        self.stagger_us = stagger_us
        self.tracer = tracer or NULL_TRACER
        self._op_ids = count(1)
        self._clients = []

    def add_client(self, executor, workload):
        self._clients.append((executor, workload))
        return self

    @property
    def end_time(self):
        return self.warmup_us + self.measure_us

    def _client_loop(self, index, executor, workload, recorder, counters):
        sim = self.sim
        if self.stagger_us:
            yield sim.timeout((index * self.GOLDEN % 1.0)
                              * self.stagger_us)
        tracer = self.tracer
        bus = sim.bus
        observed = bus is not None or tracer.enabled
        op_ids = self._op_ids
        warmup_until = self.warmup_us
        end_time = warmup_until + self.measure_us
        next_op = workload.next_op
        labels = {}
        while sim._now < end_time:
            op = next_op()
            start = sim._now
            root = NULL_SPAN
            if observed:
                root = _open_op(tracer, bus, op_ids, labels, op, index)
                info = yield from executor(op, span=root)
                if root.enabled:
                    root.finish()
            else:
                info = yield from executor(op)
            _close_op(sim, bus, root, start, info, recorder, counters,
                      warmup_until, end_time)

    def run(self):
        """Execute the experiment; returns a :class:`RunResult`."""
        if not self._clients:
            raise ValueError("no clients added")
        recorder = LatencyRecorder(warmup_until=self.warmup_us)
        counters = {"ops": 0, "aborts": 0, "retries": 0}
        processes = [
            self.sim.spawn(
                self._client_loop(i, executor, workload, recorder, counters),
                name=f"client{i}")
            for i, (executor, workload) in enumerate(self._clients)
        ]
        _drain(self.sim, [(process.name, process) for process in processes],
               self.end_time)
        window = self.measure_us
        throughput = counters["ops"] / window * 1e6 if window > 0 else 0.0
        return RunResult(
            clients=len(self._clients),
            ops=counters["ops"],
            throughput_ops_per_sec=throughput,
            mean_latency_us=recorder.mean(),
            median_latency_us=recorder.median(),
            p99_latency_us=recorder.p99(),
            aborts=counters["aborts"],
            retries=counters["retries"],
        )


def _await(event):
    yield event


def _drain(sim, runners, end_time):
    """Run until the event of every ``(name, event)`` of ``runners`` —
    a client process, a source's ``done`` — has triggered.

    Bounded: a client whose operation never completes (an unbounded
    retry loop that aborts forever) would otherwise keep the kernel
    spinning through simulated seconds. The bound is one timer that
    normally never fires and is withdrawn once the run has drained —
    no kernel entry, no per-entry check.
    """
    def expire(_timer):
        alive = [name for name, event in runners if not event.triggered]
        raise SimulationError(
            f"run did not drain: {', '.join(alive)} still running "
            f"{DRAIN_LIMIT_US:g} µs after the measurement window closed at "
            f"t={end_time:g} µs — an operation that retries forever "
            "(livelock), not a slow tail")

    watchdog = sim.sleep_until(end_time + DRAIN_LIMIT_US)
    watchdog.callbacks.append(expire)
    try:
        sim.run_until_complete(
            sim.spawn(_await(sim.all_of([event for _, event in runners])),
                      name="driver"))
    finally:
        watchdog.cancel()


class _Arrivals:
    """One source's arrival stream as a scheduled payload
    (docs/performance.md, rule 11): what the source process was, with
    the same entries at the same instants and no resume.

    It is its own boot slot, appended where the process's bootstrap
    was. Each arrival is its own heap entry at ``now + gap``, pushed in
    the entry where ``yield sim.timeout(gap)`` pushed; it books the
    next arrival and takes its operation's first step in that entry,
    on a :class:`~repro.sim.kernel._Task` with no owner. A full window
    puts the stream on the gate's callbacks, and the gate's entry lets
    the stalled arrival go ahead, launching its operation
    (:meth:`Simulator.launch`). ``done`` succeeds where the process
    completed; it is what the driver's drain waits on.
    """

    __slots__ = ("sim", "tracer", "op_ids", "warmup_until", "end_time",
                 "index", "executor", "source", "recorder", "counters",
                 "name", "done", "in_flight", "gate", "labels")

    #: a heap payload's tombstone flag; an arrival is never withdrawn
    cancelled = False

    def __init__(self, driver, index, executor, source, recorder, counters):
        sim = self.sim = driver.sim
        self.tracer = driver.tracer
        self.op_ids = driver._op_ids
        self.warmup_until = driver.warmup_us
        self.end_time = driver.warmup_us + driver.measure_us
        self.index = index
        self.executor = executor
        self.source = source
        self.recorder = recorder
        self.counters = counters
        self.name = f"source{index}"
        self.done = sim.event()
        self.in_flight = 0
        #: the event a stalled arrival waits on, while one does
        self.gate = None
        self.labels = {}
        sim._ready.append(self)  # the boot slot

    def __call__(self, gate=None):
        """The boot slot, or — as the gate's callback — the stalled
        arrival, which goes ahead: only completions ran since the gate
        opened, so the window has a free slot."""
        if gate is None:
            self._book_next()
        elif self.sim._now >= self.end_time:
            self.done.succeed()
        else:
            # Other work is queued at the completion's instant, so the
            # operation keeps its boot slot behind it.
            self.in_flight += 1
            self.sim.launch(self._operation(self.source.next_op()), "op")
            self._book_next()

    def fire(self):
        """An arrival, its own heap entry: book the next arrival, then
        take the operation's first step here. The instant is a sum of
        drawn gaps, so no other work shares it and a boot slot would
        only be a hop (docs/performance.md, rule 11(d))."""
        if self.in_flight >= self.source.window:
            # Window full: defer this arrival until a completion frees
            # a slot. Deferred arrivals are counted — a large number
            # means the configured offered load exceeds what the window
            # can carry and the source is degrading to window-limited
            # closed-loop behaviour.
            self.counters["stalls"] += 1
            self.source.stalled_arrivals += 1
            gate = self.gate = self.sim.event()
            gate.callbacks.append(self)
            return
        self.in_flight += 1
        op = self.source.next_op()
        self._book_next()
        # Inlined _Task.__init__, as Phase does for its legs (rule 12).
        task = _Task.__new__(_Task)
        task.sim = self.sim
        task._generator = self._operation(op)
        task.name = "op"
        task._done = task._waiting_on = None
        task()

    def _book_next(self):
        sim = self.sim
        gap = self.source.next_gap_us()
        if sim._now + gap >= self.end_time:
            self.done.succeed()
        else:
            sim.schedule(gap, self)

    def _operation(self, op):
        sim = self.sim
        bus = sim.bus
        tracer = self.tracer
        start = sim._now
        root = NULL_SPAN
        info = None
        try:
            if bus is not None or tracer.enabled:
                root = _open_op(tracer, bus, self.op_ids, self.labels, op,
                                self.index)
                info = yield from self.executor(op, span=root)
                if root.enabled:
                    root.finish()
            else:
                info = yield from self.executor(op)
        finally:
            # Free the window slot even when the op fails — a crashing
            # executor must not wedge the arrival stream (the failure
            # itself still surfaces at the end of the run).
            self.in_flight -= 1
            gate = self.gate
            if gate is not None:
                self.gate = None
                gate.succeed()
        _close_op(sim, bus, root, start, info, self.recorder, self.counters,
                  self.warmup_until, self.end_time)


class OpenLoopDriver:
    """Runs aggregated open-loop arrival sources against an adapter.

    Each source (see
    :class:`repro.workload.sources.AggregatedOpenLoopSource`) models
    thousands of clients in one arrival stream: a scheduled payload
    draws inter-arrival gaps, and every arrival starts its operation
    — a generator nothing waits on — through the source's executor.
    The source's bounded in-flight window provides backpressure: a full
    window defers arrivals (counted, never dropped) until a completion
    frees a slot.

    Measurement accounting (warmup window, latency recorder, series /
    flight hooks) matches :class:`ClosedLoopDriver`, so results are
    comparable row for row; ``RunResult.clients`` is the *modeled*
    population, and ``extra`` carries the source model and the
    stalled-arrival count.
    """

    def __init__(self, sim, warmup_us=200.0, measure_us=2_000.0,
                 tracer=None):
        self.sim = sim
        self.warmup_us = warmup_us
        self.measure_us = measure_us
        self.tracer = tracer or NULL_TRACER
        self._op_ids = count(1)
        self._sources = []

    def add_source(self, executor, source):
        self._sources.append((executor, source))
        return self

    @property
    def end_time(self):
        return self.warmup_us + self.measure_us

    def run(self):
        """Execute the experiment; returns a :class:`RunResult`.

        The run returns as soon as the last source's arrival stream
        ends — its next gap would cross ``end_time`` — with operations
        still in flight. Those are abandoned, not drained: none of them
        is measured, even one whose completion would have landed before
        ``end_time`` (a known bug, pinned by a strict ``xfail`` in
        ``tests/workload/test_sources.py``; unlike the closed-loop
        driver, which runs every client's last op to completion).
        """
        if not self._sources:
            raise ValueError("no sources added")
        recorder = LatencyRecorder(warmup_until=self.warmup_us)
        counters = {"ops": 0, "aborts": 0, "retries": 0, "stalls": 0}
        streams = [
            _Arrivals(self, i, executor, source, recorder, counters)
            for i, (executor, source) in enumerate(self._sources)
        ]
        _drain(self.sim, [(stream.name, stream.done) for stream in streams],
               self.end_time)
        window = self.measure_us
        throughput = counters["ops"] / window * 1e6 if window > 0 else 0.0
        n_clients = sum(source.n_clients for _, source in self._sources)
        result = RunResult(
            clients=n_clients,
            ops=counters["ops"],
            throughput_ops_per_sec=throughput,
            mean_latency_us=recorder.mean(),
            median_latency_us=recorder.median(),
            p99_latency_us=recorder.p99(),
            aborts=counters["aborts"],
            retries=counters["retries"],
        )
        result.extra["stalled_arrivals"] = counters["stalls"]
        result.extra["n_sources"] = len(self._sources)
        return result
