"""Windowed busy/idle accounting and queue-depth telemetry.

Answers the evaluation's other question — *which resource saturates?* —
for any simulated run: every contended resource (NIC verb-engine
pools, host TX/RX wire ports, CPU core pools, the PCIe link, the PRISM
engine, client request channels) reports busy time, queue depth, and
queueing delay, integrated on the simulated clock into the fixed-width
buckets of :mod:`repro.obs.windows` (the grid the time series uses) so
saturation onset is visible in time as well as in aggregate.

Accounting is **event-driven**: monitors integrate piecewise-constant
state (slots in use, waiters queued) at every transition instead of
scheduling sampling events, so a monitored run executes the *same
event sequence* as an unmonitored one — timing is bit-identical, the
same discipline as the NULL_SPAN tracer. With no collector installed
(the default) every hook is a single ``is None`` check.

Usage::

    from repro.obs.timeline import UtilizationCollector
    from repro.sim import Simulator

    sim = Simulator()
    collector = sim.attach(UtilizationCollector())
    ...build the system; every Resource self-registers...
    sim.run(...)
    collector.finish(sim.now)
    for row in collector.report():
        print(row["name"], row["utilization"], row["queue"]["mean_depth"])

Three monitor flavours:

* :class:`ResourceMonitor` — slot-based resources
  (:class:`repro.sim.resources.Resource`): busy integral from slots in
  use, queue-depth integral from the waiter queue, a queueing-delay
  sample per grant.
* :class:`ChargeMonitor` — charge-based resources with no explicit
  queue (PCIe DMA time, engine op counts): callers add busy time or
  event counts directly.
* :class:`DepthMonitor` — pure occupancy counters (in-flight requests
  on a client channel, messages in flight on the fabric).
"""

from heapq import heappop, heappush

from repro.obs import quantiles
from repro.obs.bus import Observer
from repro.obs.hostprof import charged
from repro.obs.windows import Buckets

#: default accounting window, simulated microseconds
DEFAULT_WINDOW_US = 100.0

#: a monitor's bucket cell: [busy µs, depth-time µs, events]
BUSY, DEPTH_TIME, EVENTS = 0, 1, 2


def _cell():
    return [0.0, 0.0, 0]


class _WindowedMonitor:
    """Piecewise-constant integration into fixed-width buckets.

    Subclasses mutate ``_in_use`` (busy level) and ``_depth`` (queue
    depth) and call :meth:`_advance` *before* every state change, which
    splits the integrals exactly at bucket edges
    (:class:`~repro.obs.windows.Buckets`, cells ``[busy, depth_time,
    events]``).
    """

    __slots__ = ("sim", "name", "kind", "capacity", "window_us",
                 "buckets", "extra", "end", "_in_use", "_depth", "_last",
                 "_index", "_edge", "_cell", "busy_us", "depth_time_us",
                 "max_depth", "events", "units")

    def __init__(self, sim, name, kind, capacity=1,
                 window_us=DEFAULT_WINDOW_US):
        self.sim = sim
        self.name = name
        self.kind = kind
        self.capacity = capacity  # None => occupancy has no ceiling
        self.buckets = Buckets(window_us, _cell)
        self.window_us = self.buckets.width
        #: optional callable returning a dict merged into summary()
        self.extra = None
        #: where the books closed (:meth:`finish`); None while open
        self.end = None
        self._in_use = 0
        self._depth = 0
        self._last = sim.now
        self._index = int(self._last // self.window_us)
        self._edge = (self._index + 1) * self.window_us
        self._cell = self.buckets.cell(self._index)
        # run totals
        self.busy_us = 0.0
        self.depth_time_us = 0.0
        self.max_depth = 0
        self.events = 0
        self.units = 0

    # -- integration -------------------------------------------------------

    def _integrate_to(self, t):
        dt = t - self._last
        if dt > 0:
            busy = self._in_use * dt
            depth = self._depth * dt
            cell = self._cell
            cell[BUSY] += busy
            cell[DEPTH_TIME] += depth
            self.busy_us += busy
            self.depth_time_us += depth
        self._last = t

    def _advance(self, now):
        """Integrate current state up to ``now``, crossing bucket edges."""
        while now >= self._edge:
            self._integrate_to(self._edge)
            self._index += 1
            self._edge = (self._index + 1) * self.window_us
            self._cell = self.buckets.cell(self._index)
        # _integrate_to(now), inlined: this runs on every monitored
        # transition
        dt = now - self._last
        if dt > 0:
            busy = self._in_use * dt
            depth = self._depth * dt
            cell = self._cell
            cell[BUSY] += busy
            cell[DEPTH_TIME] += depth
            self.busy_us += busy
            self.depth_time_us += depth
        self._last = now

    def _note_depth(self):
        if self._depth > self.max_depth:
            self.max_depth = self._depth

    def finish(self, elapsed=None):
        """Integrate up to ``elapsed`` (default: now) and close the
        books there. Idempotent."""
        if self.end is not None:
            return
        end = self.sim.now if elapsed is None else max(elapsed, self._last)
        self._advance(end)
        self.end = end

    # -- reporting ---------------------------------------------------------

    def busy_between(self, start, end):
        """Busy µs inside [start, end], attributing partial buckets
        proportionally (state is near-uniform within a bucket)."""
        return self.buckets.overlap(start, end, BUSY, self.end)

    def depth_time_between(self, start, end):
        return self.buckets.overlap(start, end, DEPTH_TIME, self.end)

    def utilization(self, start, end):
        """Mean busy fraction over [start, end]; None when the monitor
        has no capacity ceiling (pure occupancy counters)."""
        width = end - start
        if self.capacity is None or width <= 0:
            return None
        return self.busy_between(start, end) / (width * self.capacity)

    def summary(self, start, end):
        """One report row covering the [start, end] analysis window."""
        width = max(end - start, 0.0)
        row = {
            "name": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "window_us": self.window_us,
            "busy_us": self.busy_between(start, end),
            "utilization": self.utilization(start, end),
            "queue": {
                "mean_depth": (self.depth_time_between(start, end) / width
                               if width > 0 else 0.0),
                "max_depth": self.max_depth,
            },
            "events": self.events,
            "units": self.units,
        }
        if self.extra is not None:
            row.update(self.extra())
        return row


class ResourceMonitor(_WindowedMonitor):
    """Busy/queue accounting for a slot-based FIFO server.

    Driven by :class:`repro.sim.resources.Resource` at every acquire,
    grant, and release, and by :class:`~repro.sim.resources.
    BandwidthPipe` at every booking and, replayed in order, every
    departure. Each hook takes the instant of its transition. Also
    samples the queueing delay of every grant (zero for uncontended
    acquires) into a distribution.
    """

    __slots__ = ("requests", "grants", "releases", "enqueues",
                 "dequeues", "cancels", "queue_delays", "replay")

    def __init__(self, sim, name, kind, capacity=1,
                 window_us=DEFAULT_WINDOW_US):
        super().__init__(sim, name, kind, capacity, window_us)
        self.requests = 0
        self.grants = 0
        self.releases = 0
        self.enqueues = 0
        self.dequeues = 0
        self.cancels = 0
        self.queue_delays = []
        #: the server's ``replay(now)``, which feeds the transitions it
        #: settles lazily (a wire port's departures) up to ``now`` before
        #: the books close; None for a server that reports each as it
        #: happens
        self.replay = None

    @charged("hooks.obs")
    def on_enqueue(self, now):
        """An acquire() arrived and found no free slot: it queues."""
        self._advance(now)
        self.requests += 1
        self._depth += 1
        self.enqueues += 1
        self._note_depth()

    @charged("hooks.obs")
    def on_uncontended_grant(self, now):
        """An acquire() arrived and was granted a free slot at once
        (the hot case): no queueing delay."""
        self._advance(now)
        self.requests += 1
        self.grants += 1
        self.events += 1
        self._cell[EVENTS] += 1
        self._in_use += 1
        self.queue_delays.append(0.0)

    @charged("hooks.obs")
    def on_handoff(self, now, waited_us):
        """A freed slot was handed straight to the waiter at the queue's
        head after ``waited_us``: slots in use stay as they were
        (release -1 and grant +1 cancel)."""
        self._advance(now)
        self.releases += 1
        self.grants += 1
        self.events += 1
        self._cell[EVENTS] += 1
        self._depth -= 1
        self.dequeues += 1
        self.queue_delays.append(waited_us)

    @charged("hooks.obs")
    def on_release(self, now):
        """A slot was freed with no waiter to hand it to."""
        self._advance(now)
        self.releases += 1
        self._in_use -= 1

    @charged("hooks.obs")
    def on_cancel(self, now):
        """A queued acquire was abandoned (interrupt, timeout) before
        any slot was granted — a dequeue that is not a grant."""
        self._advance(now)
        self._depth -= 1
        self.dequeues += 1
        self.cancels += 1

    def finish(self, elapsed=None):
        if self.end is None and self.replay is not None:
            # Everything that happened by now, now's instant included:
            # the transitions a server reports as they happen.
            self.replay(self.sim.now)
        super().finish(elapsed)

    def summary(self, start, end):
        row = super().summary(start, end)
        row["requests"] = self.requests
        row["grants"] = self.grants
        row["queue"]["delay_us"] = quantiles.distribution_summary(
            self.queue_delays)
        return row


class ChargeMonitor(_WindowedMonitor):
    """Busy accounting for resources charged by duration, not slots.

    The PCIe link is the canonical case: backends charge each DMA's
    duration as it is priced, so busy time is the total DMA time and
    ``capacity`` (concurrent DMA engines, one per NIC PU) normalizes it
    into a utilization. A charge is attributed to the bucket holding
    the instant it is recorded.
    """

    __slots__ = ()

    def charge(self, duration_us, events=1, units=0):
        self._advance(self.sim._now)
        cell = self._cell
        cell[BUSY] += duration_us
        self.busy_us += duration_us
        cell[EVENTS] += events
        self.events += events
        self.units += units

    def count(self, events=1, units=0):
        """Count events (engine ops, bytes touched) without busy time."""
        self.charge(0.0, events=events, units=units)


class DepthMonitor(_WindowedMonitor):
    """A pure occupancy counter: in-flight requests, queued messages."""

    __slots__ = ("enters", "exits", "_due")

    def __init__(self, sim, name, kind, window_us=DEFAULT_WINDOW_US):
        super().__init__(sim, name, kind, capacity=None,
                         window_us=window_us)
        self.enters = 0
        self.exits = 0
        #: ``(instant, -delta)`` of the transitions :meth:`at` holds, a
        #: heap: an instant's enters pop before its exits
        self._due = []

    def at(self, when, delta):
        """``adjust(delta)`` at ``when``, an instant known ahead (a
        message leaving its TX port, or clearing its RX port): it is
        counted, in order, once the monitor's clock reaches it — at its
        next transition, this instant's included, or when its books
        close."""
        heappush(self._due, (when, -delta))

    def adjust(self, delta):
        now = self.sim._now
        if self._due and self._due[0][0] <= now:
            self._settle(now)
        self._apply(now, delta)

    def _apply(self, when, delta):
        self._advance(when)
        self._depth += delta
        if delta > 0:
            self.enters += delta
            self.events += delta
            self._cell[EVENTS] += delta
            self._note_depth()
        else:
            self.exits -= delta

    def _settle(self, until):
        due = self._due
        while due and due[0][0] <= until:
            when, negated = heappop(due)
            self._apply(when, -negated)

    def finish(self, elapsed=None):
        if self.end is None and self._due:
            self._settle(self.sim.now)
        super().finish(elapsed)

    def summary(self, start, end):
        row = super().summary(start, end)
        row["enters"] = self.enters
        row["exits"] = self.exits
        return row


class UtilizationCollector(Observer):
    """The per-run home of every monitor.

    Install with :meth:`repro.sim.kernel.Simulator.attach`
    *before* building the system: every
    :class:`~repro.sim.resources.Resource` created afterwards
    self-registers, and the instrumented layers (PCIe, engine,
    channels, fabric) attach their charge/depth monitors. After the
    run, :meth:`finish` closes the books and :meth:`report` yields one
    summary row per resource over the analysis window.
    """

    def __init__(self, window_us=DEFAULT_WINDOW_US):
        self.window_us = float(window_us)
        self.monitors = []
        self._sim = None
        #: analysis window bounds; :meth:`configure` sets them
        self.measure_from = 0.0
        self.measure_until = None
        self.elapsed = None

    def bind(self, sim):
        """Attach to the simulator (``sim.attach`` calls this); every
        resource built afterwards registers through
        ``sim.utilization``."""
        self._sim = sim
        sim.utilization = self
        return self

    def configure(self, warmup_us, measure_us):
        """Report over the measurement window, so warmup does not
        dilute utilization."""
        self.measure_from = warmup_us
        self.measure_until = warmup_us + measure_us

    @property
    def sim(self):
        if self._sim is None:
            raise RuntimeError(
                "collector not bound; install it with sim.attach()")
        return self._sim

    # -- attachment --------------------------------------------------------

    def watch_resource(self, resource, kind=None, name=None):
        """Attach a :class:`ResourceMonitor` to a FIFO server: a
        ``Resource``, or a ``BandwidthPipe`` (which reports as the
        ``<pipe>.port`` it has always been and drives the same hooks)."""
        monitor = ResourceMonitor(
            resource.sim, name or resource.name, kind or resource.kind,
            capacity=resource.capacity, window_us=self.window_us)
        resource.monitor = monitor
        self.monitors.append(monitor)
        return monitor

    def charge_monitor(self, name, kind, capacity=1):
        monitor = ChargeMonitor(self.sim, name, kind, capacity=capacity,
                                window_us=self.window_us)
        self.monitors.append(monitor)
        return monitor

    def depth_monitor(self, name, kind):
        monitor = DepthMonitor(self.sim, name, kind,
                               window_us=self.window_us)
        self.monitors.append(monitor)
        return monitor

    # -- reporting ---------------------------------------------------------

    def finish(self, elapsed=None):
        """Close every monitor's books at ``elapsed`` (or now)."""
        self.elapsed = self.sim.now if elapsed is None else elapsed
        for monitor in self.monitors:
            monitor.finish(self.elapsed)
        return self

    def window_bounds(self):
        end = self.measure_until
        if end is None:
            end = self.elapsed if self.elapsed is not None else self.sim.now
        return self.measure_from, end

    def report(self, start=None, end=None):
        """Per-resource summaries over the analysis window, in
        attachment order."""
        bounds = self.window_bounds()
        start = bounds[0] if start is None else start
        end = bounds[1] if end is None else end
        if not self.monitors:
            return []
        if self.elapsed is None:
            self.finish()
        return [monitor.summary(start, end) for monitor in self.monitors]
