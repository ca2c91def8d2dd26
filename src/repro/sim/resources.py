"""Contention points: FIFO resources, stores, and bandwidth pipes.

These model the queueing behaviour that produces the paper's
throughput/latency curves: CPU core pools, NIC processing units, and
link serialization are all instances of these classes.
"""

from collections import deque
from heapq import heappush

from repro.obs.trace import NULL_SPAN, Span
from repro.sim.events import Event, SimulationError


class AcquireEvent(Event):
    """The event returned by :meth:`Resource.acquire`.

    Cancellation (waiter interrupted, timeout race lost) withdraws the
    claim: a still-queued request leaves the waiter queue; a request
    whose slot was already granted — but never consumed by the dead
    waiter — releases the slot back, handing it to the next live
    waiter. Without this, an interrupted ``acquire()`` left its event
    in the queue and ``release()`` granted the slot to the dead waiter
    forever, leaking capacity one interrupt at a time.
    """

    __slots__ = ("resource", "cancelled")

    def __init__(self, resource):
        # Inlined Event.__init__ — acquire events are the hottest
        # allocation on the model path; skip the super() call.
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.resource = resource
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        self.resource._waiter_cancelled(self)


class GetEvent(Event):
    """The event returned by :meth:`Store.get`.

    Cancellation removes a blocked getter from the queue; if an item
    was already handed to the (now dead) getter, the item is put back
    at the front of the buffer so it goes to the next live getter in
    FIFO order instead of vanishing.
    """

    __slots__ = ("store", "cancelled")

    def __init__(self, store):
        # Inlined Event.__init__ (see AcquireEvent).
        self.sim = store.sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.store = store
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        self.store._getter_cancelled(self)


class Resource:
    """A ``capacity``-server FIFO resource.

    Usage from a process::

        grant = yield resource.acquire()
        ...
        resource.release()

    Fairness is strict FIFO, which keeps runs deterministic.

    ``kind`` classifies the resource for utilization reports and the
    bottleneck analyzer ("cpu", "nic", "wire", ...). When the owning
    simulator has a utilization collector installed
    (``sim.attach``), the resource self-registers a
    :class:`~repro.obs.timeline.ResourceMonitor` that observes every
    acquire/grant/release; with no collector the hooks are a single
    ``is None`` check and timing is untouched.
    """

    __slots__ = ("sim", "capacity", "name", "kind", "_in_use", "_waiters",
                 "_total_acquired", "_busy_time", "_last_change", "monitor",
                 "_wait_since")

    def __init__(self, sim, capacity=1, name=None, kind="other"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self.kind = kind
        self._in_use = 0
        self._waiters = deque()
        self._total_acquired = 0
        self._busy_time = 0.0
        self._last_change = 0.0
        self.monitor = None
        self._wait_since = None
        if sim.utilization is not None:
            sim.utilization.watch_resource(self)

    @property
    def in_use(self):
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self):
        """Number of acquire requests waiting for a slot."""
        return len(self._waiters)

    def acquire(self):
        """Request a slot; the returned event fires when granted.

        The event supports :meth:`~AcquireEvent.cancel`: a waiter that
        stops waiting (interrupt, ``with_timeout``) withdraws its claim
        instead of leaking the slot it queued for.
        """
        sim = self.sim
        monitor = self.monitor
        hp = sim.hostprof
        if hp is not None:
            if hp._timing:
                hp.enter("resource")
            else:
                # Stride sampling: attribution is off for this event.
                hp = None
        try:
            event = AcquireEvent(self)
            if self._in_use < self.capacity:
                now = sim._now  # _account, in place
                self._busy_time += self._in_use * (now - self._last_change)
                self._last_change = now
                self._in_use += 1
                self._total_acquired += 1
                if monitor is not None:
                    monitor.on_uncontended_grant()
                event.succeed(self)
            else:
                self._waiters.append(event)
                if monitor is not None:
                    monitor.on_enqueue()
                    self._wait_since.append(sim._now)
            return event
        finally:
            if hp is not None:
                hp.exit()

    def claim(self, holder):
        """:meth:`acquire` for a scheduled payload (docs/performance.md,
        rule 11): ``holder()`` runs holding the slot — no event, no
        ``succeed`` or ``_process`` frame. A free slot is granted here:
        ``holder()`` runs inside this call, once the ``resource`` bucket
        is closed, so the caller must make ``claim`` its entry's last
        statement. A contended claim waits FIFO with ``acquire()``
        callers, and ``holder()`` runs in the ready-deque slot after
        the releasing entry. A claim cannot be withdrawn."""
        sim = self.sim
        monitor = self.monitor
        hp = sim.hostprof
        if hp is not None:
            if hp._timing:
                hp.enter("resource")
            else:
                # Stride sampling: attribution is off for this event.
                hp = None
        try:
            if self._in_use >= self.capacity:
                self._waiters.append(holder)
                if monitor is not None:
                    monitor.on_enqueue()
                    self._wait_since.append(sim._now)
                return
            now = sim._now  # _account, in place
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self._total_acquired += 1
            if monitor is not None:
                monitor.on_uncontended_grant()
        finally:
            if hp is not None:
                hp.exit()
        holder()

    def release(self):
        """Free a slot, handing it to the oldest *live* waiter if any
        (an :class:`AcquireEvent` succeeds, a :meth:`claim` holder
        goes on the ready deque).

        Cancelled waiters are skipped (cancellation removes them
        eagerly, so this is belt-and-braces for a waiter cancelled in
        the same kernel step).
        """
        sim = self.sim
        monitor = self.monitor
        hp = sim.hostprof
        if hp is not None:
            if hp._timing:
                hp.enter("resource")
            else:
                # Stride sampling: attribution is off for this event.
                hp = None
        try:
            if self._in_use <= 0:
                raise SimulationError(f"{self.name}: release without acquire")
            waiters = self._waiters
            while waiters:
                event = waiters.popleft()
                if monitor is not None:
                    waited_since = self._wait_since.popleft()
                if event.cancelled or (type(event) is AcquireEvent
                                       and event._triggered):
                    if monitor is not None:
                        monitor.on_cancel()
                    continue
                self._total_acquired += 1
                if monitor is not None:
                    monitor.on_handoff(sim._now - waited_since)
                if type(event) is AcquireEvent:
                    event.succeed(self)
                else:
                    sim._ready.append(event)
                return
            now = sim._now  # _account, in place
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use -= 1
            if monitor is not None:
                monitor.on_release()
        finally:
            if hp is not None:
                hp.exit()

    def _waiter_cancelled(self, event):
        """An acquire's waiter went away (interrupt or timeout race)."""
        if event.triggered:
            # The slot was already granted to this event but the value
            # was never consumed — hand the slot straight back.
            self.release()
            return
        try:
            index = self._waiters.index(event)
        except ValueError:
            return
        del self._waiters[index]
        if self.monitor is not None:
            del self._wait_since[index]
            self.monitor.on_cancel()

    def utilization(self, elapsed):
        """Mean busy fraction over ``elapsed`` simulated microseconds."""
        if elapsed <= 0:
            return 0.0
        self._account()
        return self._busy_time / (elapsed * self.capacity)

    def _account(self):
        now = self.sim._now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def occupy(self, duration):
        """Process helper: hold one slot for ``duration``.

        Equivalent to acquire / timeout / release, expressed as a
        sub-generator for ``yield from``. Interrupt-safe at every
        suspension point: an Interrupt delivered while *queued* (or in
        the same kernel step as the grant) cancels the acquire event,
        withdrawing the claim or handing the un-consumed slot back;
        one delivered while *holding* runs the ``finally`` release.
        Capacity is conserved either way.
        """
        yield self.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim, name=None):
        self.sim = sim
        self.name = name or "store"
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Deposit ``item``; wakes the oldest *live* blocked getter.

        Cancelled getters are skipped (cancellation removes them
        eagerly; the guard covers a getter cancelled within the same
        kernel step) — waking one would make the item vanish.
        """
        hp = self.sim.hostprof
        if hp is not None:
            if hp._timing:
                hp.enter("resource")
            else:
                # Stride sampling: attribution is off for this event.
                hp = None
        try:
            getters = self._getters
            while getters:
                getter = getters.popleft()
                if getter.cancelled or getter._triggered:
                    continue
                getter.succeed(item)
                return
            self._items.append(item)
        finally:
            if hp is not None:
                hp.exit()

    def get(self):
        """Event that fires with the next item (FIFO).

        The event supports :meth:`~GetEvent.cancel`: an abandoned
        getter leaves the queue, and an item already handed to it is
        returned to the front of the buffer instead of being lost.
        """
        hp = self.sim.hostprof
        if hp is not None:
            if hp._timing:
                hp.enter("resource")
            else:
                # Stride sampling: attribution is off for this event.
                hp = None
        try:
            event = GetEvent(self)
            if self._items:
                event.succeed(self._items.popleft())
            else:
                self._getters.append(event)
            return event
        finally:
            if hp is not None:
                hp.exit()

    def _getter_cancelled(self, event):
        """A blocked getter went away (interrupt or timeout race)."""
        if event.triggered:
            # The item was already handed over but never consumed;
            # repossess it for the next getter, front of the line.
            item = event.value
            while self._getters:
                getter = self._getters.popleft()
                if getter.cancelled or getter.triggered:
                    continue
                getter.succeed(item)
                return
            self._items.appendleft(item)
            return
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def try_get(self):
        """Immediately pop an item, or return None if empty."""
        if self._items:
            return self._items.popleft()
        return None


class BandwidthPipe:
    """A serializing transmission port of fixed bandwidth.

    Models a NIC TX port or link: each message occupies the port for
    ``size / bytes_per_us`` plus a fixed per-message overhead —
    propagation delay is added by the fabric, not here.

    A capacity-1 FIFO server whose service time is known when a message
    arrives needs no grant event: the pipe keeps whether a message is in
    service, the instant it falls free, and a deque of queued holders.
    A *holder* is a kernel heap payload (``fire()`` plus a false
    ``cancelled``, see ``Simulator.schedule_at``): :meth:`claim` enters
    it in the FIFO, the pipe schedules it for the instant its last byte
    leaves, and its ``fire()`` calls :meth:`finish` before anything
    else. A claim cannot be withdrawn — a posted message is the NIC's,
    not the sender's. Accounting and span lines live here only; the
    utilization row keeps the ``<name>.port`` label the port has always
    reported under.
    """

    __slots__ = ("sim", "bytes_per_us", "per_message_us", "name", "monitor",
                 "_wait_since", "_queue", "_busy", "_free_at", "_busy_since",
                 "_busy_time", "_size", "_span", "bytes_total",
                 "messages_total", "_queue_label", "_xmit_label")

    #: what a utilization row says of every wire port
    kind = "wire"
    capacity = 1

    def __init__(self, sim, bytes_per_us, per_message_us=0.0, name=None):
        if bytes_per_us <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.bytes_per_us = float(bytes_per_us)
        self.per_message_us = float(per_message_us)
        self.name = name or "pipe"
        # Span labels are fixed per pipe; building them per message
        # was two f-strings on the hottest wire path.
        self._queue_label = f"{self.name}.queue"
        self._xmit_label = f"{self.name}.xmit"
        #: queued ``(holder, size_bytes, duration, span, queue_span)``
        self._queue = deque()
        self._busy = False
        #: when the last message claimed so far will have left
        self._free_at = 0.0
        self._busy_since = 0.0
        self._busy_time = 0.0
        #: the message in service: its size and open wire span
        self._size = 0
        self._span = None
        # Direction-neutral totals: a pipe serves as either a TX or an
        # RX port, so "bytes that crossed it" is the honest name — an
        # RX pipe's total is bytes *received*, not sent.
        self.bytes_total = 0
        self.messages_total = 0
        self.monitor = None
        self._wait_since = None
        if sim.utilization is not None:
            # Enrich the port's utilization row with wire throughput.
            sim.utilization.watch_resource(
                self, name=f"{self.name}.port").extra = lambda: {
                    "bytes": self.bytes_total,
                    "messages": self.messages_total}

    def serialization_time(self, size_bytes):
        """Time for ``size_bytes`` to cross the port."""
        return self.per_message_us + size_bytes / self.bytes_per_us

    def claim(self, holder, size_bytes, span=NULL_SPAN):
        """Enter ``holder``'s message in the FIFO; returns the instant
        its last byte will have left, at which ``holder.fire()`` runs.

        ``span`` parents two tracing children: a queue span for the
        wait on the (busy) port and a wire span for the serialization
        itself. An idle port starts serializing in this call; a busy
        one queues the holder, and the predecessor's :meth:`finish`
        starts it — so the holder's timer is always pushed in the entry
        at which its serialization starts (see docs/performance.md,
        rule 11, for why not at claim).
        """
        sim = self.sim
        now = sim._now
        duration = self.per_message_us + size_bytes / self.bytes_per_us
        queue_span = None
        if span.enabled:
            # Span protocol inlined: children are opened/closed by
            # direct field writes instead of the child()/context-
            # manager/finish() call chain on the hottest wire path.
            queue_span = Span(span.tracer, self._queue_label, "queue", span,
                              now, {}, span.op)
            span.children.append(queue_span)
        if not self._busy:
            self._busy = True
            self._busy_since = now
            if self.monitor is not None:
                self.monitor.on_uncontended_grant()
            self._free_at = free_at = now + duration
            self._size = size_bytes
            if queue_span is not None:
                self._open_wire_span(span, queue_span, size_bytes, now)
            if free_at > now:
                # schedule_at's hot branch, in place.
                heappush(sim._queue, (free_at, next(sim._sequence), holder))
            else:
                sim.schedule_at(free_at, holder)
            return free_at
        self._queue.append((holder, size_bytes, duration, span, queue_span))
        wire = self._span
        if (queue_span is not None and wire is not None
                and wire.parent is span and wire.start == now
                and span.children[-2] is wire):
            # A duplicate's twin arrives with the original, under the
            # same parent: its wait and the original's wire span tie on
            # (start, end), and trace readers break the tie by child
            # order — keep waiters listed first, as a grant hop did.
            span.children[-2:] = queue_span, wire
        if self.monitor is not None:
            self.monitor.on_enqueue()
            self._wait_since.append(now)
        # The same additions, in the same order, that the chain of
        # hand-offs will make: each starts at its predecessor's end.
        self._free_at += duration
        return self._free_at

    def _open_wire_span(self, span, queue_span, size_bytes, now):
        """Traced only: the wait is over, the serialization starts."""
        queue_span.end = now
        self._span = Span(span.tracer, self._xmit_label, "wire", span,
                          now, {"bytes": size_bytes}, span.op)
        span.children.append(self._span)

    def finish(self):
        """The last byte of the message in service has left: count it
        and hand the port to the next queued holder, if any."""
        sim = self.sim
        now = sim._now
        if self._span is not None:
            self._span.end = now
            self._span = None
        self.bytes_total += self._size
        self.messages_total += 1
        if self._queue:
            if self.monitor is not None:
                self.monitor.on_handoff(now - self._wait_since.popleft())
            (holder, self._size, duration,
             span, queue_span) = self._queue.popleft()
            if queue_span is not None:
                self._open_wire_span(span, queue_span, self._size, now)
            sim.schedule_at(now + duration, holder)
        else:
            self._busy = False
            self._busy_time += now - self._busy_since
            if self.monitor is not None:
                self.monitor.on_release()

    def utilization(self, elapsed):
        """Mean busy fraction of the port over ``elapsed`` microseconds."""
        if elapsed <= 0:
            return 0.0
        busy = self._busy_time
        if self._busy:
            busy += self.sim._now - self._busy_since
        return busy / elapsed
