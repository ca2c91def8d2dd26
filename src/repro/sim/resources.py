"""Contention points: FIFO resources, stores, and bandwidth pipes.

These model the queueing behaviour that produces the paper's
throughput/latency curves: CPU core pools, NIC processing units, and
link serialization are all instances of these classes.
"""

from collections import deque
from math import inf, nextafter

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
            self._wait_since = deque()
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
                    monitor.on_uncontended_grant(now)
                event.succeed(self)
            else:
                self._waiters.append(event)
                if monitor is not None:
                    monitor.on_enqueue(sim._now)
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
                    monitor.on_enqueue(sim._now)
                    self._wait_since.append(sim._now)
                return
            now = sim._now  # _account, in place
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self._total_acquired += 1
            if monitor is not None:
                monitor.on_uncontended_grant(now)
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
                        monitor.on_cancel(sim._now)
                    continue
                self._total_acquired += 1
                if monitor is not None:
                    monitor.on_handoff(sim._now, sim._now - waited_since)
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
                monitor.on_release(now)
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
            self.monitor.on_cancel(self.sim._now)

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
    arrives is a booked FIFO (Lindley's recursion): :meth:`book` starts
    a message at ``now`` on an idle port, or at the instant the port
    falls free on a busy one, and returns the instant its last byte
    leaves. The caller pushes its own timer for that instant; the port
    holds no holder and makes no kernel entry. What happens in between
    — a message leaving, the next one starting — is settled lazily, in
    order, before the next booking and when the utilization monitor's
    books close; a counter read counts what has left by then. So the
    byte counters, the busy time and the monitor's hand-offs and
    releases are the ones a chain of hand-offs made, at the same
    instants (docs/performance.md, rule 11(c)). A booking cannot be
    withdrawn — a posted message is the NIC's, not the sender's.
    Accounting and span lines live here only; the utilization row keeps
    the ``<name>.port`` label the port has always reported under.
    """

    __slots__ = ("sim", "bytes_per_us", "per_message_us", "name", "monitor",
                 "_booked", "_free_at", "_busy_since", "_busy_time",
                 "_bytes", "_messages", "_wire", "_queue_label",
                 "_xmit_label")

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
        #: ``(done, size_bytes, booked_at)`` of every message not yet
        #: settled, in FIFO order
        self._booked = deque()
        #: when the last message booked so far will have left
        self._free_at = 0.0
        self._busy_since = 0.0
        self._busy_time = 0.0
        # Direction-neutral totals of every message booked: a pipe
        # serves as either a TX or an RX port, so "bytes that crossed
        # it" is the honest name — an RX pipe's are bytes *received*.
        self._bytes = 0
        self._messages = 0
        #: the wire span of the message booked last (None untraced)
        self._wire = None
        self.monitor = None
        if sim.utilization is not None:
            # Enrich the port's utilization row with wire throughput.
            monitor = sim.utilization.watch_resource(
                self, name=f"{self.name}.port")
            monitor.extra = lambda: {"bytes": self.bytes_total,
                                     "messages": self.messages_total}
            monitor.replay = self._close

    def serialization_time(self, size_bytes):
        """Time for ``size_bytes`` to cross the port."""
        return self.per_message_us + size_bytes / self.bytes_per_us

    def book(self, size_bytes, span=NULL_SPAN):
        """Enter a message in the FIFO; returns the instant its last
        byte will have left: ``now + d`` on an idle port, ``free_at +
        d`` on a busy one — the additions, in the order, that a chain
        of hand-offs makes (docs/performance.md, rule 11(a)). A port
        whose last message leaves at this very instant is still busy
        with it: the message queues, waits zero and starts then.

        ``span`` parents two tracing children, both closed here: a
        queue span for the wait on the port and a wire span for the
        serialization itself.
        """
        now = self.sim._now
        duration = self.per_message_us + size_bytes / self.bytes_per_us
        booked = self._booked
        monitor = self.monitor
        if booked and booked[0][0] < now:
            if monitor is None:
                # _settle's unwatched case, in place: let go what left.
                booked.popleft()
                while booked and booked[0][0] < now:
                    booked.popleft()
            else:
                self._settle(now)
        if booked:
            start = self._free_at
            if monitor is not None:
                monitor.on_enqueue(now)
        else:
            # The last busy period ended at free_at; a new one starts.
            self._busy_time += self._free_at - self._busy_since
            self._busy_since = start = now
            if monitor is not None:
                monitor.on_uncontended_grant(now)
        self._free_at = done = start + duration
        booked.append((done, size_bytes, now))
        self._bytes += size_bytes
        self._messages += 1
        if span.enabled:
            # Span protocol inlined: both children are built with their
            # instants by direct field writes, not the child()/context-
            # manager/finish() call chain, on the hottest wire path.
            children = span.children
            queue_span = Span(span.tracer, self._queue_label, "queue", span,
                              now, {}, span.op)
            queue_span.end = start
            wire = self._wire
            if (start != now and wire is not None and wire.start == now
                    and children and children[-1] is wire):
                # A duplicate's twin arrives with the original, under
                # the same parent: its wait and the original's wire
                # span tie on (start, end), and trace readers break the
                # tie by child order — keep waiters listed first.
                children[-1:] = queue_span, wire
            else:
                children.append(queue_span)
            self._wire = wire = Span(span.tracer, self._xmit_label, "wire",
                                     span, start, {"bytes": size_bytes},
                                     span.op)
            wire.end = done
            children.append(wire)
        else:
            self._wire = None
        return done

    def _settle(self, before):
        """Let go every booked message that has left before ``before``:
        the utilization monitor sees each departure at its instant, as
        a hand-off to the next message booked or as a release."""
        booked = self._booked
        monitor = self.monitor
        if monitor is None:
            while booked and booked[0][0] < before:
                booked.popleft()
            return
        while booked and booked[0][0] < before:
            done = booked.popleft()[0]
            if booked:
                monitor.on_handoff(done, done - booked[0][2])
            else:
                monitor.on_release(done)

    def _close(self, now):
        """The monitor's books close: every message that has left by
        ``now``, ``now`` included, has left."""
        self._settle(nextafter(now, inf))

    @property
    def bytes_total(self):
        """Bytes whose last byte has left the port by now."""
        now = self.sim._now
        return self._bytes - sum(size for done, size, _at in self._booked
                                 if done > now)

    @property
    def messages_total(self):
        """Messages whose last byte has left the port by now."""
        now = self.sim._now
        return self._messages - sum(1 for done, _size, _at in self._booked
                                    if done > now)

    def utilization(self, elapsed):
        """Mean busy fraction of the port over ``elapsed`` microseconds."""
        if elapsed <= 0:
            return 0.0
        busy = self._busy_time + (min(self.sim._now, self._free_at)
                                  - self._busy_since)
        return busy / elapsed
