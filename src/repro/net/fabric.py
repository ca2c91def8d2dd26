"""Host and fabric models.

Each host owns full-duplex TX/RX ports (``BandwidthPipe``). A message
occupies the sender's TX port for its serialization time, crosses the
path (propagation + per-switch latency, after a fault plan's injected
delay: one timer for both), occupies the receiver's RX port, then is
handed to the destination service handler — at once, or a service's
fixed lead later (a software stack's pipeline latency). Its TX slot is
booked when it is posted, and its fault fate is drawn then, in post
order.

Service handlers are plain callables ``handler(message)`` registered
per host; timed work behind one is a scheduled payload (a device
execution, an RPC handling), which replies via :meth:`Fabric.post`.
"""

from heapq import heappush

from repro.obs.trace import NULL_SPAN, Span
from repro.sim.resources import BandwidthPipe
from repro.net.message import Message


class Host:
    """A machine on the fabric with named message services."""

    def __init__(self, sim, name, bytes_per_us, per_message_us=0.0):
        self.sim = sim
        self.name = name
        self.tx = BandwidthPipe(sim, bytes_per_us, per_message_us, name=f"{name}.tx")
        self.rx = BandwidthPipe(sim, bytes_per_us, per_message_us, name=f"{name}.rx")
        self._services = {}

    def register_service(self, service, handler, lead_us=0.0):
        """Route messages addressed to ``service`` to ``handler``.

        ``lead_us`` is the service's fixed lead, pure latency between a
        message clearing the RX port and its handler (a software
        stack's pipeline): the hand-over runs ``lead_us`` after RX-done,
        in one entry (docs/performance.md, rule 11(f)).
        """
        if service in self._services:
            raise ValueError(f"{self.name}: service {service!r} already registered")
        self._services[service] = (handler, lead_us)

    def handler_for(self, service):
        try:
            return self._services[service][0]
        except KeyError:
            raise KeyError(f"{self.name}: no service {service!r}") from None

    def __repr__(self):
        return f"<Host {self.name}>"


class Fabric:
    """The network connecting a set of hosts.

    ``path_latency_us(src, dst)`` gives one-way propagation plus switch
    latency; it is uniform, which matches the paper's single
    ToR/cluster/datacenter settings.
    """

    def __init__(self, sim, one_way_latency_us):
        self.sim = sim
        self.one_way_latency_us = one_way_latency_us
        self.hosts = {}
        self.messages_delivered = 0
        self.monitor = None
        if sim.utilization is not None:
            # Messages in flight (propagating or serializing into an RX
            # port) across the whole fabric — the network's queue depth.
            self.monitor = sim.utilization.depth_monitor(
                "fabric.inflight", kind="net")

    def add_host(self, host):
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        return host

    def host(self, name):
        return self.hosts[name]

    def path_latency_us(self, src_name, dst_name):
        """One-way latency (0 for loopback); ``_Delivery._launch``
        inlines it."""
        if src_name == dst_name:
            return 0.0
        return self.one_way_latency_us

    def post(self, src_name, dst_name, service, payload, size_bytes,
             span=NULL_SPAN):
        """Hand a message to the source NIC; returns its delivery at once.

        Like a posted work request, the message is the NIC's from here
        on: its TX slot is booked now (``delivery.tx_done`` is the
        instant its last byte will have left the TX port), a fault
        plan draws its fate now, and a :class:`_Delivery` carries it
        across the path, the RX port and into the service handler with
        no process involved. It cannot be withdrawn.

        ``span`` parents the transfer's wire/queue spans (it rides on
        the message).
        """
        message = Message(src_name, dst_name, service, payload, size_bytes)
        sim = self.sim
        message.send_time = sim._now
        message.span = span
        tx_done = self.hosts[src_name].tx.book(size_bytes, span)
        delivery = _Delivery(self, message, tx_done)
        faults = sim.faults
        if faults is None:
            delivery._launch(tx_done)
            return delivery
        # Fault point: the port is occupied either way; the message may
        # vanish, fork, or lag once it has left it.
        hp = sim.hostprof
        if hp is not None:
            hp.enter("hooks.faults")
        fate = faults.on_message(message)
        if hp is not None:
            hp.exit()
        if not fate.drop:
            # The lag rides the path's timer: no other entry can share
            # a drawn instant (docs/performance.md, rule 11(d)).
            lagged = tx_done + fate.delay_us  # t + 0.0 is t
            delivery._launch(lagged)
            if fate.duplicate:
                _Delivery(self, message, tx_done)._launch(lagged)
        return delivery

    def send(self, src_name, dst_name, service, payload, size_bytes,
             span=NULL_SPAN):
        """Process helper: :meth:`post`, then wait until the message has
        left the TX port; returns it.

        The wait is a timer at ``delivery.tx_done`` itself. Only the
        wait belongs to the caller: interrupting it neither recalls
        the message nor frees the port early.
        """
        delivery = self.post(src_name, dst_name, service, payload,
                             size_bytes, span)
        return (yield self.sim.sleep_until(delivery.tx_done,
                                           delivery.message))


#: what the heap entry a delivery is waiting on stands for
_WIRE, _RX = range(2)


class _Delivery:
    """One message in flight: a scheduled payload, not a process.

    The delivery is its own heap payload (``Simulator.schedule_at``),
    advancing by stage: propagation, arrival (crash-drop check, RX
    port booking, the service's handler and lead), RX serialization
    plus the lead, handler. Its two kernel entries are instants at
    which model time has been spent — the end of propagation and the
    hand-over, ``lead`` after the end of RX serialization (``done +
    0.0`` is ``done`` for a service with no lead); no grant hop, no
    bootstrap, no resume, no completion event. The landing instant,
    RX-done, rides on the message (``message.landed``, set at each
    hand-over) for the spans a handler opens, and ``fabric.inflight``
    counts the message out at it. The TX port is booked at the post,
    so the end of TX serialization needs no entry: the propagation
    timer is pushed right away, for ``tx_done + l``, or with an
    injected delay ``d`` for ``(tx_done + d) + l`` — the two additions
    in the order two timers made them — and the propagation span
    starts at ``tx_done + d``. A duplicated message is two deliveries
    sharing one :class:`Message`, the twin launched right after the
    original with the same delay, so its timer follows.

    The message carries its operation's span, so the fault events of
    its fate, the payload its handler starts and a reply's bus events
    name the originating operation.

    The delivery holds no reference to anything that refers back to
    it (in particular no bound method of itself): ``gc`` is off while
    a benchmark point runs, so a per-message cycle would be a leak.
    """

    __slots__ = ("fabric", "message", "stage", "tx_done", "handler",
                 "landed")

    #: the kernel's tombstone check; a message in flight is never withdrawn
    cancelled = False

    def __init__(self, fabric, message, tx_done):
        self.fabric = fabric
        self.message = message
        self.stage = _WIRE
        #: when the last byte will have left the TX port
        self.tx_done = tx_done

    def fire(self):
        """The timer of the current stage ran out."""
        if self.stage == _WIRE:
            self._arrive()
        else:
            self._hand_over()

    def _launch(self, start):
        """Cross the path from ``start``: one timer, at ``start + l`` —
        with a lag ``d``, ``(t + d) + l``, the two additions the lag's
        own timer and the path's would make, so the same bits."""
        fabric = self.fabric
        if fabric.monitor is not None:
            # In flight from the instant the last byte leaves.
            fabric.monitor.at(self.tx_done, 1)
        message = self.message
        arrive = (start if message.src == message.dst
                  else start + fabric.one_way_latency_us)
        span = message.span
        if span.enabled:
            # Span protocol inlined (see BandwidthPipe.book).
            wire = Span(span.tracer, "net.propagate", "wire", span, start,
                        {"src": message.src, "dst": message.dst}, span.op)
            wire.end = arrive
            span.children.append(wire)
        sim = fabric.sim
        if arrive > sim._now:
            # schedule_at's hot branch, in place.
            heappush(sim._queue, (arrive, next(sim._sequence), self))
        else:
            sim.schedule_at(arrive, self)

    def _arrive(self):
        fabric = self.fabric
        sim = fabric.sim
        message = self.message
        faults = sim.faults
        if faults is not None and (faults.is_down(message.dst)
                                   or faults.is_down(message.src)):
            # Crash-stop: a dead host neither receives nor has its
            # in-flight sends honoured (its NIC died with it).
            faults.note_crash_drop(message)
            if fabric.monitor is not None:
                fabric.monitor.adjust(-1)
            return
        self.stage = _RX
        dst = fabric.hosts[message.dst]
        try:
            self.handler, lead = dst._services[message.service]
        except KeyError:
            dst.handler_for(message.service)  # raises, naming both
        done = self.landed = dst.rx.book(message.size_bytes, message.span)
        if fabric.monitor is not None:
            fabric.monitor.at(done, -1)
        # The lead rides the RX port's timer: the same float the lead's
        # own timer, started at RX-done, would reach (rule 11(f)).
        done += lead
        if done > sim._now:
            heappush(sim._queue, (done, next(sim._sequence), self))
        else:
            sim.schedule_at(done, self)

    def _hand_over(self):
        self.fabric.messages_delivered += 1
        message = self.message
        message.landed = self.landed
        self.handler(message)
