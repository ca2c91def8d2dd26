"""Host and fabric models.

Each host owns full-duplex TX/RX ports (``BandwidthPipe``). A message
occupies the sender's TX port for its serialization time, crosses the
path (propagation + per-switch latency, after a fault plan's injected
delay: one timer for both), occupies the receiver's RX port, then is
handed to the destination service handler.

Service handlers are plain callables ``handler(message)`` registered
per host; timed work behind one is a scheduled payload (a device
execution, an RPC handling), which replies via :meth:`Fabric.post`.
"""

from repro.obs.trace import NULL_SPAN, Span
from repro.sim.events import Event
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

    def register_service(self, service, handler):
        """Route messages addressed to ``service`` to ``handler``."""
        if service in self._services:
            raise ValueError(f"{self.name}: service {service!r} already registered")
        self._services[service] = handler

    def handler_for(self, service):
        try:
            return self._services[service]
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
        """One-way latency (0 for loopback); ``_propagate`` inlines it."""
        if src_name == dst_name:
            return 0.0
        return self.one_way_latency_us

    def post(self, src_name, dst_name, service, payload, size_bytes,
             span=NULL_SPAN):
        """Hand a message to the source NIC; returns its delivery at once.

        Like a posted work request, the message is the NIC's from here
        on: a :class:`_Delivery` carries it through the TX port, the
        path, the RX port and into the service handler with no process
        involved, and it cannot be withdrawn. ``delivery.tx_done`` is
        the instant its last byte will have left the TX port.

        ``span`` parents the transfer's wire/queue spans (it rides on
        the message).
        """
        message = Message(src_name, dst_name, service, payload, size_bytes)
        sim = self.sim
        message.send_time = sim._now
        message.span = span
        delivery = _Delivery(self, message)
        delivery.tx_done = self.hosts[src_name].tx.claim(
            delivery, size_bytes, span)
        return delivery

    def send(self, src_name, dst_name, service, payload, size_bytes,
             span=NULL_SPAN):
        """Process helper: :meth:`post`, then wait until the message has
        left the TX port; returns it.

        Only the wait belongs to the caller: interrupting it neither
        recalls the message nor frees the port early.
        """
        sent = Event(self.sim)
        self.post(src_name, dst_name, service, payload, size_bytes,
                  span).sent = sent
        return (yield sent)


#: what the heap entry a delivery is waiting on stands for
_TX, _WIRE, _RX = range(3)


class _Delivery:
    """One message in flight: a scheduled payload, not a process.

    The delivery is its own heap payload (``Simulator.schedule_at``)
    and its own holder on both ports, advancing by stage: TX
    serialization, [fault fate,] propagation, arrival (crash-drop
    check, RX port claim), RX serialization, handler. Every kernel
    entry is an instant at which model time has been spent — the end
    of TX serialization, of propagation, of RX serialization; no grant
    hop, no bootstrap, no resume, no completion event. An injected
    delay ``d`` is no stage of its own: the propagation timer is
    pushed at the end of TX serialization for ``(t + d) + l``, the
    two additions in the order two timers made them, and the
    propagation span starts at ``t + d``. A duplicated message is two
    deliveries sharing one :class:`Message`, the twin launched right
    after the original with the same delay, so its timer follows.

    The message carries its operation's span, so the fault events of
    its fate, the payload its handler starts and a reply's bus events
    name the originating operation.

    The delivery holds no reference to anything that refers back to
    it (in particular no bound method of itself): ``gc`` is off while
    a benchmark point runs, so a per-message cycle would be a leak.
    """

    __slots__ = ("fabric", "message", "stage", "span", "tx_done", "sent")

    #: the kernel's tombstone check; a message in flight is never withdrawn
    cancelled = False

    def __init__(self, fabric, message):
        self.fabric = fabric
        self.message = message
        self.stage = _TX
        #: the open propagation span (None when not tracing)
        self.span = None
        #: what a ``Fabric.send`` caller is waiting on, if anyone is
        self.sent = None

    def fire(self):
        """The timer of the current stage ran out."""
        stage = self.stage
        if stage == _WIRE:
            self._arrive()
        elif stage == _RX:
            self._hand_over()
        else:
            self._leave()

    def _leave(self):
        """The last byte has left the TX port."""
        fabric = self.fabric
        sim = fabric.sim
        message = self.message
        fabric.hosts[message.src].tx.finish()
        faults = sim.faults
        if faults is None:
            self._launch(sim._now)
        else:
            # Fault point: the message has left the TX port (the port
            # was occupied either way); it may now vanish, fork, or
            # lag. Fates are drawn in TX-finish order.
            hp = sim.hostprof
            if hp is not None:
                hp.enter("hooks.faults")
            fate = faults.on_message(message)
            if hp is not None:
                hp.exit()
            if not fate.drop:
                # The lag rides the path's timer: no other entry can
                # share a drawn instant (docs/performance.md, rule 11(d)).
                lagged = sim._now + fate.delay_us  # t + 0.0 is t
                self._launch(lagged)
                if fate.duplicate:
                    _Delivery(fabric, message)._launch(lagged)
        if self.sent is not None:
            # Like a timer's waiter, the sender resumes in this entry.
            self.sent.succeed_now(message)

    def _launch(self, start):
        """Cross the path from ``start``: one timer, at ``start + l`` —
        with a lag ``d``, ``(t + d) + l``, the two additions the lag's
        own timer and the path's would make, so the same bits."""
        fabric = self.fabric
        if fabric.monitor is not None:
            fabric.monitor.adjust(+1)
        message = self.message
        span = message.span
        if span.enabled:
            # Span protocol inlined (see BandwidthPipe.claim).
            self.span = Span(span.tracer, "net.propagate", "wire", span,
                             start,
                             {"src": message.src, "dst": message.dst},
                             span.op)
            span.children.append(self.span)
        self.stage = _WIRE
        fabric.sim.schedule_at(start if message.src == message.dst
                               else start + fabric.one_way_latency_us, self)

    def _arrive(self):
        fabric = self.fabric
        sim = fabric.sim
        message = self.message
        if self.span is not None:
            self.span.end = sim.now
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
        fabric.hosts[message.dst].rx.claim(self, message.size_bytes,
                                           message.span)

    def _hand_over(self):
        fabric = self.fabric
        message = self.message
        dst = fabric.hosts[message.dst]
        dst.rx.finish()
        fabric.messages_delivered += 1
        if fabric.monitor is not None:
            fabric.monitor.adjust(-1)
        try:
            handler = dst._services[message.service]
        except KeyError:
            handler = dst.handler_for(message.service)  # raises, naming both
        handler(message)
