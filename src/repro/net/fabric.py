"""Host and fabric models.

Each host owns full-duplex TX/RX ports (``BandwidthPipe``). A message
occupies the sender's TX port for its serialization time, crosses the
path (propagation + per-switch latency), occupies the receiver's RX
port, then is handed to the destination service handler.

Service handlers are plain callables ``handler(message)`` registered
per host; they typically spawn a process to do timed work and reply
via :meth:`Fabric.send`.
"""

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
    latency; by default it is uniform, which matches the paper's single
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
        """One-way latency between two hosts (0 for loopback)."""
        if src_name == dst_name:
            return 0.0
        return self.one_way_latency_us

    def send(self, src_name, dst_name, service, payload, size_bytes,
             span=NULL_SPAN):
        """Process helper: send a message; returns when handed to RX queue.

        Delivery to the service handler happens asynchronously (a
        spawned process), so the sender is released as soon as its TX
        port is free — matching how a NIC really behaves.

        ``span`` parents the transfer's wire/queue spans: TX
        serialization here, propagation and RX serialization in the
        delivery process (the span rides on the message).
        """
        sim = self.sim
        message = Message(src_name, dst_name, service, payload, size_bytes)
        message.send_time = sim._now
        message.span = span
        src = self.hosts[src_name]
        yield from src.tx.transmit(size_bytes, span=span)
        faults = sim.faults
        if faults is None:
            # The per-message process name only matters to forensics
            # (an observed run, process-lifetime traces, deadlock
            # dumps); the hot path skips the f-string.
            if sim.bus is None and not sim.tracer.trace_processes:
                sim.spawn(self._deliver(message), name="deliver")
            else:
                sim.spawn(self._deliver(message),
                          name=f"deliver#{message.id}")
            return message
        # Fault point: the message has left the TX port (the sender paid
        # serialization either way); it may now vanish, fork, or lag.
        hp = self.sim.hostprof
        if hp is not None and not hp._timing:
            # Stride sampling: attribution is off for this event.
            hp = None
        if hp is not None:
            hp.enter("hooks.faults")
        fate = faults.on_message(message)
        if hp is not None:
            hp.exit()
        if fate.drop:
            return message
        self.sim.spawn(self._deliver(message, fate.delay_us),
                       name=f"deliver#{message.id}")
        if fate.duplicate:
            self.sim.spawn(self._deliver(message, fate.delay_us),
                           name=f"deliver#{message.id}.dup")
        return message

    def _deliver(self, message, extra_delay_us=0.0):
        sim = self.sim
        if self.monitor is not None:
            self.monitor.adjust(+1)
        if extra_delay_us > 0.0:
            yield sim.timeout(extra_delay_us)
        span = message.span
        if span.enabled:
            # Span protocol inlined (see BandwidthPipe.transmit).
            propagate_span = Span(span.tracer, "net.propagate", "wire",
                                  span, sim._now,
                                  {"src": message.src, "dst": message.dst})
            span.children.append(propagate_span)
            try:
                yield sim.timeout(
                    self.path_latency_us(message.src, message.dst))
            finally:
                propagate_span.end = sim._now
        else:
            yield sim.timeout(
                self.path_latency_us(message.src, message.dst))
        faults = sim.faults
        if faults is not None and (faults.is_down(message.dst)
                                   or faults.is_down(message.src)):
            # Crash-stop: a dead host neither receives nor has its
            # in-flight sends honoured (its NIC died with it).
            faults.note_crash_drop(message)
            if self.monitor is not None:
                self.monitor.adjust(-1)
            return
        dst = self.hosts[message.dst]
        yield from dst.rx.transmit(message.size_bytes, span=message.span)
        self.messages_delivered += 1
        if self.monitor is not None:
            self.monitor.adjust(-1)
        handler = dst.handler_for(message.service)
        handler(message)
