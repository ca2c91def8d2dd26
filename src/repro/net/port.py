"""Request/reply matching over the fabric.

A :class:`RequestChannel` gives a client host an outbound RPC-style
port: it stamps each request with a reply address and an id, registers
a reply service on the client host, and returns the reply payload to
the waiting process. Servers answer with :func:`send_reply`.

Both the two-sided RPC layer and the one-sided verb/PRISM clients ride
on this; they differ only in what the *server side* does with the
request (CPU handler vs NIC engine) and in the client-side post and
completion overheads.
"""

from itertools import count

from repro.core.errors import PrismError
from repro.obs.trace import NULL_SPAN, Span
from repro.sim.events import Event, TimeoutExpired


#: Logical request ids: allocated once per *logical* request, stable
#: across fresh-id retransmission attempts, so retries are linkable to
#: the request they serve (flight forensics, retransmission-aware
#: chain counts). Module-global like ``Message`` ids: deterministic
#: within one interpreter run.
_logical_ids = count(1)


class Request:
    """Envelope body for a request expecting a reply."""

    __slots__ = ("id", "reply_host", "reply_service", "body", "span",
                 "logical_id")

    def __init__(self, id_, reply_host, reply_service, body):
        self.id = id_
        self.reply_host = reply_host
        self.reply_service = reply_service
        self.body = body
        #: the issuing operation's span; servers parent their
        #: processing spans under it so one trace crosses host borders
        self.span = NULL_SPAN
        #: stable id of the logical request this attempt serves; a
        #: retransmission gets a fresh ``id`` but the same ``logical_id``
        self.logical_id = None


class Reply:
    """Envelope body for a reply; ``ok=False`` carries an exception."""

    __slots__ = ("id", "body", "ok", "logical_id")

    def __init__(self, id_, body, ok=True):
        self.id = id_
        self.body = body
        self.ok = ok
        #: copied from the request by :func:`send_reply` so reply-path
        #: events (fault fates, stale completions) stay linkable
        self.logical_id = None


class RequestChannel:
    """Client-side outbound port with request/reply matching.

    ``post_overhead_us`` models the CPU cost of posting a work request
    (doorbell, WQE build); ``completion_overhead_us`` models polling the
    completion. These are the small constants that make a one-sided op
    cost ~2.5 µs end to end on a direct link.
    """

    _channel_ids = count(1)

    def __init__(self, sim, fabric, host_name,
                 post_overhead_us=0.25, completion_overhead_us=0.25):
        self.sim = sim
        self.fabric = fabric
        self.host_name = host_name
        self.post_overhead_us = post_overhead_us
        self.completion_overhead_us = completion_overhead_us
        self.reply_service = f"reply.{next(self._channel_ids)}"
        self._pending = {}
        self._ids = count(1)
        self.monitor = None
        self._retry_rng = None
        self.retransmissions = 0
        self.timeouts = 0
        #: the ``conn`` tag on this channel's timeout/backoff events:
        #: the connection id (set by PrismClient), or the host name
        #: for channels outside the PRISM client path
        self.conn = host_name
        if sim.utilization is not None:
            # In-flight request depth per channel: evidence for the
            # bottleneck analyzer (deep client queues with an idle
            # server mean the clients, not the server, are the limit).
            self.monitor = sim.utilization.depth_monitor(
                f"{host_name}.{self.reply_service}", kind="channel")
        fabric.host(host_name).register_service(self.reply_service,
                                                self._on_reply)

    @property
    def outstanding(self):
        """Number of requests awaiting replies."""
        return len(self._pending)

    def _on_reply(self, message):
        reply = message.payload
        event = self._pending.pop(reply.id, None)
        bus = self.sim.bus
        if bus is not None:
            bus.emit("req.reply" if event is not None else "req.stale",
                     reply.logical_id, reply.id, reply.ok)
        if event is None:
            return  # duplicate or cancelled; drop silently like a NIC would
        if self.monitor is not None:
            self.monitor.adjust(-1)
        if reply.ok:
            event.succeed(reply.body)
        else:
            event.fail(reply.body if isinstance(reply.body, BaseException)
                       else PrismError(str(reply.body)))

    def request(self, dst, service, body, request_size, timeout_us=None,
                span=NULL_SPAN, logical_id=None):
        """Process helper: send ``body`` and wait for the reply payload.

        ``logical_id`` names the logical request this attempt serves;
        :meth:`request_with_retry` passes the same one to every
        retransmission. Plain calls allocate a fresh one, so a logical
        id is always 1:1 with what the caller considers one request.
        """
        sim = self.sim
        request_id = next(self._ids)
        if logical_id is None:
            logical_id = next(_logical_ids)
        request = Request(request_id, self.host_name, self.reply_service, body)
        request.span = span
        request.logical_id = logical_id
        bus = sim.bus
        if bus is not None:
            bus.emit("req.send", logical_id, request_id, dst, service)
        reply_event = Event(sim)
        self._pending[request_id] = reply_event
        if self.monitor is not None:
            self.monitor.adjust(+1)
        if self.post_overhead_us:
            if span.enabled:
                post_span = Span(span.tracer, "client.post", "cpu", span,
                                 sim._now, {})
                span.children.append(post_span)
                try:
                    yield sim.timeout(self.post_overhead_us)
                finally:
                    post_span.end = sim._now
            else:
                yield sim.timeout(self.post_overhead_us)
        # Post and wait for the reply only — never on the local send
        # completion. The ack timer starts when the request has left
        # the TX port: an instant the port already knows.
        delivery = self.fabric.post(self.host_name, dst, service, request,
                                    request_size, span=span)
        if timeout_us is None:
            result = yield reply_event
        else:
            index, value = yield sim.any_of(
                [reply_event,
                 sim.sleep_until(delivery.tx_done + timeout_us)])
            if index == 1:
                if (self._pending.pop(request_id, None) is not None
                        and self.monitor is not None):
                    self.monitor.adjust(-1)
                # The one place an ack timeout is counted — retried
                # or not — so the channel, the fault report and every
                # bus subscriber agree on the total.
                self.timeouts += 1
                if sim.faults is not None:
                    sim.faults.note_timeout()
                if bus is not None:
                    bus.emit("req.timeout", logical_id, request_id, dst,
                             timeout_us, self.conn)
                raise TimeoutExpired(
                    timeout_us, what=f"request {request_id} to {dst}/{service}")
            result = value
        if self.completion_overhead_us:
            if span.enabled:
                completion_span = Span(span.tracer, "client.completion",
                                       "cpu", span, sim._now, {})
                span.children.append(completion_span)
                try:
                    yield sim.timeout(self.completion_overhead_us)
                finally:
                    completion_span.end = sim._now
            else:
                yield sim.timeout(self.completion_overhead_us)
        return result

    def request_with_retry(self, dst, service, body, request_size, policy,
                           span=NULL_SPAN):
        """Process helper: ``request`` with ack timeout + retransmission.

        Each attempt waits ``policy.timeout_us`` for the reply; on
        expiry the request is retransmitted (a fresh id — a late reply
        to the old id is dropped by :meth:`_on_reply` like a NIC drops
        a stale completion) after a capped exponential backoff. A NAK
        (``ok=False`` reply) is NOT retried here: it is a delivered
        negative answer, and propagates immediately. After
        ``policy.max_retries`` retransmissions the last
        :class:`TimeoutExpired` propagates to the caller.

        Only safe for idempotent request bodies: at-least-once
        delivery means the server may execute a retransmitted request
        twice. Callers gate that (see ``PrismClient.execute``).

        Backoff jitter draws from a per-channel substream of the fault
        plan's seed, so faulty runs replay exactly.

        All attempts share one ``logical_id``, so telemetry (flight
        events, retransmission-aware chain counts) can tell "one
        logical request, retried" from "several requests".
        """
        faults = self.sim.faults
        bus = self.sim.bus
        if faults is not None and self._retry_rng is None:
            self._retry_rng = faults.retry_stream()
        logical_id = next(_logical_ids)
        attempt = 0
        while True:
            try:
                result = yield from self.request(
                    dst, service, body, request_size,
                    timeout_us=policy.timeout_us, span=span,
                    logical_id=logical_id)
                return result
            except TimeoutExpired:
                if attempt >= policy.max_retries:
                    if faults is not None:
                        faults.note_retries_exhausted()
                    if bus is not None:
                        bus.emit("req.exhausted", logical_id, attempt + 1)
                    raise
                backoff = policy.backoff_us(attempt, self._retry_rng)
                attempt += 1
                self.retransmissions += 1
                if faults is not None:
                    faults.note_retransmit()
                if bus is not None:
                    bus.emit("req.backoff", logical_id, attempt, backoff,
                             self.conn)
                with span.child("client.backoff", phase="queue",
                                attempt=attempt):
                    yield self.sim.timeout(backoff)


def send_reply(fabric, server_host, request, body, size_bytes, ok=True,
               span=NULL_SPAN):
    """Process helper used by servers to answer a :class:`Request`.

    Pass ``span=request.span`` so the reply's wire spans land in the
    issuing operation's trace (as siblings of the server-side spans,
    which keeps each phase's self-time tiling the operation exactly).
    """
    reply = Reply(request.id, body, ok=ok)
    reply.logical_id = request.logical_id
    fabric.post(server_host, request.reply_host, request.reply_service,
                reply, size_bytes, span=span)
    # Posting takes no simulated time, so the helper never waits; it
    # stays a generator because servers ``yield from`` (or spawn) it.
    yield from ()
