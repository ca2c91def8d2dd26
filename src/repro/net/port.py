"""Request/reply matching over the fabric.

A :class:`RequestChannel` gives a client host an outbound RPC-style
port: it stamps each request with a reply address and an id, registers
a reply service on the client host, and returns the reply payload to
the waiting process. Servers answer with :func:`post_reply`.

Both the two-sided RPC layer and the one-sided verb/PRISM clients ride
on this; they differ only in what the *server side* does with the
request (CPU handler vs NIC engine) and in the client-side post and
completion overheads. Only a fault plan makes a repeat: a channel
takes its retry policy. Both servers answer a repeated request from
their :class:`SavedReplies`, as an RC responder does.
"""

from collections import defaultdict
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
                 "logical_id", "horizon")

    def __init__(self, id_, reply_host, reply_service, body, span=NULL_SPAN,
                 logical_id=None, horizon=0):
        self.id = id_
        self.reply_host = reply_host
        self.reply_service = reply_service
        self.body = body
        #: the issuing operation's span; servers parent their
        #: processing spans under it so one trace crosses host borders
        self.span = span
        #: stable id of the logical request this attempt serves; a
        #: retransmission gets a fresh ``id`` but the same ``logical_id``
        self.logical_id = logical_id
        #: the channel's oldest open logical request: all below have ended
        self.horizon = horizon


class Reply:
    """Envelope body for a reply; ``ok=False`` carries an exception."""

    __slots__ = ("id", "body", "ok", "logical_id")

    def __init__(self, id_, body, ok=True):
        self.id = id_
        self.body = body
        self.ok = ok
        #: copied from the request by :func:`post_reply` so reply-path
        #: events (fault fates, stale completions) stay linkable
        self.logical_id = None


#: where a :class:`_Call` stands; the comments say which kernel entry
#: it is waiting for
_POSTING = 0     # heap: the post overhead runs out
_IN_FLIGHT = 1   # posted; the reply's hand-over, or the ack deadline
_COMPLETING = 2  # heap: the completion overhead runs out
_BACKOFF = 3     # heap: the backoff before a retransmission runs out
_DONE = 4        # the waiter has been run, or went away


class _Call(Event):
    """One request from post to completion: the event ``post`` returns
    for its caller to yield, and the scheduled payload of its own fixed
    stages.

    A round trip is a pipeline, not control flow (docs/performance.md,
    rule 11): post overhead, the wire, the reply (or the ack deadline),
    completion overhead. The call is the heap payload of its two
    overhead stages and takes no ready-deque slot: the entry that hands
    the reply over withdraws the ack deadline and starts the completion
    stage, and the deadline's own heap entry expires the call. Whichever
    of the two runs first resolves it; the other finds nothing pending
    (a reply that loses is ``req.stale``). The waiting process is
    resumed exactly once — with the reply body, the reply's exception,
    or :class:`TimeoutExpired`. Every heap push happens with the float
    the generator this replaces used; a zero overhead skips its stage
    rather than taking a zero-delay timer.

    With a ``retry`` policy it owns its retransmissions too: it is the
    heap payload of the backoff an expired ack deadline books, and
    posts again from the backoff's entry, a fresh attempt of itself.

    Its bus events name the request's operation, ``request.span.op``.
    Until the reply or the deadline resolves it, a timed call
    and its :class:`_AckDeadline` refer to each other; every way out
    clears both references, so nothing is left for the cycle collector
    (``gc`` is off while a benchmark point runs).
    """

    __slots__ = ("channel", "request", "dst", "service", "size_bytes",
                 "timeout_us", "retry", "attempt", "stage", "cancelled",
                 "_ack", "_stage_span")

    def __init__(self, channel, dst, service, body, size_bytes, timeout_us,
                 span, resent=None, retry=None):
        # Inlined Event.__init__ — one call per request (see AcquireEvent).
        sim = self.sim = channel.sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.channel = channel
        self.dst = dst
        self.service = service
        self.size_bytes = size_bytes
        if retry is not None:
            timeout_us = retry.timeout_us
            if channel._retry_rng is None and sim.faults is not None:
                # allocated at the first retried post: numbered in order
                channel._retry_rng = sim.faults.retry_stream()
        self.timeout_us = timeout_us
        self.retry = retry
        self.attempt = 0
        self.cancelled = False
        self._ack = None
        self._stage_span = None
        request_id = next(channel._ids)
        if resent is None:
            logical_id = next(_logical_ids)
            horizon = next(iter(channel._open_calls), logical_id)
            channel._open_calls[logical_id] = None
        else:  # a retransmission: the same call, so the same horizon
            logical_id, horizon = resent.logical_id, resent.horizon
        request = self.request = Request(
            request_id, channel.host_name, channel.reply_service, body,
            span, logical_id, horizon)
        bus = sim.bus
        if bus is not None:
            bus.emit("req.send", logical_id, request_id, dst, service,
                     span.op)
        channel._pending[request_id] = self
        if channel.monitor is not None:
            channel.monitor.adjust(+1)
        if channel.post_overhead_us:
            self.stage = _POSTING
            if span.enabled:
                self._open_stage_span("client.post")
            sim.schedule(channel.post_overhead_us, self)
        else:
            self._post()

    def _open_stage_span(self, name):
        span = self.request.span
        self._stage_span = Span(span.tracer, name, "cpu", span,
                                self.sim._now, {}, span.op)
        span.children.append(self._stage_span)

    def _close_stage_span(self):
        self._stage_span.end = self.sim._now
        self._stage_span = None

    # -- kernel entries -----------------------------------------------------

    def fire(self):
        """Heap entry: an overhead stage or a backoff ran out."""
        if self._stage_span is not None:
            self._close_stage_span()
        stage = self.stage
        if stage == _COMPLETING:
            self._finish()
            return
        if stage == _POSTING:
            self._post()
        else:
            self._retransmit()

    # -- stages -------------------------------------------------------------

    def _post(self):
        """Hand the request to the NIC; never wait on the local send
        completion. The ack timer starts when the request has left the
        TX port: an instant the port already knows."""
        channel = self.channel
        request = self.request
        self.stage = _IN_FLIGHT
        delivery = channel.fabric.post(channel.host_name, self.dst,
                                       self.service, request,
                                       self.size_bytes, span=request.span)
        if self.timeout_us is not None:
            self._ack = _AckDeadline(self)
            self.sim.schedule_at(delivery.tx_done + self.timeout_us,
                                 self._ack)

    def _expire(self):
        """The ack deadline's entry: back off to retry, or time out."""
        channel = self.channel
        sim = self.sim
        request = self.request
        self._withdraw()
        # The one place an ack timeout is counted — retried or not — so
        # the channel, the fault report and every bus subscriber agree
        # on the total.
        channel.timeouts += 1
        faults = sim.faults
        if faults is not None:
            faults.note_timeout()
        bus = sim.bus
        if bus is not None:
            bus.emit("req.timeout", request.logical_id, request.id,
                     self.dst, self.timeout_us, request.span.op, channel.conn)
        retry, attempt = self.retry, self.attempt
        if retry is not None and attempt < retry.max_retries:
            backoff = retry.backoff_us(attempt, channel._retry_rng)
            self.attempt = attempt = attempt + 1
            channel.retransmissions += 1
            if faults is not None:
                faults.note_retransmit()
            if bus is not None:
                bus.emit("req.backoff", request.logical_id, attempt,
                         backoff, request.span.op, channel.conn)
            self.stage = _BACKOFF
            if request.span.enabled:
                self._stage_span = request.span.child(
                    "client.backoff", phase="queue", attempt=attempt)
            sim.schedule(backoff, self)  # 0: the zero-delay slot
            return
        if retry is not None:
            if faults is not None:
                faults.note_retries_exhausted()
            if bus is not None:
                bus.emit("req.exhausted", request.logical_id, attempt + 1,
                         request.span.op)
        self._ok = False
        self._value = TimeoutExpired(
            self.timeout_us,
            what=f"request {request.id} to {self.dst}/{self.service}")
        self._finish()

    def _retransmit(self):
        """The backoff's entry: this call again, under a fresh id."""
        callbacks, attempt, request = (self.callbacks, self.attempt,
                                       self.request)
        _Call.__init__(self, self.channel, self.dst, self.service,
                       request.body, self.size_bytes, self.timeout_us,
                       request.span, request, self.retry)
        self.callbacks, self.attempt = callbacks, attempt

    def _finish(self):
        """Run the waiter in the calling entry, as a fired timer does."""
        self.stage = _DONE
        del self.channel._open_calls[self.request.logical_id]
        self._triggered = True
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def cancel(self):
        """The waiter went away (it was interrupted). A request not yet
        posted never is; a posted one stays posted — a posted message
        cannot be withdrawn — but is no longer pending, so a late reply
        is stale. Pending timers are tombstoned."""
        stage = self.stage
        if stage == _DONE:
            return
        self.stage = _DONE
        del self.channel._open_calls[self.request.logical_id]
        if self._stage_span is not None:
            self._close_stage_span()
        self._withdraw()
        if stage == _POSTING or stage == _COMPLETING or stage == _BACKOFF:
            self.cancelled = True
            self.sim._note_timer_cancelled()
        if self._ack is not None:
            self._ack.withdraw()

    def _withdraw(self):
        """Stop being pending, if still so: a later reply is stale."""
        channel = self.channel
        if (channel._pending.pop(self.request.id, None) is not None
                and channel.monitor is not None):
            channel.monitor.adjust(-1)


class _AckDeadline:
    """Heap payload of a timed call's ack timer (``tx_done +
    timeout_us``); its entry expires the call. At the very instant of
    the reply, the first of the two entries to run resolves the call:
    a reply handed over first tombstones the deadline, and a deadline
    popped first withdraws the request, so the reply handed over after
    it is ``req.stale``."""

    __slots__ = ("call", "cancelled")

    def __init__(self, call):
        self.call = call
        self.cancelled = False

    def withdraw(self):
        """Tombstone the heap entry and part from the call."""
        call, self.call = self.call, None
        call._ack = None
        self.cancelled = True
        call.sim._note_timer_cancelled()

    def fire(self):
        call, self.call = self.call, None
        call._ack = None
        call._expire()


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
        #: logical ids of the calls not yet ended, oldest first
        self._open_calls = {}
        self._ids = count(1)
        self.monitor = None
        self._retry_rng = None
        self.retransmissions = 0
        self.timeouts = 0
        #: the ``conn`` tag on this channel's timeout/backoff events:
        #: the connection id (set by PrismClient), or the host name
        #: for channels outside the PRISM client path
        self.conn = host_name
        #: the fault plan's retry policy the clients post with; None: no plan
        self.retry = None if sim.faults is None else sim.faults.plan.retry
        sim.faults_adopted = True
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
        call = self._pending.pop(reply.id, None)
        bus = self.sim.bus
        if bus is not None:
            bus.emit("req.reply" if call is not None else "req.stale",
                     reply.logical_id, reply.id, reply.ok, message.span.op)
        if call is None:
            return  # duplicate or cancelled; drop silently like a NIC would
        if self.monitor is not None:
            self.monitor.adjust(-1)
        if call.stage != _IN_FLIGHT:
            return  # a reply to a request not yet posted: dropped
        # The reply resolves the call in its hand-over, the last work of
        # the delivery's entry (docs/performance.md, rule 11, the
        # timed-call argument).
        if call._ack is not None:
            call._ack.withdraw()
        call._ok = ok = reply.ok
        if ok or isinstance(reply.body, BaseException):
            call._value = reply.body
        else:
            call._value = PrismError(str(reply.body))
        delay = self.completion_overhead_us
        if ok and delay:
            call.stage = _COMPLETING
            if call.request.span.enabled:
                call._open_stage_span("client.completion")
            self.sim.schedule(delay, call)
        else:
            # An error reply costs no completion overhead.
            call._finish()

    def post(self, dst, service, body, request_size, timeout_us=None,
             span=NULL_SPAN, retry=None):
        """Send ``body``; returns the :class:`_Call` to yield for the
        reply payload.

        One wait: the call runs the post overhead, the ack deadline
        (``timeout_us`` after the request has left the TX port;
        :class:`TimeoutExpired`) and the completion overhead itself,
        and resumes whoever yields it when the round trip is over.
        Interrupting the wait withdraws the pending request (see
        :meth:`_Call.cancel`).

        With a ``retry`` policy (:class:`~repro.faults.plan.RetryPolicy`)
        each attempt waits ``retry.timeout_us``; an expired one is
        retransmitted (a fresh id: a late reply to the old one is
        dropped like a stale completion) after a capped exponential
        backoff, whose jitter draws from a per-channel substream of the
        fault plan's seed. After ``retry.max_retries`` the last
        :class:`TimeoutExpired` reaches the waiter. A NAK is a delivered
        answer, never retried. The channel itself delivers at least
        once; a server's :class:`SavedReplies` make it at most once.
        Every attempt carries the call's one logical id and horizon, so
        a logical id is 1:1 with what the caller considers one request.
        """
        return _Call(self, dst, service, body, request_size, timeout_us,
                     span, None, retry)

    def request(self, dst, service, body, request_size, timeout_us=None,
                span=NULL_SPAN):
        """Process helper: :meth:`post`, then wait for the reply payload."""
        return (yield self.post(dst, service, body, request_size,
                                timeout_us, span))


class SavedReplies:
    """A server's at-most-once table. Per session (a client channel's
    reply address): the highest horizon its requests carried, and what
    each logical request run at or above it saved for its repeats —
    RPC's ``(result, bytes, ok)``, a PRISM chain's per-op results."""

    __slots__ = ("_horizons", "_replies", "replays")

    def __init__(self):
        self._horizons = defaultdict(int)
        self._replies = defaultdict(dict)
        #: repeated deliveries answered from a saved reply
        self.replays = 0

    def session(self, request):
        """``request``'s session, by logical id, after its horizon moves up
        to ``request``'s; None if ``request`` is below it (ended)."""
        session = request.reply_service
        replies = self._replies[session]
        horizon = self._horizons[session]
        if request.horizon > horizon:
            self._horizons[session] = horizon = request.horizon
            while replies:  # oldest first; one out of order waits its turn
                ended = next(iter(replies))
                if ended >= horizon:
                    break
                del replies[ended]
        return replies if request.logical_id >= horizon else None


def post_reply(fabric, server_host, request, body, size_bytes, ok=True,
               span=NULL_SPAN):
    """Answer a :class:`Request`: post the reply and return.

    Pass ``span=request.span`` so the reply's wire spans land in the
    issuing operation's trace (as siblings of the server-side spans,
    which keeps each phase's self-time tiling the operation exactly).
    """
    reply = Reply(request.id, body, ok=ok)
    reply.logical_id = request.logical_id
    fabric.post(server_host, request.reply_host, request.reply_service,
                reply, size_bytes, span=span)


def send_reply(fabric, server_host, request, body, size_bytes, ok=True,
               span=NULL_SPAN):
    """:func:`post_reply` as a process helper. No server in ``src``
    calls it; tests and ``perfbench/micro.py`` spawn it as a handler."""
    post_reply(fabric, server_host, request, body, size_bytes, ok, span)
    # Posting takes no simulated time, so the helper never waits.
    yield from ()
