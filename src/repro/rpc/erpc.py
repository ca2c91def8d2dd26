"""An eRPC-flavoured two-sided RPC layer (Kalia et al., NSDI '19).

This is the "fast RPC" the paper benchmarks against in §2.1 (5.6 µs for
a 512 B read through one switch, vs 3.2 µs one-sided) and the transport
its software PRISM prototype borrows. Unlike one-sided operations, an
RPC involves the server CPU: requests are dispatched to application
handler threads drawn from a core pool, so RPC latency carries dispatch
and handler time, and RPC throughput is capped by cores as well as by
the network.

Handlers are plain callables ``handler(args) -> (result, response_bytes)``
executed *functionally* at the end of their simulated service time.

Delivery is at most once, as in an eRPC session: a server answers a
retransmission or a duplicate from the reply it saved, so a handler
need not be idempotent.
"""

from dataclasses import dataclass
from functools import partial

from repro.net.message import ETHERNET_HEADER_BYTES
from repro.net.port import Reply, RequestChannel, SavedReplies, post_reply
from repro.obs.trace import NULL_SPAN
from repro.sim.resources import Resource


@dataclass
class RpcConfig:
    """Timing knobs for the RPC layer (µs)."""

    cores: int = 16
    dispatch_us: float = 0.60        # rx ring poll + request steering
    default_service_us: float = 1.60  # handler body unless overridden
    client_post_us: float = 0.85      # request marshalling + doorbell
    client_completion_us: float = 0.85  # completion callback + unmarshal


class RpcServer:
    """Registers named methods on a host's ``rpc`` service."""

    def __init__(self, sim, fabric, host_name, config=None, service="rpc"):
        self.sim = sim
        self.fabric = fabric
        self.host_name = host_name
        self.service = service
        self.config = config or RpcConfig()
        # The handler cores, FIFO; kind="cpu" gives them a utilization row
        # (busy %, run-queue depth, dispatch delay) when one is collected.
        name = f"rpc@{host_name}"
        self.cores = Resource(sim, capacity=self.config.cores, name=name,
                              kind="cpu")
        self._queue_label = f"{name}.queue"  # span labels, fixed per server
        self._exec_label = f"{name}.exec"
        self._methods = {}
        #: ``(result, response_bytes, ok)`` of each call run, per session
        self.saved = SavedReplies()
        self.calls_served = 0
        fabric.host(host_name).register_service(service,
                                                partial(_Handling, self))

    def register(self, method, handler, service_us=None):
        """Expose ``handler(args) -> (result, response_payload_bytes)``.

        ``service_us`` may be a float or a callable ``(args) -> float``
        for size-dependent handler cost; defaults to the config value.
        """
        if method in self._methods:
            raise ValueError(f"method {method!r} already registered")
        self._methods[method] = (handler, service_us)


class _Handling:
    """One RPC on the server: a scheduled payload, not a process
    (docs/performance.md, rule 11), shaped like ``prism.backend._Execution``.

    It starts in the delivering entry (looks the method up and, as its
    last statement, claims a core: a free core runs the holder inside
    the claim, a busy pool in the slot after the releasing entry) and
    is then its own heap payload for dispatch + service time. An unknown
    method is answered at once without a core; a handler exception
    becomes an error reply after the core is released; an exception
    from a ``service_us`` callable propagates out of ``Simulator.run``
    at once.
    Nothing refers back to the handling (``gc`` is off during a run).
    A repeat is answered from ``server.saved`` where the handler would
    run, so it costs what its first delivery did.
    """

    __slots__ = ("server", "request", "handler", "args", "duration",
                 "stage", "span", "_open_span")

    #: the kernel's tombstone check; a handling is never withdrawn
    cancelled = False

    def __init__(self, server, message):
        self.server = server
        self.request = request = message.payload
        #: the ``rpc.handler`` span and its open child (None untraced)
        self.span = self._open_span = None
        method, self.args = request.body
        registered = server._methods.get(method)
        if registered is None:
            post_reply(server.fabric, server.host_name, request,
                       KeyError(f"no RPC method {method!r}"),
                       ETHERNET_HEADER_BYTES, ok=False, span=request.span)
            return
        self.handler, service_us = registered
        if service_us is None:
            service_us = server.config.default_service_us
        elif callable(service_us):
            service_us = service_us(self.args)
        self.duration = service_us + server.config.dispatch_us
        if request.span.enabled:
            self.span = request.span.child("rpc.handler", phase="cpu",
                                           method=method,
                                           host=server.host_name)
            self._open_span = self.span.child(server._queue_label, "queue")
        #: the function of the next entry
        self.stage = _Handling._granted
        server.cores.claim(self)

    def __call__(self, _event=None):
        """Core granted (inside the claim or a ready-deque entry) or
        service-time heap entry."""
        self.stage(self)

    fire = __call__

    def _granted(self):
        server = self.server
        if self.span is not None:
            self._open_span.finish()
            self._open_span = self.span.child(server._exec_label, "cpu")
        self.stage = _Handling._served
        server.sim.schedule(self.duration, self)

    def _served(self):
        server = self.server
        request = self.request
        if self.span is not None:
            self._open_span.finish()
        logical_id = request.logical_id
        replies = server.saved.session(request)  # None: nobody waits
        saved = None if replies is None else replies.get(logical_id)
        if saved is not None:  # a repeat is sent the saved reply
            server.saved.replays += 1
        elif replies is not None:
            try:
                result, response_bytes = self.handler(self.args)
                saved = replies[logical_id] = (result, response_bytes, True)
                server.calls_served += 1
            except Exception as exc:  # handler bug: report, don't crash
                saved = replies[logical_id] = (exc, 0, False)
        server.cores.release()
        if self.span is not None:
            self.span.finish()
        if saved is not None:
            # Inlined post_reply: one call per request, for the table's.
            reply = Reply(request.id, saved[0], saved[2])
            reply.logical_id = request.logical_id
            server.fabric.post(server.host_name, request.reply_host,
                               request.reply_service, reply,
                               ETHERNET_HEADER_BYTES + saved[1],
                               span=request.span)


class RpcClient:
    """Client endpoint issuing calls to any host's RPC service."""

    def __init__(self, sim, fabric, client_name, config=None, channel=None):
        self.config = config or RpcConfig()
        self.sim = sim
        self.fabric = fabric
        self.client_name = client_name
        self.channel = channel or RequestChannel(
            sim, fabric, client_name,
            post_overhead_us=self.config.client_post_us,
            completion_overhead_us=self.config.client_completion_us)
        self.calls_made = 0

    def call(self, server_name, method, args, request_payload_bytes,
             service="rpc", span=NULL_SPAN):
        """Process helper: invoke ``method`` on ``server_name``.

        Under a fault plan (``channel.retry``) lost calls are
        retransmitted; the handler runs at most once per call.
        ``span`` names the operation the call serves; traced, the call
        is its ``rpc.call`` child.
        """
        if self.sim.bus is not None:
            self.sim.bus.emit("rpc.submit", method, server_name, span.op)
        call_span = span
        if span.enabled:
            call_span = span.child("rpc.call", phase="cpu", method=method)
        channel = self.channel
        try:
            result = yield channel.post(
                server_name, service, (method, args),
                ETHERNET_HEADER_BYTES + request_payload_bytes, None,
                call_span, channel.retry)
        finally:
            if span.enabled:
                call_span.finish()
        self.calls_made += 1
        return result
