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
"""

from dataclasses import dataclass

from repro.hw.cpu import CorePool
from repro.net.message import ETHERNET_HEADER_BYTES
from repro.net.port import RequestChannel, send_reply
from repro.obs.trace import NULL_SPAN


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
        self.cores = CorePool(sim, self.config.cores, name=f"rpc@{host_name}")
        self._methods = {}
        self._process_names = {}
        self.calls_served = 0
        fabric.host(host_name).register_service(service, self._on_request)

    def register(self, method, handler, service_us=None):
        """Expose ``handler(args) -> (result, response_payload_bytes)``.

        ``service_us`` may be a float or a callable ``(args) -> float``
        for size-dependent handler cost; defaults to the config value.
        """
        if method in self._methods:
            raise ValueError(f"method {method!r} already registered")
        self._methods[method] = (handler, service_us)
        self._process_names[method] = f"rpc.{method}"

    def _on_request(self, message):
        method = message.payload.body[0]
        # Built once per registered method; only a call to an unknown
        # method (answered with an error reply) formats a name here.
        name = self._process_names.get(method) or f"rpc.{method}"
        self.sim.spawn(self._serve(message), name=name)

    def _serve(self, message):
        request = message.payload
        root = request.span
        method, args = request.body
        handler = self._methods.get(method)
        if handler is None:
            yield from send_reply(self.fabric, self.host_name, request,
                                  KeyError(f"no RPC method {method!r}"),
                                  ETHERNET_HEADER_BYTES, ok=False, span=root)
            return
        handler, service_us = handler
        if service_us is None:
            duration = self.config.default_service_us
        elif callable(service_us):
            duration = service_us(args)
        else:
            duration = service_us
        duration += self.config.dispatch_us
        try:
            with root.child("rpc.handler", phase="cpu", method=method,
                            host=self.host_name) as span:
                outcome = yield from self.cores.execute(
                    duration, work=lambda: handler(args), span=span)
            result, response_payload = outcome
        except Exception as exc:  # handler bug: report, don't crash
            yield from send_reply(self.fabric, self.host_name, request,
                                  exc, ETHERNET_HEADER_BYTES, ok=False,
                                  span=root)
            return
        self.calls_served += 1
        yield from send_reply(self.fabric, self.host_name, request, result,
                              ETHERNET_HEADER_BYTES + response_payload,
                              span=root)


class RpcClient:
    """Client endpoint issuing calls to any host's RPC service."""

    def __init__(self, sim, fabric, client_name, config=None, channel=None,
                 retry_policy=None):
        self.config = config or RpcConfig()
        self.sim = sim
        self.fabric = fabric
        self.client_name = client_name
        self.channel = channel or RequestChannel(
            sim, fabric, client_name,
            post_overhead_us=self.config.client_post_us,
            completion_overhead_us=self.config.client_completion_us)
        # Same auto-adoption as PrismClient: a fault plan's retry knobs
        # apply to every client built after set_faults, and with no plan
        # the call path is untouched.
        if retry_policy is None and sim.faults is not None:
            retry_policy = sim.faults.plan.retry
        self.retry_policy = retry_policy
        self.calls_made = 0

    def call(self, server_name, method, args, request_payload_bytes,
             service="rpc", span=NULL_SPAN, retryable=True):
        """Process helper: invoke ``method`` on ``server_name``.

        With a retry policy attached (fault plan installed), lost
        calls are retransmitted. At-least-once delivery means the
        handler may run twice; handlers that are not naturally
        idempotent must dedupe (the recycler daemon does, by report
        id) or the caller must pass ``retryable=False`` and handle
        :class:`~repro.sim.events.TimeoutExpired` itself.
        """
        policy = self.retry_policy
        if self.sim.bus is not None:
            self.sim.bus.emit("rpc.submit", method, server_name)
        call_span = NULL_SPAN
        if span.enabled:
            call_span = span.child("rpc.call", phase="cpu", method=method)
        try:
            if policy is not None and retryable:
                result = yield from self.channel.request_with_retry(
                    server_name, service, (method, args),
                    ETHERNET_HEADER_BYTES + request_payload_bytes,
                    policy, span=call_span)
            else:
                result = yield self.channel.post(
                    server_name, service, (method, args),
                    ETHERNET_HEADER_BYTES + request_payload_bytes,
                    None if policy is None else policy.timeout_us, call_span)
        finally:
            if span.enabled:
                call_span.finish()
        self.calls_made += 1
        return result
