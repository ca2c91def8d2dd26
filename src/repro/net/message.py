"""Network message envelope.

A message is routed by ``(dst_host, dst_service)``. ``payload`` is any
Python object (operation descriptors, RPC frames); ``size_bytes`` is the
on-wire size used for serialization/bandwidth accounting, so the object
graph never needs to be byte-serialized to get correct timing.
"""

from itertools import count

from repro.obs.trace import NULL_SPAN

_ids = count(1)

ETHERNET_HEADER_BYTES = 42  # Ethernet + IP + UDP framing
RDMA_HEADER_BYTES = 30      # IB BTH + RETH-style transport header


class Message:
    """An envelope travelling through the fabric."""

    __slots__ = ("id", "src", "dst", "service", "payload", "size_bytes",
                 "send_time", "span", "landed")

    def __init__(self, src, dst, service, payload, size_bytes):
        self.id = next(_ids)
        self.src = src
        self.dst = dst
        self.service = service
        self.payload = payload
        self.size_bytes = size_bytes
        self.send_time = None
        #: tracing parent for the delivery-side (propagation + RX) spans
        self.span = NULL_SPAN
        #: when the handed-over delivery cleared its RX port (RX-done);
        #: set at each hand-over, a service's lead after it
        self.landed = None

    def __repr__(self):
        return (f"<Message #{self.id} {self.src}->{self.dst}/{self.service} "
                f"{self.size_bytes}B>")
