"""Two-sided SEND/RECV verbs (§2.1's message-passing half).

"A SEND operation transmits a message to a remote application that
calls RECEIVE." The receiving NIC pops a posted receive buffer, DMAs
the payload into it, and deposits a completion; if no buffer is posted
it answers Receiver Not Ready — the flow-control NAK §4.2 reuses for
chain buffering.

These verbs are *NIC*-executed on both ends (no remote CPU on the data
path — the application only posts buffers and polls completions),
which is why the eRPC layer (:mod:`repro.rpc`) is a separate, more
expensive animal: RPC adds dispatch + handler CPU on top of what SEND
gives you.
"""

from dataclasses import dataclass

from repro.core.errors import RemoteNak
from repro.core.ops import WriteOp
from repro.net.port import RequestChannel, post_reply
from repro.rdma.qp import QueuePair
from repro.sim.resources import Store


@dataclass
class ReceiveCompletion:
    """One received message: where it landed and who sent it."""

    buffer_addr: int
    length: int
    sender: str


class ReceiveEndpoint:
    """Server side: a receive queue + completion stream.

    Buffers are carved from the server's memory and posted to the
    receive QP; incoming SENDs consume them FIFO. The application
    consumes :class:`ReceiveCompletion`s with ``yield endpoint.recv()``.
    """

    def __init__(self, sim, server, buffer_size, buffer_count,
                 service="sendrecv"):
        self.sim = sim
        self.server = server
        self.buffer_size = buffer_size
        self.service = service
        base, self.rkey = server.add_region(buffer_size * buffer_count)
        self.qp = QueuePair(buffer_size, name=f"recv.{service}")
        self.qp.post_many(range(base, base + buffer_count * buffer_size,
                                buffer_size))
        self.completions = Store(sim, name=f"cq.{service}")
        self._connection = server.connect(f"__{service}__")
        self.rnr_naks = 0
        server.fabric.host(server.host_name).register_service(
            service, self._on_send, lead_us=server.backend.admission_us)

    def post_receive(self, buffer_addr):
        """Return a consumed buffer to the receive queue (app side)."""
        self.qp.post(buffer_addr)

    def recv(self):
        """Event: the next :class:`ReceiveCompletion` (FIFO)."""
        return self.completions.get()

    # -- data plane -----------------------------------------------------------

    def _on_send(self, message):
        # The receiving NIC absorbs the SEND as one WRITE on the
        # server's device; no process, no CPU.
        self.server.backend.execute(self, message)

    def accept(self, execution):
        """Start of the execution: pop a buffer for the payload to land in."""
        payload = execution.message.payload.body
        if len(self.qp) == 0 or len(payload) > self.buffer_size:
            # Receiver Not Ready: reject without consuming anything.
            self.rnr_naks += 1
            self._reply(execution, RemoteNak("receiver not ready"), ok=False)
            return False
        execution.connection = self._connection
        execution.ops = [WriteOp(addr=self.qp.pop(), data=payload,
                                 rkey=self.rkey)]
        return True

    def answer(self, execution, result):
        """The payload is placed: deposit the completion, acknowledge."""
        message = execution.message
        self.completions.put(ReceiveCompletion(
            buffer_addr=execution.ops[0].addr,
            length=len(message.payload.body), sender=message.src))
        self._reply(execution, True)

    def _reply(self, execution, body, ok=True):
        post_reply(self.server.fabric, self.server.host_name,
                   execution.message.payload, body, 12, ok=ok)


class SendEndpoint:
    """Client side: one-way messages into a remote receive queue."""

    def __init__(self, sim, fabric, client_name, server_name,
                 service="sendrecv"):
        self.sim = sim
        self.fabric = fabric
        self.client_name = client_name
        self.server_name = server_name
        self.service = service
        self.channel = RequestChannel(sim, fabric, client_name)
        self.sends = 0

    def send(self, payload):
        """Process helper: SEND ``payload``; completes when the remote
        NIC has placed it (raises :class:`RemoteNak` on RNR)."""
        payload = bytes(payload)
        yield self.channel.post(
            self.server_name, self.service, payload,
            request_size=42 + len(payload))
        self.sends += 1
