"""The server side: memory, registrations, free lists, and the NIC service.

A :class:`PrismServer` owns one host's memory system and executes
incoming operation requests through a timing backend. It also provides
the *server-CPU* control-plane duties the paper assigns to the host
(§3.2): registering memory, creating free lists, and re-posting
recycled buffers — the latter only when concurrent NIC operations have
quiesced, via a reader/writer-style gate.
"""

from itertools import count

from repro.core.constants import REDIRECT_SLOT_BYTES
from repro.core.errors import RemoteNak
from repro.net.port import SavedReplies, post_reply
from repro.prism.address_space import ServerAddressSpace
from repro.prism.engine import Connection, PrismEngine
from repro.rdma.mr import AccessFlags, MemoryRegionTable
from repro.rdma.qp import QueuePair

DEFAULT_MEMORY_BYTES = 64 * 1024 * 1024


class PrismServer:
    """One host's PRISM (or plain RDMA) service.

    The data plane runs no process: a delivered request runs to
    completion on the backend (:meth:`Backend.execute
    <repro.prism.backend.Backend.execute>`), with this server as the
    owner that names the connection and posts the reply.
    """

    _freelist_ids = count(1)

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 memory_bytes=DEFAULT_MEMORY_BYTES, service="prism",
                 backend_kwargs=None):
        self.sim = sim
        self.fabric = fabric
        self.host_name = host_name
        self.service = service
        self.space = ServerAddressSpace(memory_bytes)
        self.regions = MemoryRegionTable()
        self.freelists = {}
        self.engine = PrismEngine(self.space, self.regions, self.freelists)
        self.backend = backend_cls(sim, self.engine, config,
                                   **(backend_kwargs or {}))
        # Register the on-NIC SRAM once; every connection gets this rkey
        # so redirect targets in its scratch slot pass protection checks.
        self.sram_rkey = self.regions.register(
            self.space.sram_base, self.space.sram_bytes, AccessFlags.ALL)
        self._shared_rkeys = {self.sram_rkey}
        self.connections = {}
        self.saved = SavedReplies()
        self.failed = False
        self.requests_dropped = 0
        fabric.host(host_name).register_service(
            service, self._on_request, lead_us=self.backend.admission_us)
        if sim.faults is not None:
            sim.faults.register_server(host_name, self)

    # -- control plane (server CPU, setup / daemon time) ------------------

    def add_region(self, nbytes, flags=AccessFlags.ALL, align=8,
                   shared=True):
        """Allocate + register host memory; returns ``(addr, rkey)``.

        ``shared`` regions are granted automatically to every new
        connection (and retroactively to existing ones), which models
        the usual one-protection-domain-per-application setup.
        """
        addr = self.space.sbrk(nbytes, align)
        rkey = self.regions.register(addr, nbytes, flags)
        if shared:
            self._shared_rkeys.add(rkey)
            for connection in self.connections.values():
                connection.grant(rkey)
        return addr, rkey

    def create_freelist(self, buffer_size, buffer_count, name=None):
        """Carve ``buffer_count`` buffers and post them to a new free list.

        Returns ``(freelist_id, region_rkey)``. The buffers sit in one
        registered region so ALLOCATE's derived-address check passes.
        """
        freelist_id = next(self._freelist_ids)
        qp = QueuePair(buffer_size, name=name or f"freelist{freelist_id}")
        base, rkey = self.add_region(buffer_size * buffer_count)
        qp.post_many(range(base, base + buffer_count * buffer_size,
                           buffer_size))
        self.freelists[freelist_id] = qp
        if self.sim.bus is not None:
            self.sim.bus.emit("freelist.register", freelist_id, qp)
        if self.sim.faults is not None:
            self.sim.faults.register_freelist(self, freelist_id, qp)
        return freelist_id, rkey

    def freelist(self, freelist_id):
        return self.freelists[freelist_id]

    def connect(self, client_name):
        """Create a connection: all shared rkeys + a 32 B SRAM scratch slot."""
        slot = self.space.sram_sbrk(REDIRECT_SLOT_BYTES)
        connection = Connection(client_name, set(self._shared_rkeys),
                                sram_slot=slot)
        self.connections[connection.id] = connection
        return connection

    # -- buffer recycling gate (§3.2) ---------------------------------------

    def post_buffers(self, freelist_id, addrs):
        """Process helper: re-post recycled buffers safely.

        Takes the write side of the NIC's reader/writer gate: new
        operation *executions* stall, the currently executing ops drain
        (a few µs of NIC pipeline), the buffers are posted, and the
        gate reopens. This is the guarantee that makes PRISM-KV/RS/TX
        reads safe against use-after-free (§6.1): a buffer can never be
        handed back to ALLOCATE while an operation that might still
        dereference it is running.
        """
        yield from self.backend.gate.drain()
        try:
            self.freelists[freelist_id].post_many(addrs)
        finally:
            self.backend.gate.release()

    # -- failure injection ---------------------------------------------------

    def fail(self):
        """Crash-stop: silently drop every subsequent request.

        Models the replica failures ABD tolerates (§7.1): clients see
        no reply (as from a dead host), and quorum protocols proceed
        with the remaining replicas.
        """
        self.failed = True

    def recover(self):
        """Return to service. Memory contents survive (fail-recover
        with stable state); protocol-level catch-up is the
        application's business — ABD repairs via its write-back phase.
        """
        self.failed = False

    # -- data plane ----------------------------------------------------------

    def _on_request(self, message):
        if self.failed:
            self.requests_dropped += 1
            return
        self.backend.execute(self, message)

    def accept(self, execution):
        """A request's execution starts: resolve its connection."""
        request = execution.message.payload
        connection_id, execution.ops = request.body
        execution.connection = self.connections.get(connection_id)
        if execution.connection is None:
            post_reply(self.fabric, self.host_name, request,
                       RemoteNak(f"unknown connection {connection_id}"), 12,
                       ok=False, span=request.span)
            return False
        replies = self.saved.session(request)
        if replies is None:
            return False  # below the horizon: nobody waits for a reply
        logical_id = execution.logical = request.logical_id
        saved = execution.saved = replies.get(logical_id)
        if saved is None:
            replies[logical_id] = execution.results
        else:
            self.saved.replays += 1
        span = request.span  # untraced, it still names the operation
        if span.enabled:
            span = span.child("server.process", phase="queue",
                              host=self.host_name, backend=self.backend.label)
            span.start = execution.message.landed  # the admission's start
        execution.span = span
        return True

    def answer(self, execution, result):
        """The chain is done: reply with its result."""
        if execution.span.enabled:
            execution.span.finish()
        size = 0
        for op, op_result in zip(execution.ops, result.results):
            value = op_result.value
            length = len(value) if isinstance(value, (bytes, bytearray)) else 0
            size += op.response_bytes(length)
        request = execution.message.payload
        post_reply(self.fabric, self.host_name, request, result, size,
                   span=request.span)
