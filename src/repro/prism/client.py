"""Client-side PRISM API.

:class:`PrismClient` is what application code holds: it wraps a
connection to one server and turns the Table 1 primitives into
round trips over the simulated fabric. All methods are process helpers
(``yield from`` them inside a simulation process).

The convenience wrappers (:meth:`read`, :meth:`write`, :meth:`cas`,
:meth:`allocate`) unwrap single-op results and raise on NAK;
:meth:`execute` submits a chain and returns the full
:class:`~repro.prism.engine.ChainResult` for callers that inspect
per-op outcomes (e.g. distinguishing a CAS miss from success).
"""

from repro.core.chain import Chain
from repro.core.ops import AllocateOp, CasMode, CasOp, ReadOp, WriteOp
from repro.net.port import RequestChannel
from repro.obs.trace import NULL_SPAN
from repro.prism.engine import OpStatus


class PrismClient:
    """A connection from one client host to one PRISM server."""

    def __init__(self, sim, fabric, client_name, server):
        self.sim = sim
        self.fabric = fabric
        self.client_name = client_name
        self.server = server
        self.connection = server.connect(client_name)
        self.channel = RequestChannel(sim, fabric, client_name)
        self.round_trips = 0
        # The live TelemetryView handle: application code (and future
        # policy layers) query sliding-window signals mid-run through
        # it — views.rate("cas_retry", client.connection.id), etc.
        self.views = sim.views
        # Tagging the channel attributes its timeout/backoff events
        # to this connection instead of the whole client host.
        self.channel.conn = self.connection.id

    @property
    def sram_slot(self):
        """This connection's 32 B on-NIC scratch address (for redirects)."""
        return self.connection.sram_slot

    @property
    def default_rkey(self):
        """Convenience: the first shared application region's rkey."""
        candidates = self.connection.granted_rkeys - {self.server.sram_rkey}
        return min(candidates) if candidates else self.server.sram_rkey

    # -- raw submission ----------------------------------------------------

    def execute(self, *ops, span=NULL_SPAN):
        """Submit ops as one request (one round trip); ChainResult back.

        Under a fault plan (``channel.retry``) a lost request or reply is
        retransmitted, whatever the ops — the server runs a chain at most
        once — until the retries run out
        (:class:`~repro.sim.events.TimeoutExpired`); with none, never.

        A NAK is never retried: it is a delivered negative answer and
        raises immediately via ``raise_on_nak`` in the callers.

        ``span`` names the operation the request serves; traced, the
        round trip is its ``roundtrip`` child.
        """
        if len(ops) == 1 and isinstance(ops[0], Chain):
            chain = ops[0]
        else:
            chain = Chain(ops)
        bus = self.sim.bus
        submitted = self.sim._now
        if bus is not None:
            bus.emit("chain.submit", len(chain.ops),
                     "+".join(op.opname for op in chain.ops),
                     self.server.host_name, span.op)
        trip = span
        if span.enabled:
            trip = span.child("roundtrip", phase="cpu", ops=len(chain.ops))
        server = self.server
        channel = self.channel
        try:
            result = yield channel.post(
                server.host_name, server.service, (self.connection.id, chain),
                chain.request_bytes(), None, trip, channel.retry)
        finally:
            if span.enabled:
                trip.finish()
        self.round_trips += 1
        if bus is not None:
            bus.emit("chain.roundtrip", self.sim._now - submitted,
                     self.connection.id)
        return result

    # -- the out-of-place install (§3.3) -----------------------------------

    def install(self, tag, freelist, data, buffer_rkey, target, rkey,
                bound=None, scratch=0):
        """The install chain's 3 ops (4 with ``bound``) for :meth:`execute`.

        Its operand is ⟨tag @0, ptr @8[, bound @16]⟩ at ``sram_slot +
        scratch``: WRITE ``tag`` (and ``bound``) there, ALLOCATE ``data``
        from ``freelist`` with its address redirected to ptr, then CAS_GT
        the operand onto ``target``, comparing the tag only. Like every
        chain it runs at most once, however often it is delivered, so
        it pops one buffer: installed, or named by :meth:`displaced`."""
        tmp = self.connection.sram_slot + scratch
        sram_rkey = self.server.sram_rkey
        words = [WriteOp(addr=tmp, data=tag.to_bytes(8, "little"),
                         rkey=sram_rkey)]
        if bound is not None:
            words.append(WriteOp(addr=tmp + 16,
                                 data=bound.to_bytes(8, "little"),
                                 rkey=sram_rkey))
        return (*words,
                AllocateOp(freelist=freelist, data=data, rkey=buffer_rkey,
                           redirect_to=tmp + 8, conditional=True),
                CasOp(target=target, data=tmp.to_bytes(8, "little"),
                      rkey=rkey, mode=CasMode.GT, compare_mask=(1 << 64) - 1,
                      data_indirect=True,
                      operand_width=16 if bound is None else 24,
                      conditional=True))

    def displaced(self, cas, scratch=0):
        """The buffer an install's ``cas`` left unreferenced: on a hit the
        old word's ptr (0 if it was empty); on a miss the install's own
        buffer, read back from the operand's ptr — a zero-time read of
        NIC SRAM no real client can make (corpus 4, ROADMAP 1(a))."""
        if cas.status is OpStatus.OK:
            return int.from_bytes(cas.value[8:16], "little")
        return int.from_bytes(self.server.space.read(
            self.connection.sram_slot + scratch + 8, 8), "little")

    # -- Table 1 convenience wrappers --------------------------------------

    def read(self, addr, length, rkey=None, indirect=False, bounded=False,
             redirect_to=None, span=NULL_SPAN):
        """READ; returns bytes (b'' when redirected)."""
        op = ReadOp(addr=addr, length=length,
                    rkey=self._rkey(rkey), indirect=indirect, bounded=bounded,
                    redirect_to=redirect_to)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        return result[0].value

    def write(self, addr, data, rkey=None, length=None, addr_indirect=False,
              addr_bounded=False, data_indirect=False, span=NULL_SPAN):
        """WRITE; returns None."""
        op = WriteOp(addr=addr, data=data, rkey=self._rkey(rkey),
                     length=length, addr_indirect=addr_indirect,
                     addr_bounded=addr_bounded, data_indirect=data_indirect)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()

    def allocate(self, freelist, data, rkey=None, redirect_to=None,
                 span=NULL_SPAN):
        """ALLOCATE; returns the buffer address (0 when redirected)."""
        op = AllocateOp(freelist=freelist, data=data, rkey=self._rkey(rkey),
                        redirect_to=redirect_to)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        return result[0].value

    def cas(self, target, data, rkey=None, mode=None, compare_mask=None,
            swap_mask=None, compare_data=None, target_indirect=False,
            data_indirect=False, operand_width=None, span=NULL_SPAN):
        """Enhanced CAS; returns ``(swapped, old_value_bytes)``."""
        kwargs = {}
        if mode is not None:
            kwargs["mode"] = mode
        op = CasOp(target=target, data=data, rkey=self._rkey(rkey),
                   compare_mask=compare_mask, swap_mask=swap_mask,
                   compare_data=compare_data,
                   target_indirect=target_indirect,
                   data_indirect=data_indirect,
                   operand_width=operand_width, **kwargs)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        outcome = result[0]
        return outcome.status is OpStatus.OK, outcome.value

    def fetch_add(self, target, delta, rkey=None, span=NULL_SPAN):
        """Classic FETCH-AND-ADD; returns the previous 64-bit value."""
        from repro.core.ops import FetchAddOp
        op = FetchAddOp(target=target, delta=delta, rkey=self._rkey(rkey))
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        return int.from_bytes(result[0].value, "little")

    def _rkey(self, rkey):
        return self.default_rkey if rkey is None else rkey
