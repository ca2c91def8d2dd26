"""Client-driven buffer recycling (§3.2).

The applications in the paper detect retired buffers client-side (the
old value returned by an installing CAS) and report them to a daemon on
the server over traditional RPC; the daemon re-posts them to the NIC
free list in batches, only when concurrent NIC operations are complete
(the quiescence gate in :meth:`PrismServer.post_buffers`).
"""

from collections import defaultdict

from repro.obs.trace import NULL_SPAN
from repro.sim.events import TimeoutExpired


class RecyclerDaemon:
    """Server-side daemon: collects retired buffers, re-posts in batches.

    RPC is at most once, so no report posts a buffer to its list twice.
    """

    METHOD = "recycle"

    def __init__(self, sim, server, rpc_server, batch_size=64,
                 scan_interval_us=50.0, service_us=0.4):
        self.sim = sim
        self.server = server
        self.batch_size = batch_size
        self.scan_interval_us = scan_interval_us
        self._pending = defaultdict(list)
        self.buffers_recycled = 0
        rpc_server.register(self.METHOD, self._on_report,
                            service_us=service_us)
        self._runner = sim.spawn(self._run(), name="recycler")

    def _on_report(self, args):
        freelist_id, addrs = args
        self._pending[freelist_id].extend(addrs)
        return None, 0

    def _run(self):
        while True:
            yield self.sim.timeout(self.scan_interval_us)
            yield from self.flush()

    def flush(self):
        """Re-post every pending batch (process helper)."""
        for freelist_id, addrs in list(self._pending.items()):
            if not addrs:
                continue
            batch, self._pending[freelist_id] = (
                addrs[:], [])
            yield from self.server.post_buffers(freelist_id, batch)
            self.buffers_recycled += len(batch)


class RecyclerClient:
    """Client-side helper batching retired-buffer reports."""

    def __init__(self, rpc_client, server_name, batch_size=16):
        self.rpc = rpc_client
        self.server_name = server_name
        self.batch_size = batch_size
        self._pending = defaultdict(list)
        self.reports_sent = 0
        self.reports_abandoned = 0

    def retire(self, freelist_id, addr, span=NULL_SPAN):
        """Note a retired buffer; returns a flush generator when the
        batch is full (caller decides whether to await or launch it),
        reporting for ``span``'s operation."""
        self._pending[freelist_id].append(addr)
        if len(self._pending[freelist_id]) >= self.batch_size:
            return self.flush(freelist_id, span)
        return None

    def flush(self, freelist_id, span=NULL_SPAN):
        """Process helper: report one free list's pending buffers.

        The report belongs to ``span``'s operation but stays out of its
        trace (``span.untraced()``): it is off the operation's latency
        path.

        Flushes are usually launched un-waited, so a report
        whose retransmission budget runs out must not crash the run:
        the batch is abandoned (the buffers leak — the free list's
        spares absorb it) and counted against the fault injector.
        """
        batch, self._pending[freelist_id] = self._pending[freelist_id], []
        if not batch:
            return
        try:
            yield from self.rpc.call(
                self.server_name, RecyclerDaemon.METHOD,
                (freelist_id, batch),
                request_payload_bytes=8 * len(batch) + 8,
                span=span.untraced())
        except TimeoutExpired:
            self.reports_abandoned += 1
            faults = self.rpc.sim.faults
            if faults is not None:
                faults.note_recycle_abandoned(len(batch))
            return
        self.reports_sent += 1
