"""PRISM-RS: multi-writer ABD over PRISM primitives (§7.3).

Every GET and PUT is two quorum round trips with zero replica-CPU
involvement on the data path:

* **Read phase** — one indirect READ of ``metadata[i].addr`` per
  replica returns a consistent ⟨tag, value⟩ (the tag is duplicated in
  the buffer); wait for f+1, take the maximum tag.
* **Write phase** — per replica, one install chain
  (:meth:`~repro.prism.client.PrismClient.install`): ALLOCATE t' | v',
  CAS_GT ``metadata[i]``'s ⟨tag, addr⟩ on the tag; wait for f+1 acks.
  A CAS miss means the replica already stores a newer tag — which
  satisfies the ABD write-phase obligation just as well, so it counts
  toward the quorum.

Retired buffers (the old addr on a swap, the fresh allocation on a
miss) are reported to the replica's recycler daemon asynchronously.
"""

from repro.apps.blockstore.layout import BUFFER_HEADER, META_SIZE, RsLayout
from repro.apps.common import INITIAL_TAG, bump_tag, note_key, split_tag
from repro.core.ops import ReadOp
from repro.hw.memory import POINTER_SIZE
from repro.obs.trace import NULL_SPAN
from repro.prism.client import PrismClient
from repro.prism.recycler import RecyclerClient, RecyclerDaemon
from repro.prism.server import PrismServer
from repro.rpc.erpc import RpcClient, RpcServer
from repro.sim.phase import Phase


class PrismRsReplica:
    """One replica: metadata array, buffer free list, recycler daemon."""

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 n_blocks=100_000, block_size=512, spare_buffers=4096,
                 rpc_config=None, recycler_batch=64, backend_kwargs=None):
        self.sim = sim
        probe = RsLayout(0, n_blocks, block_size)
        memory_bytes = (probe.meta_bytes
                        + (n_blocks + spare_buffers) * probe.buffer_bytes
                        + (1 << 20))
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 backend_kwargs=backend_kwargs)
        meta_base, self.meta_rkey = self.prism.add_region(probe.meta_bytes)
        self.layout = RsLayout(meta_base, n_blocks, block_size)
        self.freelist_id, self.buffer_rkey = self.prism.create_freelist(
            probe.buffer_bytes, n_blocks + spare_buffers, name="rs-buffers")
        self.rpc = RpcServer(sim, fabric, host_name, config=rpc_config)
        self.recycler = RecyclerDaemon(sim, self.prism, self.rpc,
                                       batch_size=recycler_batch)

    @property
    def host_name(self):
        return self.prism.host_name

    def load(self, block_id, value, tag=None):
        """Install an initial value directly (setup time): the one-item
        :meth:`load_many`."""
        self.load_many(((block_id, value),), tag)

    def load_many(self, items, tag=None):
        """Install ``(block_id, value)`` pairs in order (setup time): each
        in the next free buffer, and a re-load's old buffer back on the
        list once its block points at the new one.

        The loop writes the memory view itself. It takes the buffers off
        the list by ``pop_many``, before each return and when the call
        ends or an error escapes, so the list reads exactly as after one
        ``pop`` per item. A value longer than a block raises
        ``ValueError`` before its item takes a buffer.
        """
        tag = INITIAL_TAG if tag is None else tag
        items = list(items)
        host = self.prism.space.host
        view, size = host.view, host.size
        freelist = self.prism.freelists[self.freelist_id]
        meta_base, block_size = self.layout.meta_base, self.layout.block_size
        pack_tag, pack_meta = RsLayout.pack_tag_into, RsLayout.pack_meta_into
        unpack_meta = RsLayout.unpack_meta_from
        head = freelist.peek_many(len(items))
        n_head = len(head)
        taken = popped = 0  # buffers handed out; of those, popped
        try:
            for block_id, value in items:
                if len(value) > block_size:  # would spill into the next buffer
                    raise ValueError(
                        f"block {block_id}: {len(value)} B exceeds the "
                        f"{block_size}-byte block")
                if taken < n_head:
                    addr = head[taken]
                else:  # past the buffers listed when the call began
                    freelist.pop_many(taken - popped)
                    popped = taken
                    addr = freelist.pop_many(1)[0]
                    popped += 1
                taken += 1
                end = addr + BUFFER_HEADER + len(value)
                if addr < POINTER_SIZE or end > size:
                    host.check(addr, end - addr)
                pack_tag(view, addr, tag)
                view[addr + BUFFER_HEADER:end] = value
                meta = meta_base + block_id * META_SIZE
                if meta < POINTER_SIZE or meta + META_SIZE > size:
                    host.check(meta, META_SIZE)
                replaced = unpack_meta(view, meta)[1]
                pack_meta(view, meta, tag, addr)
                if replaced:  # a re-load: its old buffer goes back
                    freelist.pop_many(taken - popped)
                    popped = taken
                    freelist.post(replaced)
        finally:
            freelist.pop_many(taken - popped)


class PrismRsClient:
    """A client of an ``n = 2f+1`` replica group."""

    def __init__(self, sim, fabric, client_name, replicas, client_id,
                 recycle_batch=16):
        if len(replicas) % 2 == 0:
            raise ValueError("replica count must be odd (n = 2f + 1)")
        self.sim = sim
        self.replicas = list(replicas)
        self.f = (len(replicas) - 1) // 2
        self.client_id = client_id
        self.layout = replicas[0].layout
        self.clients = [PrismClient(sim, fabric, client_name, r.prism)
                        for r in replicas]
        rpc = RpcClient(sim, fabric, client_name,
                        channel=self.clients[0].channel)
        self.recyclers = [RecyclerClient(rpc, r.host_name,
                                         batch_size=recycle_batch)
                          for r in replicas]
        # Span labels of a quorum phase's legs, one per replica index.
        self._read_labels = [f"abd.read[{i}]" for i in range(len(replicas))]
        self._write_labels = [f"abd.write[{i}]" for i in range(len(replicas))]
        self.gets = 0
        self.puts = 0

    # -- public API --------------------------------------------------------

    def get(self, block_id, span=NULL_SPAN):
        """Process helper: linearizable read; returns the value bytes."""
        note_key(self.sim, "prism-rs", "get", block_id)
        tag, value = yield from self._read_phase(block_id, span=span)
        # Write-back phase: propagate ⟨tag_max, v_max⟩ so later readers
        # cannot observe an older value (ABD's read write-phase).
        yield from self._write_phase(block_id, tag, value, span=span)
        self.gets += 1
        return value

    def put(self, block_id, value, span=NULL_SPAN):
        """Process helper: linearizable write."""
        note_key(self.sim, "prism-rs", "put", block_id)
        tag, _old_value = yield from self._read_phase(block_id, span=span)
        new_tag = bump_tag(tag, self.client_id)
        yield from self._write_phase(block_id, new_tag, value, span=span)
        self.puts += 1
        return None

    def execute(self, op, span=NULL_SPAN):
        """Driver adapter for :class:`~repro.workload.ycsb.KvOp`."""
        if op.kind == "get":
            yield from self.get(op.key, span=span)
        else:
            yield from self.put(op.key, op.value, span=span)
        return None

    # -- ABD phases ----------------------------------------------------------

    def _read_phase(self, block_id, span=NULL_SPAN):
        """Indirect READ at all n replicas, wait for f+1; returns
        ⟨tag_max, v_max⟩.

        Each replica's round trip is a sibling child span; they run in
        parallel, so this operation's phase sums read as *total work*
        across replicas, not wall-clock (see repro.obs.breakdown).
        """
        read_len = 8 + self.layout.block_size
        traced = span.enabled
        generators = [
            self._read_at(index, block_id, read_len,
                          span.child(self._read_labels[index], phase="other",
                                     replica=self.replicas[index].host_name)
                          if traced else span)
            for index in range(len(self.replicas))
        ]
        replies = yield Phase(self.sim, generators, self.f + 1)
        best_tag, best_value = -1, b""
        for _index, data in replies:
            tag, value = RsLayout.unpack_buffer(data)
            if tag > best_tag:
                best_tag, best_value = tag, value
        return best_tag, best_value

    def _write_phase(self, block_id, tag, value, span=NULL_SPAN):
        """Chained ALLOCATE/CAS_GT install at all n replicas, wait for
        f+1."""
        traced = span.enabled
        generators = [
            self._install_at(index, block_id, tag, value,
                             span.child(self._write_labels[index],
                                        phase="other")
                             if traced else span)
            for index in range(len(self.replicas))
        ]
        yield Phase(self.sim, generators, self.f + 1)

    def _read_at(self, index, block_id, read_len, span):
        """One replica's read-phase round trip under its own span."""
        try:
            result = yield from self.clients[index].execute(
                ReadOp(addr=self.layout.addr_field(block_id),
                       length=read_len, rkey=self.replicas[index].meta_rkey,
                       indirect=True),
                span=span)
        finally:
            if span.enabled:
                span.finish()
        return result.raise_on_nak()[0].value

    def _install_at(self, index, block_id, tag, value, span=NULL_SPAN):
        client = self.clients[index]
        replica = self.replicas[index]
        try:
            result = yield from client.execute(
                *client.install(tag, replica.freelist_id,
                                RsLayout.pack_buffer(tag, value),
                                replica.buffer_rkey,
                                self.layout.meta_addr(block_id),
                                replica.meta_rkey),
                span=span)
        finally:
            if span.enabled:
                span.finish()
        addr = client.displaced(result.raise_on_nak()[2])
        if addr:
            self._retire(index, addr, span)
        return True

    def _retire(self, index, addr, span):
        flush = self.recyclers[index].retire(
            self.replicas[index].freelist_id, addr, span)
        if flush is not None:
            self.sim.launch(flush, name="rs-retire")
