"""PRISM-KV: a key-value store entirely over one-sided PRISM ops (§6.1).

GET: one *bounded indirect READ* per probe — the slot's ⟨ptr, bound⟩
struct is dereferenced by the NIC, returning the entry (version, key,
value) in a single round trip.

PUT: one probe READ to find the slot and learn the current version,
then one install chain (:meth:`~repro.prism.client.PrismClient.install`,
the entry's length as bound): ALLOCATE the entry, CAS_GT the slot's
⟨ver, ptr, bound⟩ on the version.

If the CAS misses, a concurrent client installed a newer version and
the PUT is superseded (last-writer-wins by tag, as in the paper). The
old buffer is retired to the server's recycler daemon asynchronously.
"""

from repro.apps.common import bump_tag, make_tag, note_key
from repro.apps.kv.layout import HEADER_SIZE, KvLayout, SLOT_SIZE
from repro.core.errors import AccessViolation
from repro.core.ops import ReadOp
from repro.hw.memory import POINTER_SIZE
from repro.obs.trace import NULL_SPAN
from repro.prism.client import PrismClient
from repro.prism.engine import OpStatus
from repro.prism.recycler import RecyclerClient, RecyclerDaemon
from repro.prism.server import PrismServer
from repro.rpc.erpc import RpcClient, RpcServer
from repro.sim.rng import SeededRng


def fnv1a_64(data):
    """FNV-1a: the general (collision-prone) hash option."""
    value = 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def _second_hash(data):
    """An independent second hash for two-choice placement (the
    cuckoo-style alternative to linear probing that Pilaf's paper — and
    §6's description — mention). FNV over the reversed bytes with a
    different offset basis."""
    value = 0x84222325CBF29CE4
    for byte in reversed(data):
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def candidate_slots(key_bytes, n_slots, hash_fn):
    """The probe sequence for a key under the chosen hash scheme.

    * ``identity`` — the eval's collisionless hash: one slot.
    * ``fnv`` — linear probing from one hash (full table worst case).
    * ``two-choice`` — two independent buckets, checked in order: each
      key has exactly two possible homes, so GET needs at most two
      probes (one indirect READ each).
    """
    if hash_fn == "identity":
        yield int.from_bytes(key_bytes, "little") % n_slots
    elif hash_fn == "fnv":
        start = fnv1a_64(key_bytes) % n_slots
        for offset in range(n_slots):
            yield (start + offset) % n_slots
    elif hash_fn == "two-choice":
        first = fnv1a_64(key_bytes) % n_slots
        yield first
        second = _second_hash(key_bytes) % n_slots
        if second != first:
            yield second
    else:
        raise ValueError(f"unknown hash_fn {hash_fn!r}")


class PrismKvServer:
    """Server side: memory layout, free lists, recycler daemon.

    With ``size_classes=True`` the store registers one power-of-two
    free list per buffer class (§3.2) instead of a single
    max-entry-sized list; clients pick the class their entry fits,
    bounding internal fragmentation at 2x.
    """

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 n_keys=100_000, max_value_bytes=512, spare_buffers=4096,
                 slots_per_key=1, hash_fn="identity", rpc_config=None,
                 recycler_batch=64, backend_kwargs=None,
                 size_classes=False, min_size_class=64):
        from repro.prism.allocator import SizeClassAllocator, size_class_for
        self.sim = sim
        self.n_keys = n_keys
        self.hash_fn = hash_fn
        layout_probe = KvLayout(0, n_keys * slots_per_key,
                                max_value_bytes=max_value_bytes)
        buffer_bytes = layout_probe.buffer_bytes
        if size_classes:
            # Worst case: everything in the biggest class, plus the
            # smaller classes' pools.
            pool_estimate = 3 * (n_keys + spare_buffers) * buffer_bytes
        else:
            pool_estimate = (n_keys + spare_buffers) * buffer_bytes
        memory_bytes = layout_probe.table_bytes + pool_estimate + (1 << 20)
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 backend_kwargs=backend_kwargs)
        table_base, self.table_rkey = self.prism.add_region(
            layout_probe.table_bytes)
        self.layout = KvLayout(table_base, n_keys * slots_per_key,
                               max_value_bytes=max_value_bytes)
        if size_classes:
            max_class = size_class_for(buffer_bytes, min_size_class)
            self.allocator = SizeClassAllocator.install(
                self.prism, min_class=min_size_class, max_class=max_class,
                buffers_per_class=n_keys + spare_buffers)
            self.freelist_id = self.allocator.freelist_for(buffer_bytes)
            self.buffer_rkey = self.allocator.rkey_for(buffer_bytes)
        else:
            self.allocator = None
            self.freelist_id, self.buffer_rkey = self.prism.create_freelist(
                buffer_bytes, n_keys + spare_buffers, name="kv-buffers")
        self.rpc = RpcServer(sim, fabric, host_name, config=rpc_config)
        self.recycler = RecyclerDaemon(sim, self.prism, self.rpc,
                                       batch_size=recycler_batch)

    def freelist_for_entry(self, entry_bytes):
        """(freelist_id, rkey) for an entry of ``entry_bytes``."""
        if self.allocator is None:
            return self.freelist_id, self.buffer_rkey
        return (self.allocator.freelist_for(entry_bytes),
                self.allocator.rkey_for(entry_bytes))

    @property
    def host_name(self):
        return self.prism.host_name

    def slot_index(self, key_bytes):
        if self.hash_fn == "identity":
            return int.from_bytes(key_bytes, "little") % self.layout.n_slots
        return fnv1a_64(key_bytes) % self.layout.n_slots

    # -- bulk load (server CPU, setup time; no simulated traffic) ---------

    def candidates(self, key_bytes):
        """The probe sequence for ``key_bytes`` under this table's hash."""
        return candidate_slots(key_bytes, self.layout.n_slots, self.hash_fn)

    def load(self, key, value, client_id=0):
        """Install ``key -> value`` directly, as the paper's loader does:
        the one-item :meth:`load_many`."""
        self.load_many(((key, value),), client_id)

    def load_many(self, items, client_id=0):
        """Install ``(key, value)`` pairs in order (setup time).

        Each key probes its :meth:`candidates` for its own entry or an
        empty slot; the entry goes in a freshly popped buffer when the
        slot is empty or the entry changes size class (the old buffer
        going back to its class's list), else over the old one, and the
        slot then takes ``(version, ptr, length)``.
        Tables and buffers are host memory, written in place. With
        fixed-size buffers an entry longer than one raises
        ``ValueError`` before its item takes or writes a buffer.
        """
        host = self.prism.space.host
        view, size = host.view, host.size
        layout = self.layout
        table, probe_len = layout.table_base, layout.probe_read_len()
        allocator = self.allocator
        freelists = self.prism.freelists
        freelist = freelists[self.freelist_id]
        unpack_slot, pack_slot = (KvLayout.unpack_slot_from,
                                  KvLayout.pack_slot_into)
        unpack_header, pack_header = (KvLayout.unpack_header_from,
                                      KvLayout.pack_header_into)
        first_ver = bump_tag(0, client_id)
        buffer_bytes = layout.buffer_bytes
        for key, value in items:
            key_bytes = (key.to_bytes(8, "little") if isinstance(key, int)
                         else bytes(key))
            for slot_index in self.candidates(key_bytes):
                slot_addr = table + slot_index * SLOT_SIZE
                if slot_addr < POINTER_SIZE or slot_addr + SLOT_SIZE > size:
                    host.check(slot_addr, SLOT_SIZE)
                ver, ptr, bound = unpack_slot(view, slot_addr)
                if ptr == 0:
                    break
                stored_end = ptr + probe_len
                if ptr < POINTER_SIZE or stored_end > size:
                    host.check(ptr, probe_len)
                klen = unpack_header(view, ptr)[1]
                key_at = ptr + HEADER_SIZE
                if view[key_at:min(key_at + klen, stored_end)] == key_bytes:
                    break
            else:
                raise RuntimeError("hash table full")
            new_ver = first_ver if ver == 0 else bump_tag(ver, client_id)
            klen, vlen = len(key_bytes), len(value)
            length = HEADER_SIZE + klen + vlen
            if allocator is None:
                if length > buffer_bytes:  # would spill into the next buffer
                    raise ValueError(
                        f"key {key!r}: a {length}-byte entry exceeds the "
                        f"{buffer_bytes}-byte buffer")
                if ptr == 0:
                    ptr = freelist.pop()
            elif ptr == 0 or (allocator.class_for(length)
                              != allocator.class_for(bound)):
                replaced = ptr
                ptr = freelists[allocator.freelist_for(length)].pop()
                if replaced:
                    freelists[allocator.freelist_for(bound)].post(replaced)
            end = ptr + length
            if ptr < POINTER_SIZE or end > size:
                host.check(ptr, length)
            pack_header(view, ptr, new_ver, klen, vlen, 0)
            value_at = ptr + HEADER_SIZE + klen
            view[ptr + HEADER_SIZE:value_at] = key_bytes
            view[value_at:end] = value
            pack_slot(view, slot_addr, new_ver, ptr, length)


class PrismKvClient:
    """Client side: GET/PUT via one-sided PRISM operations only."""

    def __init__(self, sim, fabric, client_name, server, max_probes=None,
                 recycle_batch=16):
        self.sim = sim
        self.server = server
        self.layout = server.layout
        #: a GET reads the whole entry: header + key + the largest value
        self._get_read_len = server.layout.buffer_bytes
        self.client = PrismClient(sim, fabric, client_name, server.prism)
        self.client_id = self.client.connection.id
        if max_probes is None:
            max_probes = {"identity": 1, "two-choice": 2}.get(
                server.hash_fn, 64)
        self.max_probes = max_probes
        rpc_client = RpcClient(sim, fabric, client_name,
                               channel=self.client.channel)
        self.recycler = RecyclerClient(rpc_client, server.host_name,
                                       batch_size=recycle_batch)
        self.gets = 0
        self.puts = 0
        self.put_superseded = 0

    # -- operations ---------------------------------------------------------

    def get(self, key, span=NULL_SPAN):
        """Process helper: returns the value bytes, or None if absent."""
        note_key(self.sim, "prism-kv", "get", key)
        entry = yield from self._probe(key, self._get_read_len, span=span)
        self.gets += 1
        if entry is None:
            return None
        _ver, _key, value = KvLayout.unpack_entry(entry[1])
        return value

    def put(self, key, value, span=NULL_SPAN):
        """Process helper: installs ``key -> value``; returns an info dict."""
        note_key(self.sim, "prism-kv", "put", key)
        key_bytes = KvLayout.encode_key(key)
        probe = yield from self._probe(key, self.layout.probe_read_len(),
                                       stop_at_empty=True, span=span)
        if probe is None:
            raise RuntimeError("hash table full (no empty slot found)")
        slot_addr, entry = probe
        old_ver = KvLayout.entry_ver(entry) if entry is not None else 0
        new_ver = bump_tag(old_ver, self.client_id)
        payload = KvLayout.pack_entry(new_ver, key_bytes, value)
        freelist_id, buffer_rkey = self.server.freelist_for_entry(
            len(payload))
        result = yield from self.client.execute(
            *self.client.install(new_ver, freelist_id, payload, buffer_rkey,
                                 slot_addr, self.server.table_rkey,
                                 bound=len(payload)),
            span=span)
        result.raise_on_nak()
        self.puts += 1
        cas = result[3]
        displaced = self.client.displaced(cas)
        if cas.status is OpStatus.OK:
            if displaced:
                self._retire(displaced, KvLayout.unpack_slot(cas.value)[2],
                             span)
            return {"superseded": False}
        # CAS miss: a concurrent client installed a newer version; our
        # freshly allocated buffer is the one to retire.
        self.put_superseded += 1
        self._retire(displaced, len(payload), span)
        return {"superseded": True}

    def execute(self, op, span=NULL_SPAN):
        """Driver adapter for :class:`~repro.workload.ycsb.KvOp`."""
        if op.kind == "get":
            yield from self.get(op.key, span=span)
        else:
            yield from self.put(op.key, op.value, span=span)
        return None

    # -- internals ---------------------------------------------------------

    def _probe(self, key, read_len, stop_at_empty=False, span=NULL_SPAN):
        """Probe for ``key``.

        For plain lookups returns ``(slot_addr, entry_bytes)`` or None
        when absent. With ``stop_at_empty`` (PUT path) an empty slot is
        claimable: returns ``(slot_addr, None)``.
        """
        key_bytes = KvLayout.encode_key(key)
        for probe_count, slot_index in enumerate(
                self.server.candidates(key_bytes)):
            if probe_count >= self.max_probes:
                break
            slot_addr = self.layout.slot_addr(slot_index)
            result = yield from self.client.execute(
                ReadOp(addr=slot_addr + 8, length=read_len,
                       rkey=self.server.table_rkey,
                       indirect=True, bounded=True),
                span=span)
            outcome = result[0]
            if outcome.status is OpStatus.NAK:
                if isinstance(outcome.error, AccessViolation):
                    # NULL pointer dereference: the slot is empty.
                    return (slot_addr, None) if stop_at_empty else None
                raise outcome.error
            entry = outcome.value
            # The entry's key, in place: its u16 length at +8, its
            # bytes from +16.
            if entry[16:16 + (entry[8] | entry[9] << 8)] == key_bytes:
                return slot_addr, entry
        return None

    def _retire(self, buffer_addr, entry_bytes, span):
        """Return a buffer to the free list it was allocated from (with
        size classes, the entry length names the class); a report it
        launches belongs to ``span``'s operation."""
        freelist_id, _rkey = self.server.freelist_for_entry(entry_bytes)
        flush = self.recycler.retire(freelist_id, buffer_addr, span)
        if flush is not None:
            # Asynchronous notification (§6.1) — off the latency path.
            self.sim.launch(flush, name="kv-retire")
