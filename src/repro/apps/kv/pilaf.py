"""Pilaf baseline (Mitchell et al., ATC '13), as described in §2.1/§6.

GETs are one-sided: READ the hash-table slot (pointer + CRC), then
READ the extent it points to (entry + CRC), verifying both checksums
client-side — two round trips plus ~2 µs of CRC work. PUTs are
two-sided RPCs executed by the server CPU.

Runs over either the hardware RDMA NIC backend or the software RDMA
stack, giving the paper's "Pilaf" and "Pilaf (software RDMA)" curves.

Layout. Hash table slot (16 B): ``ptr u64 | crc u64`` (crc over the
pointer bytes). Extent (fixed stride): ``klen u16 | vlen u32 | pad u16
| key[max] | value[max] | crc u64`` with the CRC over the preceding
fixed span, so a GET's second READ is one fixed-size transfer.
"""

from repro.apps.common import note_key
from repro.apps.kv.crc import checksum, crc_time_us, verify
from repro.hw.layout import U16, U32, U64, Codec, unpack_uint
from repro.hw.memory import POINTER_SIZE
from repro.obs.trace import NULL_SPAN
from repro.prism.client import PrismClient
from repro.prism.server import PrismServer
from repro.rpc.erpc import RpcClient, RpcServer

SLOT_SIZE = 16

_EXTENT_HEADER = Codec(U16, U32, U16)  # klen, vlen, pad
_HEADER_SIZE = 8
_CRC_SIZE = 8
_PTR = Codec(U64)


class PilafLayout:
    """Addresses and codecs for Pilaf's table and extents."""

    def __init__(self, table_base, extents_base, n_slots, max_key_bytes=8,
                 max_value_bytes=512):
        self.table_base = table_base
        self.extents_base = extents_base
        self.n_slots = n_slots
        self.max_key_bytes = max_key_bytes
        self.max_value_bytes = max_value_bytes
        self.entry_stride = 8 + max_key_bytes + max_value_bytes + 8

    @property
    def entry_data_bytes(self):
        """The CRC-covered prefix of an extent."""
        return self.entry_stride - 8

    @property
    def table_bytes(self):
        return self.n_slots * SLOT_SIZE

    def slot_addr(self, slot_index):
        return self.table_base + slot_index * SLOT_SIZE

    def full(self, key):
        """The ``ValueError`` for a new key whose linear probe finds no
        empty slot."""
        return ValueError(
            f"key {key!r}: pilaf hash table full ({self.n_slots} slots)")

    def oversize(self, key, value):
        """The ``ValueError`` for a key or value longer than its field:
        written into an extent it would spill into the next one. Callers
        compare inline, so an item that fits costs no frame."""
        return ValueError(
            f"key {key!r}: a {len(key)}-byte key or {len(value)}-byte "
            f"value exceeds the {self.max_key_bytes}- or "
            f"{self.max_value_bytes}-byte field")

    @staticmethod
    def unpack_entry(data):
        klen = unpack_uint(data, 0, 2)
        vlen = unpack_uint(data, 2, 4)
        key = bytes(data[8:8 + klen])
        value = bytes(data[8 + klen:8 + klen + vlen])
        return key, value


class PilafServer:
    """Server side: registered table + extents, RPC PUT handler."""

    PUT_METHOD = "pilaf.put"
    #: server-CPU handler cost for a PUT (µs): hash, copy, CRC update
    PUT_SERVICE_US = 1.60

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 n_keys=100_000, max_value_bytes=512, slots_per_key=1,
                 hash_fn="identity", rpc_config=None, backend_kwargs=None):
        self.sim = sim
        self.n_keys = n_keys
        self.hash_fn = hash_fn
        probe = PilafLayout(0, 0, n_keys * slots_per_key,
                            max_value_bytes=max_value_bytes)
        memory_bytes = (probe.table_bytes
                        + (n_keys + 1024) * probe.entry_stride + (1 << 20))
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 service="rdma",
                                 backend_kwargs=backend_kwargs)
        table_base, self.table_rkey = self.prism.add_region(probe.table_bytes)
        extents_base, self.extents_rkey = self.prism.add_region(
            (n_keys + 1024) * probe.entry_stride)
        self.layout = PilafLayout(table_base, extents_base,
                                  n_keys * slots_per_key,
                                  max_value_bytes=max_value_bytes)
        self._next_extent = 0
        self._key_to_extent = {}
        self.rpc = RpcServer(sim, fabric, host_name, config=rpc_config)
        self.rpc.register(self.PUT_METHOD, self._handle_put,
                          service_us=self.PUT_SERVICE_US)

    @property
    def host_name(self):
        return self.prism.host_name

    def slot_index(self, key_bytes):
        if self.hash_fn == "identity":
            return int.from_bytes(key_bytes, "little") % self.layout.n_slots
        from repro.apps.kv.prism_kv import fnv1a_64
        return fnv1a_64(key_bytes) % self.layout.n_slots

    # -- server-CPU state manipulation (functional) -----------------------

    def load_many(self, items):
        """Store ``(key, value)`` pairs in order, written in place: the
        PUT handler's body and the setup-time bulk load.

        Each pair rewrites its key's extent (a fresh one for a new key):
        header, key, value, zeros to the CRC-covered span's end, and the
        CRC. A new key's pointer then goes, with the pointer's CRC, into
        the first empty slot of its linear probe from ``slot_index``,
        found before anything is written. A key or value longer than its
        field, or a new key with no empty slot, raises ``ValueError``
        before its item takes an extent, maps its key or writes a byte.
        """
        host = self.prism.space.host
        view, size = host.view, host.size
        layout = self.layout
        table, n_slots = layout.table_base, layout.n_slots
        extents_base, stride = layout.extents_base, layout.entry_stride
        data_bytes = layout.entry_data_bytes
        max_key, max_value = layout.max_key_bytes, layout.max_value_bytes
        key_to_extent = self._key_to_extent
        for key, value in items:
            if isinstance(key, int):
                key = key.to_bytes(8, "little")
            else:
                key = bytes(key)
            if len(key) > max_key or len(value) > max_value:
                raise layout.oversize(key, value)
            extent_index = key_to_extent.get(key)
            slot = None
            if extent_index is None:
                start = self.slot_index(key)
                for offset in range(n_slots):
                    slot = table + (start + offset) % n_slots * SLOT_SIZE
                    if slot < POINTER_SIZE or slot + SLOT_SIZE > size:
                        host.check(slot, SLOT_SIZE)
                    if not int.from_bytes(view[slot:slot + POINTER_SIZE],
                                          "little"):
                        break
                else:
                    raise layout.full(key)
                extent_index = self._next_extent
                self._next_extent += 1
                key_to_extent[key] = extent_index
            extent = extents_base + extent_index * stride
            key_at = extent + _HEADER_SIZE
            value_at = key_at + len(key)
            value_end = value_at + len(value)
            crc_at = max(value_end, extent + data_bytes)
            if extent < POINTER_SIZE or crc_at + _CRC_SIZE > size:
                host.check(extent, crc_at + _CRC_SIZE - extent)
            _EXTENT_HEADER.pack_into(view, extent, len(key), len(value), 0)
            view[key_at:value_at] = key
            view[value_at:value_end] = value
            view[value_end:crc_at] = bytes(crc_at - value_end)
            _PTR.pack_into(view, crc_at, checksum(view[extent:crc_at]))
            if slot is not None:
                _PTR.pack_into(view, slot, extent)
                _PTR.pack_into(view, slot + POINTER_SIZE,
                               checksum(view[slot:slot + POINTER_SIZE]))

    def _handle_put(self, args):
        """Store the pair, or refuse one that does not fit its fields or
        the table (nothing is written): the reply is True or the
        refusal's text."""
        key_bytes, value = args
        try:
            self.load_many(((key_bytes, value),))
        except ValueError as refusal:
            return str(refusal), 8
        return True, 8

    def load(self, key, value):
        """Bulk load at setup time (no simulated traffic): the one-item
        :meth:`load_many`."""
        self.load_many(((key, value),))


class PilafClient:
    """Client side: 2-READ GETs with CRC checks, RPC PUTs."""

    def __init__(self, sim, fabric, client_name, server, max_probes=None):
        self.sim = sim
        self.server = server
        self.layout = server.layout
        self.client = PrismClient(sim, fabric, client_name, server.prism)
        self.rpc = RpcClient(sim, fabric, client_name)
        self.max_probes = max_probes or (
            1 if server.hash_fn == "identity" else 64)
        self.gets = 0
        self.puts = 0
        self.crc_failures = 0

    def get(self, key, span=NULL_SPAN):
        """Process helper: two one-sided READs plus CRC verification."""
        note_key(self.sim, "pilaf", "get", key)
        if isinstance(key, int):
            key = key.to_bytes(8, "little")
        key = bytes(key)
        start = self.server.slot_index(key)
        for offset in range(self.max_probes):
            slot_addr = self.layout.slot_addr(
                (start + offset) % self.layout.n_slots)
            slot = yield from self.client.read(slot_addr, SLOT_SIZE,
                                               rkey=self.server.table_rkey,
                                               span=span)
            with span.child("crc.slot", phase="cpu"):
                yield self.sim.timeout(crc_time_us(SLOT_SIZE))
            if not verify(slot[:8], slot[8:]):
                self.crc_failures += 1
                continue  # racing update: retry this probe
            ptr = unpack_uint(slot, 0, 8)
            if ptr == 0:
                self.gets += 1
                return None
            entry = yield from self.client.read(
                ptr, self.layout.entry_stride, rkey=self.server.extents_rkey,
                span=span)
            with span.child("crc.entry", phase="cpu"):
                yield self.sim.timeout(crc_time_us(self.layout.entry_stride))
            data = entry[:self.layout.entry_data_bytes]
            if not verify(data, entry[self.layout.entry_data_bytes:]):
                self.crc_failures += 1
                continue
            stored_key, value = PilafLayout.unpack_entry(data)
            if stored_key == key:
                self.gets += 1
                return value
        self.gets += 1
        return None

    def put(self, key, value, span=NULL_SPAN):
        """Process helper: a single two-sided RPC. A pair the server
        refuses (longer than its extent's fields) raises ``ValueError``."""
        note_key(self.sim, "pilaf", "put", key)
        if isinstance(key, int):
            key = key.to_bytes(8, "little")
        stored = yield from self.rpc.call(
            self.server.host_name, PilafServer.PUT_METHOD,
            (bytes(key), bytes(value)),
            request_payload_bytes=8 + len(key) + len(value), span=span)
        if stored is not True:
            raise ValueError(stored)
        self.puts += 1

    def execute(self, op, span=NULL_SPAN):
        """Driver adapter for :class:`~repro.workload.ycsb.KvOp`."""
        if op.kind == "get":
            yield from self.get(op.key, span=span)
        else:
            yield from self.put(op.key, op.value, span=span)
        return None
