"""A remote B-tree: server-resident index, client-driven traversal.

Layout (all little-endian):

inner node (fixed fanout F)::

    +0   is_leaf u8 (=0) | pad 7
    +8   nkeys  u64
    +16  keys   F x u64
    ...  children (F+1) x u64 pointers

leaf node::

    +0   is_leaf u8 (=1) | pad 7
    +8   nkeys  u64
    +16  keys   F x u64
    ...  slots  F x ⟨ver u64, ptr u64, bound u64⟩   (PRISM-KV slots)

Values live out-of-line in free-list buffers ``[ver u64 | value]``, so
leaf *slot addresses are stable across updates* — only the pointer
inside the slot changes, via the chained out-of-place install. That is
what makes client-side caching of the index (inner nodes *and* leaf
key arrays) sound: a cached lookup needs no revalidation, just one
bounded indirect READ of the slot.

Client access modes (``BTreeClient.get(key, ...)``):

* ``rdma``        — cold Cell-style walk: one READ per level, then
                    pointer READ + value READ (h + 2 round trips);
* ``rdma-cache``  — inner nodes + leaf keys cached: slot READ + value
                    READ (2 round trips, Pilaf-shaped);
* ``prism-cache`` — cached index + one bounded indirect READ (1 round
                    trip).
"""

import bisect

from repro.apps.common import bump_tag
from repro.core.errors import AccessViolation
from repro.core.ops import ReadOp
from repro.hw.layout import pack_uint, unpack_uint
from repro.prism.client import PrismClient
from repro.prism.engine import OpStatus
from repro.prism.server import PrismServer

SLOT_SIZE = 24
NODE_HEADER = 16


class _Node:
    """Server-side build helper (becomes bytes at freeze time)."""

    def __init__(self, is_leaf):
        self.is_leaf = is_leaf
        self.keys = []
        self.children = []   # node refs (inner) — resolved to addresses
        self.slots = []      # (ver, ptr, bound) per key (leaf)
        self.addr = None

    @property
    def min_key(self):
        """Smallest key in this subtree (separators must use this, not
        ``keys[0]`` — an inner node's first key is already a separator,
        i.e. the minimum of its *second* child's subtree)."""
        node = self
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]


class BTreeServer:
    """Builds and hosts the remote B-tree."""

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 fanout=8, max_value_bytes=256, capacity=8192,
                 backend_kwargs=None):
        self.sim = sim
        self.fanout = fanout
        self.max_value_bytes = max_value_bytes
        value_buffer = 8 + max_value_bytes
        memory_bytes = (capacity * (self.node_bytes + value_buffer)
                        + (4 << 20))
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 backend_kwargs=backend_kwargs)
        self.nodes_base, self.nodes_rkey = self.prism.add_region(
            capacity * self.node_bytes)
        self.freelist_id, self.values_rkey = self.prism.create_freelist(
            value_buffer, capacity, name="btree-values")
        self._next_node = 0
        self.root_addr = None
        self.height = 0

    @property
    def host_name(self):
        return self.prism.host_name

    @property
    def node_bytes(self):
        # header + keys + max(children, slots)
        return (NODE_HEADER + 8 * self.fanout
                + max(8 * (self.fanout + 1), SLOT_SIZE * self.fanout))

    # -- bulk build (setup time) ------------------------------------------

    def build(self, items):
        """Bulk-load ``items`` (sorted (key, value) pairs) bottom-up."""
        items = sorted(items)
        if not items:
            raise ValueError("cannot build an empty tree")
        leaves = []
        per_leaf = max(2, self.fanout - 1)
        for start in range(0, len(items), per_leaf):
            leaf = _Node(is_leaf=True)
            for key, value in items[start:start + per_leaf]:
                ver = bump_tag(0, 0)
                buffer = self.prism.freelist(self.freelist_id).pop()
                payload = pack_uint(ver, 8) + value
                self.prism.space.write(buffer, payload)
                leaf.keys.append(key)
                leaf.slots.append((ver, buffer, len(payload)))
            leaves.append(leaf)
        level = leaves
        self.height = 1
        while len(level) > 1:
            parents = []
            per_inner = max(2, self.fanout)
            for start in range(0, len(level), per_inner):
                group = level[start:start + per_inner]
                inner = _Node(is_leaf=False)
                inner.children = group
                inner.keys = [child.min_key for child in group[1:]]
                parents.append(inner)
            level = parents
            self.height += 1
        self._freeze(level[0])
        self.root_addr = level[0].addr
        return self.root_addr

    def _freeze(self, node):
        for child in node.children:
            self._freeze(child)
        node.addr = self.nodes_base + self._next_node * self.node_bytes
        self._next_node += 1
        self.prism.space.write(node.addr, self._encode(node))

    def _encode(self, node):
        blob = bytearray(self.node_bytes)
        blob[0] = 1 if node.is_leaf else 0
        blob[8:16] = pack_uint(len(node.keys), 8)
        for index, key in enumerate(node.keys):
            offset = NODE_HEADER + 8 * index
            blob[offset:offset + 8] = pack_uint(key, 8)
        body = NODE_HEADER + 8 * self.fanout
        if node.is_leaf:
            for index, (ver, ptr, bound) in enumerate(node.slots):
                offset = body + SLOT_SIZE * index
                blob[offset:offset + SLOT_SIZE] = (
                    pack_uint(ver, 8) + pack_uint(ptr, 8)
                    + pack_uint(bound, 8))
        else:
            for index, child in enumerate(node.children):
                offset = body + 8 * index
                blob[offset:offset + 8] = pack_uint(child.addr, 8)
        return bytes(blob)

    # -- decoding helpers shared with the client ----------------------------

    def decode_node(self, blob):
        is_leaf = blob[0] == 1
        nkeys = unpack_uint(blob, 8, 8)
        keys = [unpack_uint(blob, NODE_HEADER + 8 * i, 8)
                for i in range(nkeys)]
        body = NODE_HEADER + 8 * self.fanout
        if is_leaf:
            slots = [body + SLOT_SIZE * i for i in range(nkeys)]
            return is_leaf, keys, slots
        children = [unpack_uint(blob, body + 8 * i, 8)
                    for i in range(nkeys + 1)]
        return is_leaf, keys, children


class BTreeClient:
    """Client traversal in three access modes."""

    MODES = ("rdma", "rdma-cache", "prism-cache")

    def __init__(self, sim, fabric, client_name, server):
        self.sim = sim
        self.server = server
        self.client = PrismClient(sim, fabric, client_name, server.prism)
        self._node_cache = {}  # addr -> decoded node + raw
        self.gets = 0

    def round_trips(self):
        return self.client.round_trips

    # -- traversal ---------------------------------------------------------

    def _fetch_node(self, addr, use_cache):
        if use_cache and addr in self._node_cache:
            return self._node_cache[addr]
        blob = yield from self.client.read(addr, self.server.node_bytes,
                                           rkey=self.server.nodes_rkey)
        decoded = self.server.decode_node(blob)
        if use_cache:
            self._node_cache[addr] = decoded
        return decoded

    def _find_leaf(self, key, use_cache):
        """Walk to the leaf; returns (leaf_addr, keys, slot_offsets)."""
        addr = self.server.root_addr
        while True:
            is_leaf, keys, rest = yield from self._fetch_node(addr,
                                                              use_cache)
            if is_leaf:
                return addr, keys, rest
            child_index = bisect.bisect_right(keys, key)
            addr = rest[child_index]

    def get(self, key, mode="prism-cache"):
        """Process helper: returns the value bytes, or None."""
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        use_cache = mode != "rdma"
        leaf_addr, keys, slot_offsets = yield from self._find_leaf(
            key, use_cache)
        self.gets += 1
        try:
            slot_index = keys.index(key)
        except ValueError:
            return None
        slot_addr = leaf_addr + slot_offsets[slot_index]
        if mode == "prism-cache":
            # One bounded indirect READ of the slot's ⟨ptr, bound⟩.
            result = yield from self.client.execute(ReadOp(
                addr=slot_addr + 8, length=8 + self.server.max_value_bytes,
                rkey=self.server.nodes_rkey, indirect=True, bounded=True))
            outcome = result[0]
            if outcome.status is OpStatus.NAK:
                if isinstance(outcome.error, AccessViolation):
                    return None
                raise outcome.error
            return bytes(outcome.value[8:])
        # Pilaf-shaped: read the pointer cell, then the value.
        slot = yield from self.client.read(slot_addr, SLOT_SIZE,
                                           rkey=self.server.nodes_rkey)
        _ver, ptr, bound = (unpack_uint(slot, 0, 8),
                            unpack_uint(slot, 8, 8),
                            unpack_uint(slot, 16, 8))
        if ptr == 0:
            return None
        value = yield from self.client.read(ptr, bound,
                                            rkey=self.server.values_rkey)
        return bytes(value[8:])

    # -- updates (PRISM out-of-place; keeps cached slot addresses valid) ---

    def update(self, key, value, use_cache=True):
        """Process helper: install a new value for an existing key.

        Returns True on install, False if superseded by a newer
        concurrent update (last-writer-wins by version, as PRISM-KV).
        """
        leaf_addr, keys, slot_offsets = yield from self._find_leaf(
            key, use_cache)
        try:
            slot_index = keys.index(key)
        except ValueError:
            raise KeyError(key)
        slot_addr = leaf_addr + slot_offsets[slot_index]
        slot = yield from self.client.read(slot_addr, SLOT_SIZE,
                                           rkey=self.server.nodes_rkey)
        old_ver = unpack_uint(slot, 0, 8)
        new_ver = bump_tag(old_ver, self.client.connection.id & 0xFFFF)
        payload = pack_uint(new_ver, 8) + value
        result = yield from self.client.execute(*self.client.install(
            new_ver, self.server.freelist_id, payload, self.server.values_rkey,
            slot_addr, self.server.nodes_rkey, bound=len(payload)))
        result.raise_on_nak()
        return result[3].status is OpStatus.OK
