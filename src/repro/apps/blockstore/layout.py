"""Memory layouts for the replicated block stores.

PRISM-RS replica layout (paper Fig. 5)::

    metadata[i] (16 B):   +0 tag_i u64    +8 addr_i u64
    buffer:               +0 tag   u64    +8 value (block_size bytes)

The tag is intentionally duplicated in the metadata array *and* the
buffer (§7.3): one indirect READ of ``metadata[i] + 8`` returns a
⟨tag, value⟩ pair that is consistent by construction (buffers are
written once, before their address is installed), and one 16-byte
CAS_GT on ``metadata[i]`` orders installs by tag.

ABDLOCK replica layout (§7.2, DrTM-style)::

    block[i] (16 + block_size bytes):
        +0 lock u64 (0 = free, else owner's client id)
        +8 tag  u64
        +16 value
"""

from repro.apps.common import field_mask
from repro.hw.layout import U64, Codec, unpack_uint

META_SIZE = 16
META_TAG_OFF = 0
META_ADDR_OFF = 8
BUFFER_HEADER = 8  # the buffer's tag

#: CAS compare mask selecting the tag field of a packed metadata entry.
META_TAG_MASK = field_mask(META_TAG_OFF, 8)

_META = Codec(U64, U64)
_TAG = Codec(U64)


class RsLayout:
    """Addresses and codecs for a PRISM-RS replica."""

    def __init__(self, meta_base, n_blocks, block_size=512):
        self.meta_base = meta_base
        self.n_blocks = n_blocks
        self.block_size = block_size

    @property
    def meta_bytes(self):
        return self.n_blocks * META_SIZE

    @property
    def buffer_bytes(self):
        return 8 + self.block_size

    def meta_addr(self, block_id):
        return self.meta_base + block_id * META_SIZE

    def addr_field(self, block_id):
        """Address of addr_i — the pointer an indirect READ dereferences."""
        return self.meta_addr(block_id) + META_ADDR_OFF

    #: ``pack_meta(tag, addr)`` / ``unpack_meta(data)``
    pack_meta = staticmethod(_META.pack)
    unpack_meta = staticmethod(_META.unpack)
    #: ``pack_meta_into(memory, offset, tag, addr)`` /
    #: ``unpack_meta_from(memory, offset)`` and a buffer's
    #: ``pack_tag_into(memory, offset, tag)``, in place
    pack_meta_into = staticmethod(_META.pack_into)
    unpack_meta_from = staticmethod(_META.unpack_from)
    pack_tag_into = staticmethod(_TAG.pack_into)

    @staticmethod
    def pack_buffer(tag, value):
        return _TAG.pack(tag) + value

    @staticmethod
    def unpack_buffer(data):
        return unpack_uint(data, 0, 8), bytes(data[8:])


LOCK_OFF = 0
TAG_OFF = 8
VALUE_OFF = 16


class AbdLockLayout:
    """Addresses and codecs for a lock-based ABD replica."""

    def __init__(self, blocks_base, n_blocks, block_size=512):
        self.blocks_base = blocks_base
        self.n_blocks = n_blocks
        self.block_size = block_size
        self.block_stride = VALUE_OFF + block_size

    @property
    def blocks_bytes(self):
        return self.n_blocks * self.block_stride

    def block_addr(self, block_id):
        return self.blocks_base + block_id * self.block_stride

    def lock_addr(self, block_id):
        return self.block_addr(block_id) + LOCK_OFF

    def tag_addr(self, block_id):
        return self.block_addr(block_id) + TAG_OFF

    def oversize(self, block_id, value):
        """The ``ValueError`` for a value longer than ``block_size``:
        written at the block's value offset it would overwrite the next
        block's lock and tag. Callers compare inline, so a value that
        fits costs no frame."""
        return ValueError(f"block {block_id}: {len(value)} B exceeds the "
                          f"{self.block_size}-byte block")

    #: ``pack_lock_tag_into(memory, offset, lock, tag)``: a block's
    #: lock and tag words, in place
    pack_lock_tag_into = staticmethod(_META.pack_into)

    @staticmethod
    def pack_tagged_value(tag, value):
        return _TAG.pack(tag) + value

    @staticmethod
    def unpack_tagged_value(data):
        return unpack_uint(data, 0, 8), bytes(data[8:])
