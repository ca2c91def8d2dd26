"""Memory layout for PRISM-KV (§6.1).

Hash table slot (24 bytes, CAS-able as one ≤32 B operand)::

    +0   ver    u64   version tag ⟨counter, client_id⟩; 0 = empty
    +8   ptr    u64   address of the value buffer; 0 = empty
    +16  bound  u64   bytes valid in the buffer (for bounded reads)

The ``(ptr, bound)`` pair at offset 8 is exactly the ⟨ptr, bound⟩
struct bounded indirect READs dereference, so a GET is a single
bounded indirect READ of ``slot + 8``.

Value buffer::

    +0   ver   u64    duplicated version (same trick as PRISM-RS §7.3:
                      the copy makes one indirect READ return a
                      consistent ⟨version, key, value⟩ snapshot)
    +8   klen  u16
    +10  vlen  u32
    +14  pad   u16
    +16  key   klen bytes
    ...  value vlen bytes

Note on the install CAS: the paper's prose compares the slot's *old
address*; a single enhanced CAS cannot compare against one value and
swap in a different value over the same bits, so — like PRISM-RS — we
version the slot and use CAS_GT on the version field, swapping the
whole 24-byte slot. Conflict detection is equivalent: the CAS fails
exactly when a concurrent client installed a newer version.
"""

from repro.apps.common import field_mask
from repro.hw.layout import U16, U32, U64, Codec, unpack_kv_entry, unpack_uint

SLOT_SIZE = 24
SLOT_VER_OFF = 0
SLOT_PTR_OFF = 8
SLOT_BOUND_OFF = 16

HEADER_SIZE = 16  # ver + klen + vlen + pad

#: CAS compare mask selecting the version field of a packed slot.
SLOT_VER_MASK = field_mask(SLOT_VER_OFF, 8)

_SLOT = Codec(U64, U64, U64)
_HEADER = Codec(U64, U16, U32, U16)  # ver, klen, vlen, pad


class KvLayout:
    """Addresses and codecs for a PRISM-KV table."""

    def __init__(self, table_base, n_slots, max_key_bytes=8,
                 max_value_bytes=512):
        self.table_base = table_base
        self.n_slots = n_slots
        self.max_key_bytes = max_key_bytes
        self.max_value_bytes = max_value_bytes

    @property
    def table_bytes(self):
        return self.n_slots * SLOT_SIZE

    @property
    def buffer_bytes(self):
        """Free-list buffer size covering the largest possible entry."""
        return HEADER_SIZE + self.max_key_bytes + self.max_value_bytes

    def slot_addr(self, slot_index):
        return self.table_base + slot_index * SLOT_SIZE

    def probe_read_len(self):
        """Bytes needed to check a slot's key: header + key."""
        return HEADER_SIZE + self.max_key_bytes

    # -- buffer codec ---------------------------------------------------------

    @staticmethod
    def pack_entry(ver, key, value):
        return _HEADER.pack(ver, len(key), len(value), 0) + key + value

    #: ``(ver, key, value)`` of a buffer, one codec call (the value is
    #: truncated if the read was shorter than the entry)
    unpack_entry = staticmethod(unpack_kv_entry)

    @staticmethod
    def entry_ver(data):
        return unpack_uint(data, 0, 8)

    #: ``(ver, ptr, bound)`` of a slot's bytes (a CAS's old value)
    unpack_slot = staticmethod(_SLOT.unpack)
    #: in place: ``pack_slot_into(memory, offset, ver, ptr, bound)`` /
    #: ``unpack_slot_from(memory, offset)``, and a buffer's header,
    #: ``pack_header_into(memory, offset, ver, klen, vlen, 0)`` /
    #: ``unpack_header_from(memory, offset)``
    pack_slot_into = staticmethod(_SLOT.pack_into)
    unpack_slot_from = staticmethod(_SLOT.unpack_from)
    pack_header_into = staticmethod(_HEADER.pack_into)
    unpack_header_from = staticmethod(_HEADER.unpack_from)

    @staticmethod
    def encode_key(key):
        """Keys are 8-byte strings; integers are encoded little-endian."""
        if isinstance(key, int):
            return key.to_bytes(8, "little")
        return bytes(key)
