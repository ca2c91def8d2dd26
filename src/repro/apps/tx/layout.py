"""Memory layouts for the transactional stores.

PRISM-TX per-key metadata (paper Fig. 8), 32 bytes::

    +0   PR   u64   highest prepared-reader timestamp
    +8   PW   u64   highest prepared-writer timestamp
    +16  C    u64   timestamp of the most recent committed write
    +24  addr u64   pointer to the committed buffer

Two 16-byte CAS-able pairs fall out of this ordering:

* ``[PR | PW]`` at +0 — read validation compares the concatenation
  RC|TS against PW|PR with one CAS_GT (PW in the high half), and write
  validation CASes the PW half;
* ``[C | addr]`` at +16 — commit installs with CAS_GT on C, exactly
  like PRISM-RS's ⟨tag, addr⟩ install.

Committed buffer::  +0 C u64 | +8 key u64 | +16 value

FaRM object (inline, fixed stride)::

    +0  lockver u64  (bit 63 = lock, low 63 bits = version)
    +8  value

with a Pilaf-style pointer table in front, so an execution-phase read
costs two READs (§8.1).
"""

from repro.apps.common import field_mask
from repro.hw.layout import U64, Codec, unpack_uint

META_SIZE = 32
PR_OFF = 0
PW_OFF = 8
C_OFF = 16
ADDR_OFF = 24

#: mask selecting PR (low half) of the packed [PR | PW] pair
PRPW_PR_MASK = field_mask(0, 8)
#: mask selecting PW (high half) of the packed [PR | PW] pair
PRPW_PW_MASK = field_mask(8, 8)
#: mask selecting C (low half) of the packed [C | addr] pair
CADDR_C_MASK = field_mask(0, 8)

BUFFER_HEADER = 16  # C + key

_PAIR = Codec(U64, U64)
_WORD = Codec(U64)
_META = Codec(U64, U64, U64, U64)  # PR, PW, C, addr


class TxLayout:
    """Addresses and codecs for a PRISM-TX partition."""

    def __init__(self, meta_base, n_keys, value_size=512):
        self.meta_base = meta_base
        self.n_keys = n_keys
        self.value_size = value_size

    @property
    def meta_bytes(self):
        return self.n_keys * META_SIZE

    @property
    def buffer_bytes(self):
        return BUFFER_HEADER + self.value_size

    def meta_addr(self, key):
        return self.meta_base + key * META_SIZE

    def prpw_addr(self, key):
        return self.meta_addr(key) + PR_OFF

    def caddr_addr(self, key):
        return self.meta_addr(key) + C_OFF

    def addr_field(self, key):
        return self.meta_addr(key) + ADDR_OFF

    #: ``pack_prpw(pr, pw)`` / ``unpack_prpw(data)``
    pack_prpw = staticmethod(_PAIR.pack)
    unpack_prpw = staticmethod(_PAIR.unpack)
    #: ``pack_caddr(c, addr)``
    pack_caddr = staticmethod(_PAIR.pack)
    #: ``pack_meta_into(memory, offset, pr, pw, c, addr)`` /
    #: ``unpack_meta_from(memory, offset)`` and a buffer's
    #: ``pack_buffer_header_into(memory, offset, c, key)``, in place
    pack_meta_into = staticmethod(_META.pack_into)
    unpack_meta_from = staticmethod(_META.unpack_from)
    pack_buffer_header_into = staticmethod(_PAIR.pack_into)

    @staticmethod
    def pack_buffer(c, key, value):
        return _PAIR.pack(c, key) + value

    @staticmethod
    def unpack_buffer(data):
        return (unpack_uint(data, 0, 8), unpack_uint(data, 8, 8),
                bytes(data[16:]))


LOCK_BIT = 1 << 63


class FarmLayout:
    """Addresses and codecs for a FaRM partition."""

    def __init__(self, table_base, objects_base, n_keys, value_size=512):
        self.table_base = table_base
        self.objects_base = objects_base
        self.n_keys = n_keys
        self.value_size = value_size
        self.object_stride = 8 + value_size

    @property
    def table_bytes(self):
        return self.n_keys * 8

    @property
    def objects_bytes(self):
        return self.n_keys * self.object_stride

    def slot_addr(self, key):
        return self.table_base + key * 8

    def object_addr(self, key):
        return self.objects_base + key * self.object_stride

    def oversize(self, key, value):
        """The ``ValueError`` for a value longer than ``value_size``:
        written after an object's version word it would overwrite the
        next object's. Callers compare inline, so a value that fits
        costs no frame."""
        return ValueError(f"key {key}: {len(value)} B exceeds the "
                          f"{self.value_size}-byte value")

    #: ``pack_word_into(memory, offset, word)``: a table pointer or an
    #: unlocked object's version word, in place
    pack_word_into = staticmethod(_WORD.pack_into)

    @staticmethod
    def pack_lockver(version, locked=False):
        return _WORD.pack(version | LOCK_BIT if locked else version)

    @staticmethod
    def unpack_lockver(data):
        word = unpack_uint(data, 0, 8)
        return word & ~LOCK_BIT, bool(word & LOCK_BIT)
