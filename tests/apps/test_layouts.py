"""Application memory-layout codecs (KV, RS, TX, Pilaf, FaRM)."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.blockstore.layout import (
    AbdLockLayout,
    META_SIZE,
    META_TAG_MASK,
    RsLayout,
)
from repro.apps.kv.crc import verify
from repro.apps.kv.layout import KvLayout, SLOT_SIZE, SLOT_VER_MASK
from repro.apps.kv.pilaf import SLOT_SIZE as SLOT_SIZE_PILAF
from repro.apps.kv.pilaf import PilafLayout, PilafServer
from repro.apps.tx.layout import (
    CADDR_C_MASK,
    FarmLayout,
    LOCK_BIT,
    PRPW_PR_MASK,
    PRPW_PW_MASK,
    TxLayout,
)
from repro.hw.layout import unpack_uint
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwareRdmaBackend
from repro.sim import Simulator


class TestKvLayout:
    def test_slot_addressing(self):
        layout = KvLayout(table_base=1000, n_slots=10)
        assert layout.slot_addr(0) == 1000
        assert layout.slot_addr(3) == 1000 + 3 * SLOT_SIZE

    @given(ver=st.integers(min_value=0, max_value=2**64 - 1),
           key=st.binary(min_size=1, max_size=8),
           value=st.binary(max_size=64))
    def test_entry_roundtrip(self, ver, key, value):
        blob = KvLayout.pack_entry(ver, key, value)
        assert KvLayout.unpack_entry(blob) == (ver, key, value)
        assert KvLayout.entry_ver(blob) == ver

    @given(ver=st.integers(min_value=0, max_value=2**64 - 1),
           ptr=st.integers(min_value=0, max_value=2**64 - 1),
           bound=st.integers(min_value=0, max_value=2**64 - 1))
    def test_slot_roundtrip(self, ver, ptr, bound):
        """In place, as the loader writes a slot: the bytes between its
        neighbours are the slot's, and both readers decode them."""
        memory = bytearray(3 * SLOT_SIZE)
        KvLayout.pack_slot_into(memory, SLOT_SIZE, ver, ptr, bound)
        assert memory[:SLOT_SIZE] == memory[2 * SLOT_SIZE:] == bytes(
            SLOT_SIZE)
        assert KvLayout.unpack_slot_from(memory, SLOT_SIZE) == (ver, ptr,
                                                                 bound)
        assert KvLayout.unpack_slot(
            bytes(memory[SLOT_SIZE:2 * SLOT_SIZE])) == (ver, ptr, bound)

    def test_ver_mask_selects_version_only(self):
        memory = bytearray(SLOT_SIZE)
        KvLayout.pack_slot_into(memory, 0, 7, 0xAAAA, 99)
        as_int = int.from_bytes(memory, "little")
        assert (as_int & SLOT_VER_MASK) == 7

    def test_buffer_size_covers_maximum(self):
        layout = KvLayout(0, 1, max_key_bytes=8, max_value_bytes=512)
        entry = KvLayout.pack_entry(1, b"k" * 8, b"v" * 512)
        assert len(entry) == layout.buffer_bytes

    def test_key_encoding(self):
        assert KvLayout.encode_key(5) == (5).to_bytes(8, "little")
        assert KvLayout.encode_key(b"abcdefgh") == b"abcdefgh"


class TestRsLayout:
    def test_addr_field_is_dereference_target(self):
        layout = RsLayout(meta_base=500, n_blocks=4)
        assert layout.addr_field(2) == 500 + 2 * META_SIZE + 8

    @given(tag=st.integers(min_value=0, max_value=2**64 - 1),
           addr=st.integers(min_value=0, max_value=2**64 - 1))
    def test_meta_roundtrip(self, tag, addr):
        assert RsLayout.unpack_meta(RsLayout.pack_meta(tag, addr)) == (tag,
                                                                       addr)

    @given(tag=st.integers(min_value=0, max_value=2**64 - 1),
           value=st.binary(max_size=64))
    def test_buffer_roundtrip(self, tag, value):
        assert RsLayout.unpack_buffer(
            RsLayout.pack_buffer(tag, value)) == (tag, value)

    def test_tag_mask_low_half(self):
        blob = RsLayout.pack_meta(42, 0xFFFF)
        assert (int.from_bytes(blob, "little") & META_TAG_MASK) == 42


class TestAbdLockLayout:
    def test_field_addresses(self):
        layout = AbdLockLayout(blocks_base=0x1000, n_blocks=8,
                               block_size=512)
        assert layout.lock_addr(1) == 0x1000 + layout.block_stride
        assert layout.tag_addr(1) == layout.lock_addr(1) + 8

    @given(tag=st.integers(min_value=0, max_value=2**64 - 1),
           value=st.binary(max_size=32))
    def test_tagged_value_roundtrip(self, tag, value):
        blob = AbdLockLayout.pack_tagged_value(tag, value)
        assert AbdLockLayout.unpack_tagged_value(blob) == (tag, value)


class TestTxLayout:
    def test_pair_addresses_contiguous(self):
        layout = TxLayout(meta_base=0, n_keys=4)
        # [PR | PW] at +0 and [C | addr] at +16 are both CAS-able pairs.
        assert layout.prpw_addr(0) == 0
        assert layout.caddr_addr(0) == 16
        assert layout.addr_field(0) == 24

    def test_masks_partition_the_pairs(self):
        assert PRPW_PR_MASK | PRPW_PW_MASK == (1 << 128) - 1
        assert PRPW_PR_MASK & PRPW_PW_MASK == 0
        assert CADDR_C_MASK == (1 << 64) - 1

    @given(pr=st.integers(min_value=0, max_value=2**64 - 1),
           pw=st.integers(min_value=0, max_value=2**64 - 1))
    def test_prpw_roundtrip(self, pr, pw):
        assert TxLayout.unpack_prpw(TxLayout.pack_prpw(pr, pw)) == (pr, pw)

    def test_read_validation_concatenation_order(self):
        """(RC|TS) > (PW|PR) as 128-bit ints must mean: RC > PW, or
        RC == PW and TS > PR — the §8.2 single-CAS trick."""
        def as_int(low, high):
            return int.from_bytes(TxLayout.pack_prpw(low, high), "little")
        # RC == PW, TS > PR  -> greater
        assert as_int(5, 10) > as_int(4, 10)
        # RC == PW, TS <= PR -> not greater
        assert not as_int(4, 10) > as_int(4, 10)
        # RC < PW -> not greater regardless of TS
        assert not as_int(999, 9) > as_int(0, 10)

    @given(c=st.integers(min_value=0, max_value=2**63),
           key=st.integers(min_value=0, max_value=2**63),
           value=st.binary(max_size=64))
    def test_buffer_roundtrip(self, c, key, value):
        blob = TxLayout.pack_buffer(c, key, value)
        assert TxLayout.unpack_buffer(blob) == (c, key, value)


class TestFarmLayout:
    @given(version=st.integers(min_value=0, max_value=2**62),
           locked=st.booleans())
    def test_lockver_roundtrip(self, version, locked):
        blob = FarmLayout.pack_lockver(version, locked)
        assert FarmLayout.unpack_lockver(blob) == (version, locked)

    def test_lock_bit_is_msb(self):
        assert LOCK_BIT == 1 << 63
        blob = FarmLayout.pack_lockver(0, locked=True)
        assert blob[7] & 0x80

    def test_object_addressing(self):
        layout = FarmLayout(table_base=0, objects_base=4096, n_keys=4,
                            value_size=512)
        assert layout.object_addr(1) == 4096 + 520
        assert layout.slot_addr(2) == 16


class TestPilafLayout:
    def test_entry_stride(self):
        layout = PilafLayout(0, 0, 4, max_key_bytes=8, max_value_bytes=512)
        assert layout.entry_stride == 8 + 8 + 512 + 8

    def _loaded(self):
        """A Pilaf server holding one key, written by its loader; returns
        the layout, the key's slot bytes and its extent's bytes."""
        sim = Simulator()
        server = PilafServer(sim, make_fabric(sim, RACK, ["server"]),
                             "server", SoftwareRdmaBackend, n_keys=4,
                             max_value_bytes=32)
        key = b"key12345"
        server.load(key, b"value")
        layout, space = server.layout, server.prism.space
        slot = space.read(layout.slot_addr(server.slot_index(key)),
                          SLOT_SIZE_PILAF)
        extent = space.read(unpack_uint(slot, 0, 8), layout.entry_stride)
        return layout, slot, extent

    def test_entry_crc_embedded(self):
        layout, _slot, extent = self._loaded()
        data = extent[:layout.entry_data_bytes]
        assert verify(data, extent[layout.entry_data_bytes:])
        assert PilafLayout.unpack_entry(data) == (b"key12345", b"value")
        # zeros from the value's end to the CRC-covered span's end
        assert data[8 + 8 + 5:] == bytes(layout.entry_data_bytes - 21)

    def test_slot_crc(self):
        layout, slot, _extent = self._loaded()
        assert unpack_uint(slot, 0, 8) == layout.extents_base  # extent 0
        assert verify(slot[:8], slot[8:])
