"""Binary codecs: uints, bounded pointers, FieldStruct."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.layout import (
    BOUNDED_PTR_SIZE,
    U16,
    U32,
    U64,
    Codec,
    FieldStruct,
    pack_bounded_ptr,
    pack_uint,
    unpack_bounded_ptr,
    unpack_uint,
)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uint64_roundtrip(value):
    assert unpack_uint(pack_uint(value, 8), 0, 8) == value


@given(st.integers(min_value=0, max_value=2**16 - 1),
       st.integers(min_value=0, max_value=2**16 - 1))
def test_uint_offset_decode(a, b):
    blob = pack_uint(a, 2) + pack_uint(b, 2)
    assert unpack_uint(blob, 0, 2) == a
    assert unpack_uint(blob, 2, 2) == b


def test_uint_overflow_raises():
    with pytest.raises(OverflowError):
        pack_uint(256, 1)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_bounded_ptr_roundtrip(addr, bound):
    blob = pack_bounded_ptr(addr, bound)
    assert len(blob) == BOUNDED_PTR_SIZE
    assert unpack_bounded_ptr(blob) == (addr, bound)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**16 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_codec_matches_field_by_field_packing(a, b, c):
    codec = Codec(U64, U16, U32)
    blob = codec.pack(a, b, c)
    assert blob == pack_uint(a, 8) + pack_uint(b, 2) + pack_uint(c, 4)
    assert len(blob) == 14
    assert codec.unpack(b"xx" + blob, 2) == (a, b, c)


@pytest.mark.parametrize("values", [(2**64, 0), (0, -1)])
def test_codec_out_of_range_raises_overflow(values):
    with pytest.raises(OverflowError):
        Codec(U64, U64).pack(*values)
    with pytest.raises(OverflowError):
        pack_bounded_ptr(*values)


class TestFieldStruct:
    def test_offsets(self):
        struct = FieldStruct(("a", 8), ("b", 2), ("c", 4))
        assert struct.offset("a") == 0
        assert struct.offset("b") == 8
        assert struct.offset("c") == 10
        assert struct.fixed_size == 14

    def test_width_lookup(self):
        struct = FieldStruct(("a", 8), ("tail", None))
        assert struct.width("a") == 8
        assert struct.width("tail") is None
        with pytest.raises(KeyError):
            struct.width("missing")

    def test_pack_unpack_roundtrip(self):
        struct = FieldStruct(("ver", 8), ("len", 4), ("body", None))
        blob = struct.pack(ver=7, len=3, body=b"xyz")
        values = struct.unpack(blob)
        assert values == {"ver": 7, "len": 3, "body": b"xyz"}

    def test_missing_fields_default_zero(self):
        struct = FieldStruct(("a", 2), ("b", 2))
        assert struct.unpack(struct.pack(b=9)) == {"a": 0, "b": 9}

    def test_variable_field_must_be_last(self):
        with pytest.raises(ValueError):
            FieldStruct(("tail", None), ("a", 8))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.binary(max_size=64))
    def test_property_roundtrip(self, header, tail):
        struct = FieldStruct(("h", 4), ("t", None))
        assert struct.unpack(struct.pack(h=header, t=tail)) == {
            "h": header, "t": tail}
