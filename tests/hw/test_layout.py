"""Binary codecs: uints, bounded pointers, Codec."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.layout import (
    BOUNDED_PTR_SIZE,
    U16,
    U32,
    U64,
    Codec,
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

