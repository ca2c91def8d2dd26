"""Operation descriptor validation and introspection."""

import copy
import pickle

import pytest

from repro.core import (
    AllocateOp,
    CasMode,
    CasOp,
    FetchAddOp,
    InvalidOperation,
    ReadOp,
    WriteOp,
)

RKEY = 0x1000


class TestReadOp:
    def test_basic(self):
        op = ReadOp(addr=64, length=512, rkey=RKEY)
        assert not op.uses_extensions()
        assert op.opname == "READ"

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidOperation):
            ReadOp(addr=64, length=-1, rkey=RKEY)

    def test_bounded_requires_indirect(self):
        with pytest.raises(InvalidOperation, match="bounded requires"):
            ReadOp(addr=64, length=8, rkey=RKEY, bounded=True)

    def test_extension_flags_detected(self):
        assert ReadOp(addr=0x40, length=8, rkey=RKEY,
                      indirect=True).uses_extensions()
        assert ReadOp(addr=0x40, length=8, rkey=RKEY,
                      conditional=True).uses_extensions()
        assert ReadOp(addr=0x40, length=8, rkey=RKEY,
                      redirect_to=128).uses_extensions()

    def test_redirect_shrinks_response(self):
        plain = ReadOp(addr=64, length=512, rkey=RKEY)
        redirected = ReadOp(addr=64, length=512, rkey=RKEY, redirect_to=128)
        assert redirected.response_bytes(512) < plain.response_bytes(512)

    def test_request_bytes_include_redirect_pointer(self):
        plain = ReadOp(addr=64, length=512, rkey=RKEY)
        redirected = ReadOp(addr=64, length=512, rkey=RKEY, redirect_to=128)
        assert redirected.request_bytes() == plain.request_bytes() + 8


class TestWriteOp:
    def test_length_defaults_to_data(self):
        op = WriteOp(addr=64, data=b"abc", rkey=RKEY)
        assert op.length == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidOperation):
            WriteOp(addr=64, data=b"abc", length=5, rkey=RKEY)

    def test_data_indirect_needs_pointer_and_length(self):
        with pytest.raises(InvalidOperation, match="length required"):
            WriteOp(addr=64, data=b"\0" * 8, rkey=RKEY, data_indirect=True)
        with pytest.raises(InvalidOperation, match="8-byte"):
            WriteOp(addr=64, data=b"abc", length=3, rkey=RKEY,
                    data_indirect=True)
        op = WriteOp(addr=64, data=(128).to_bytes(8, "little"), length=32,
                     rkey=RKEY, data_indirect=True)
        assert op.uses_extensions()

    def test_bounded_requires_indirect(self):
        with pytest.raises(InvalidOperation):
            WriteOp(addr=64, data=b"x", rkey=RKEY, addr_bounded=True)

    def test_classic_write_is_not_extension(self):
        assert not WriteOp(addr=64, data=b"x" * 16, rkey=RKEY).uses_extensions()

    def test_request_bytes_data_indirect_sends_pointer_only(self):
        inline = WriteOp(addr=64, data=b"x" * 512, rkey=RKEY)
        indirect = WriteOp(addr=64, data=(128).to_bytes(8, "little"),
                           length=512, rkey=RKEY, data_indirect=True)
        assert indirect.request_bytes() < inline.request_bytes()

    def test_ack_response(self):
        assert WriteOp(addr=64, data=b"x", rkey=RKEY).response_bytes() < 30


class TestAllocateOp:
    def test_always_extension(self):
        op = AllocateOp(freelist=1, data=b"x" * 16, rkey=RKEY)
        assert op.uses_extensions()
        assert op.length == 16

    def test_bad_freelist(self):
        with pytest.raises(InvalidOperation):
            AllocateOp(freelist=-1, data=b"", rkey=RKEY)

    def test_response_is_pointer_unless_redirected(self):
        plain = AllocateOp(freelist=1, data=b"x", rkey=RKEY)
        redirected = AllocateOp(freelist=1, data=b"x", rkey=RKEY,
                                redirect_to=64)
        assert plain.response_bytes() > redirected.response_bytes()


class TestCasOp:
    def test_classic_64bit_cas_is_not_extension(self):
        op = CasOp(target=64, data=b"\x01" * 8, rkey=RKEY,
                   compare_data=b"\x00" * 8)
        assert not op.uses_extensions()
        assert not op.uses_extended_atomics()

    def test_masks_default_to_full_width(self):
        op = CasOp(target=64, data=b"\x01" * 16, rkey=RKEY)
        assert op.compare_mask == (1 << 128) - 1
        assert op.swap_mask == (1 << 128) - 1

    def test_width_limit_32_bytes(self):
        CasOp(target=64, data=b"\x01" * 32, rkey=RKEY)
        with pytest.raises(InvalidOperation):
            CasOp(target=64, data=b"\x01" * 33, rkey=RKEY)

    def test_mask_exceeding_width_rejected(self):
        with pytest.raises(InvalidOperation):
            CasOp(target=64, data=b"\x01" * 8, rkey=RKEY,
                  compare_mask=1 << 64)

    def test_data_indirect_requires_width(self):
        with pytest.raises(InvalidOperation, match="operand_width"):
            CasOp(target=64, data=(128).to_bytes(8, "little"), rkey=RKEY,
                  data_indirect=True)

    def test_compare_data_width_checked(self):
        with pytest.raises(InvalidOperation, match="compare_data"):
            CasOp(target=64, data=b"\x01" * 8, rkey=RKEY,
                  compare_data=b"\x00" * 4)

    def test_data_size_must_match_width(self):
        with pytest.raises(InvalidOperation):
            CasOp(target=64, data=b"\x01" * 8, rkey=RKEY, operand_width=16)

    def test_prism_only_features(self):
        gt = CasOp(target=64, data=b"\x01" * 8, rkey=RKEY, mode=CasMode.GT)
        assert gt.uses_prism_only_features()
        assert gt.uses_extensions()
        masked = CasOp(target=64, data=b"\x01" * 16, rkey=RKEY,
                       compare_mask=0xFF)
        assert masked.uses_extended_atomics()
        assert not masked.uses_prism_only_features()

    def test_response_carries_old_value(self):
        op = CasOp(target=64, data=b"\x01" * 16, rkey=RKEY)
        assert op.response_bytes() >= 16


class TestCasModes:
    @pytest.mark.parametrize("mode,lhs,rhs,expected", [
        (CasMode.EQ, 5, 5, True), (CasMode.EQ, 5, 6, False),
        (CasMode.NE, 5, 6, True), (CasMode.NE, 5, 5, False),
        (CasMode.GT, 6, 5, True), (CasMode.GT, 5, 5, False),
        (CasMode.GE, 5, 5, True), (CasMode.GE, 4, 5, False),
        (CasMode.LT, 4, 5, True), (CasMode.LT, 5, 5, False),
        (CasMode.LE, 5, 5, True), (CasMode.LE, 6, 5, False),
    ])
    def test_compare(self, mode, lhs, rhs, expected):
        assert mode.compare(lhs, rhs) is expected


def test_rkey_required():
    with pytest.raises(InvalidOperation):
        ReadOp(addr=64, length=8, rkey=None)


_DESCRIPTORS = [
    ReadOp(addr=64, length=8, rkey=RKEY, indirect=True, bounded=True),
    WriteOp(addr=64, data=b"abc", rkey=RKEY, conditional=True),
    AllocateOp(freelist=1, data=b"x" * 16, rkey=RKEY, redirect_to=128),
    FetchAddOp(target=64, delta=-3, rkey=RKEY),
    CasOp(target=64, data=b"\x01" * 8, rkey=RKEY, mode=CasMode.GT,
          compare_mask=0xFF),
]


class TestValueSemantics:
    """A descriptor is an immutable value: it refuses assignment, and
    equality, hash and repr go by its type and fields."""

    @pytest.mark.parametrize("op", _DESCRIPTORS, ids=lambda op: op.opname)
    def test_assigning_a_field_raises(self, op):
        for name in op._fields:
            with pytest.raises(AttributeError):
                setattr(op, name, 0)
        with pytest.raises(AttributeError):
            op.extra = 0
        assert not hasattr(op, "__dict__")

    @pytest.mark.parametrize("op", _DESCRIPTORS, ids=lambda op: op.opname)
    def test_equality_and_hash_go_by_type_and_fields(self, op):
        fields = dict(zip(op._fields, op))
        twin = type(op)(**fields)
        assert twin == op and not twin != op and hash(twin) == hash(op)
        assert len({op, twin}) == 1
        assert op != tuple(op) and tuple(op) != op
        changed = type(op)(**{**fields, "rkey": RKEY + 1})
        assert changed != op
        assert copy.deepcopy(op) == op
        assert pickle.loads(pickle.dumps(op)) == op

    def test_same_fields_different_type_are_unequal(self):
        read = ReadOp(addr=64, length=8, rkey=RKEY)

        class Reread(ReadOp):
            __slots__ = ()

        assert Reread(addr=64, length=8, rkey=RKEY) != read
        assert read != Reread(addr=64, length=8, rkey=RKEY)

    def test_repr_names_every_field(self):
        assert repr(ReadOp(addr=64, length=8, rkey=RKEY)) == (
            "ReadOp(addr=64, length=8, rkey=4096, indirect=False, "
            "bounded=False, conditional=False, redirect_to=None)")
        assert repr(FetchAddOp(target=8, delta=1, rkey=RKEY)) == (
            "FetchAddOp(target=8, delta=1, rkey=4096, conditional=False)")

    def test_defaults_are_filled_in_at_construction(self):
        write = WriteOp(addr=64, data=bytearray(b"abc"), rkey=RKEY)
        assert (write.length, type(write.data)) == (3, bytes)
        cas = CasOp(target=64, data=b"\x01" * 4, rkey=RKEY,
                    compare_data=bytearray(4))
        assert (cas.operand_width, cas.compare_mask, cas.swap_mask) == (
            4, 0xFFFFFFFF, 0xFFFFFFFF)
        assert type(cas.compare_data) is bytes
        assert [op.opname for op in _DESCRIPTORS] == [
            "READ", "WRITE", "ALLOCATE", "FETCHADD", "CAS"]


@pytest.mark.parametrize("build, message", [
    (lambda: ReadOp(addr=64, length=8, rkey=None), "READ: rkey is required"),
    (lambda: ReadOp(addr=64, length=-1, rkey=RKEY), "READ: negative length"),
    (lambda: ReadOp(addr=64, length=8, rkey=RKEY, bounded=True),
     "READ: bounded requires indirect (the bound lives in the ⟨ptr, bound⟩ "
     "struct the target address points at)"),
    (lambda: WriteOp(addr=64, data=b"x", rkey=None),
     "WRITE: rkey is required"),
    (lambda: WriteOp(addr=64, data=b"\0" * 8, rkey=RKEY, data_indirect=True),
     "WRITE: explicit length required with data_indirect"),
    (lambda: WriteOp(addr=64, data=b"", rkey=RKEY, length=-1),
     "WRITE: negative length"),
    (lambda: WriteOp(addr=64, data=b"x", rkey=RKEY, addr_bounded=True),
     "WRITE: addr_bounded requires addr_indirect"),
    (lambda: WriteOp(addr=64, data=b"abc", rkey=RKEY, length=3,
                     data_indirect=True),
     "WRITE: with data_indirect, data must be an 8-byte server pointer"),
    (lambda: WriteOp(addr=64, data=b"abc", rkey=RKEY, length=5),
     "WRITE: data is 3 bytes but length=5"),
    (lambda: AllocateOp(freelist=1, data=b"x", rkey=None),
     "ALLOCATE: rkey is required"),
    (lambda: AllocateOp(freelist=-1, data=b"x", rkey=RKEY),
     "ALLOCATE: bad freelist id"),
    (lambda: FetchAddOp(target=64, delta=1, rkey=None),
     "FETCHADD: rkey is required"),
    (lambda: FetchAddOp(target=64, delta=1 << 63, rkey=RKEY),
     "FETCHADD: delta must fit in 64 bits"),
    (lambda: CasOp(target=64, data=b"\x01" * 8, rkey=None),
     "CAS: rkey is required"),
    (lambda: CasOp(target=64, data=b"\0" * 8, rkey=RKEY, data_indirect=True),
     "CAS: operand_width required with data_indirect"),
    (lambda: CasOp(target=64, data=b"\x01" * 33, rkey=RKEY),
     "CAS: operand width 33 outside [1, 32]"),
    (lambda: CasOp(target=64, data=b"abc", rkey=RKEY, operand_width=8,
                   data_indirect=True),
     "CAS: with data_indirect, data must be an 8-byte pointer"),
    (lambda: CasOp(target=64, data=b"\x01" * 8, rkey=RKEY, operand_width=16),
     "CAS: data is 8 bytes, operand width 16"),
    (lambda: CasOp(target=64, data=b"\x01" * 8, rkey=RKEY,
                   compare_data=b"\0" * 4),
     "CAS: compare_data is 4 bytes, operand width 8"),
    (lambda: CasOp(target=64, data=b"\x01" * 8, rkey=RKEY,
                   compare_mask=1 << 64),
     "CAS: compare_mask 0x10000000000000000 exceeds operand width"),
    (lambda: CasOp(target=64, data=b"\x01" * 8, rkey=RKEY, swap_mask=-1),
     "CAS: swap_mask -0x1 exceeds operand width"),
])
def test_every_invalid_operation_keeps_its_message(build, message):
    with pytest.raises(InvalidOperation) as caught:
        build()
    assert str(caught.value) == message
