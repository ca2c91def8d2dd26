"""Operation descriptors for the PRISM API (Table 1).

Each descriptor is an immutable, validated value object. The same
descriptors serve classic RDMA verbs (all extension flags off) and the
PRISM extensions, so a "hardware RDMA NIC" backend is simply an engine
that rejects descriptors using extension features.

Conventions:

* ``addr``/``target`` are addresses in the server's address space.
* ``rkey`` names the protection domain the client was granted.
* ``conditional`` delays the op until its predecessor in a chain
  completes and skips it if the predecessor failed (§3.4).
* ``redirect_to`` (READ / ALLOCATE only) writes the output to a server
  memory address instead of returning it (§3.4).
"""

import enum
from _collections import _tuplegetter  # namedtuple's C field accessor

from repro.core.constants import (
    ACK_BYTES,
    BASE_TRANSPORT_HEADER_BYTES,
    CAS_MAX_OPERAND_BYTES,
    LENGTH_FIELD_BYTES,
    POINTER_BYTES,
)
from repro.core.errors import InvalidOperation


class CasMode(enum.Enum):
    """Comparison operators for the enhanced CAS (§3.3).

    The comparison is ``compare(data & mask, *target & mask)`` — i.e.
    the client-supplied operand on the left, current memory contents on
    the right, both little-endian unsigned after masking. ``EQ`` is the
    classic compare-and-swap; ``GT`` supports the versioned-object
    pattern ("install only if my version is newer").
    """

    EQ = "eq"
    NE = "ne"
    GT = "gt"
    GE = "ge"
    LT = "lt"
    LE = "le"

    def compare(self, lhs, rhs):
        """Apply the operator: lhs is the operand, rhs the memory value."""
        if self is CasMode.EQ:
            return lhs == rhs
        if self is CasMode.NE:
            return lhs != rhs
        if self is CasMode.GT:
            return lhs > rhs
        if self is CasMode.GE:
            return lhs >= rhs
        if self is CasMode.LT:
            return lhs < rhs
        return lhs <= rhs


_EXTENDED_CAS_MODES = frozenset(
    {CasMode.NE, CasMode.GT, CasMode.GE, CasMode.LT, CasMode.LE})


class _Op(tuple):
    """Shared shape of the five descriptors: an immutable tuple of the
    fields named in ``_fields`` (one C accessor each), built by a
    validating ``__new__``; equality, hash and repr go by type and
    fields, as a frozen dataclass's did. ``uses_extensions()`` is False
    only for an op a classic RDMA NIC accepts."""

    __slots__ = ()
    _fields = ()
    #: the op's name in traces, NAK reports and error messages
    opname = None

    def __init_subclass__(cls):
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, name))

    def __getnewargs__(self):
        return tuple(self)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.opname, *self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class ReadOp(_Op):
    """READ(ptr addr, size len, bool indirect, bool bounded) -> byte[]"""

    __slots__ = ()
    _fields = ("addr", "length", "rkey", "indirect", "bounded",
               "conditional", "redirect_to")
    opname = "READ"

    def __new__(cls, addr, length, rkey, indirect=False, bounded=False,
                conditional=False, redirect_to=None):
        if rkey is None:
            raise InvalidOperation("READ: rkey is required")
        if length < 0:
            raise InvalidOperation("READ: negative length")
        if bounded and not indirect:
            raise InvalidOperation(
                "READ: bounded requires indirect (the bound lives in the "
                "⟨ptr, bound⟩ struct the target address points at)")
        return tuple.__new__(cls, (addr, length, rkey, indirect, bounded,
                                   conditional, redirect_to))

    def uses_extensions(self):
        return self.indirect or self.bounded or self.conditional or (
            self.redirect_to is not None)

    def request_bytes(self):
        return (BASE_TRANSPORT_HEADER_BYTES + POINTER_BYTES
                + LENGTH_FIELD_BYTES
                + (POINTER_BYTES if self.redirect_to is not None else 0))

    def response_bytes(self, result_len):
        if self.redirect_to is not None:
            return ACK_BYTES
        return BASE_TRANSPORT_HEADER_BYTES + result_len


class WriteOp(_Op):
    """WRITE(ptr addr, byte[] data, size len, addr_indirect,
    addr_bounded, data_indirect)"""

    __slots__ = ()
    _fields = ("addr", "data", "rkey", "length", "addr_indirect",
               "addr_bounded", "data_indirect", "conditional")
    opname = "WRITE"

    def __new__(cls, addr, data, rkey, length=None, addr_indirect=False,
                addr_bounded=False, data_indirect=False, conditional=False):
        if rkey is None:
            raise InvalidOperation("WRITE: rkey is required")
        data = bytes(data)
        if length is None:
            if data_indirect:
                raise InvalidOperation(
                    "WRITE: explicit length required with data_indirect")
            length = len(data)
        if length < 0:
            raise InvalidOperation("WRITE: negative length")
        if addr_bounded and not addr_indirect:
            raise InvalidOperation("WRITE: addr_bounded requires addr_indirect")
        if data_indirect and len(data) != POINTER_BYTES:
            raise InvalidOperation(
                "WRITE: with data_indirect, data must be an 8-byte server "
                "pointer")
        if not data_indirect and len(data) != length:
            raise InvalidOperation(
                f"WRITE: data is {len(data)} bytes but length={length}")
        return tuple.__new__(cls, (addr, data, rkey, length, addr_indirect,
                                   addr_bounded, data_indirect, conditional))

    def uses_extensions(self):
        return (self.addr_indirect or self.addr_bounded or self.data_indirect
                or self.conditional)

    def request_bytes(self):
        payload = POINTER_BYTES if self.data_indirect else len(self.data)
        return (BASE_TRANSPORT_HEADER_BYTES + POINTER_BYTES
                + LENGTH_FIELD_BYTES + payload)

    def response_bytes(self, result_len=0):
        return ACK_BYTES


class AllocateOp(_Op):
    """ALLOCATE(qp freelist, byte[] data, size len) -> ptr (§3.2)."""

    __slots__ = ()
    _fields = ("freelist", "data", "rkey", "conditional", "redirect_to")
    opname = "ALLOCATE"

    def __new__(cls, freelist, data, rkey, conditional=False,
                redirect_to=None):
        if rkey is None:
            raise InvalidOperation("ALLOCATE: rkey is required")
        data = bytes(data)
        if freelist < 0:
            raise InvalidOperation("ALLOCATE: bad freelist id")
        return tuple.__new__(cls, (freelist, data, rkey, conditional,
                                   redirect_to))

    @property
    def length(self):
        return len(self.data)

    def uses_extensions(self):
        return True  # ALLOCATE itself is a PRISM extension.

    def request_bytes(self):
        return (BASE_TRANSPORT_HEADER_BYTES + LENGTH_FIELD_BYTES
                + len(self.data)
                + (POINTER_BYTES if self.redirect_to is not None else 0))

    def response_bytes(self, result_len=POINTER_BYTES):
        if self.redirect_to is not None:
            return ACK_BYTES
        return BASE_TRANSPORT_HEADER_BYTES + POINTER_BYTES


def _all_ones(nbytes):
    return (1 << (8 * nbytes)) - 1


class FetchAddOp(_Op):
    """Classic RDMA FETCH-AND-ADD: atomically ``*target += delta``
    (mod 2^64), returning the previous value. §4.2 notes its adder is
    the hardware PRISM's comparison unit; the op itself is standard
    IB verbs, supported by every backend."""

    __slots__ = ()
    _fields = ("target", "delta", "rkey", "conditional")
    opname = "FETCHADD"

    def __new__(cls, target, delta, rkey, conditional=False):
        if rkey is None:
            raise InvalidOperation("FETCHADD: rkey is required")
        if not -(1 << 63) <= delta < (1 << 63):
            raise InvalidOperation("FETCHADD: delta must fit in 64 bits")
        return tuple.__new__(cls, (target, delta, rkey, conditional))

    def uses_extensions(self):
        return self.conditional

    def request_bytes(self):
        return BASE_TRANSPORT_HEADER_BYTES + POINTER_BYTES + 8

    def response_bytes(self, result_len=8):
        return BASE_TRANSPORT_HEADER_BYTES + 8


class CasOp(_Op):
    """Enhanced compare-and-swap (§3.3).

    Atomically: if ``mode.compare(cmp & compare_mask, *target &
    compare_mask)`` then ``*target = (*target & ~swap_mask) | (data &
    swap_mask)``, where ``cmp`` is ``compare_data`` when given and
    ``data`` otherwise. Returns the previous value of ``*target``
    either way. Masks default to all-ones over the operand width.
    Indirect flags dereference the corresponding argument first (not
    atomically).

    ``compare_data`` mirrors the separate compare/swap operands of the
    IB verbs' atomic CmpSwap (and Mellanox extended atomics) — it is
    what a classic spinlock needs (compare 0, swap owner id). The
    paper's Table 1 shows the single-operand form, which suffices for
    PRISM's own applications because they compare one *field* and swap
    another.
    """

    __slots__ = ()
    _fields = ("target", "data", "rkey", "mode", "compare_mask", "swap_mask",
               "compare_data", "target_indirect", "data_indirect",
               "conditional", "operand_width")
    opname = "CAS"

    def __new__(cls, target, data, rkey, mode=CasMode.EQ, compare_mask=None,
                swap_mask=None, compare_data=None, target_indirect=False,
                data_indirect=False, conditional=False, operand_width=None):
        if rkey is None:
            raise InvalidOperation("CAS: rkey is required")
        data = bytes(data)
        width = operand_width
        if width is None:
            if data_indirect:
                raise InvalidOperation(
                    "CAS: operand_width required with data_indirect")
            width = len(data)
        if not 1 <= width <= CAS_MAX_OPERAND_BYTES:
            raise InvalidOperation(
                f"CAS: operand width {width} outside [1, {CAS_MAX_OPERAND_BYTES}]")
        if data_indirect:
            if len(data) != POINTER_BYTES:
                raise InvalidOperation(
                    "CAS: with data_indirect, data must be an 8-byte pointer")
        elif len(data) != width:
            raise InvalidOperation(
                f"CAS: data is {len(data)} bytes, operand width {width}")
        if compare_data is not None:
            compare_data = bytes(compare_data)
            if len(compare_data) != width:
                raise InvalidOperation(
                    f"CAS: compare_data is {len(compare_data)} bytes, "
                    f"operand width {width}")
        full = _all_ones(width)
        if compare_mask is None:
            compare_mask = full
        elif compare_mask < 0 or compare_mask > full:
            raise InvalidOperation(
                f"CAS: compare_mask {compare_mask:#x} exceeds operand width")
        if swap_mask is None:
            swap_mask = full
        elif swap_mask < 0 or swap_mask > full:
            raise InvalidOperation(
                f"CAS: swap_mask {swap_mask:#x} exceeds operand width")
        return tuple.__new__(cls, (target, data, rkey, mode, compare_mask,
                                   swap_mask, compare_data, target_indirect,
                                   data_indirect, conditional, width))

    def uses_extensions(self):
        width = self.operand_width
        classic = (width == 8
                   and self.mode is CasMode.EQ
                   and self.compare_mask == _all_ones(8)
                   and self.swap_mask == _all_ones(8)
                   and not self.target_indirect
                   and not self.data_indirect
                   and not self.conditional)
        return not classic

    def uses_extended_atomics(self):
        """Features available on Mellanox extended atomics (not PRISM-only)."""
        return (self.operand_width != 8
                or self.compare_mask != _all_ones(self.operand_width)
                or self.swap_mask != _all_ones(self.operand_width))

    def uses_prism_only_features(self):
        return (self.mode in _EXTENDED_CAS_MODES or self.target_indirect
                or self.data_indirect or self.conditional)

    def request_bytes(self):
        width = self.operand_width
        payload = POINTER_BYTES if self.data_indirect else width
        if self.compare_data is not None:
            payload += width
        # compare/swap masks travel with the request, as in the
        # Mellanox extended-atomics wire format.
        return (BASE_TRANSPORT_HEADER_BYTES + POINTER_BYTES
                + 2 * width + payload)

    def response_bytes(self, result_len=None):
        return BASE_TRANSPORT_HEADER_BYTES + self.operand_width
