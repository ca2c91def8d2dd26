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
from dataclasses import dataclass, field
from typing import Optional

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


class _BaseOp:
    """Shared validation/introspection for all operation descriptors."""

    def _common_checks(self):
        if self.rkey is None:
            raise InvalidOperation(f"{self.opname}: rkey is required")

    @property
    def opname(self):
        return type(self).__name__.replace("Op", "").upper()

    def uses_extensions(self):
        """True if any PRISM-only feature is engaged.

        A descriptor with this False is expressible as a classic RDMA
        verb and accepted by plain RDMA NIC backends.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ReadOp(_BaseOp):
    """READ(ptr addr, size len, bool indirect, bool bounded) -> byte[]"""

    addr: int
    length: int
    rkey: int
    indirect: bool = False
    bounded: bool = False
    conditional: bool = False
    redirect_to: Optional[int] = None

    def __post_init__(self):
        self._common_checks()
        if self.length < 0:
            raise InvalidOperation("READ: negative length")
        if self.bounded and not self.indirect:
            raise InvalidOperation(
                "READ: bounded requires indirect (the bound lives in the "
                "⟨ptr, bound⟩ struct the target address points at)")

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


@dataclass(frozen=True)
class WriteOp(_BaseOp):
    """WRITE(ptr addr, byte[] data, size len, addr_indirect,
    addr_bounded, data_indirect)"""

    addr: int
    data: bytes
    rkey: int
    length: Optional[int] = None
    addr_indirect: bool = False
    addr_bounded: bool = False
    data_indirect: bool = False
    conditional: bool = False

    def __post_init__(self):
        self._common_checks()
        object.__setattr__(self, "data", bytes(self.data))
        if self.length is None:
            if self.data_indirect:
                raise InvalidOperation(
                    "WRITE: explicit length required with data_indirect")
            object.__setattr__(self, "length", len(self.data))
        if self.length < 0:
            raise InvalidOperation("WRITE: negative length")
        if self.addr_bounded and not self.addr_indirect:
            raise InvalidOperation("WRITE: addr_bounded requires addr_indirect")
        if self.data_indirect and len(self.data) != POINTER_BYTES:
            raise InvalidOperation(
                "WRITE: with data_indirect, data must be an 8-byte server "
                "pointer")
        if not self.data_indirect and len(self.data) != self.length:
            raise InvalidOperation(
                f"WRITE: data is {len(self.data)} bytes but length={self.length}")

    def uses_extensions(self):
        return (self.addr_indirect or self.addr_bounded or self.data_indirect
                or self.conditional)

    def request_bytes(self):
        payload = POINTER_BYTES if self.data_indirect else len(self.data)
        return (BASE_TRANSPORT_HEADER_BYTES + POINTER_BYTES
                + LENGTH_FIELD_BYTES + payload)

    def response_bytes(self, result_len=0):
        return ACK_BYTES


@dataclass(frozen=True)
class AllocateOp(_BaseOp):
    """ALLOCATE(qp freelist, byte[] data, size len) -> ptr (§3.2)."""

    freelist: int
    data: bytes
    rkey: int
    conditional: bool = False
    redirect_to: Optional[int] = None

    def __post_init__(self):
        self._common_checks()
        object.__setattr__(self, "data", bytes(self.data))
        if self.freelist < 0:
            raise InvalidOperation("ALLOCATE: bad freelist id")

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


@dataclass(frozen=True)
class FetchAddOp(_BaseOp):
    """Classic RDMA FETCH-AND-ADD: atomically ``*target += delta``
    (mod 2^64), returning the previous value. §4.2 notes its adder is
    the hardware PRISM's comparison unit; the op itself is standard
    IB verbs, supported by every backend."""

    target: int
    delta: int
    rkey: int
    conditional: bool = False

    def __post_init__(self):
        self._common_checks()
        if not -(1 << 63) <= self.delta < (1 << 63):
            raise InvalidOperation("FETCHADD: delta must fit in 64 bits")

    def uses_extensions(self):
        return self.conditional

    def request_bytes(self):
        return BASE_TRANSPORT_HEADER_BYTES + POINTER_BYTES + 8

    def response_bytes(self, result_len=8):
        return BASE_TRANSPORT_HEADER_BYTES + 8


@dataclass(frozen=True)
class CasOp(_BaseOp):
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

    target: int
    data: bytes
    rkey: int
    mode: CasMode = CasMode.EQ
    compare_mask: Optional[int] = None
    swap_mask: Optional[int] = None
    compare_data: Optional[bytes] = None
    target_indirect: bool = False
    data_indirect: bool = False
    conditional: bool = False
    operand_width: Optional[int] = field(default=None)

    def __post_init__(self):
        self._common_checks()
        object.__setattr__(self, "data", bytes(self.data))
        width = self.operand_width
        if width is None:
            if self.data_indirect:
                raise InvalidOperation(
                    "CAS: operand_width required with data_indirect")
            width = len(self.data)
            object.__setattr__(self, "operand_width", width)
        if not 1 <= width <= CAS_MAX_OPERAND_BYTES:
            raise InvalidOperation(
                f"CAS: operand width {width} outside [1, {CAS_MAX_OPERAND_BYTES}]")
        if self.data_indirect:
            if len(self.data) != POINTER_BYTES:
                raise InvalidOperation(
                    "CAS: with data_indirect, data must be an 8-byte pointer")
        elif len(self.data) != width:
            raise InvalidOperation(
                f"CAS: data is {len(self.data)} bytes, operand width {width}")
        if self.compare_data is not None:
            object.__setattr__(self, "compare_data", bytes(self.compare_data))
            if len(self.compare_data) != width:
                raise InvalidOperation(
                    f"CAS: compare_data is {len(self.compare_data)} bytes, "
                    f"operand width {width}")
        full = _all_ones(width)
        if self.compare_mask is None:
            object.__setattr__(self, "compare_mask", full)
        if self.swap_mask is None:
            object.__setattr__(self, "swap_mask", full)
        for mask_name in ("compare_mask", "swap_mask"):
            mask = getattr(self, mask_name)
            if mask < 0 or mask > full:
                raise InvalidOperation(
                    f"CAS: {mask_name} {mask:#x} exceeds operand width")

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
