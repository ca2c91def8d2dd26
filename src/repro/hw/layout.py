"""Binary layout codecs shared by all applications.

PRISM operations move raw bytes; the applications impose structure on
those bytes. The codecs here centralize the little-endian packing so
that client-side and server-side views of a structure can never drift
apart.
"""

import struct

from repro.obs import hostprof as _hostprof
from repro.hw.memory import POINTER_SIZE

U16 = 2
U32 = 4
U64 = 8
BOUNDED_PTR_SIZE = POINTER_SIZE + U64  # ⟨ptr, bound⟩ struct of §3.1

# Precompiled codecs for the common widths (same table as hw.memory):
# ``int.from_bytes`` + a slice per field is the slow path now.
_STRUCTS = {
    1: struct.Struct("<B"),
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}
_KV_HEADER_STRUCT = struct.Struct("<QHI2x")  # ver:8 klen:2 vlen:4 pad:2
_KV_HEADER_SIZE = _KV_HEADER_STRUCT.size

# Host-profiling: the public codec entry points charge their wall time
# to the "codec" bucket of the ambient profiler (repro.obs.hostprof).
# Internals call the _raw helpers so a profiled pack() is sampled once,
# not once per field. With no profiler active (the default) each hook
# is a single module-attribute None check.


def _pack_uint_raw(value, width):
    codec = _STRUCTS.get(width)
    if codec is None:
        return value.to_bytes(width, "little")
    try:
        return codec.pack(value)
    except struct.error:
        # Out-of-range: re-encode via to_bytes for the canonical
        # OverflowError the callers (and tests) rely on.
        return value.to_bytes(width, "little")


def _unpack_uint_raw(data, offset, width):
    codec = _STRUCTS.get(width)
    if codec is None:
        return int.from_bytes(data[offset:offset + width], "little")
    return codec.unpack_from(data, offset)[0]


def pack_uint(value, width):
    """Little-endian unsigned encode; raises if it does not fit."""
    hp = _hostprof.ACTIVE
    if hp is None or not hp._timing:
        return _pack_uint_raw(value, width)
    hp.enter("codec")
    try:
        return _pack_uint_raw(value, width)
    finally:
        hp.exit()


def unpack_uint(data, offset=0, width=U64):
    """Little-endian unsigned decode from ``data[offset:offset+width]``."""
    hp = _hostprof.ACTIVE
    if hp is None or not hp._timing:
        codec = _STRUCTS.get(width)
        if codec is None:
            return int.from_bytes(data[offset:offset + width], "little")
        return codec.unpack_from(data, offset)[0]
    hp.enter("codec")
    try:
        return _unpack_uint_raw(data, offset, width)
    finally:
        hp.exit()


class Codec:
    """A prebuilt ``struct.Struct`` over a fixed run of little-endian
    unsigned fields of the given byte ``widths``.

    One encode or decode is one ``struct`` call and one "codec" charge,
    however many fields the layout has; a value that does not fit its
    field raises ``OverflowError``, as :func:`pack_uint` does.
    """

    __slots__ = ("widths", "_struct", "pack_into", "unpack_from")

    def __init__(self, *widths):
        self.widths = widths
        self._struct = struct.Struct(
            "<" + "".join(_STRUCTS[width].format[1:] for width in widths))
        #: ``pack_into(buffer, offset, *values)`` and ``unpack_from(
        #: buffer, offset)``: the struct's own, for set-up loops that
        #: work on memory in place (no frame, no codec charge; a value
        #: that does not fit raises ``struct.error``)
        self.pack_into = self._struct.pack_into
        self.unpack_from = self._struct.unpack_from

    def pack(self, *values):
        """Encode ``values``, one per field."""
        hp = _hostprof.ACTIVE
        if hp is not None and not hp._timing:
            hp = None
        if hp is not None:
            hp.enter("codec")
        try:
            return self._struct.pack(*values)
        except struct.error:
            # Out of range: re-encode via to_bytes for the canonical
            # OverflowError the callers (and tests) rely on.
            return b"".join(value.to_bytes(width, "little")
                            for value, width in zip(values, self.widths))
        finally:
            if hp is not None:
                hp.exit()

    def unpack(self, data, offset=0):
        """The field values at ``data[offset:]``, as a tuple."""
        hp = _hostprof.ACTIVE
        if hp is None or not hp._timing:
            return self._struct.unpack_from(data, offset)
        hp.enter("codec")
        try:
            return self._struct.unpack_from(data, offset)
        finally:
            hp.exit()


_BOUNDED_PTR = Codec(POINTER_SIZE, U64)
#: Encode the ⟨ptr, bound⟩ struct used by bounded indirect ops.
pack_bounded_ptr = _BOUNDED_PTR.pack
#: Decode a ⟨ptr, bound⟩ struct; returns (addr, bound).
unpack_bounded_ptr = _BOUNDED_PTR.unpack


def unpack_kv_entry(data):
    """``(ver, key, value)`` of a PRISM-KV value buffer (``apps.kv.layout``)
    in one codec call; a read shorter than the entry truncates the value."""
    hp = _hostprof.ACTIVE
    if hp is not None and not hp._timing:
        hp = None
    if hp is not None:
        hp.enter("codec")
    try:
        ver, klen, vlen = _KV_HEADER_STRUCT.unpack_from(data, 0)
        end = _KV_HEADER_SIZE + klen
        return (ver, bytes(data[_KV_HEADER_SIZE:end]),
                bytes(data[end:end + vlen]))
    finally:
        if hp is not None:
            hp.exit()

