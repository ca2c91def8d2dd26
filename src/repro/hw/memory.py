"""Byte-addressable simulated host memory.

Every data structure the paper's systems build — hash tables, extent
stores, ABD metadata arrays, OCC timestamp slots — lives in one of
these arrays. Addresses are plain integers; address 0 is reserved as
the NULL pointer so stored pointers can be validity-checked.
"""

import mmap
import struct

from repro.obs import hostprof as _hostprof

POINTER_SIZE = 8
NULL_PTR = 0

#: Precompiled little-endian codecs for the common integer widths.
#: ``unpack_from``/``pack_into`` work directly on the backing
#: buffer — no intermediate ``bytes`` slice per access.
_STRUCTS = {
    1: struct.Struct("<B"),
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}
_U64_UNPACK_FROM = _STRUCTS[8].unpack_from


class MemoryError_(Exception):
    """Out-of-bounds or misaligned access to simulated memory."""


class HostMemory:
    """A contiguous simulated physical memory with a bump allocator.

    The first ``POINTER_SIZE`` bytes are reserved (NULL page) so that no
    valid allocation ever has address 0.
    """

    __slots__ = ("size", "_data", "_brk", "_fill_cache")

    def __init__(self, size):
        if size <= POINTER_SIZE:
            raise MemoryError_(f"memory too small: {size}")
        self.size = size
        # An anonymous mapping, not a ``bytearray``: tens of MiB per
        # server would otherwise be one malloc chunk, zero-filled (so
        # fully resident) at construction and, once freed, reused or
        # stranded at the allocator's whim — the same run read 71 or
        # 95 MiB peak RSS depending on heap layout. Mapped pages are
        # resident when first written and go back to the OS with the
        # object. The view is what the codecs and slices work on.
        self._data = memoryview(mmap.mmap(-1, size))
        self._brk = POINTER_SIZE
        # byte value -> cached pattern for fill(); grown on demand so
        # repeated fills of the same value never re-allocate.
        self._fill_cache = {}

    # -- allocation (server-CPU setup-time; not simulated-time) ----------

    def sbrk(self, nbytes, align=8):
        """Carve ``nbytes`` from the bump allocator; returns the address."""
        if nbytes < 0:
            raise MemoryError_(f"negative allocation: {nbytes}")
        start = self._brk
        if align > 1:
            start = (start + align - 1) // align * align
        end = start + nbytes
        if end > self.size:
            raise MemoryError_(
                f"out of memory: need {nbytes} bytes at {start}, size {self.size}")
        self._brk = end
        return start

    @property
    def bytes_allocated(self):
        """High-water mark of the bump allocator."""
        return self._brk

    # -- raw access --------------------------------------------------------

    @property
    def view(self):
        """The backing ``memoryview``, for set-up code that fills many
        regions itself: each such write keeps :meth:`write`'s bounds
        check, calling :meth:`check` when it fails."""
        return self._data

    def check(self, addr, length):
        """Raise :class:`MemoryError_` unless ``[addr, addr + length)``
        is inside memory and past the NULL page."""
        if length < 0:
            raise MemoryError_(f"negative length: {length}")
        if addr < POINTER_SIZE or addr + length > self.size:
            raise MemoryError_(
                f"access [{addr}, {addr + length}) outside memory of size {self.size}")

    def read(self, addr, length):
        """Return ``length`` bytes starting at ``addr``."""
        if length < 0 or addr < POINTER_SIZE or addr + length > self.size:
            self.check(addr, length)  # raises
        return bytes(self._data[addr:addr + length])

    def write(self, addr, data):
        """Store ``data`` (bytes-like) at ``addr``."""
        length = len(data)
        if addr < POINTER_SIZE or addr + length > self.size:
            self.check(addr, length)  # raises
        self._data[addr:addr + length] = data

    # -- integer convenience ------------------------------------------------

    def read_uint(self, addr, width=POINTER_SIZE):
        """Read an unsigned little-endian integer of ``width`` bytes.

        The common widths (1/2/4/8) decode through precompiled
        :class:`struct.Struct` codecs straight off the backing array —
        no per-call ``int.from_bytes`` or intermediate ``bytes`` copy.
        Integer codecs charge the ambient host profiler's "codec"
        bucket (a single None check when profiling is off).
        """
        hp = _hostprof.ACTIVE
        if hp is None or not hp._timing:
            codec = _STRUCTS.get(width)
            if codec is None:
                return int.from_bytes(self.read(addr, width), "little")
            if addr < POINTER_SIZE or addr + width > self.size:
                self.check(addr, width)
            return codec.unpack_from(self._data, addr)[0]
        hp.enter("codec")
        try:
            codec = _STRUCTS.get(width)
            if codec is None:
                return int.from_bytes(self.read(addr, width), "little")
            if addr < POINTER_SIZE or addr + width > self.size:
                self.check(addr, width)
            return codec.unpack_from(self._data, addr)[0]
        finally:
            hp.exit()

    def write_uint(self, addr, value, width=POINTER_SIZE):
        """Write an unsigned little-endian integer of ``width`` bytes."""
        hp = _hostprof.ACTIVE
        if hp is not None and not hp._timing:
            hp = None
        if hp is not None:
            hp.enter("codec")
        try:
            if value < 0 or value >= 1 << (8 * width):
                raise MemoryError_(
                    f"value {value} does not fit in {width} bytes")
            codec = _STRUCTS.get(width)
            if codec is None:
                self.write(addr, value.to_bytes(width, "little"))
            else:
                if addr < POINTER_SIZE or addr + width > self.size:
                    self.check(addr, width)
                codec.pack_into(self._data, addr, value)
        finally:
            if hp is not None:
                hp.exit()

    def read_ptr(self, addr):
        """Read a stored pointer (8-byte unsigned)."""
        hp = _hostprof.ACTIVE
        if hp is None or not hp._timing:
            if addr < POINTER_SIZE or addr + 8 > self.size:
                self.check(addr, 8)
            return _U64_UNPACK_FROM(self._data, addr)[0]
        return self.read_uint(addr, POINTER_SIZE)

    def write_ptr(self, addr, target):
        """Store a pointer (8-byte unsigned)."""
        self.write_uint(addr, target, POINTER_SIZE)

    def fill(self, addr, length, byte=0):
        """Set ``length`` bytes at ``addr`` to ``byte``.

        Fill patterns are cached per byte value (and grown to the
        largest length seen), so repeated fills — allocator scrubs,
        slot retirement — do not allocate a fresh ``length``-byte
        string every call.
        """
        self.check(addr, length)
        if length == 0:
            return
        pattern = self._fill_cache.get(byte)
        if pattern is None or len(pattern) < length:
            pattern = bytes([byte]) * max(length, 64)
            self._fill_cache[byte] = pattern
        # A memoryview slice of the cached pattern is zero-copy; the
        # slice-assign copies straight from it.
        self._data[addr:addr + length] = memoryview(pattern)[:length]

    def contains(self, addr, length=1):
        """True if [addr, addr+length) is a valid (non-NULL-page) range.

        ``addr`` must itself address a real byte (``addr < size``): a
        zero-length range hanging off the end of memory is *not*
        contained — pointers one-past-the-end are never dereferenceable.
        Zero-length ``read``/``write`` remain permissive anywhere in
        [POINTER_SIZE, size] (they touch nothing).
        """
        return (POINTER_SIZE <= addr < self.size and length >= 0
                and addr + length <= self.size)
