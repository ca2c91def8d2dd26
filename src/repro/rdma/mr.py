"""Memory registration and rkey protection checks."""

import enum
from itertools import count

from repro.core.errors import AccessViolation


class AccessFlags(enum.Flag):
    """Remote access permissions attached to a registered region."""

    READ = enum.auto()
    WRITE = enum.auto()
    ATOMIC = enum.auto()
    ALL = READ | WRITE | ATOMIC


class MemoryRegion:
    """A registered, remotely accessible span of server memory."""

    __slots__ = ("rkey", "start", "length", "flags", "_mask")

    def __init__(self, rkey, start, length, flags):
        self.rkey = rkey
        self.start = start
        self.length = length
        self.flags = flags
        # Plain-int permission mask: ``check`` runs once per memory
        # access, and enum.Flag operators are ~10x an int ``&``. The
        # needed flags are read as ``need._value_`` there for the same
        # reason: ``.value`` is a descriptor costing two Python frames.
        self._mask = flags.value

    @property
    def end(self):
        return self.start + self.length

    def covers(self, addr, length):
        return self.start <= addr and addr + length <= self.end

    def __repr__(self):
        return f"<MR rkey={self.rkey} [{self.start}, {self.end}) {self.flags}>"


class MemoryRegionTable:
    """The NIC's registration table.

    ``check`` enforces the paper's security rule for indirect operations:
    an operation is rejected if either the target address *or the
    location pointed to by the target address* lies in a region with a
    different rkey, or in no registered region at all (§3.1).
    """

    def __init__(self):
        self._regions = {}
        self._rkeys = count(start=0x1000)

    def register(self, start, length, flags=AccessFlags.ALL):
        """Register [start, start+length); returns the new rkey."""
        if length <= 0:
            raise AccessViolation(f"cannot register empty region at {start}")
        rkey = next(self._rkeys)
        self._regions[rkey] = MemoryRegion(rkey, start, length, flags)
        return rkey

    def deregister(self, rkey):
        self._regions.pop(rkey, None)

    def region(self, rkey):
        try:
            return self._regions[rkey]
        except KeyError:
            raise AccessViolation(f"unknown rkey {rkey:#x}") from None

    def allows_any(self, addr, length, rkeys, need):
        """Whether :meth:`check` would pass under any of ``rkeys``,
        building no :class:`AccessViolation` for a miss: a derived
        address may lie in any region granted to the connection."""
        need = need._value_
        end = addr + length
        regions = self._regions
        for rkey in rkeys:
            region = regions.get(rkey)
            if (region is not None and not need & ~region._mask
                    and region.start <= addr
                    and end <= region.start + region.length):
                return True
        return False

    def check(self, addr, length, rkey, need):
        """Validate an access of ``length`` bytes at ``addr`` under ``rkey``.

        Returns the region on success; raises :class:`AccessViolation`
        otherwise.
        """
        try:
            region = self._regions[rkey]
        except KeyError:
            raise AccessViolation(f"unknown rkey {rkey:#x}") from None
        if need._value_ & ~region._mask:
            raise AccessViolation(
                f"rkey {rkey:#x} lacks {need} (has {region.flags})")
        start = region.start
        if addr < start or addr + length > start + region.length:
            raise AccessViolation(
                f"[{addr}, {addr + length}) outside region {region!r}")
        return region
