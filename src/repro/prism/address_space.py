"""The server's unified address space: host DRAM plus on-NIC SRAM.

Recent NICs expose a small user-accessible on-NIC memory region (256 KB
on the paper's ConnectX-5, §4.2) that chains should use for redirect
temporaries, because the NIC reaches it without a PCIe round trip. We
map it just past host memory so a single integer address space covers
both: an address at or past :attr:`ServerAddressSpace.sram_base` is
SRAM, which is how the engine tells timing backends which side an
access touched (``DOMAIN_SRAM`` / ``DOMAIN_HOST``).
"""

from repro.core.constants import NIC_SRAM_BYTES
from repro.hw.memory import HostMemory

DOMAIN_HOST = "host"
DOMAIN_SRAM = "sram"


class ServerAddressSpace:
    """Routes addresses to host memory or NIC SRAM."""

    def __init__(self, host_memory_bytes, sram_bytes=NIC_SRAM_BYTES):
        self.host = HostMemory(host_memory_bytes)
        self.sram_base = host_memory_bytes
        self.sram = HostMemory(sram_bytes + 8)  # +8: NULL page offset
        self.sram_bytes = sram_bytes

    # SRAM is mapped just past host memory, its NULL page skipped: the
    # global address ``sram_base + n`` is SRAM-local ``n + 8``.

    def read(self, addr, length):
        if addr >= self.sram_base:
            return self.sram.read(addr - self.sram_base + 8, length)
        return self.host.read(addr, length)

    def write(self, addr, data):
        if addr >= self.sram_base:
            self.sram.write(addr - self.sram_base + 8, data)
        else:
            self.host.write(addr, data)

    def read_uint(self, addr, width=8):
        return int.from_bytes(self.read(addr, width), "little")

    def write_uint(self, addr, value, width=8):
        self.write(addr, value.to_bytes(width, "little"))

    def read_ptr(self, addr):
        return self.read_uint(addr, 8)

    def write_ptr(self, addr, target):
        self.write_uint(addr, target, 8)

    def contains(self, addr, length=1):
        if addr >= self.sram_base:
            return self.sram.contains(addr - self.sram_base + 8, length)
        return self.host.contains(addr, length)

    # -- setup-time allocation -------------------------------------------

    def sbrk(self, nbytes, align=8):
        """Allocate host memory (server CPU, setup time)."""
        return self.host.sbrk(nbytes, align)

    def sram_sbrk(self, nbytes, align=8):
        """Allocate NIC SRAM; returns a global (mapped) address."""
        local = self.sram.sbrk(nbytes, align)
        return self.sram_base + local - 8
