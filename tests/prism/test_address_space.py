"""Unified host + NIC-SRAM address space."""

import pytest

from repro.core import ReadOp
from repro.core.constants import NIC_SRAM_BYTES
from repro.hw.memory import MemoryError_
from repro.prism.address_space import (
    DOMAIN_HOST,
    DOMAIN_SRAM,
    ServerAddressSpace,
)
from repro.prism.engine import Connection, OpStatus, PrismEngine
from repro.rdma.mr import MemoryRegionTable


@pytest.fixture
def space():
    return ServerAddressSpace(1 << 16, sram_bytes=1024)


def test_domains(space):
    """The engine records an access's domain by which side of
    ``sram_base`` it touched: the last host byte is host, the first
    SRAM byte is SRAM."""
    host_addr = space.sbrk(64)
    sram_addr = space.sram_sbrk(32)
    assert sram_addr == space.sram_base
    regions = MemoryRegionTable()
    host_rkey = regions.register(host_addr, 64)
    sram_rkey = regions.register(sram_addr, 32)
    engine = PrismEngine(space, regions)
    connection = Connection("client", {host_rkey, sram_rkey})
    domains = []
    for addr, rkey in ((host_addr + 63, host_rkey), (sram_addr, sram_rkey)):
        result, accesses = engine.execute_op(
            connection, ReadOp(addr=addr, length=1, rkey=rkey))
        assert result.status is OpStatus.OK
        domains += [access.domain for access in accesses]
    assert domains == [DOMAIN_HOST, DOMAIN_SRAM]


def test_sram_mapped_past_host_memory(space):
    assert space.sram_base == 1 << 16


def test_host_and_sram_are_separate_memories(space):
    host_addr = space.sbrk(64)
    sram_addr = space.sram_sbrk(64)
    space.write(host_addr, b"host data")
    space.write(sram_addr, b"sram data")
    assert space.read(host_addr, 9) == b"host data"
    assert space.read(sram_addr, 9) == b"sram data"


def test_pointer_roundtrip_across_domains(space):
    host_addr = space.sbrk(64)
    sram_addr = space.sram_sbrk(16)
    # A pointer to host memory stored in SRAM (the redirect pattern).
    space.write_ptr(sram_addr, host_addr)
    assert space.read_ptr(sram_addr) == host_addr


def test_uint_codecs(space):
    addr = space.sbrk(16)
    space.write_uint(addr, 0xDEADBEEF, 8)
    assert space.read_uint(addr, 8) == 0xDEADBEEF


def test_out_of_bounds_sram(space):
    with pytest.raises(MemoryError_):
        space.read(space.sram_base + 1024, 8)


def test_contains(space):
    host = space.sbrk(64)
    sram = space.sram_sbrk(16)
    assert space.contains(host, 64)
    assert space.contains(sram, 16)
    assert not space.contains(0, 8)  # NULL page
    assert not space.contains(space.sram_base + 2048, 1)


def test_default_sram_size():
    space = ServerAddressSpace(1 << 16)
    assert space.sram_bytes == NIC_SRAM_BYTES


def test_sram_allocation_addresses_monotonic(space):
    first = space.sram_sbrk(32)
    second = space.sram_sbrk(32)
    assert second == first + 32


# ``read`` / ``write`` route in place and ``HostMemory`` compares its
# bounds in place (docs/performance.md, rule 12(c)); these fail if a
# comparison was dropped on the way. Messages are ``HostMemory.check``'s,
# in the routed memory's own coordinates (SRAM-local = global - base + 8).
_OUT_OF_BOUNDS = [
    pytest.param(0, 8, r"access \[0, 8\) outside memory of size 65536",
                 id="null-page"),
    pytest.param(7, 1, r"access \[7, 8\) outside memory of size 65536",
                 id="last-null-byte"),
    pytest.param((1 << 16) - 1, 2,
                 r"access \[65535, 65537\) outside memory of size 65536",
                 id="one-byte-past-host-memory"),
    pytest.param((1 << 16) - 8, 16,
                 r"access \[65528, 65544\) outside memory of size 65536",
                 id="across-the-host-sram-seam"),
    pytest.param((1 << 16) + 1024 - 1, 2,
                 r"access \[1031, 1033\) outside memory of size 1032",
                 id="one-byte-past-sram"),
]


@pytest.mark.parametrize("addr, length, message", _OUT_OF_BOUNDS)
def test_read_out_of_bounds_refused(space, addr, length, message):
    with pytest.raises(MemoryError_, match=message):
        space.read(addr, length)


@pytest.mark.parametrize("addr, length, message", _OUT_OF_BOUNDS)
def test_write_out_of_bounds_refused_and_nothing_written(
        space, addr, length, message):
    before = (space.host.read(8, 64), space.host.read((1 << 16) - 64, 64),
              space.sram.read(8, 1024))
    with pytest.raises(MemoryError_, match=message):
        space.write(addr, b"\xff" * length)
    assert before == (space.host.read(8, 64),
                      space.host.read((1 << 16) - 64, 64),
                      space.sram.read(8, 1024))


@pytest.mark.parametrize("addr", [8, (1 << 16) + 16],
                         ids=["host", "sram"])
def test_negative_length_read_refused(space, addr):
    with pytest.raises(MemoryError_, match="negative length: -1"):
        space.read(addr, -1)


def test_the_last_byte_of_each_memory_is_reachable(space):
    space.write((1 << 16) - 1, b"h")
    space.write((1 << 16) + 1024 - 1, b"s")
    assert space.read((1 << 16) - 1, 1) == b"h"
    assert space.read((1 << 16) + 1024 - 1, 1) == b"s"
    assert space.contains((1 << 16) - 1) and space.contains(
        (1 << 16) + 1024 - 1)
    assert not space.contains((1 << 16) + 1024)
