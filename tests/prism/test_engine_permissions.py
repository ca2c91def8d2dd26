"""Protection matrix: every op kind vs every permission violation."""

import pytest

from repro.core import AllocateOp, CasOp, FetchAddOp, ReadOp, WriteOp
from repro.prism.address_space import ServerAddressSpace
from repro.prism.engine import Connection, OpStatus, PrismEngine
from repro.rdma.mr import AccessFlags, MemoryRegionTable
from repro.rdma.qp import QueuePair


class PermHarness:
    """Regions with every permission combination."""

    def __init__(self):
        self.space = ServerAddressSpace(1 << 18, sram_bytes=1024)
        self.regions = MemoryRegionTable()
        self.freelists = {}
        self.engine = PrismEngine(self.space, self.regions, self.freelists)
        self.rw = self._region(AccessFlags.ALL)
        self.read_only = self._region(AccessFlags.READ)
        self.write_only = self._region(AccessFlags.WRITE)
        self.no_atomic = self._region(AccessFlags.READ | AccessFlags.WRITE)
        self.connection = Connection("c", {
            self.rw[1], self.read_only[1], self.write_only[1],
            self.no_atomic[1]})

    def _region(self, flags):
        addr = self.space.sbrk(1024)
        rkey = self.regions.register(addr, 1024, flags)
        return addr, rkey

    def run(self, op):
        result, _ = self.engine.execute_op(self.connection, op)
        return result


@pytest.fixture
def perms():
    return PermHarness()


def test_read_needs_read(perms):
    addr, rkey = perms.write_only
    result = perms.run(ReadOp(addr=addr, length=8, rkey=rkey))
    assert result.status is OpStatus.NAK
    addr, rkey = perms.read_only
    assert perms.run(ReadOp(addr=addr, length=8, rkey=rkey)).successful


def test_write_needs_write(perms):
    addr, rkey = perms.read_only
    result = perms.run(WriteOp(addr=addr, data=b"x", rkey=rkey))
    assert result.status is OpStatus.NAK
    addr, rkey = perms.write_only
    assert perms.run(WriteOp(addr=addr, data=b"x", rkey=rkey)).successful


def test_cas_needs_atomic(perms):
    addr, rkey = perms.no_atomic
    result = perms.run(CasOp(target=addr, data=b"\x01" * 8, rkey=rkey))
    assert result.status is OpStatus.NAK
    addr, rkey = perms.rw
    assert perms.run(CasOp(target=addr, data=b"\x00" * 8,
                           rkey=rkey)).successful


def test_fetch_add_needs_atomic(perms):
    addr, rkey = perms.no_atomic
    result = perms.run(FetchAddOp(target=addr, delta=1, rkey=rkey))
    assert result.status is OpStatus.NAK


def test_indirect_pointee_permission_checked(perms):
    """Pointer in a readable region aiming at a write-only region: the
    dereferenced READ must still be rejected."""
    src_addr, src_rkey = perms.read_only
    dst_addr, _dst_rkey = perms.write_only
    perms.space.write_ptr(src_addr, dst_addr)
    result = perms.run(ReadOp(addr=src_addr, length=8, rkey=src_rkey,
                              indirect=True))
    assert result.status is OpStatus.NAK


def test_indirect_write_target_permission_checked(perms):
    src_addr, src_rkey = perms.read_only
    dst_addr, _ = perms.read_only
    perms.space.write_ptr(src_addr + 64, dst_addr)
    result = perms.run(WriteOp(addr=src_addr + 64, data=b"x",
                               rkey=src_rkey, addr_indirect=True))
    assert result.status is OpStatus.NAK


def test_redirect_target_needs_write(perms):
    src_addr, src_rkey = perms.read_only
    ro_addr, _ = perms.read_only
    result = perms.run(ReadOp(addr=src_addr, length=8, rkey=src_rkey,
                              redirect_to=ro_addr + 64))
    assert result.status is OpStatus.NAK


def test_allocate_buffer_region_must_be_granted(perms):
    """A free list whose buffers live in an ungranted region: ALLOCATE
    must be rejected even though the freelist id is valid."""
    hidden = perms.space.sbrk(256)
    perms.regions.register(hidden, 256)  # registered but NOT granted
    qp = QueuePair(64)
    qp.post(hidden)
    perms.freelists[1] = qp
    result = perms.run(AllocateOp(freelist=1, data=b"x",
                                  rkey=perms.rw[1]))
    assert result.status is OpStatus.NAK


def test_cas_data_indirect_source_needs_read(perms):
    target, rkey = perms.rw
    source, _ = perms.write_only
    result = perms.run(CasOp(target=target,
                             data=source.to_bytes(8, "little"),
                             rkey=rkey, data_indirect=True,
                             operand_width=8))
    assert result.status is OpStatus.NAK


def test_indirect_read_nak_is_one_access_violation_with_the_same_text(
        perms, monkeypatch):
    """A pointee no granted region covers (here NULL, the PRISM-KV
    empty-slot probe) NAKs with the one "not covered by any region"
    AccessViolation — class and text as they always read — and the
    engine finds that out by asking each rkey, not by catching one
    formatted ``AccessViolation`` per granted region."""
    from repro.core.errors import AccessViolation
    from repro.rdma.mr import MemoryRegion

    def no_repr(region):
        raise AssertionError("the probe formatted a region it only skipped")

    monkeypatch.setattr(MemoryRegion, "__repr__", no_repr)
    src_addr, src_rkey = perms.read_only       # zero-filled: a NULL pointer
    result = perms.run(ReadOp(addr=src_addr, length=8, rkey=src_rkey,
                              indirect=True))
    assert result.status is OpStatus.NAK
    assert type(result.error) is AccessViolation
    assert str(result.error) == (
        "READ pointee: [0, 8) not covered by any region granted to "
        f"connection {perms.connection.id}")
    # A pointee inside a region that lacks the permission reads the same.
    dst_addr, _ = perms.write_only
    perms.space.write_ptr(src_addr, dst_addr)
    result = perms.run(ReadOp(addr=src_addr, length=8, rkey=src_rkey,
                              indirect=True))
    assert str(result.error) == (
        f"READ pointee: [{dst_addr}, {dst_addr + 8}) not covered by any "
        f"region granted to connection {perms.connection.id}")
