"""ALLOCATE semantics: free-list pop, data write, redirect, failure."""

import pytest

from repro.core import (
    AccessViolation,
    AllocateOp,
    AllocationFailure,
    InvalidOperation,
)
from repro.prism.engine import OpStatus
from repro.rdma.mr import AccessFlags


def test_allocate_pops_fifo_and_writes(harness):
    _, _, start = harness.add_freelist(64, 4)
    result, accesses = harness.run(
        AllocateOp(freelist=1, data=b"first", rkey=harness.rkey))
    assert result.status is OpStatus.OK
    assert result.value == start  # first buffer in posted order
    assert harness.space.read(start, 5) == b"first"
    result2, _ = harness.run(
        AllocateOp(freelist=1, data=b"second", rkey=harness.rkey))
    assert result2.value == start + 64


def test_allocate_redirect_stores_pointer(harness):
    _, _, start = harness.add_freelist(64, 4)
    slot = harness.connection.sram_slot
    result, _ = harness.run(
        AllocateOp(freelist=1, data=b"x", rkey=harness.rkey,
                   redirect_to=slot))
    assert result.status is OpStatus.OK
    assert result.value == 0  # address not returned to client
    assert harness.space.read_ptr(slot) == start


def test_allocate_empty_freelist_naks(harness):
    harness.add_freelist(64, 1)
    harness.run(AllocateOp(freelist=1, data=b"x", rkey=harness.rkey))
    result, _ = harness.run(
        AllocateOp(freelist=1, data=b"y", rkey=harness.rkey))
    assert result.status is OpStatus.NAK
    assert isinstance(result.error, AllocationFailure)


def test_allocate_unknown_freelist_naks(harness):
    result, _ = harness.run(
        AllocateOp(freelist=99, data=b"x", rkey=harness.rkey))
    assert result.status is OpStatus.NAK
    assert isinstance(result.error, InvalidOperation)


def test_allocate_oversized_data_naks(harness):
    harness.add_freelist(16, 4)
    result, _ = harness.run(
        AllocateOp(freelist=1, data=b"z" * 17, rkey=harness.rkey))
    assert result.status is OpStatus.NAK


def test_allocate_never_double_allocates(harness):
    _, _, _start = harness.add_freelist(32, 8)
    seen = set()
    for i in range(8):
        result, _ = harness.run(
            AllocateOp(freelist=1, data=bytes([i]), rkey=harness.rkey))
        assert result.value not in seen
        seen.add(result.value)
    assert len(seen) == 8


def test_reposted_buffer_can_be_reallocated(harness):
    harness.add_freelist(32, 1)
    result, _ = harness.run(
        AllocateOp(freelist=1, data=b"a", rkey=harness.rkey))
    first = result.value
    harness.freelists[1].post(first)
    result2, _ = harness.run(
        AllocateOp(freelist=1, data=b"b", rkey=harness.rkey))
    assert result2.value == first
    assert harness.space.read(first, 1) == b"b"


@pytest.mark.parametrize("redirect", ["read-only", "ungranted"])
def test_a_nakd_allocate_takes_no_buffer(harness, redirect):
    """The redirect target is checked while the buffer is still posted:
    a NAK leaves the free list, its counters and the buffer untouched."""
    _, _, start = harness.add_freelist(64, 2)
    scratch = harness.space.sbrk(64)
    if redirect == "read-only":
        rkey = harness.regions.register(scratch, 64, AccessFlags.READ)
        harness.connection.grant(rkey)
    freelist = harness.freelists[1]
    result, accesses = harness.run(
        AllocateOp(freelist=1, data=b"payload", rkey=harness.rkey,
                   redirect_to=scratch))
    assert result.status is OpStatus.NAK
    assert isinstance(result.error, AccessViolation)
    assert "ALLOCATE redirect target" in str(result.error)
    assert accesses == []
    assert (len(freelist), freelist.total_popped) == (2, 0)
    assert harness.space.read(start, 7) == b"\0" * 7
    assert harness.space.read_ptr(scratch) == 0
    # the buffer it would have taken is the next one handed out
    result, _ = harness.run(
        AllocateOp(freelist=1, data=b"payload", rkey=harness.rkey))
    assert result.value == start and freelist.total_popped == 1
