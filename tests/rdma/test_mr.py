"""Memory region registration and rkey checks."""

import pytest

from repro.core.errors import AccessViolation
from repro.rdma.mr import AccessFlags, MemoryRegion, MemoryRegionTable


@pytest.fixture
def table():
    return MemoryRegionTable()


def test_register_returns_unique_rkeys(table):
    a = table.register(0x1000, 64)
    b = table.register(0x2000, 64)
    assert a != b


def test_empty_region_rejected(table):
    with pytest.raises(AccessViolation):
        table.register(0x1000, 0)


def test_unknown_rkey(table):
    with pytest.raises(AccessViolation, match="unknown rkey"):
        table.check(0x1000, 8, 0xDEAD, AccessFlags.READ)


def test_check_within_bounds(table):
    rkey = table.register(0x1000, 64)
    region = table.check(0x1000, 64, rkey, AccessFlags.READ)
    assert region.rkey == rkey


def test_check_out_of_bounds(table):
    rkey = table.register(0x1000, 64)
    with pytest.raises(AccessViolation):
        table.check(0x1000 + 60, 8, rkey, AccessFlags.READ)
    with pytest.raises(AccessViolation):
        table.check(0xFF8, 8, rkey, AccessFlags.READ)


def test_permission_enforcement(table):
    rkey = table.register(0x1000, 64, AccessFlags.READ)
    table.check(0x1000, 8, rkey, AccessFlags.READ)
    with pytest.raises(AccessViolation, match="lacks"):
        table.check(0x1000, 8, rkey, AccessFlags.WRITE)
    with pytest.raises(AccessViolation):
        table.check(0x1000, 8, rkey, AccessFlags.ATOMIC)


def test_combined_permissions(table):
    rkey = table.register(0x1000, 64, AccessFlags.READ | AccessFlags.WRITE)
    table.check(0x1000, 8, rkey, AccessFlags.READ | AccessFlags.WRITE)
    with pytest.raises(AccessViolation):
        table.check(0x1000, 8, rkey, AccessFlags.ALL)


def test_deregister(table):
    rkey = table.register(0x1000, 64)
    table.deregister(rkey)
    with pytest.raises(AccessViolation):
        table.check(0x1000, 8, rkey, AccessFlags.READ)
    table.deregister(rkey)  # idempotent


def test_region_covers():
    region = MemoryRegion(1, 100, 50, AccessFlags.ALL)
    assert region.covers(100, 50)
    assert region.covers(149, 1)
    assert not region.covers(99, 1)
    assert not region.covers(149, 2)
    assert region.end == 150


def test_overlapping_regions_have_independent_rkeys(table):
    a = table.register(0x1000, 128)
    b = table.register(0x1040, 128)
    table.check(0x1050, 8, a, AccessFlags.READ)
    table.check(0x1050, 8, b, AccessFlags.READ)
    with pytest.raises(AccessViolation):
        table.check(0x1000, 8, b, AccessFlags.READ)


def test_allows_agrees_with_check_and_formats_nothing(table, monkeypatch):
    """``allows_any`` is ``check`` as a predicate over a set of rkeys:
    under one rkey, the same verdict for a missing rkey, a missing
    permission and either bound; under several, whether any of them
    passes — but a miss builds no exception, so it never formats a
    region."""
    read_only = table.register(0x1000, 64, AccessFlags.READ)
    everything = table.register(0x2000, 64)
    rkeys = (read_only, everything, 0xDEAD)
    needs = (AccessFlags.READ, AccessFlags.WRITE,
             AccessFlags.READ | AccessFlags.ATOMIC)
    spans = ((0x1000, 64), (0x1000, 65), (0xFFF, 2), (0x2000, 8),
             (0x203C, 8), (0, 8))
    cases = [(addr, length, rkey, need)
             for rkey in rkeys for need in needs for addr, length in spans]

    def checks(*case):
        try:
            table.check(*case)
        except AccessViolation:
            return False
        return True

    expected = [checks(*case) for case in cases]
    assert True in expected and False in expected
    expected_any = [any(checks(addr, length, rkey, need) for rkey in rkeys)
                    for need in needs for addr, length in spans]
    assert True in expected_any and False in expected_any

    def no_repr(region):
        raise AssertionError("allows_any() formatted a region")

    monkeypatch.setattr(MemoryRegion, "__repr__", no_repr)
    assert [table.allows_any(addr, length, [rkey], need)
            for addr, length, rkey, need in cases] == expected
    assert [table.allows_any(addr, length, rkeys, need)
            for need in needs for addr, length in spans] == expected_any
    assert not table.allows_any(0x1000, 8, (), AccessFlags.READ)
