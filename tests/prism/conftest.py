"""Fixtures for engine-level tests: memory + regions + engine, no timing."""

import pytest

from repro.prism.address_space import ServerAddressSpace
from repro.prism.engine import Connection, PrismEngine
from repro.rdma.mr import AccessFlags, MemoryRegionTable
from repro.rdma.qp import QueuePair
from repro.sim.resources import BandwidthPipe


class EngineHarness:
    """Bare engine over 1 MiB of memory with one registered region."""

    def __init__(self):
        self.space = ServerAddressSpace(1 << 20, sram_bytes=4096)
        self.regions = MemoryRegionTable()
        self.freelists = {}
        self.engine = PrismEngine(self.space, self.regions, self.freelists)
        self.base = self.space.sbrk(1 << 16)
        self.rkey = self.regions.register(self.base, 1 << 16)
        self.sram_base = self.space.sram_sbrk(256)
        self.sram_rkey = self.regions.register(self.sram_base, 256)
        self.connection = Connection("client", {self.rkey, self.sram_rkey},
                                     sram_slot=self.sram_base)

    def add_freelist(self, buffer_size, count, freelist_id=1):
        qp = QueuePair(buffer_size)
        start = self.space.sbrk(buffer_size * count)
        rkey = self.regions.register(start, buffer_size * count)
        self.connection.grant(rkey)
        qp.post_many(start + i * buffer_size for i in range(count))
        self.freelists[freelist_id] = qp
        return freelist_id, rkey, start

    def run(self, op, prev_ok=True):
        return self.engine.execute_op(self.connection, op, prev_ok)

    def run_chain(self, ops):
        return self.engine.execute_chain(self.connection, ops)


def enter_gate(gate):
    """The posting gate's read side, written as a process: what a
    device execution does in its stages — while a poster is active,
    wait for its release and test again; then count itself in."""
    while gate._posting:
        yield gate.reopened()
    gate._executing += 1


def leave_gate(gate):
    """The read side's end, as an execution's last stage does it: the
    last op out succeeds the poster's drain."""
    gate._executing -= 1
    if gate._executing == 0 and gate._drained is not None:
        event, gate._drained = gate._drained, None
        event.succeed()


def recording_rx(monkeypatch, fabric, host):
    """Record the RX-done instant of every booking on ``host``'s RX
    port; returns the list."""
    rx, book, booked = fabric.host(host).rx, BandwidthPipe.book, []

    def recording_book(pipe, size_bytes, span):
        done = book(pipe, size_bytes, span)
        if pipe is rx:
            booked.append(done)
        return done

    monkeypatch.setattr(BandwidthPipe, "book", recording_book)
    return booked


@pytest.fixture
def harness():
    return EngineHarness()
