"""PrismServer/PrismClient integration: connections, regions, recycling."""

import pytest

from repro.core import AccessViolation, ReadOp
from repro.core.constants import REDIRECT_SLOT_BYTES
from repro.net.topology import DIRECT, RACK, make_fabric
from repro.obs import HostProfiler
from repro.prism import (
    HardwarePrismBackend,
    PrismClient,
    PrismServer,
    SoftwarePrismBackend,
)
from repro.prism.engine import OpStatus
from repro.sim import Simulator


@pytest.fixture
def system(sim):
    fabric = make_fabric(sim, DIRECT, ["client", "client2", "server"])
    server = PrismServer(sim, fabric, "server", HardwarePrismBackend)
    return fabric, server


def test_connections_get_distinct_sram_slots(sim, system):
    fabric, server = system
    a = PrismClient(sim, fabric, "client", server)
    b = PrismClient(sim, fabric, "client2", server)
    assert a.sram_slot != b.sram_slot
    assert abs(a.sram_slot - b.sram_slot) >= REDIRECT_SLOT_BYTES


def test_shared_region_granted_retroactively(sim, system):
    fabric, server = system
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(128)  # registered after connect
    assert rkey in client.connection.granted_rkeys


def test_unshared_region_not_granted(sim, system, drive):
    fabric, server = system
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(128, shared=False)

    def main():
        result = yield from client.execute(
            ReadOp(addr=addr, length=8, rkey=rkey))
        return result[0]

    assert drive(sim, main()).status is OpStatus.NAK


def test_convenience_read_raises_on_nak(sim, system, drive):
    fabric, server = system
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(128)

    def main():
        with pytest.raises(AccessViolation):
            yield from client.read(addr + 1024, 8, rkey=rkey)
        return "raised"

    assert drive(sim, main()) == "raised"


def test_round_trip_counting(sim, system, drive):
    fabric, server = system
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(128)

    def main():
        yield from client.write(addr, b"abc", rkey=rkey)
        yield from client.read(addr, 3, rkey=rkey)
        return client.round_trips

    assert drive(sim, main()) == 2


def test_freelist_creation_and_allocation(sim, system, drive):
    fabric, server = system
    freelist, rkey = server.create_freelist(128, 10)
    client = PrismClient(sim, fabric, "client", server)

    def main():
        first = yield from client.allocate(freelist, b"hello", rkey=rkey)
        second = yield from client.allocate(freelist, b"world", rkey=rkey)
        return first, second

    first, second = drive(sim, main())
    assert second == first + 128
    assert server.space.read(first, 5) == b"hello"


def test_post_buffers_waits_for_executing_ops(sim, system):
    """The §3.2 guarantee via the posting gate: the post happens only
    after currently executing NIC operations drain, and operations
    arriving mid-post wait for the gate to reopen."""
    fabric, server = system
    freelist, rkey = server.create_freelist(64, 1)
    gate = server.backend.gate
    events = []

    def fake_op(start_at, duration, tag):
        yield sim.timeout(start_at)
        yield from gate.enter()
        events.append(("start", tag, sim.now))
        yield sim.timeout(duration)
        gate.exit()
        events.append(("end", tag, sim.now))

    def poster():
        yield sim.timeout(1.0)  # while op A executes
        yield from server.post_buffers(freelist, [server.space.sbrk(64)])
        events.append(("posted", None, sim.now))

    sim.spawn(fake_op(0.0, 5.0, "A"))   # executing when post requested
    sim.spawn(fake_op(2.0, 1.0, "B"))   # arrives mid-post: must wait
    sim.spawn(poster())
    sim.run(until=1e4)

    posted_at = next(t for kind, _, t in events if kind == "posted")
    a_end = next(t for kind, tag, t in events if kind == "end" and tag == "A")
    b_start = next(t for kind, tag, t in events
                   if kind == "start" and tag == "B")
    assert posted_at >= a_end          # drained before posting
    assert b_start >= posted_at        # new op stalled until reopened
    assert len(server.freelists[freelist]) == 2  # buffer actually posted


def test_response_sizes_scale_with_payload(sim, system):
    fabric, server = system
    addr, rkey = server.add_region(4096)
    client = PrismClient(sim, fabric, "client", server)
    latencies = {}

    def main():
        for size in (64, 2048):
            start = sim.now
            yield from client.read(addr, size, rkey=rkey)
            latencies[size] = sim.now - start

    sim.run_until_complete(sim.spawn(main()), limit=1e6)
    assert latencies[2048] > latencies[64]


def test_two_clients_isolated_scratch(sim, system, drive):
    fabric, server = system
    a = PrismClient(sim, fabric, "client", server)
    b = PrismClient(sim, fabric, "client2", server)

    def main():
        yield from a.write(a.sram_slot, b"AAAA", rkey=server.sram_rkey)
        yield from b.write(b.sram_slot, b"BBBB", rkey=server.sram_rkey)
        a_data = yield from a.read(a.sram_slot, 4, rkey=server.sram_rkey)
        return a_data

    assert drive(sim, main()) == b"AAAA"


def test_unknown_connection_rejected_remotely(sim, system, drive):
    from repro.core import ReadOp, RemoteNak
    from repro.net.port import RequestChannel
    fabric, server = system
    addr, rkey = server.add_region(64)
    channel = RequestChannel(sim, fabric, "client")
    op = ReadOp(addr=addr, length=8, rkey=rkey)

    def main():
        with pytest.raises(RemoteNak, match="unknown connection"):
            yield from channel.request("server", "prism", (9999, [op]),
                                       request_size=64)
        return "rejected"

    assert drive(sim, main()) == "rejected"


def test_an_indirect_read_costs_thirteen_entries_and_six_resumes():
    """The ``kv_read``-shaped op — closed loop, ``prism-hw``, one
    indirect READ — at zero tolerance, by the slope over N reads:
    3 timers (post overhead, the op's execution, completion overhead)
    + 2 x 3 message stages + 1 processing-unit grant + the server
    process's bootstrap and completion + the reply event = 13 kernel
    entries, and 3 client + 3 server resumes (no process is resumed to
    move a message)."""
    def counts(n):
        sim = Simulator()
        profiler = sim.attach(HostProfiler())
        fabric = make_fabric(sim, RACK, ["client", "server"])
        server = PrismServer(sim, fabric, "server", HardwarePrismBackend)
        data, rkey = server.add_region(1 << 12)
        server.space.write(data, b"v" * 512)
        server.space.write_ptr(data + 512, data)
        client = PrismClient(sim, fabric, "client", server)

        def reader():
            for _ in range(n):
                assert (yield from client.read(
                    data + 512, 512, rkey=rkey, indirect=True)) == b"v" * 512

        try:
            sim.run_until_complete(sim.spawn(reader()))
        finally:
            profiler.finish(sim.now)    # stop being the ambient profiler
        return sim.events_executed, profiler.resumes

    more, fewer = counts(110), counts(10)
    assert more[0] - fewer[0] == 13 * 100
    assert more[1] - fewer[1] == 6 * 100
