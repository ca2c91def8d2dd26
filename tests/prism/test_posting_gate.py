"""The NIC posting gate (§3.2 reader/writer synchronization)."""

import pytest

from repro.net.topology import DIRECT, make_fabric
from repro.prism import HardwarePrismBackend, PrismClient, PrismServer
from repro.prism.backend import BackendConfig, PostingGate
from tests.prism.conftest import enter_gate, leave_gate




def test_reads_flow_when_not_posting(sim, drive):
    gate = PostingGate(sim)
    def main():
        yield from enter_gate(gate)
        leave_gate(gate)
        return sim.now
    assert drive(sim, main()) == 0.0


def test_drain_waits_for_executing_ops(sim):
    gate = PostingGate(sim)
    order = []

    def op():
        yield from enter_gate(gate)
        yield sim.timeout(10)
        leave_gate(gate)
        order.append(("op", sim.now))

    def poster():
        yield sim.timeout(1)
        yield from gate.drain()
        order.append(("drained", sim.now))
        gate.release()

    sim.spawn(op())
    sim.spawn(poster())
    sim.run()
    assert order == [("op", 10.0), ("drained", 10.0)]


def test_new_ops_stall_during_posting(sim):
    gate = PostingGate(sim)
    order = []

    def poster():
        yield from gate.drain()
        order.append(("posting", sim.now))
        yield sim.timeout(5)
        gate.release()
        order.append(("released", sim.now))

    def late_op():
        yield sim.timeout(1)
        yield from enter_gate(gate)
        order.append(("op_started", sim.now))
        leave_gate(gate)

    sim.spawn(poster())
    sim.spawn(late_op())
    sim.run()
    assert order == [("posting", 0.0), ("released", 5.0),
                     ("op_started", 5.0)]


def test_posters_serialize(sim):
    gate = PostingGate(sim)
    order = []

    def poster(tag, hold):
        yield from gate.drain()
        order.append((tag, "in", sim.now))
        yield sim.timeout(hold)
        gate.release()

    sim.spawn(poster("a", 4))
    sim.spawn(poster("b", 4))
    sim.run()
    assert order == [("a", "in", 0.0), ("b", "in", 4.0)]


def test_drain_does_not_count_queued_ops(sim):
    """Ops blocked at enter() are not 'executing': the drain completes
    without waiting for them (that is what keeps posting O(pipeline)
    rather than O(queue))."""
    gate = PostingGate(sim)
    stamps = {}

    def running_op():
        yield from enter_gate(gate)
        yield sim.timeout(3)
        leave_gate(gate)

    def poster():
        yield sim.timeout(1)
        yield from gate.drain()
        stamps["drained"] = sim.now
        yield sim.timeout(10)  # slow post
        gate.release()

    def queued_op():
        yield sim.timeout(2)  # arrives while poster is waiting/posting
        yield from enter_gate(gate)
        stamps["queued_started"] = sim.now
        leave_gate(gate)

    sim.spawn(running_op())
    sim.spawn(poster())
    sim.spawn(queued_op())
    sim.run()
    assert stamps["drained"] == 3.0       # waited only for running_op
    assert stamps["queued_started"] == 13.0  # after release


def test_interleaved_enters_exits(sim):
    gate = PostingGate(sim)
    done = []

    def op(start, hold, tag):
        yield sim.timeout(start)
        yield from enter_gate(gate)
        yield sim.timeout(hold)
        leave_gate(gate)
        done.append(tag)

    def poster():
        yield sim.timeout(2)
        yield from gate.drain()
        gate.release()
        done.append("posted")

    for i in range(3):
        sim.spawn(op(i * 1.0, 4.0, f"op{i}"))
    sim.spawn(poster())
    sim.run()
    assert set(done) == {"op0", "op1", "op2", "posted"}
    # The poster drained after ops 0-2 (all entered before the drain).
    assert done.index("posted") >= 1


# -- through a real server: the device execution is the reader ----------------


class _SlowOps(HardwarePrismBackend):
    """Two units, every op 4 µs: long enough to post buffers mid-op."""

    def __init__(self, sim, engine, config=None):
        super().__init__(sim, engine, BackendConfig(nic_parallelism=2))

    def op_time(self, accesses, op_index=0):
        return 4.0, None


def test_post_buffers_drains_a_running_op_and_stalls_a_granted_one(sim):
    """``post_buffers`` arrives while ALLOCATE A is mid-timer: the drain
    waits for A. ALLOCATE B is granted the second unit meanwhile, finds
    the gate closed and waits — holding its unit — for the release,
    then executes: it gets the very buffer the poster posted. (Run at
    its grant, B would have found the free list empty and NAK'd.)"""
    fabric = make_fabric(sim, DIRECT, ["a", "b", "server"])
    server = PrismServer(sim, fabric, "server", _SlowOps)
    freelist, rkey = server.create_freelist(64, 2)
    spare = server.freelist(freelist).pop()     # one buffer left posted
    gate = server.backend.gate
    pool = server.backend.pool
    seen = {}

    def allocate(tag, client, start_at):
        yield sim.timeout(start_at)
        addr = yield from client.allocate(freelist, b"x", rkey=rkey)
        seen[tag] = (addr, sim.now)

    def poster():
        yield sim.timeout(2.0)
        seen["mid_op"] = (gate._executing, pool.in_use)
        yield from server.post_buffers(freelist, [spare])
        seen["posted"] = (sim.now, gate._executing, pool.in_use)

    sim.spawn(allocate("A", PrismClient(sim, fabric, "a", server), 0.0))
    sim.spawn(allocate("B", PrismClient(sim, fabric, "b", server), 2.0))
    sim.spawn(poster())
    sim.run()

    assert seen["mid_op"] == (1, 1)             # A executing when asked
    posted_at, executing, in_use = seen["posted"]
    assert (executing, in_use) == (0, 1)        # A drained; B holds a unit
    (a_addr, a_done), (b_addr, b_done) = seen["A"], seen["B"]
    assert a_addr != spare and b_addr == spare
    assert posted_at < a_done < posted_at + 4.0     # A ended at the post,
    assert b_done > posted_at + 4.0                 # B ran 4 µs from it
    assert (gate._executing, pool.in_use, pool.queue_length) == (0, 0, 0)
