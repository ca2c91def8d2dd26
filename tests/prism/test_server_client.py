"""PrismServer/PrismClient integration: connections, regions, recycling."""

import gc
import sys
from itertools import count

import pytest

from repro.apps.blockstore import PrismRsClient, PrismRsReplica
from repro.apps.kv import PrismKvClient, PrismKvServer
from repro.core import AccessViolation, ReadOp
from repro.core.ops import AllocateOp, CasMode, CasOp, WriteOp
from repro.hw.layout import pack_uint
from repro.core.constants import REDIRECT_SLOT_BYTES
from repro.net.topology import DIRECT, RACK, make_fabric
from repro.obs import HostProfiler
from repro.prism import (
    HardwarePrismBackend,
    HardwareRdmaBackend,
    PrismClient,
    PrismServer,
    SoftwarePrismBackend,
)
from repro.prism.engine import OpStatus
from repro.rpc.erpc import RpcClient, RpcServer
from repro.sim import Simulator
from tests.prism.conftest import enter_gate, leave_gate, recording_rx


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


def _one_op(kind, addr, rkey):
    if kind == "read":
        return ReadOp(addr=addr, length=8, rkey=rkey)
    if kind == "write":
        return WriteOp(addr=addr, data=b"\xff" * 8, rkey=rkey)
    return CasOp(target=addr, data=b"\xff" * 8, compare_data=bytes(8),
                 rkey=rkey)


@pytest.mark.parametrize("kind", ["read", "write", "cas"])
@pytest.mark.parametrize("violation", [
    "ungranted-rkey", "starts-before-region", "ends-past-region",
    "lacks-access-flag"])
def test_a_protection_violation_is_nakd_and_touches_nothing(
        sim, system, drive, kind, violation):
    """Every comparison of the per-op protection check — granted-rkey
    membership, the access flag, the region's two ends — refuses on its
    own, through a real request, and the refused op leaves memory as it
    was (all of it is zero: a CAS comparing zeros would swap)."""
    from repro.rdma.mr import AccessFlags
    fabric, server = system
    client = PrismClient(sim, fabric, "client", server)
    base, _ = server.add_region(64)            # valid memory on both sides
    addr, rkey = server.add_region(64)
    server.add_region(64)
    if violation == "ungranted-rkey":
        addr, rkey = server.add_region(64, shared=False)
    elif violation == "starts-before-region":
        addr -= 1
    elif violation == "ends-past-region":
        addr += 64 - 7
    else:
        addr, rkey = server.add_region(
            64, flags=AccessFlags.WRITE if kind == "read"
            else AccessFlags.READ)

    def main():
        return (yield from client.execute(_one_op(kind, addr, rkey)))

    outcome = drive(sim, main())[0]
    assert outcome.status is OpStatus.NAK
    assert isinstance(outcome.error, AccessViolation)
    assert server.space.read(base, 4 * 64) == bytes(4 * 64)
    assert server.engine.ops_executed == 0


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
        yield from enter_gate(gate)
        events.append(("start", tag, sim.now))
        yield sim.timeout(duration)
        leave_gate(gate)
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


def _costs_per_request(backend_cls, body, n_extra=100):
    """``(kernel entries, process resumes, process spawns)`` per request,
    exact, as the slope between a run of 10 and one of ``10 + n_extra``
    — set-up and the reader's own bootstrap and completion cancel out.
    ``body(server, client)`` builds what is needed and returns the
    process helper issuing one request."""
    def counts(n):
        sim = Simulator()
        profiler = sim.attach(HostProfiler())
        spawns = [0]
        spawn = sim.spawn

        def counting_spawn(generator, name=None):
            spawns[0] += 1
            return spawn(generator, name=name)

        sim.spawn = counting_spawn
        fabric = make_fabric(sim, RACK, ["client", "server"])
        server = PrismServer(sim, fabric, "server", backend_cls)
        client = PrismClient(sim, fabric, "client", server)
        one_request = body(server, client)

        def issuer():
            for _ in range(n):
                yield from one_request()

        try:
            sim.run_until_complete(sim.spawn(issuer()))
        finally:
            profiler.finish(sim.now)    # stop being the ambient profiler
        return sim.events_executed, profiler.resumes, spawns[0]

    more, fewer = counts(10 + n_extra), counts(10)
    return tuple((a - b) / n_extra for a, b in zip(more, fewer))


def _read_512(indirect):
    def body(server, client):
        data, rkey = server.add_region(1 << 12)
        server.space.write(data, b"v" * 512)
        server.space.write_ptr(data + 512, data)

        def one_request():
            assert (yield from client.read(
                data + 512 if indirect else data, 512, rkey=rkey,
                indirect=indirect)) == b"v" * 512
        return one_request
    return body


def test_an_indirect_read_costs_seven_entries_and_one_resume():
    """The ``kv_read``-shaped op — closed loop, ``prism-hw``, one
    indirect READ — at zero tolerance: 2 client stages (post overhead,
    completion overhead) + 2 x 2 message stages (the end of
    propagation and of RX serialization) + the execution's one op
    timer = 7 kernel entries. Each message's TX port is booked at its
    post (9 while the end of TX serialization took an entry). The
    execution starts in the entry that delivers the request, and its
    free processing unit is granted inside the claim (10 while the
    grant took a ready-deque slot); an untimed call starts its
    completion stage in the reply's hand-over. The device runs no
    process (0 spawns) and the client is resumed once, with the
    result."""
    assert _costs_per_request(HardwarePrismBackend, _read_512(True)) \
        == (7, 1, 0)


def test_the_software_stacks_admission_rides_the_rx_timer():
    """What ``prism-hw`` costs, 7: the stack's admission delay is the
    request service's lead, so the request's hand-over comes at RX-done
    + ``admission_us`` in one entry — 2 client stages + 2 x 2 message
    stages + 1 op timer = 7, where an admission timer of its own made
    it 7 + 1 = 8."""
    assert _costs_per_request(SoftwarePrismBackend, _read_512(True)) \
        == (7, 1, 0)


def test_a_software_request_is_handed_over_its_admission_after_rx_done(
        monkeypatch):
    """The server's request service is registered with the backend's
    ``admission_us`` as its lead: the execution starts at RX-done +
    ``admission_us``, bit for bit the instant an admission timer started
    at RX-done reached. Its ``server.process`` and ``admission`` spans
    still open at RX-done, and the admission span closes at the
    hand-over, where the first op's dispatch opens."""
    from repro.obs.trace import Tracer

    sim = Simulator()
    tracer = sim.attach(Tracer())
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(64)
    landed = recording_rx(monkeypatch, fabric, "server")
    accepted = []
    accept = server.accept

    def recording_accept(execution):
        accepted.append((sim.now, execution.message.landed))
        return accept(execution)

    server.accept = recording_accept
    root = tracer.root("op", op=1)
    sim.run_until_complete(sim.spawn(client.read(addr, 8, rkey=rkey,
                                                 span=root)))
    lead = server.backend.admission_us
    assert lead == 3.0
    (done,) = landed
    assert accepted == [(done + lead, done)]
    spans = {span.name: span for span in root.walk()}
    assert spans["server.process"].start == done
    assert (spans["admission"].start, spans["admission"].end) == (
        done, done + lead)
    assert spans["dispatch[0]"].start == done + lead


def test_a_classic_read_costs_what_an_indirect_one_does():
    """7: the same execution path (10 while the unit grant took a slot
    of its own, 9 while each message's TX serialization ended in an
    entry)."""
    assert _costs_per_request(HardwareRdmaBackend, _read_512(False)) \
        == (7, 1, 0)


def test_each_further_op_of_a_chain_costs_a_timer():
    """The PRISM-KV PUT install chain (WRITE, WRITE, ALLOCATE, CAS_GT):
    three more ops than a READ, one entry each, its timer — the unit it
    claims when the last op's timer releases one is granted inside the
    claim — still one round trip, one resume, no process: 7 + 3 = 10.
    10 + 3 x 2 while each grant took a ready-deque slot, 9 + 3 while
    each message's TX serialization ended in an entry."""
    def body(server, client):
        freelist, buffers_rkey = server.create_freelist(64, 128)
        slot, rkey = server.add_region(24)
        tmp = client.sram_slot
        versions = count(1)

        def one_request():
            result = yield from client.execute(
                WriteOp(addr=tmp, data=pack_uint(next(versions), 8),
                        rkey=server.sram_rkey),
                WriteOp(addr=tmp + 16, data=pack_uint(64, 8),
                        rkey=server.sram_rkey),
                AllocateOp(freelist=freelist, data=b"v" * 64,
                           rkey=buffers_rkey, redirect_to=tmp + 8),
                CasOp(target=slot, data=tmp.to_bytes(8, "little"),
                      rkey=rkey, mode=CasMode.GT,
                      compare_mask=(1 << 64) - 1, data_indirect=True,
                      operand_width=24, conditional=True))
            assert result.committed
        return one_request

    assert _costs_per_request(HardwarePrismBackend, body) \
        == (7 + 3, 1, 0)


def test_an_op_priced_at_zero_takes_no_timer_entry():
    """A non-positive duration skips the op's stage — it is not a
    zero-delay timer — so the READ costs one entry less: 7 - 1 = 6 (9
    while the unit grant took a slot of its own, 8 while each message's
    TX serialization ended in an entry)."""
    class FreeOps(HardwarePrismBackend):
        def op_time(self, accesses, op_index=0):
            return 0.0, None

    assert _costs_per_request(FreeOps, _read_512(True)) == (6, 1, 0)


def test_a_chain_nakd_midway_skips_the_rest_and_frees_unit_and_gate(
        sim, system, drive):
    fabric, server = system
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(128)

    def main():
        return (yield from client.execute(
            WriteOp(addr=addr, data=b"kept", rkey=rkey),
            ReadOp(addr=addr + 4096, length=8, rkey=rkey),   # out of bounds
            WriteOp(addr=addr, data=b"lost", rkey=rkey),
            ReadOp(addr=addr, length=4, rkey=rkey)))

    result = drive(sim, main())
    assert [r.status for r in result] == [
        OpStatus.OK, OpStatus.NAK, OpStatus.SKIPPED, OpStatus.SKIPPED]
    assert server.space.read(addr, 4) == b"kept"
    backend = server.backend
    assert (backend.pool.in_use, backend.pool.queue_length,
            backend.gate._executing) == (0, 0, 0)
    assert backend.requests_processed == 1


def test_a_failing_pricing_function_frees_unit_and_gate_and_stops_the_run(
        sim, fabric):
    """No process stands between the engine and the kernel any more: a
    bug in a backend surfaces from ``run`` in the entry it happens in,
    with nothing left held."""
    class Broken(HardwarePrismBackend):
        def op_time(self, accesses, op_index=0):
            raise ZeroDivisionError("bad cost model")

    server = PrismServer(sim, fabric, "server", Broken)
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(64)
    sim.spawn(client.read(addr, 8, rkey=rkey))
    with pytest.raises(ZeroDivisionError, match="bad cost model"):
        sim.run()
    backend = server.backend
    assert (backend.pool.in_use, backend.gate._executing) == (0, 0)


def test_requests_leave_no_reference_cycles():
    """Benchmark points run with ``gc`` off, so a call, ack deadline or
    execution caught in a cycle would leak once per request. Reference
    counting alone must free them all — timed requests (under a plan: a
    call and its deadline refer to each other until one resolves),
    untimed ones (no plan) and chains (the execution registers itself
    on each unit grant) included."""
    import gc

    from repro.faults.plan import FaultPlan, RetryPolicy
    from repro.net.port import _AckDeadline, _Call
    from repro.prism.backend import _Execution

    kinds = (_Call, _AckDeadline, _Execution)

    def live():
        return sum(1 for obj in gc.get_objects() if type(obj) in kinds)

    for plan in (FaultPlan(seed=1, retry=RetryPolicy(timeout_us=75.0)),
                 None):
        sim = Simulator()
        if plan is not None:
            sim.set_faults(plan)
        fabric = make_fabric(sim, RACK, ["client", "server"])
        server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
        addr, rkey = server.add_region(64)
        client = PrismClient(sim, fabric, "client", server)
        assert (client.channel.retry is None) == (plan is None)
        seen_in_flight = []

        def reader():
            for _ in range(50):
                yield from client.execute(
                    WriteOp(addr=addr, data=b"x", rkey=rkey),
                    ReadOp(addr=addr, length=1, rkey=rkey))
                seen_in_flight.append(live())

        sim.spawn(reader())
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim.run()
            assert server.backend.requests_processed == 50
            # The census works: the call resuming the reader is alive.
            assert min(seen_in_flight) >= 1
            assert live() == 0
        finally:
            if was_enabled:
                gc.enable()


# -- frames per op, pinned like entries per op ---------------------------------


_FRAME_OPS = 20


def _frames_and_entries(build):
    """``(Python frames under src/repro, kernel entries)`` of
    ``_FRAME_OPS`` operations, exact, as the difference between a run of
    ``2 * _FRAME_OPS`` and one of ``_FRAME_OPS`` so set-up cancels. A
    frame is a ``sys.setprofile`` "call" event — a function entered or a
    generator resumed — defined in a module of this package, whatever
    file its code claims: a dataclass- or ``namedtuple``-generated
    ``__init__`` (code file ``<string>``) counts for the module that
    defined the class. Builtins and the standard library are not
    counted. ``build(sim)`` returns the process helper issuing one
    operation."""
    def counts(n_ops):
        sim = Simulator()
        one_op = build(sim)

        def issuer():
            for _ in range(n_ops):
                yield from one_op()

        frames = [0]

        def hook(frame, event, _arg):
            if event == "call" and frame.f_globals.get(
                    "__name__", "").partition(".")[0] == "repro":
                frames[0] += 1

        process = sim.spawn(issuer())
        # Earlier simulators' daemons are generators in reference cycles:
        # finalizing one inside the window would count its frames.
        gc.collect()
        gc.disable()
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            sim.run_until_complete(process)
            sim.run(until=sim.now + 50.0)   # a quorum's straggler legs
        finally:
            sys.setprofile(previous)
            gc.enable()
        return frames[0], sim.events_executed

    twice, once = counts(2 * _FRAME_OPS), counts(_FRAME_OPS)
    return tuple(a - b for a, b in zip(twice, once))


def _kv_get(backend_cls):
    def build(sim):
        fabric = make_fabric(sim, RACK, ["client", "server"])
        server = PrismKvServer(sim, fabric, "server", backend_cls,
                               n_keys=64, max_value_bytes=512)
        for key in range(64):
            server.load(key, b"v" * 512)
        client = PrismKvClient(sim, fabric, "client", server)

        def one_op():
            assert (yield from client.get(7)) == b"v" * 512
        return one_op
    return build


def _rs_put(sim):
    hosts = ["client", "r0", "r1", "r2"]
    fabric = make_fabric(sim, RACK, hosts)
    replicas = [PrismRsReplica(sim, fabric, host, SoftwarePrismBackend,
                               n_blocks=64, block_size=512)
                for host in hosts[1:]]
    for block in range(64):
        for replica in replicas:
            replica.load(block, b"o" * 512)
    client = PrismRsClient(sim, fabric, "client", replicas, client_id=1)

    def one_op():
        yield from client.put(7, b"n" * 512)
    return one_op


def _classic_read(sim):
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", HardwareRdmaBackend)
    client = PrismClient(sim, fabric, "client", server)
    return _read_512(False)(server, client)


def _rpc_call(sim):
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = RpcServer(sim, fabric, "server")
    server.register("read", lambda args: (b"v" * 512, 512))
    client = RpcClient(sim, fabric, "client")

    def one_op():
        assert (yield from client.call("server", "read", None, 16)) \
            == b"v" * 512
    return one_op


#: frames of ``_FRAME_OPS`` operations (the servers' recycler daemons
#: tick meanwhile, hence not multiples of 20), counted by defining
#: module since the op descriptors became slotted tuples and ``Access``
#: / ``OpResult`` slotted classes, and units are claimed by their
#: holders. Counted that way, the parent read 2396, 2396, 18841, 2000
#: and 1280 (counted by code file, which missed every dataclass
#: ``__init__``, it had read 2316, 2316, 17881, 1940 and 1280). Since
#: one driver steps every generator a process's resume is one frame
#: (``_Task.__call__``), where ``Process._resume`` called
#: ``Process._step``: the pins read 2176, 2176, 16492, 1840 and 1220
#: before. Since a span names its operation, no scheduled payload asks
#: the kernel for a flight context when it is made
#: (``Simulator.context``, four frames an operation here): the pins read
#: 2154, 2154, 16357, 1820 and 1200 before. Since a device execution
#: and an RPC handling start in the delivering entry, an untimed call
#: completes in the reply's hand-over and a quorum phase starts its
#: legs in its parent's entry and is decided in its deciding leg's,
#: each removed ready-deque hop is one dispatch frame fewer: the pins
#: read 2074, 2074, 15828, 1740 and 1120 before, and 12, 13, 12 and 12
#: entries an operation. Since a free unit or core is granted inside
#: the claim, a GET, READ or call is one entry fewer (10, 11, 10 and 10
#: before) and no frame more or fewer: the grant's frame is the same
#: call, made by the claim instead of the run loop. Since a wire port is
#: booked at the post (Lindley's recursion), each message's TX-finish
#: entry is gone, and with it its ``fire``, ``_leave`` and the port's
#: ``finish``; the RX port's ``finish`` went too, and the path timer is
#: pushed in place, not through ``schedule_at``: 5 frames and 1 entry a
#: message, so 10 frames and 2 entries a GET, READ or call. A GET also
#: reads its length and checks the entry's key in place, where it
#: called ``full_read_len``, ``buffer_bytes``, ``entry_key`` and
#: ``unpack_uint`` (4 frames). The pins read 2034, 2034, 15502, 1700 and
#: 1080 before (measured 2014, 2014, 15378, 1680 and 1060), and 9, 10, 9
#: and 9 entries an operation. A request-path change that adds a frame
#: must say which one, and why its work cannot live in its caller.
_FRAMES_PINNED = [
    pytest.param(_kv_get(HardwarePrismBackend), 1734, 7,
                 id="kv-get-prism-hw"),
    # the stack's admission delay rides the RX port's timer: one entry
    # (1734 frames and 8 entries while it had a timer of its own) and
    # its dispatch, ``fire`` and ``schedule`` frames fewer per GET
    pytest.param(_kv_get(SoftwarePrismBackend), 1694, 7,
                 id="kv-get-prism-sw"),
    # a quorum phase became a scheduled payload after rule 12: 19884
    # frames (by code file) while each replica leg was a process; 18144
    # while the layouts packed ⟨tag, addr⟩ and ⟨tag | value⟩ field by
    # field; an ALLOCATE looks at its buffer before it pops it (+3 a PUT);
    # a leg's booking (``Phase._book``) and a straggler's are a frame
    # each, where the phase's own driver booked inline; 16477 while each
    # replica's install read ``sram_slot``, encoded its tag through
    # ``pack_uint`` and decoded the CAS's old word with
    # ``RsLayout.unpack_meta`` (four frames, two since
    # ``PrismClient.install`` / ``displaced`` do it); 532 context frames
    # went, and each retire flush's ``span.untraced()`` is one frame
    # (three flushes here): the report belongs to the operation that
    # launches it but stays out of its trace; 14027 while each of the
    # six device requests per PUT took an admission timer
    pytest.param(_rs_put, 13787, None, id="rs-put-prism-sw"),
    pytest.param(_classic_read, 1480, 7, id="read-rdma-hw"),
    # an RPC's server side became a scheduled payload after rule 12:
    # 1760 frames while its handler was a process
    pytest.param(_rpc_call, 860, 7, id="rpc-call"),
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="frame counts are pinned on CPython 3.11 (CI's): other minors "
           "report comprehension and generator frames differently")
@pytest.mark.parametrize("build, frames_pinned, entries_per_op",
                         _FRAMES_PINNED)
def test_python_frames_per_operation_do_not_grow(build, frames_pinned,
                                                 entries_per_op):
    """Rule 12's gate: the work of a kernel entry is written in the
    function the entry dispatches to, so frames per operation stay a
    small multiple of entries per operation — at most 17 Python frames
    per entry, the bound asserted here (the ``kv_read``-shaped GET
    spends about 12: its 7 entries are fewer, not thinner)."""
    frames, entries = _frames_and_entries(build)
    assert frames <= frames_pinned
    if entries_per_op is not None:
        # (a recycler daemon's ticks add an entry or two to the twenty ops')
        assert entries // _FRAME_OPS == entries_per_op
        assert frames <= 17 * entries_per_op * _FRAME_OPS
