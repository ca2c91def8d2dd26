"""Per-layer micro-benchmarks: one layer's public functions, nothing above it.

Each function builds the smallest thing that exercises one layer, runs a
fixed amount of work, checks the result, and returns the work done, the
seconds the timed loop took, and any exact counts (kernel events per unit of
work). They are independent of the workload and of ``--seed``; the traced run
wraps each in a span and a pair of calibration loops.
"""

from time import perf_counter

from repro.apps.blockstore import PrismRsReplica
from repro.apps.blockstore.layout import META_SIZE, META_TAG_MASK, RsLayout
from repro.apps.btree import BTreeClient, BTreeServer
from repro.apps.common import make_tag
from repro.apps.memnode import SharedLogClient, SharedLogNode
from repro.core.ops import AllocateOp, CasMode, CasOp, ReadOp, WriteOp
from repro.core.wire import decode_chain, encode_chain
from repro.hw.layout import pack_uint
from repro.hw.memory import HostMemory
from repro.net.port import RequestChannel, send_reply
from repro.net.topology import RACK, make_fabric
from repro.prism import (
    BlueFieldPrismBackend,
    HardwarePrismBackend,
    HardwareRdmaBackend,
    PrismClient,
    PrismServer,
    SoftwarePrismBackend,
)
from repro.prism.engine import OpStatus
from repro.rpc.erpc import RpcClient, RpcServer
from repro.sim import Resource, Simulator
from repro.workload.sources import AggregatedOpenLoopSource
from repro.workload.ycsb import YCSB_C

from perfbench import audit

VALUE = b"v" * 512


def _run(sim, *generators):
    """Drive ``generators`` to completion; returns the seconds it took."""
    start = perf_counter()
    audit.run_to_completion(sim, generators)
    return perf_counter() - start


def _expect(condition, what):
    if not condition:
        raise AssertionError(f"micro-benchmark check failed: {what}")


# -- sim ----------------------------------------------------------------------


def kernel_timers(n=150_000, chains=64):
    """Timer-only: bare callbacks re-arming themselves through the heap."""
    sim = Simulator()
    remaining = [n]

    def tick():
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.call_at(sim.now + 1.0 + (remaining[0] % 7) * 0.125, tick)

    for chain in range(chains):
        sim.call_at(1.0 + chain * 0.01, tick)
    start = perf_counter()
    sim.run()
    wall = perf_counter() - start
    _expect(sim.events_executed == n + chains, "every timer fired once")
    return {"work": sim.events_executed, "wall_s": wall}


def kernel_pingpong(n=60_000):
    """Resume-only: two processes waking each other within one instant."""
    sim = Simulator()
    inbox = {"ping": sim.event(), "pong": sim.event()}
    received = {"ping": 0, "pong": 0}

    def player(me, other):
        for _ in range(n):
            yield inbox[me]
            received[me] += 1
            inbox[me] = sim.event()
            inbox[other].succeed()

    inbox["ping"].succeed()
    wall = _run(sim, player("ping", "pong"), player("pong", "ping"))
    _expect(received == {"ping": n, "pong": n}, "every wake-up arrived")
    return {"work": 2 * n, "wall_s": wall}


def resource_handoffs(workers=16, rounds=3000):
    """A capacity-1 FIFO resource handed from waiter to waiter."""
    sim = Simulator()
    resource = Resource(sim, capacity=1, name="micro")
    held = [0]

    def worker():
        for _ in range(rounds):
            yield resource.acquire()
            held[0] += 1
            yield sim.timeout(0.1)
            resource.release()

    wall = _run(sim, *(worker() for _ in range(workers)))
    _expect(held[0] == workers * rounds, "every acquire was granted")
    return {"work": workers * rounds, "wall_s": wall}


def timeout_races(workers=32, rounds=1200):
    """``with_timeout`` races the reply wins, so every timer is cancelled."""
    sim = Simulator()
    won = [0]

    def worker(index):
        for _ in range(rounds):
            reply = sim.timeout(1.0 + index * 0.01, value=index)
            value = yield from sim.with_timeout(reply, 75.0)
            won[0] += value == index

    wall = _run(sim, *(worker(index) for index in range(workers)))
    _expect(won[0] == workers * rounds, "the reply won every race")
    # Entries still in the timer heap once every race is over: cancelled
    # timers that were neither popped nor compacted away. The kernel has no
    # public accessor for this, so the benchmark reads the heap's length.
    return {"work": workers * rounds, "wall_s": wall,
            "heap_residue": len(sim._queue)}


# -- net ----------------------------------------------------------------------


def fabric_messages(n=12_000):
    """One-way messages between two hosts, delivered to a counting sink."""
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["a", "b"])
    delivered = [0]

    def sink(message):
        delivered[0] += 1

    fabric.host("b").register_service("sink", sink)

    def sender():
        for _ in range(n):
            yield from fabric.send("a", "b", "sink", None, 64)

    wall = _run(sim, sender())
    start = perf_counter()
    sim.run()   # the last deliveries are still in flight
    wall += perf_counter() - start
    _expect(delivered[0] == n, "every message was delivered")
    return {"work": n, "wall_s": wall, "events": sim.events_executed}


def channel_roundtrips(n=6_000):
    """``RequestChannel`` request/reply against an echo service."""
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["a", "b"])
    channel = RequestChannel(sim, fabric, "a")

    def echo(message):
        request = message.payload
        sim.spawn(send_reply(fabric, "b", request, request.body, 64))

    fabric.host("b").register_service("echo", echo)
    echoed = [0]

    def client():
        for index in range(n):
            echoed[0] += (yield from channel.request(
                "b", "echo", index, 64)) == index

    wall = _run(sim, client())
    _expect(echoed[0] == n, "every reply carried its request's body")
    return {"work": n, "wall_s": wall, "events": sim.events_executed}


# -- hw, core -------------------------------------------------------------------


def memory_u64(n=150_000):
    memory = HostMemory(1 << 20)
    total = 0
    start = perf_counter()
    for index in range(n):
        addr = 64 + (index % 1000) * 8
        memory.write_uint(addr, index)
        total += memory.read_uint(addr)
    wall = perf_counter() - start
    _expect(total == n * (n - 1) // 2, "every integer read back")
    return {"work": 2 * n, "wall_s": wall}


def memory_block512(n=100_000):
    memory = HostMemory(1 << 20)
    intact = 0
    start = perf_counter()
    for index in range(n):
        addr = 64 + (index % 1000) * 512
        memory.write(addr, VALUE)
        intact += memory.read(addr, 512) == VALUE
    wall = perf_counter() - start
    _expect(intact == n, "every block read back")
    return {"work": 2 * n, "wall_s": wall}


def _put_chain():
    """The PRISM-KV PUT chain: WRITE, WRITE, ALLOCATE, CAS_GT."""
    return [
        WriteOp(addr=4096, data=pack_uint(7, 8), rkey=1),
        WriteOp(addr=4112, data=pack_uint(536, 8), rkey=1),
        AllocateOp(freelist=1, data=VALUE + bytes(24), rkey=2,
                   redirect_to=4104),
        CasOp(target=8192, data=(4096).to_bytes(8, "little"), rkey=3,
              mode=CasMode.GT, compare_mask=(1 << 64) - 1,
              data_indirect=True, operand_width=24, conditional=True),
    ]


def wire_encode(n=20_000):
    chain = _put_chain()
    size = 0
    start = perf_counter()
    for _ in range(n):
        size += len(encode_chain(chain))
    wall = perf_counter() - start
    _expect(size == n * len(encode_chain(chain)), "encoding is stable")
    return {"work": n, "wall_s": wall, "bytes_per_chain": size // n}


def wire_decode(n=20_000):
    chain = _put_chain()
    blob = encode_chain(chain)
    ops = 0
    start = perf_counter()
    for _ in range(n):
        ops += len(decode_chain(blob))
    wall = perf_counter() - start
    _expect(ops == n * len(chain) and decode_chain(blob) == chain,
            "a decoded chain equals the one encoded")
    return {"work": n, "wall_s": wall}


# -- prism ----------------------------------------------------------------------


def _prism_pair(backend_cls):
    """One client, one server, a value and a pointer to it."""
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", backend_cls)
    data, rkey = server.add_region(1 << 16)
    server.space.write(data, VALUE)
    server.space.write_ptr(data + 512, data)
    client = PrismClient(sim, fabric, "client", server)
    return sim, server, client, data, rkey


def engine_indirect_reads(n=40_000):
    """Indirect READ chains executed by the engine with no network."""
    _sim, server, _client, data, rkey = _prism_pair(HardwarePrismBackend)
    connection = server.connect("micro")
    chain = [ReadOp(addr=data + 512, length=512, rkey=rkey, indirect=True)]
    execute = server.engine.execute_chain
    intact = 0
    start = perf_counter()
    for _ in range(n):
        intact += execute(connection, chain).last.value == VALUE
    wall = perf_counter() - start
    _expect(intact == n, "every indirect READ returned the value")
    return {"work": n, "wall_s": wall}


def engine_install_chains(n=15_000):
    """PRISM-RS install chains (WRITE tag, ALLOCATE, CAS_GT), no network."""
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["server"])
    replica = PrismRsReplica(sim, fabric, "server", SoftwarePrismBackend,
                             n_blocks=16, block_size=512, spare_buffers=64)
    replica.load(0, VALUE)
    connection = replica.prism.connect("micro")
    tmp = connection.sram_slot
    sram_rkey = replica.prism.sram_rkey
    freelist = replica.prism.freelist(replica.freelist_id)
    execute = replica.prism.engine.execute_chain
    meta = replica.layout.meta_addr(0)
    installed = 0
    start = perf_counter()
    for version in range(2, n + 2):
        tag = make_tag(version, 1)
        result = execute(connection, [
            WriteOp(addr=tmp, data=pack_uint(tag, 8), rkey=sram_rkey),
            AllocateOp(freelist=replica.freelist_id,
                       data=RsLayout.pack_buffer(tag, VALUE),
                       rkey=replica.buffer_rkey, redirect_to=tmp + 8,
                       conditional=True),
            CasOp(target=meta, data=tmp.to_bytes(8, "little"),
                  rkey=replica.meta_rkey, mode=CasMode.GT,
                  compare_mask=META_TAG_MASK, data_indirect=True,
                  operand_width=META_SIZE, conditional=True)])
        cas = result[2]
        installed += cas.status is OpStatus.OK
        freelist.post(RsLayout.unpack_meta(cas.value)[1])
    wall = perf_counter() - start
    _expect(installed == n, "every install chain swapped the metadata")
    return {"work": n, "wall_s": wall}


BACKENDS = {
    "hw": HardwarePrismBackend,
    "sw": SoftwarePrismBackend,
    "bluefield": BlueFieldPrismBackend,
    "rdma_hw": HardwareRdmaBackend,
}


def backend_reads(backend, n=300):
    """One client reading 512 B: indirect on PRISM, plain on classic RDMA."""
    sim, _server, client, data, rkey = _prism_pair(BACKENDS[backend])
    indirect = backend != "rdma_hw"
    addr = data + 512 if indirect else data
    intact = [0]

    def reader():
        for _ in range(n):
            intact[0] += (yield from client.read(
                addr, 512, rkey=rkey, indirect=indirect)) == VALUE

    wall = _run(sim, reader())
    _expect(intact[0] == n, f"every READ on {backend} returned the value")
    return {"work": n, "wall_s": wall, "events": sim.events_executed}


# -- rpc ------------------------------------------------------------------------


def rpc_calls(n=4_000):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = RpcServer(sim, fabric, "server")
    server.register("read", lambda args: (VALUE, 512))
    client = RpcClient(sim, fabric, "client")
    intact = [0]

    def caller():
        for _ in range(n):
            intact[0] += (yield from client.call(
                "server", "read", None, request_payload_bytes=16)) == VALUE

    wall = _run(sim, caller())
    _expect(intact[0] == n, "every RPC returned the value")
    return {"work": n, "wall_s": wall, "events": sim.events_executed}


# -- apps the four workloads never run -------------------------------------------


def btree_gets(n=300, n_keys=1000):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = BTreeServer(sim, fabric, "server", HardwarePrismBackend,
                         fanout=8, max_value_bytes=128)
    server.build([(key * 3 + 1, f"v{key}".encode()) for key in range(n_keys)])
    client = BTreeClient(sim, fabric, "client", server)
    found = [0]

    def reader():
        for index in range(n):
            key = (index * 37) % n_keys
            found[0] += (yield from client.get(
                key * 3 + 1, mode="prism-cache")) == f"v{key}".encode()

    wall = _run(sim, reader())
    _expect(found[0] == n, "every B-tree GET found its value")
    return {"work": n, "wall_s": wall, "events": sim.events_executed}


def shared_log_appends(n=300):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "memnode"])
    node = SharedLogNode(sim, fabric, "memnode", HardwarePrismBackend,
                         max_record_bytes=96, capacity=n + 16)
    client = SharedLogClient(sim, fabric, "client", node)
    sequence = []

    def writer():
        for index in range(n):
            sequence.append((yield from client.append(b"event %d" % index)))

    wall = _run(sim, writer())
    _expect(sequence == list(range(1, n + 1)), "appends got sequence 1..n")
    return {"work": n, "wall_s": wall, "events": sim.events_executed}


# -- workload, verify -------------------------------------------------------------


def ycsb_ops(zipf, n=150_000):
    workload = YCSB_C(20_000, zipf=zipf, seed=1, client_id=0)
    next_op = workload.next_op
    keys = 0
    start = perf_counter()
    for _ in range(n):
        keys += next_op().key >= 0
    wall = perf_counter() - start
    _expect(keys == n, "every draw produced an operation")
    return {"work": n, "wall_s": wall}


def source_arrivals(n=150_000):
    source = AggregatedOpenLoopSource(100_000, 20.0, 20_000, zipf=0.99,
                                      seed=1)
    elapsed = 0.0
    start = perf_counter()
    for _ in range(n):
        elapsed += source.next_gap_us()
        source.next_op()
    wall = perf_counter() - start
    rate_mops = n / elapsed
    _expect(1.9 < rate_mops < 2.1, "arrivals come at the configured rate")
    return {"work": n, "wall_s": wall}


def _checker_rate(kind, rounds):
    record, check = audit.HISTORY_AUDITS[kind]
    history, initial = record(1)
    start = perf_counter()
    for _ in range(rounds):
        check(history, initial)
    return {"work": rounds * len(history),
            "wall_s": perf_counter() - start}


def linearizability_checks(rounds=200):
    return _checker_rate("rs", rounds)


def serializability_checks(rounds=600):
    return _checker_rate("tx", rounds)
