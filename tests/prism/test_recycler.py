"""Buffer recycling: client batching, daemon reposting, safety."""

import pytest

from repro.apps.blockstore import PrismRsClient, PrismRsReplica
from repro.faults import parse_faults
from repro.net.topology import DIRECT, RACK, make_fabric
from repro.obs import HostProfiler
from repro.prism import (
    HardwarePrismBackend,
    PrismClient,
    PrismServer,
    SoftwarePrismBackend,
)
from repro.prism.recycler import RecyclerClient, RecyclerDaemon
from repro.rpc.erpc import RpcClient, RpcServer
from repro.sim import Simulator


@pytest.fixture
def system(sim):
    fabric = make_fabric(sim, DIRECT, ["client", "server"])
    server = PrismServer(sim, fabric, "server", HardwarePrismBackend)
    rpc_server = RpcServer(sim, fabric, "server")
    daemon = RecyclerDaemon(sim, server, rpc_server, batch_size=4,
                            scan_interval_us=10.0)
    rpc_client = RpcClient(sim, fabric, "client")
    return fabric, server, daemon, rpc_client


def test_retire_batches_until_threshold(sim, system):
    fabric, server, daemon, rpc_client = system
    recycler = RecyclerClient(rpc_client, "server", batch_size=3)
    assert recycler.retire(1, 100) is None
    assert recycler.retire(1, 101) is None
    flush = recycler.retire(1, 102)
    assert flush is not None  # batch full: caller must run the flush


def test_end_to_end_recycling(sim, system):
    fabric, server, daemon, rpc_client = system
    freelist, rkey = server.create_freelist(64, 4)
    qp = server.freelist(freelist)
    addrs = [qp.pop() for _ in range(4)]
    assert len(qp) == 0
    recycler = RecyclerClient(rpc_client, "server", batch_size=2)

    def main():
        for addr in addrs:
            flush = recycler.retire(freelist, addr)
            if flush is not None:
                yield from flush
        yield sim.timeout(100)  # let the daemon scan and repost

    sim.run_until_complete(sim.spawn(main()), limit=1e5)
    assert len(qp) == 4
    assert daemon.buffers_recycled == 4
    # FIFO order preserved through the recycling path.
    assert qp.pop() == addrs[0]


def test_recycled_buffer_usable_by_allocate(sim, system, drive):
    fabric, server, daemon, rpc_client = system
    freelist, rkey = server.create_freelist(64, 1)
    client = PrismClient(sim, fabric, "client", server)
    recycler = RecyclerClient(rpc_client, "server", batch_size=1)

    def main():
        first = yield from client.allocate(freelist, b"one", rkey=rkey)
        flush = recycler.retire(freelist, first)
        yield from flush
        yield sim.timeout(50)  # daemon scan interval
        second = yield from client.allocate(freelist, b"two", rkey=rkey)
        return first, second

    first, second = drive(sim, main())
    assert first == second
    assert server.space.read(first, 3) == b"two"


def test_flush_empty_batch_is_noop(sim, system, drive):
    fabric, server, daemon, rpc_client = system
    recycler = RecyclerClient(rpc_client, "server", batch_size=2)

    def main():
        yield from recycler.flush(1)
        return recycler.reports_sent

    assert drive(sim, main()) == 0


def _costs_per_flush(how):
    """``(kernel entries, process resumes, process spawns)`` per retire
    flush started by ``sim.<how>(flush, name)``, exact, as the slope
    between 10 and 110 one-buffer reports, 50 µs apart."""
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
        reported = []

        def on_report(args):
            reported.extend(args[1])
            return None, 0

        RpcServer(sim, fabric, "server").register(
            RecyclerDaemon.METHOD, on_report, service_us=0.4)
        recycler = RecyclerClient(RpcClient(sim, fabric, "client"),
                                  "server", batch_size=1)

        def retirer():
            for addr in range(n):
                getattr(sim, how)(recycler.retire(1, 4096 + addr),
                                  name="retire")
                yield sim.timeout(50.0)

        try:
            sim.run_until_complete(spawn(retirer()))
        finally:
            profiler.finish(sim.now)    # stop being the ambient profiler
        assert recycler.reports_sent == len(reported) == n
        return sim.events_executed, profiler.resumes, spawns[0]

    more, fewer = counts(110), counts(10)
    return tuple((a - b) / 100 for a, b in zip(more, fewer))


def test_a_launched_retire_flush_leaves_no_completion_entry():
    """At zero tolerance, with the retirer's own timer (1 entry, 1
    resume) in both: a launched flush is its boot slot + the RPC's 7
    entries (12 before the server's boot slot and the reply's slot
    went, 11 while the core grant took a slot of its own, 9 while each
    message's TX serialization ended in an entry), resumed in the
    call's completion entry — two generator steps, each a resume;
    1 + 1 + 7 = 9. Spawned, it adds the process's completion entry and
    the spawn."""
    assert _costs_per_flush("launch") == (9, 3, 0)
    assert _costs_per_flush("spawn") == (10, 3, 1)


def _rs_put_storm(sim):
    """Four PRISM-RS clients × 20 PUTs on 8 blocks, reporting every two
    retired buffers; then every batch flushed, client and daemon side.
    Returns the replicas."""
    hosts = ["r0", "r1", "r2", "c0", "c1", "c2", "c3"]
    fabric = make_fabric(sim, RACK, hosts)
    replicas = [PrismRsReplica(sim, fabric, host, SoftwarePrismBackend,
                               n_blocks=8, block_size=16)
                for host in hosts[:3]]
    for block in range(8):
        for replica in replicas:
            replica.load(block, b"v" * 16)
    clients = [PrismRsClient(sim, fabric, host, replicas, client_id=i + 1,
                             recycle_batch=2)
               for i, host in enumerate(hosts[3:])]

    def writer(index, client):
        for op in range(20):
            yield from client.put((index + op) % 8, bytes([op]) * 16)
        for recycler, replica in zip(client.recyclers, replicas):
            yield from recycler.flush(replica.freelist_id)

    writers = [sim.spawn(writer(i, c)) for i, c in enumerate(clients)]
    sim.run_until_complete(
        sim.spawn((lambda done: (yield done))(sim.all_of(writers))),
        limit=1e7)
    for replica in replicas:
        sim.run_until_complete(sim.spawn(replica.recycler.flush()))
    return replicas


def _posted_twice(replicas):
    twice = []
    for replica in replicas:
        posted = list(replica.prism.freelist(replica.freelist_id)._buffers)
        twice += [addr for addr in set(posted) if posted.count(addr) > 1]
    return twice


def test_duplicated_reports_never_post_a_buffer_twice():
    """Every message, recycle reports and their replies included,
    duplicated at 10 %: after every batch is flushed no free list holds
    an address twice, because the RPC layer answered the repeats from
    saved replies."""
    sim = Simulator()
    sim.set_faults(parse_faults("seed=4,dup=0.1"))
    replicas = _rs_put_storm(sim)
    assert _posted_twice(replicas) == []
    assert sum(replica.rpc.saved.replays for replica in replicas) > 0


def test_duplicated_install_chains_never_post_a_buffer_twice(wall_cap):
    """ROADMAP 1(a) corpus 3: every message, install chains included,
    duplicated at 10 %. A repeated chain is answered from the reply its
    first delivery saved, so no ALLOCATE runs twice."""
    sim = Simulator()
    sim.set_faults(parse_faults("seed=4,dup=0.1"))
    with wall_cap(60):
        replicas = _rs_put_storm(sim)
    assert _posted_twice(replicas) == []
    assert sum(replica.prism.saved.replays for replica in replicas) > 0
