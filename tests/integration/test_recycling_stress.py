"""Buffer-recycling stress: the free list must sustain a write storm.

PRISM-KV with a deliberately small spare-buffer pool, hammered with
overwrites: the client-batch -> RPC -> daemon -> quiescence-gated
repost pipeline must return buffers fast enough that ALLOCATE never
starves, and recycled buffers must never be handed out while a read
could still observe them (values stay complete). PRISM-KV, PRISM-RS and
PRISM-TX must each return exactly the buffers their installs displace."""

import pytest

from repro.apps.blockstore.prism_rs import PrismRsClient, PrismRsReplica
from repro.apps.common import INITIAL_TAG
from repro.apps.kv import PrismKvClient, PrismKvServer
from repro.apps.tx.prism_tx import PrismTxClient, PrismTxServer
from repro.faults import parse_faults
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwarePrismBackend
from repro.prism.engine import OpStatus
from repro.sim import SeededRng, Simulator

pytestmark = pytest.mark.usefixtures("ties")

N_KEYS = 16
N_CLIENTS = 4
OPS_PER_CLIENT = 60


def test_write_storm_with_tiny_spare_pool():
    sim = Simulator()
    hosts = ["server"] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    server = PrismKvServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=N_KEYS, max_value_bytes=64,
                           spare_buffers=N_CLIENTS * 8,
                           recycler_batch=4)
    for key in range(N_KEYS):
        server.load(key, bytes([key]) * 64)
    clients = [PrismKvClient(sim, fabric, f"c{i}", server, recycle_batch=2)
               for i in range(N_CLIENTS)]
    torn = []

    def worker(index, client):
        rng = SeededRng(index).stream("storm")
        for op in range(OPS_PER_CLIENT):
            key = rng.randrange(N_KEYS)
            if rng.random() < 0.7:
                letter = bytes([65 + (index * 7 + op) % 26])
                yield from client.put(key, letter * 64)
            else:
                value = yield from client.get(key)
                if value is not None and len(set(value)) != 1:
                    torn.append((key, value))

    processes = [sim.spawn(worker(i, c)) for i, c in enumerate(clients)]
    waiter = sim.spawn((lambda d: (yield d))(sim.all_of(processes)))
    sim.run_until_complete(waiter, limit=1e8)

    assert torn == []                      # no use-after-free tearing
    assert server.recycler.buffers_recycled > 50  # recycling really ran
    qp = server.prism.freelist(server.freelist_id)
    # Conservation: every popped buffer is either installed (N_KEYS),
    # in the recycling pipeline, or back on the free list.
    assert qp.total_popped - qp.total_posted <= (
        N_KEYS + N_CLIENTS * 8)


def test_free_list_counts_balance_after_quiesce():
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["server", "c0"])
    server = PrismKvServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=4, max_value_bytes=32, spare_buffers=8,
                           recycler_batch=2)
    for key in range(4):
        server.load(key, bytes([key]) * 32)
    client = PrismKvClient(sim, fabric, "c0", server, recycle_batch=1)

    def main():
        for round_ in range(20):
            yield from client.put(round_ % 4, bytes([round_ % 250]) * 32)
        # Drain the pipeline: flush client batches, then the daemon.
        yield from client.recycler.flush(server.freelist_id)
        yield from server.recycler.flush()

    sim.run_until_complete(sim.spawn(main()), limit=1e8)
    qp = server.prism.freelist(server.freelist_id)
    # The pool holds n_keys + spare = 12 buffers. After the pipeline
    # drains, exactly the 4 installed values are outstanding; every
    # retired buffer is back on the free list.
    pool_size = 4 + 8
    assert len(qp) == pool_size - 4


N_BALANCE_KEYS = 4
SPARE = 64
ROUNDS = 20


def _count_misses(prism_client, misses):
    """Wrap ``prism_client.displaced`` so every install whose CAS missed
    (the buffer it names is the install's own) is counted."""
    displaced = prism_client.displaced

    def counting(cas, scratch=0):
        if cas.status is not OpStatus.OK:
            misses.append(scratch)
        return displaced(cas, scratch)

    prism_client.displaced = counting


def _kv_rig(sim, fabric):
    server = PrismKvServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=N_BALANCE_KEYS, max_value_bytes=32,
                           spare_buffers=SPARE, recycler_batch=2)
    for key in range(N_BALANCE_KEYS):
        server.load(key, bytes([key]) * 32)
    clients = [PrismKvClient(sim, fabric, f"c{i}", server, recycle_batch=1)
               for i in range(2)]

    def write(client, round_):
        yield from client.put(round_ % N_BALANCE_KEYS,
                              bytes([round_ % 250]) * 32)

    return dict(
        clients=clients, write=write, stale=None, scratches={0},
        prism_clients=[c.client for c in clients],
        recyclers=[(c.recycler, server.freelist_id) for c in clients],
        daemons=[server.recycler],
        lists=[(server.prism, server.freelist_id)])


def _rs_rig(sim, fabric):
    replicas = [PrismRsReplica(sim, fabric, f"r{i}", SoftwarePrismBackend,
                               n_blocks=N_BALANCE_KEYS, block_size=32,
                               spare_buffers=SPARE, recycler_batch=2)
                for i in range(3)]
    for block in range(N_BALANCE_KEYS):
        for replica in replicas:
            replica.load(block, bytes([block]) * 32)
    clients = [PrismRsClient(sim, fabric, f"c{i}", replicas, client_id=i + 1,
                             recycle_batch=1)
               for i in range(2)]

    def write(client, round_):
        yield from client.put(round_ % N_BALANCE_KEYS,
                              bytes([round_ % 250]) * 32)

    def stale(client):
        # The bulk-load tag is never greater than a replica's: every
        # replica's CAS_GT misses.
        for index in range(len(replicas)):
            yield from client._install_at(index, 0, INITIAL_TAG, b"s" * 32)

    return dict(
        clients=clients, write=write, stale=stale, scratches={0},
        prism_clients=[pc for c in clients for pc in c.clients],
        recyclers=[(recycler, replica.freelist_id) for c in clients
                   for recycler, replica in zip(c.recyclers, replicas)],
        daemons=[replica.recycler for replica in replicas],
        lists=[(replica.prism, replica.freelist_id) for replica in replicas])


def _tx_rig(sim, fabric):
    server = PrismTxServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=N_BALANCE_KEYS, value_size=32,
                           spare_buffers=SPARE, recycler_batch=2)
    for key in range(N_BALANCE_KEYS):
        server.load(key, bytes([key]) * 32)
    clients = [PrismTxClient(sim, fabric, f"c{i}", server, client_id=i + 1,
                             recycle_batch=1)
               for i in range(2)]

    def write(client, round_):
        # Three keys: one request carries two installs (scratch offsets 0
        # and 16), a second one the third.
        keys = [(round_ + k) % N_BALANCE_KEYS for k in range(3)]
        yield from client.transact_kv(
            (), {key: bytes([round_ % 250]) * 32 for key in keys})

    def stale(client):
        # The bulk-load version 1 is C's floor: the CAS_GT misses on it.
        yield from client._commit({0: b"s" * 32, 1: b"t" * 32}, 1)

    return dict(
        clients=clients, write=write, stale=stale, scratches={0, 16},
        prism_clients=[c.client for c in clients],
        recyclers=[(c.recycler, server.freelist_id) for c in clients],
        daemons=[server.recycler],
        lists=[(server.prism, server.freelist_id)])


_RIGS = {"prism-kv": _kv_rig, "prism-rs": _rs_rig, "prism-tx": _tx_rig}


@pytest.mark.parametrize(
    "rig, faults",
    [(rig, None) for rig in _RIGS.values()]
    + [(rig, "seed=4,dup=0.05") for rig in _RIGS.values()],
    ids=[*_RIGS, *(f"{name}-dup" for name in _RIGS)])
def test_free_list_balances_with_cas_misses(rig, faults, wall_cap, ties):
    """Two writers race over the same keys, and (RS, TX) one request
    installs with a stale tag, so installs miss their CAS. After the
    pipeline drains, every free list holds exactly its spares, each
    once: each key references one buffer, and every displaced buffer
    (the old one on a hit, the install's own on a miss) is back on its
    list. With every message duplicated at 5 % (ROADMAP 1(a) corpus 3)
    the counts are the same: a repeated chain allocates nothing."""
    sim = Simulator()
    if faults is not None:
        sim.set_faults(parse_faults(faults))
    fabric = make_fabric(sim, RACK, ["server", "r0", "r1", "r2", "c0",
                                     "c1"])
    app = rig(sim, fabric)
    misses = []
    for prism_client in app["prism_clients"]:
        _count_misses(prism_client, misses)

    def writer(client):
        for round_ in range(ROUNDS):
            yield from app["write"](client, round_)

    def main():
        # The higher client id starts first: in lockstep its install
        # lands first and the other's, on the same counter, misses.
        yield sim.all_of([sim.spawn(writer(c))
                          for c in reversed(app["clients"])])
        if app["stale"] is not None:
            yield from app["stale"](app["clients"][0])
        # Let stragglers (a quorum's third install) and launched
        # flushes land, then drain client batches and the daemons.
        yield sim.timeout(500)
        for recycler, freelist_id in app["recyclers"]:
            yield from recycler.flush(freelist_id)
        for daemon in app["daemons"]:
            yield from daemon.flush()

    with wall_cap(60):
        sim.run_until_complete(sim.spawn(main()), limit=1e8)
    # every scratch offset in use took the miss path's read-back; the
    # KV writers miss only when their lockstep ties, which a tie draw
    # may break — RS and TX still miss on the stale install
    if ties is None or app["stale"] is not None:
        assert set(misses) == app["scratches"]
    else:
        assert set(misses) <= app["scratches"]
    for prism, freelist_id in app["lists"]:
        free = list(prism.freelist(freelist_id)._buffers)
        assert len(free) == SPARE
        assert len(set(free)) == SPARE      # no buffer posted twice
