"""End-to-end serializability of PRISM-TX and FaRM under concurrency."""

from itertools import count

import pytest

from repro.apps.tx import FarmClient, FarmServer, PrismTxClient, PrismTxServer
from repro.faults import parse_faults
from repro.net.topology import RACK, make_fabric
from repro.prism import HardwareRdmaBackend, SoftwarePrismBackend
from repro.sim import SeededRng, Simulator
from repro.verify.serializability import (
    CommittedTxn,
    check_serializable,
    check_timestamp_serializable,
)

pytestmark = pytest.mark.usefixtures("ties")

N_KEYS = 6
N_CLIENTS = 5
TXNS_PER_CLIENT = 10


def _drive_workload(sim, clients, seed, value_size, limit=1e7):
    """Random 1-2 key RMW transactions per client; returns when done
    (raises once ``limit`` µs of simulated time pass without it)."""
    def worker(index, client):
        rng = SeededRng(seed).fork(index).stream("txn")
        for txn_index in range(TXNS_PER_CLIENT):
            n = rng.choice((1, 2))
            keys = tuple(sorted(rng.sample(range(N_KEYS), n)))
            payload = (f"c{index}t{txn_index}".encode()
                       .ljust(value_size, b"."))
            yield from client.transact(keys, keys, payload)
    processes = [sim.spawn(worker(i, c)) for i, c in enumerate(clients)]
    waiter = sim.spawn((lambda done: (yield done))(sim.all_of(processes)))
    sim.run_until_complete(waiter, limit=limit)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_prism_tx_timestamp_serializable(seed):
    sim = Simulator()
    hosts = ["server"] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    server = PrismTxServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=N_KEYS, value_size=16)
    initial = {}
    for key in range(N_KEYS):
        value = b"init" + bytes([48 + key]) * 12
        initial[key] = value
        server.load(key, value)

    committed = []
    ids = count(1)
    clients = []
    for i in range(N_CLIENTS):
        client = PrismTxClient(sim, fabric, f"c{i}", server, client_id=i + 1)
        client.on_commit = (
            lambda ts, reads, writes, start, finish: committed.append(
                CommittedTxn(next(ids), ts, reads, writes, start, finish)))
        clients.append(client)

    _drive_workload(sim, clients, seed, value_size=16)
    assert len(committed) == N_CLIENTS * TXNS_PER_CLIENT
    validated = check_timestamp_serializable(committed, initial)
    assert validated > 0


@pytest.mark.parametrize("seed", [14, 15])
def test_farm_serializable(seed):
    sim = Simulator()
    hosts = ["server"] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    server = FarmServer(sim, fabric, "server", HardwareRdmaBackend,
                        n_keys=N_KEYS, value_size=16)
    initial = {}
    for key in range(N_KEYS):
        value = b"init" + bytes([48 + key]) * 12
        initial[key] = value
        server.load(key, value)

    committed = []
    ids = count(1)
    clients = []
    for i in range(N_CLIENTS):
        client = FarmClient(sim, fabric, f"c{i}", server, client_id=i + 1,
                            seed=seed * 10 + i)
        client.on_commit = (
            lambda ts, reads, writes, start, finish: committed.append(
                CommittedTxn(next(ids), ts, reads, writes, start, finish)))
        clients.append(client)

    _drive_workload(sim, clients, seed, value_size=16)
    assert len(committed) == N_CLIENTS * TXNS_PER_CLIENT
    validated = check_serializable(committed, initial, infer_order=True)
    assert validated > 0


#: Fault plans under which FaRM died while the RPC layer ran a repeated
#: delivery's handler again: an UPDATE retransmitted after its reply was
#: lost found its keys installed and unlocked ("update without lock"),
#: and a retransmitted or late LOCK refused its own locks and stranded
#: them (the run never drained). The handlers hold no dedup rule of
#: their own; every plan must reach the transport's replay path.
FARM_FAULT_PLANS = ["seed=3,drop=0.05", "seed=4,dup=0.1",
                    "seed=5,drop=0.05,dup=0.05", "seed=6,drop=0.1",
                    "seed=7,drop=0.05,dup=0.05,jitter=2"]


@pytest.mark.parametrize("plan", FARM_FAULT_PLANS)
def test_farm_serializable_under_faults(plan):
    """Loss, duplication and jitter on every message, commit RPCs
    retransmitted and answered from the saved reply: every transaction
    commits once, serializably. The workload finishes within 2 ms of
    simulated time; the bound fails a livelock in about a second of wall
    time instead of minutes."""
    sim = Simulator()
    sim.set_faults(parse_faults(plan))
    hosts = ["server"] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    server = FarmServer(sim, fabric, "server", HardwareRdmaBackend,
                        n_keys=N_KEYS, value_size=16)
    initial = {}
    for key in range(N_KEYS):
        initial[key] = b"init" + bytes([48 + key]) * 12
        server.load(key, initial[key])
    committed = []
    ids = count(1)
    clients = []
    for i in range(N_CLIENTS):
        client = FarmClient(sim, fabric, f"c{i}", server, client_id=i + 1,
                            seed=140 + i)
        client.on_commit = (
            lambda ts, reads, writes, start, finish: committed.append(
                CommittedTxn(next(ids), ts, reads, writes, start, finish)))
        clients.append(client)

    _drive_workload(sim, clients, 14, value_size=16, limit=1e5)
    assert len(committed) == N_CLIENTS * TXNS_PER_CLIENT
    assert check_serializable(committed, initial, infer_order=True) > 0
    assert not server._locks  # nothing stranded
    assert server.rpc.saved.replays > 0  # the transport carried the repeats


def test_prism_tx_serializable_under_extreme_contention():
    """All clients hammer a single key: the nastiest case for OCC."""
    sim = Simulator()
    hosts = ["server"] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    server = PrismTxServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=1, value_size=16)
    server.load(0, b"genesis.........")
    committed = []
    ids = count(1)
    clients = []
    for i in range(N_CLIENTS):
        client = PrismTxClient(sim, fabric, f"c{i}", server, client_id=i + 1)
        client.on_commit = (
            lambda ts, reads, writes, start, finish: committed.append(
                CommittedTxn(next(ids), ts, reads, writes, start, finish)))
        clients.append(client)

    def worker(index, client):
        for txn_index in range(8):
            payload = f"c{index}t{txn_index}".encode().ljust(16, b".")
            yield from client.transact((0,), (0,), payload)

    processes = [sim.spawn(worker(i, c)) for i, c in enumerate(clients)]
    waiter = sim.spawn((lambda done: (yield done))(sim.all_of(processes)))
    sim.run_until_complete(waiter, limit=1e7)
    assert len(committed) == N_CLIENTS * 8
    check_timestamp_serializable(committed, {0: b"genesis........."})
    # Contention actually happened.
    assert sum(c.aborts for c in clients) > 0
