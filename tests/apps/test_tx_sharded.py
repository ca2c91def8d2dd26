"""Sharded PRISM-TX: cross-partition transactions."""

from itertools import count

import pytest

from repro.apps.tx import PrismTxServer
from repro.apps.tx.sharded import ShardedPrismTxClient, load_sharded
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.prism import SoftwarePrismBackend
from repro.sim import QuorumError, Simulator, TimeoutExpired
from repro.net.topology import RACK, make_fabric
from repro.verify.serializability import (
    CommittedTxn,
    check_timestamp_serializable,
)

N_SHARDS = 3
N_KEYS = 12  # global keys, 4 per shard


@pytest.fixture
def sharded(sim):
    return _sharded(sim)


def _sharded(sim):
    hosts = [f"shard{i}" for i in range(N_SHARDS)] + [
        f"c{i}" for i in range(4)]
    fabric = make_fabric(sim, RACK, hosts)
    servers = [PrismTxServer(sim, fabric, f"shard{i}", SoftwarePrismBackend,
                             n_keys=N_KEYS // N_SHARDS + 1, value_size=16)
               for i in range(N_SHARDS)]
    initial = {}
    for key in range(N_KEYS):
        value = b"init" + bytes([65 + key]) * 12
        initial[key] = value
        load_sharded(servers, key, value)
    return fabric, servers, initial


def test_key_routing(sim, sharded):
    fabric, servers, initial = sharded
    client = ShardedPrismTxClient(sim, fabric, "c0", servers, client_id=1)
    assert client.shard_of(0) == 0
    assert client.shard_of(4) == 1
    assert client.local_key(7) == 2


def test_single_shard_transaction(sim, sharded, drive):
    fabric, servers, initial = sharded
    client = ShardedPrismTxClient(sim, fabric, "c0", servers, client_id=1)
    def main():
        values = yield from client.run_transaction((0, 3), (0, 3),
                                                   b"S" * 16)
        return values
    values = drive(sim, main())
    assert values[0] == initial[0]
    assert values[3] == initial[3]


def test_cross_shard_transaction(sim, sharded, drive):
    fabric, servers, initial = sharded
    client = ShardedPrismTxClient(sim, fabric, "c0", servers, client_id=1)
    def main():
        # keys 0, 1, 2 live on three different shards
        yield from client.run_transaction((0, 1, 2), (0, 1, 2), b"X" * 16)
        values = yield from client.run_transaction((0, 1, 2), (), b"")
        return values
    values = drive(sim, main())
    assert values[0] == values[1] == values[2] == b"X" * 16


def test_cross_shard_atomicity_under_concurrency(sim, sharded):
    """Concurrent cross-shard writers: readers always see one
    transaction's values on both keys (all-or-nothing across shards)."""
    fabric, servers, initial = sharded
    a = ShardedPrismTxClient(sim, fabric, "c0", servers, client_id=1)
    b = ShardedPrismTxClient(sim, fabric, "c1", servers, client_id=2)
    keys = (1, 2)  # two different shards

    def writer(client, letter):
        for _ in range(6):
            yield from client.transact(keys, keys, letter * 16)

    sim.spawn(writer(a, b"A"))
    sim.spawn(writer(b, b"B"))
    sim.run(until=1e6)

    reader = ShardedPrismTxClient(sim, fabric, "c2", servers, client_id=3)
    holder = {}
    def read():
        values, _ = yield from reader.transact(keys, (), b"")
        holder["values"] = values
    sim.run_until_complete(sim.spawn(read()), limit=2e6)
    assert holder["values"][1] == holder["values"][2]


def test_cross_shard_serializability(sim, sharded):
    fabric, servers, initial = sharded
    committed = []
    ids = count(1)
    clients = []
    for i in range(4):
        client = ShardedPrismTxClient(sim, fabric, f"c{i}", servers,
                                      client_id=i + 1)
        client.on_commit = (
            lambda ts, reads, writes, start, finish: committed.append(
                CommittedTxn(next(ids), ts, reads, writes, start, finish)))
        clients.append(client)

    from repro.sim import SeededRng
    def worker(index, client):
        rng = SeededRng(31).fork(index).stream("txn")
        for txn_index in range(8):
            keys = tuple(sorted(rng.sample(range(N_KEYS), 2)))
            payload = f"c{index}t{txn_index}".encode().ljust(16, b".")
            yield from client.transact(keys, keys, payload)

    processes = [sim.spawn(worker(i, c)) for i, c in enumerate(clients)]
    waiter = sim.spawn((lambda done: (yield done))(sim.all_of(processes)))
    sim.run_until_complete(waiter, limit=1e7)
    assert len(committed) == 32
    check_timestamp_serializable(committed, initial)


def test_conflicting_cross_shard_aborts_and_retries(sim, sharded, drive):
    fabric, servers, initial = sharded
    a = ShardedPrismTxClient(sim, fabric, "c0", servers, client_id=1)
    b = ShardedPrismTxClient(sim, fabric, "c1", servers, client_id=2)
    from repro.apps.tx.prism_tx import TxAborted
    def main():
        versions, _ = yield from a._execute_reads((1, 2))
        # b commits a conflicting cross-shard transaction first.
        yield from b.transact((1, 2), (1, 2), b"B" * 16)
        ts = a.clock.timestamp(versions.values())
        with pytest.raises(TxAborted):
            yield from a._prepare((1, 2), (1, 2), versions, ts)
        # Retrying from scratch succeeds.
        values, retries = yield from a.transact((1, 2), (1, 2), b"A" * 16)
        return values[1]
    assert drive(sim, main()) == b"B" * 16


def test_an_unreachable_shard_fails_the_transaction_with_its_cause(
        sim, drive):
    """Shard 1 is down and, under a quiet plan, every request times out
    after two retransmissions. The read phase's fan-out fails with
    :class:`QuorumError`, the shard's ``TimeoutExpired`` its cause, at
    65.72 µs: three 20 µs ack timeouts after the request has left the
    port (0.87 µs) and two backoffs drawn from the plan's seeded jitter
    (1.33 and 3.52 µs, where their ceilings are 2 and 4). It is no
    abort: nothing retries."""
    sim.set_faults(FaultPlan(seed=1, retry=RetryPolicy(timeout_us=20.0,
                                                       max_retries=2)))
    fabric, servers, initial = _sharded(sim)
    client = ShardedPrismTxClient(sim, fabric, "c0", servers, client_id=1)
    servers[1].prism.fail()

    def main():
        with pytest.raises(QuorumError) as failure:
            yield from client.transact((0, 1, 2), (0, 1, 2), b"X" * 16)
        return sim.now, failure.value.__cause__

    when, cause = drive(sim, main())
    assert when == 65.71744422098342
    assert isinstance(cause, TimeoutExpired)
    assert "shard1/prism" in str(cause)
    assert (client.commits, client.aborts) == (0, 0)
