"""ABDLOCK baseline: locking protocol behaviour."""

import pytest

from repro.apps.blockstore import AbdLockClient, AbdLockReplica
from repro.prism import HardwareRdmaBackend


@pytest.fixture
def replicas(sim, app_fabric):
    reps = [AbdLockReplica(sim, app_fabric, f"r{i}", HardwareRdmaBackend,
                           n_blocks=8, block_size=64)
            for i in range(3)]
    for block in range(8):
        for rep in reps:
            rep.load(block, bytes([block]) * 64)
    return reps


def _client(sim, fabric, replicas, cid=1, host="c0"):
    return AbdLockClient(sim, fabric, host, replicas, client_id=cid,
                         seed=cid)


def test_get_and_put(sim, app_fabric, replicas, drive):
    client = _client(sim, app_fabric, replicas)
    def main():
        initial = yield from client.get(2)
        yield from client.put(2, b"P" * 64)
        after = yield from client.get(2)
        return initial, after
    initial, after = drive(sim, main())
    assert initial == bytes([2]) * 64
    assert after == b"P" * 64


def test_locks_released_after_operation(sim, app_fabric, replicas, drive):
    client = _client(sim, app_fabric, replicas)
    def main():
        yield from client.put(1, b"x" * 64)
    drive(sim, main())
    for rep in replicas:
        lock = rep.prism.space.read_uint(rep.layout.lock_addr(1))
        assert lock == 0


def test_lock_blocks_competitor(sim, app_fabric, replicas):
    """Hold a lock manually; a client must retry until it is freed."""
    for rep in replicas:
        rep.prism.space.write_uint(rep.layout.lock_addr(3), 999)
    client = _client(sim, app_fabric, replicas, cid=1)

    def unlocker():
        yield sim.timeout(60.0)
        for rep in replicas:
            rep.prism.space.write_uint(rep.layout.lock_addr(3), 0)

    holder = {}
    def main():
        start = sim.now
        value = yield from client.get(3)
        holder["elapsed"] = sim.now - start
        return value

    sim.spawn(unlocker())
    process = sim.spawn(main())
    sim.run_until_complete(process, limit=1e6)
    assert holder["elapsed"] > 50.0
    assert client.lock_retries > 0


def test_mutual_exclusion_under_concurrency(sim, app_fabric, replicas):
    """Two writers to the same block serialize via locks: the stored
    value is always one writer's complete payload."""
    a = _client(sim, app_fabric, replicas, cid=1, host="c0")
    b = _client(sim, app_fabric, replicas, cid=2, host="c1")
    def writer(client, letter):
        for _ in range(6):
            yield from client.put(5, letter * 64)
    sim.spawn(writer(a, b"A"))
    sim.spawn(writer(b, b"B"))
    sim.run(until=1e6)
    for rep in replicas:
        data = rep.prism.space.read(rep.layout.tag_addr(5) + 8, 64)
        assert data in (b"A" * 64, b"B" * 64)
        assert rep.prism.space.read_uint(rep.layout.lock_addr(5)) == 0


def test_four_round_trips_per_operation(sim, app_fabric, replicas):
    client = _client(sim, app_fabric, replicas)
    holder = {}
    def main():
        before = sum(c.round_trips for c in client.clients)
        yield from client.get(0)
        holder["rts"] = sum(c.round_trips for c in client.clients) - before
    sim.run_until_complete(sim.spawn(main()), limit=1e6)
    # lock (3) + read (3) + write (3) + unlock (3): §7.2's four phases.
    assert holder["rts"] == 12


def test_read_after_write_linearizable(sim, app_fabric, replicas, drive):
    writer = _client(sim, app_fabric, replicas, cid=1, host="c0")
    reader = _client(sim, app_fabric, replicas, cid=2, host="c1")
    def main():
        yield from writer.put(7, b"L" * 64)
        return (yield from reader.get(7))
    assert drive(sim, main()) == b"L" * 64


def test_an_oversize_put_is_refused_before_any_request(sim, app_fabric,
                                                       replicas, drive):
    """A value longer than the 64-byte block would spill ``tag | value``
    into the next blocks' lock and tag words (a later GET of those blocks
    never takes its lock). ``put`` raises ``ValueError`` first: no lock
    is taken, no byte of any replica changes, every block reads back."""
    client = _client(sim, app_fabric, replicas)
    memory = [bytes(rep.prism.space.host.view) for rep in replicas]

    def main():
        with pytest.raises(ValueError, match="exceeds"):
            yield from client.put(2, b"z" * 100)
        assert [bytes(rep.prism.space.host.view)
                for rep in replicas] == memory
        got = []
        for block in range(8):
            got.append((yield from client.get(block)))
        return got

    assert drive(sim, main()) == [bytes([block]) * 64 for block in range(8)]
