"""FaRM baseline: three-phase commit behaviour."""

import pytest

from repro.apps.tx import FarmClient, FarmServer
from repro.apps.tx.layout import FarmLayout
from repro.prism import HardwareRdmaBackend


@pytest.fixture
def server(sim, app_fabric):
    srv = FarmServer(sim, app_fabric, "server", HardwareRdmaBackend,
                     n_keys=16, value_size=64)
    for key in range(16):
        srv.load(key, bytes([key]) * 64)
    return srv


def _client(sim, fabric, server, cid=1, host="c0"):
    return FarmClient(sim, fabric, host, server, client_id=cid, seed=cid)


def test_read_keys(sim, app_fabric, server, drive):
    client = _client(sim, app_fabric, server)
    def main():
        versions, values = yield from client.read_keys((1, 2))
        return versions, values
    versions, values = drive(sim, main())
    assert values[1] == bytes([1]) * 64
    assert versions[1] == 1


def test_commit_bumps_version_and_unlocks(sim, app_fabric, server, drive):
    client = _client(sim, app_fabric, server)
    def main():
        committed, _ = yield from client.run_transaction((3,), (3,),
                                                         b"N" * 64)
        versions, values = yield from client.read_keys((3,))
        return committed, versions[3], values[3]
    committed, version, value = drive(sim, main())
    assert committed
    assert version == 2
    assert value == b"N" * 64
    word = server.prism.space.read(server.layout.object_addr(3), 8)
    _ver, locked = FarmLayout.unpack_lockver(word)
    assert not locked


def test_stale_version_lock_fails(sim, app_fabric, server, drive):
    a = _client(sim, app_fabric, server, cid=1, host="c0")
    b = _client(sim, app_fabric, server, cid=2, host="c1")
    def main():
        versions, _ = yield from a.read_keys((4,))
        # b commits first, bumping the version.
        yield from b.transact((4,), (4,), b"B" * 64)
        committed, _ = yield from a.run_transaction((4,), (4,), b"A" * 64)
        return committed
    # a read version 1, but the lock phase sees version 2 -> abort.
    # run_transaction rereads inside itself; emulate the stale read by
    # driving the phases manually instead:
    def manual():
        versions, values = yield from a.read_keys((4,))
        yield from b.transact((4,), (4,), b"B" * 64)
        ok, _ = yield from a.rpc.call(
            server.host_name, FarmServer.LOCK_METHOD,
            ((1, 1), [(4, versions[4])]), request_payload_bytes=32)
        return ok
    assert drive(sim, manual()) is False


def test_locked_object_read_retries(sim, app_fabric, server):
    """Execution-phase reads spin while an object is locked."""
    word = server.prism.space.read(server.layout.object_addr(5), 8)
    version, _ = FarmLayout.unpack_lockver(word)
    server.prism.space.write(server.layout.object_addr(5),
                             FarmLayout.pack_lockver(version, locked=True))
    client = _client(sim, app_fabric, server)

    def unlocker():
        yield sim.timeout(30.0)
        server.prism.space.write(
            server.layout.object_addr(5),
            FarmLayout.pack_lockver(version, locked=False))

    holder = {}
    def main():
        start = sim.now
        yield from client.read_keys((5,))
        holder["elapsed"] = sim.now - start

    sim.spawn(unlocker())
    sim.run_until_complete(sim.spawn(main()), limit=1e6)
    assert holder["elapsed"] > 25.0


def test_transact_retry_on_conflict(sim, app_fabric, server):
    clients = [_client(sim, app_fabric, server, cid=i + 1, host=f"c{i}")
               for i in range(4)]
    done = []
    def workload(client):
        for _ in range(4):
            yield from client.transact((6,), (6,), bytes([client.client_id]) * 64)
        done.append(client.client_id)
    for client in clients:
        sim.spawn(workload(client))
    sim.run(until=1e6)
    assert len(done) == 4
    final_version, _ = FarmLayout.unpack_lockver(
        server.prism.space.read(server.layout.object_addr(6), 8))
    assert final_version == 1 + 16  # every commit bumped exactly once


def test_unlock_releases_without_install(sim, app_fabric, server, drive):
    client = _client(sim, app_fabric, server)
    def main():
        versions, _ = yield from client.read_keys((7,))
        ok, _ = yield from client.rpc.call(
            server.host_name, FarmServer.LOCK_METHOD,
            ((1, 9), [(7, versions[7])]), request_payload_bytes=32)
        assert ok
        yield from client.rpc.call(
            server.host_name, FarmServer.UNLOCK_METHOD,
            ((1, 9), [7]), request_payload_bytes=16)
        versions2, values2 = yield from client.read_keys((7,))
        return versions2[7], values2[7]
    version, value = drive(sim, main())
    assert version == 1  # unchanged
    assert value == bytes([7]) * 64


def test_commit_uses_two_rpcs(sim, app_fabric, server, drive):
    client = _client(sim, app_fabric, server)
    def main():
        before = server.rpc.calls_served
        yield from client.run_transaction((8,), (8,), b"C" * 64)
        return server.rpc.calls_served - before
    assert drive(sim, main()) == 2  # LOCK + UPDATE (validate is one-sided)


def test_commit_rpcs_are_idempotent_by_transaction(sim, app_fabric, server,
                                                   drive):
    """A commit RPC may be delivered twice (a retransmission after a lost
    reply, a fabric duplicate): a LOCK finding its own lock succeeds, a
    second UPDATE installs nothing, and a LOCK of a finished transaction
    is refused without locking."""
    client = _client(sim, app_fabric, server)
    tid = (1, 1)
    lock = (tid, [(9, 1)])
    update = (tid, [(9, b"U" * 64)])

    def call(method, args):
        ok, _ = yield from client.rpc.call(server.host_name, method, args,
                                           request_payload_bytes=32)
        return ok

    def main():
        outcomes = []
        for method, args in ((FarmServer.LOCK_METHOD, lock),
                             (FarmServer.LOCK_METHOD, lock),
                             (FarmServer.UPDATE_METHOD, update),
                             (FarmServer.UPDATE_METHOD, update),
                             (FarmServer.LOCK_METHOD, lock)):
            outcomes.append((yield from call(method, args)))
        versions, values = yield from client.read_keys((9,))
        return outcomes, versions[9], values[9]

    outcomes, version, value = drive(sim, main())
    assert outcomes == [True, True, True, True, False]
    assert (version, value) == (2, b"U" * 64)  # installed once, unlocked
    assert server.duplicate_updates == 1
    assert not server._locks
