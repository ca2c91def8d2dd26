"""Pilaf baseline: two-READ gets, RPC puts, real CRC verification."""

import pytest

from repro.apps.kv.crc import crc_bytes, crc_time_us, verify
from repro.apps.kv.pilaf import PilafClient, PilafServer
from repro.prism import HardwareRdmaBackend, SoftwareRdmaBackend


@pytest.fixture
def pilaf(sim, app_fabric):
    return PilafServer(sim, app_fabric, "server", HardwareRdmaBackend,
                       n_keys=32, max_value_bytes=64)


def test_crc_roundtrip():
    assert verify(b"hello", crc_bytes(b"hello"))
    assert not verify(b"hellx", crc_bytes(b"hello"))


def test_crc_time_scales():
    assert crc_time_us(512) > crc_time_us(16)


def test_get_missing_returns_none(sim, app_fabric, pilaf, drive):
    client = PilafClient(sim, app_fabric, "c0", pilaf)
    def main():
        return (yield from client.get(3))
    assert drive(sim, main()) is None


def test_put_then_get(sim, app_fabric, pilaf, drive):
    client = PilafClient(sim, app_fabric, "c0", pilaf)
    def main():
        yield from client.put(3, b"pilaf-value")
        return (yield from client.get(3))
    assert drive(sim, main()) == b"pilaf-value"


def test_loaded_data_visible(sim, app_fabric, pilaf, drive):
    pilaf.load(7, b"seeded")
    client = PilafClient(sim, app_fabric, "c0", pilaf)
    def main():
        return (yield from client.get(7))
    assert drive(sim, main()) == b"seeded"


def test_overwrite_in_place(sim, app_fabric, pilaf, drive):
    pilaf.load(5, b"old")
    client = PilafClient(sim, app_fabric, "c0", pilaf)
    def main():
        yield from client.put(5, b"new")
        return (yield from client.get(5))
    assert drive(sim, main()) == b"new"


def test_an_oversize_put_is_refused_and_changes_no_key(
        sim, app_fabric, pilaf, drive):
    """A PUT whose value is longer than the extent's 64-byte field gets a
    refusal reply, and ``put`` raises ``ValueError``; no byte of server
    memory changes, so every key still reads what was stored."""
    stored = {key: bytes([65 + key]) * (8 + key) for key in range(6)}
    for key, value in stored.items():
        pilaf.load(key, value)
    memory = bytes(pilaf.prism.space.host.view)
    client = PilafClient(sim, app_fabric, "c0", pilaf)

    def main():
        with pytest.raises(ValueError, match="exceed"):
            yield from client.put(1, b"x" * 100)
        assert bytes(pilaf.prism.space.host.view) == memory
        yield from client.put(2, b"y" * 64)     # a value that fits
        got = {}
        for key in stored:
            got[key] = yield from client.get(key)
        return got

    assert drive(sim, main()) == {**stored, 2: b"y" * 64}
    assert client.puts == 1


def _full_pilaf(sim, app_fabric):
    """A four-slot table with four keys in it: no slot is left."""
    server = PilafServer(sim, app_fabric, "server", HardwareRdmaBackend,
                         n_keys=4, max_value_bytes=64)
    for key in range(4):
        server.load(key, bytes([65 + key]) * 8)
    return server


def test_a_full_table_refuses_a_new_key_and_keeps_no_trace(sim, app_fabric):
    """A new key with no empty slot is refused before its item takes an
    extent, maps its key or writes a byte: loading it again is refused
    again, and a key already stored still takes a re-load."""
    server = _full_pilaf(sim, app_fabric)
    memory = bytes(server.prism.space.host.view)
    for _attempt in range(2):
        with pytest.raises(ValueError, match="hash table full"):
            server.load(9, b"nine")
        assert bytes(server.prism.space.host.view) == memory
    server.load(2, b"two")
    assert bytes(server.prism.space.host.view) != memory


def test_a_put_on_a_full_table_is_refused_and_changes_no_key(
        sim, app_fabric, drive):
    """A run-time PUT of a new key into a full table gets a refusal
    reply, as an oversize one does, and ``put`` raises ``ValueError``;
    no byte of server memory changes, the key still reads as absent and
    every stored key as stored."""
    server = _full_pilaf(sim, app_fabric)
    memory = bytes(server.prism.space.host.view)
    client = PilafClient(sim, app_fabric, "c0", server)

    def main():
        for _attempt in range(2):
            with pytest.raises(ValueError, match="hash table full"):
                yield from client.put(9, b"nine")
            assert bytes(server.prism.space.host.view) == memory
        got = {}
        for key in (0, 1, 2, 3, 9):
            got[key] = yield from client.get(key)
        return got

    assert drive(sim, main()) == {
        **{key: bytes([65 + key]) * 8 for key in range(4)}, 9: None}
    assert client.puts == 0


def test_get_is_two_round_trips(sim, app_fabric, pilaf):
    pilaf.load(1, b"v")
    client = PilafClient(sim, app_fabric, "c0", pilaf)
    holder = {}
    def main():
        before = client.client.round_trips
        yield from client.get(1)
        holder["rts"] = client.client.round_trips - before
    sim.run_until_complete(sim.spawn(main()), limit=1e6)
    assert holder["rts"] == 2


def test_corrupted_slot_crc_detected(sim, app_fabric, pilaf, drive):
    """Flip a byte in a slot CRC: the client must detect it rather
    than follow a bogus pointer."""
    pilaf.load(2, b"value")
    slot = pilaf.layout.slot_addr(
        pilaf.slot_index((2).to_bytes(8, "little")))
    crc = bytearray(pilaf.prism.space.read(slot + 8, 8))
    crc[0] ^= 0xFF
    pilaf.prism.space.write(slot + 8, bytes(crc))
    client = PilafClient(sim, app_fabric, "c0", pilaf, max_probes=2)
    def main():
        return (yield from client.get(2))
    # The read never verifies; the client gives up after max_probes.
    assert drive(sim, main()) is None
    assert client.crc_failures > 0


def test_corrupted_extent_crc_detected(sim, app_fabric, pilaf, drive):
    pilaf.load(4, b"value")
    slot = pilaf.layout.slot_addr(
        pilaf.slot_index((4).to_bytes(8, "little")))
    extent = int.from_bytes(pilaf.prism.space.read(slot, 8), "little")
    byte = bytearray(pilaf.prism.space.read(extent + 8, 1))
    byte[0] ^= 0xFF
    pilaf.prism.space.write(extent + 8, bytes(byte))
    client = PilafClient(sim, app_fabric, "c0", pilaf, max_probes=2)
    def main():
        return (yield from client.get(4))
    assert drive(sim, main()) is None
    assert client.crc_failures > 0


def test_put_goes_through_rpc_not_rdma(sim, app_fabric, pilaf, drive):
    client = PilafClient(sim, app_fabric, "c0", pilaf)
    def main():
        before = pilaf.rpc.calls_served
        yield from client.put(9, b"v")
        return pilaf.rpc.calls_served - before
    assert drive(sim, main()) == 1


def test_runs_on_software_rdma_backend(sim, app_fabric, drive):
    server = PilafServer(sim, app_fabric, "server", SoftwareRdmaBackend,
                         n_keys=8, max_value_bytes=32)
    server.load(0, b"sw-rdma")
    client = PilafClient(sim, app_fabric, "c0", server)
    def main():
        return (yield from client.get(0))
    assert drive(sim, main()) == b"sw-rdma"


def test_software_rdma_get_slower_than_hardware(sim, app_fabric):
    hw = PilafServer(sim, app_fabric, "server", HardwareRdmaBackend,
                     n_keys=8, max_value_bytes=32)
    from repro.net.topology import RACK, make_fabric
    from repro.sim import Simulator
    sim2 = Simulator()
    fabric2 = make_fabric(sim2, RACK, ["server", "c0"])
    sw = PilafServer(sim2, fabric2, "server", SoftwareRdmaBackend,
                     n_keys=8, max_value_bytes=32)
    hw.load(0, b"v")
    sw.load(0, b"v")

    def timed(sim_, fabric_, server):
        client = PilafClient(sim_, fabric_, "c0", server)
        holder = {}
        def main():
            start = sim_.now
            yield from client.get(0)
            holder["lat"] = sim_.now - start
        sim_.run_until_complete(sim_.spawn(main()), limit=1e6)
        return holder["lat"]

    assert timed(sim2, fabric2, sw) > timed(sim, app_fabric, hw)
