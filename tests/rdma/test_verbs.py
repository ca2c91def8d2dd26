"""SEND/RECV verbs: delivery, ordering, RNR flow control."""

import pytest

from repro.core.errors import RemoteNak
from repro.net.topology import DIRECT, make_fabric
from repro.prism import HardwarePrismBackend, PrismServer, SoftwarePrismBackend
from repro.rdma.verbs import ReceiveEndpoint, SendEndpoint
from repro.sim import Simulator
from tests.prism.conftest import recording_rx


@pytest.fixture
def system(sim):
    fabric = make_fabric(sim, DIRECT, ["client", "client2", "server"])
    server = PrismServer(sim, fabric, "server", HardwarePrismBackend)
    receiver = ReceiveEndpoint(sim, server, buffer_size=128,
                               buffer_count=4)
    sender = SendEndpoint(sim, fabric, "client", "server")
    return fabric, server, receiver, sender


def test_send_lands_in_posted_buffer(sim, system, drive):
    fabric, server, receiver, sender = system
    def main():
        yield from sender.send(b"hello receiver")
        completion = yield receiver.recv()
        data = server.space.read(completion.buffer_addr, completion.length)
        return completion.sender, data
    sender_name, data = drive(sim, main())
    assert sender_name == "client"
    assert data == b"hello receiver"


def test_messages_delivered_in_order(sim, system, drive):
    fabric, server, receiver, sender = system
    def main():
        for i in range(3):
            yield from sender.send(bytes([i]) * 8)
        got = []
        for _ in range(3):
            completion = yield receiver.recv()
            got.append(server.space.read(completion.buffer_addr, 1))
        return got
    assert drive(sim, main()) == [b"\x00", b"\x01", b"\x02"]


def test_rnr_when_no_buffers(sim, system, drive):
    fabric, server, receiver, sender = system
    def main():
        for _ in range(4):  # consume every posted buffer
            yield from sender.send(b"fill")
        with pytest.raises(RemoteNak, match="receiver not ready"):
            yield from sender.send(b"overflow")
        return receiver.rnr_naks
    assert drive(sim, main()) == 1


def test_reposting_restores_flow(sim, system, drive):
    fabric, server, receiver, sender = system
    def main():
        for _ in range(4):
            yield from sender.send(b"x")
        completion = yield receiver.recv()
        receiver.post_receive(completion.buffer_addr)
        yield from sender.send(b"after repost")
        return True
    assert drive(sim, main())


def test_oversized_send_rejected(sim, system, drive):
    fabric, server, receiver, sender = system
    def main():
        with pytest.raises(RemoteNak):
            yield from sender.send(b"z" * 129)
        return True
    assert drive(sim, main())


def test_two_senders_interleave(sim, system):
    fabric, server, receiver, sender = system
    sender2 = SendEndpoint(sim, fabric, "client2", "server")
    def producer(endpoint, tag):
        yield from endpoint.send(tag)
    sim.spawn(producer(sender, b"from-1"))
    sim.spawn(producer(sender2, b"from-2"))
    senders = set()
    def consumer():
        for _ in range(2):
            completion = yield receiver.recv()
            senders.add(completion.sender)
    process = sim.spawn(consumer())
    sim.run_until_complete(process, limit=1e6)
    assert senders == {"client", "client2"}


def test_send_faster_than_rpc(sim, system):
    """SEND is NIC-to-NIC: cheaper than an RPC round trip."""
    fabric, server, receiver, sender = system
    from repro.rpc.erpc import RpcClient, RpcServer
    rpc_server = RpcServer(sim, fabric, "server")
    rpc_server.register("noop", lambda args: (None, 8))
    rpc_client = RpcClient(sim, fabric, "client")
    times = {}
    def main():
        start = sim.now
        yield from sender.send(b"fast path")
        times["send"] = sim.now - start
        start = sim.now
        yield from rpc_client.call("server", "noop", None, 9)
        times["rpc"] = sim.now - start
    sim.run_until_complete(sim.spawn(main()), limit=1e6)
    assert times["send"] < times["rpc"]


def _software_receiver(monkeypatch, buffer_count):
    """A ``prism-sw`` server's receive endpoint, one sender, and the
    list of each SEND's RX-done at the server and the instant of its
    accept (RNR or not)."""
    sim = Simulator()
    fabric = make_fabric(sim, DIRECT, ["client", "server"])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
    receiver = ReceiveEndpoint(sim, server, buffer_size=128,
                               buffer_count=buffer_count)
    sender = SendEndpoint(sim, fabric, "client", "server")
    landed = recording_rx(monkeypatch, fabric, "server")
    accepted = []
    accept = receiver.accept

    def recording_accept(execution):
        accepted.append(sim.now)
        return accept(execution)

    receiver.accept = recording_accept
    return sim, server, receiver, sender, landed, accepted


def test_a_software_send_is_placed_its_admission_after_rx_done(
        monkeypatch):
    """The receive service takes the backend's ``admission_us`` as its
    lead: the SEND pops its buffer at RX-done + ``admission_us``, bit
    for bit, in the request's hand-over."""
    sim, server, receiver, sender, landed, accepted = _software_receiver(
        monkeypatch, 4)
    sim.run_until_complete(sim.spawn(sender.send(b"hello")))
    lead = server.backend.admission_us
    assert accepted == [landed[0] + lead]
    assert len(receiver.qp) == 3


def test_the_rnr_decision_is_made_after_the_stacks_pipeline(monkeypatch):
    """RNR is decided at the hand-over, RX-done + ``admission_us``: a
    buffer the application posts while the SEND is in the stack's
    pipeline is the one it lands in; with none by then it is NAKed."""
    sim, server, receiver, sender, landed, accepted = _software_receiver(
        monkeypatch, 1)
    lead = server.backend.admission_us
    outcomes = []
    reposted = []

    def repost(buffer_addr):
        reposted.append(sim.now)
        receiver.post_receive(buffer_addr)

    def main():
        yield from sender.send(b"fill")           # takes the one buffer
        completion = yield receiver.recv()
        posted = sim.now
        try:
            yield from sender.send(b"late")       # no buffer: RNR
        except RemoteNak:
            outcomes.append(("rnr", accepted[-1]))
        # The next SEND lands as long after its post as this one did;
        # the buffer comes back halfway through its pipeline.
        sim.call_at(sim.now + (landed[1] - posted) + lead / 2,
                    lambda: repost(completion.buffer_addr))
        yield from sender.send(b"in time")
        completion = yield receiver.recv()
        outcomes.append(("placed", accepted[-1],
                         server.space.read(completion.buffer_addr, 7)))

    sim.run_until_complete(sim.spawn(main()))
    assert receiver.rnr_naks == 1
    assert outcomes == [("rnr", landed[1] + lead),
                        ("placed", landed[2] + lead, b"in time")]
    assert landed[2] < reposted[0] < landed[2] + lead
