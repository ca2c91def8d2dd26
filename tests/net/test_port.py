"""Request/reply channel: matching, overheads, failures, timeout."""

import pytest

from repro.core.errors import PrismError
from repro.net.fabric import Fabric, Host
from repro.net.port import RequestChannel, send_reply
from repro.net.topology import RACK, make_fabric
from repro.sim import TimeoutExpired


def _echo_server(sim, fabric, host="server", fail=False, delay=0.0):
    def handler(message):
        request = message.payload
        def respond():
            if delay:
                yield sim.timeout(delay)
            yield from send_reply(fabric, host, request,
                                  request.body if not fail
                                  else ValueError("server error"),
                                  64, ok=not fail)
        sim.spawn(respond())
    fabric.host(host).register_service("echo", handler)


def test_request_reply_roundtrip(sim, fabric, drive):
    _echo_server(sim, fabric)
    channel = RequestChannel(sim, fabric, "client")
    def main():
        reply = yield from channel.request("server", "echo", "ping", 64)
        return reply
    assert drive(sim, main()) == "ping"


def test_concurrent_requests_matched_by_id(sim, fabric):
    _echo_server(sim, fabric)
    channel = RequestChannel(sim, fabric, "client")
    results = {}
    def requester(tag, size):
        reply = yield from channel.request("server", "echo", tag, size)
        results[tag] = reply
    sim.spawn(requester("big", 5000))
    sim.spawn(requester("small", 64))
    sim.run()
    assert results == {"big": "big", "small": "small"}


def test_two_channels_do_not_cross_talk(sim, fabric):
    _echo_server(sim, fabric)
    a = RequestChannel(sim, fabric, "client")
    b = RequestChannel(sim, fabric, "client")
    results = []
    def requester(channel, tag):
        reply = yield from channel.request("server", "echo", tag, 64)
        results.append(reply)
    sim.spawn(requester(a, "A"))
    sim.spawn(requester(b, "B"))
    sim.run()
    assert sorted(results) == ["A", "B"]


def test_post_and_completion_overheads_counted(sim, fabric, drive):
    _echo_server(sim, fabric)
    cheap = RequestChannel(sim, fabric, "client",
                           post_overhead_us=0.0, completion_overhead_us=0.0)
    def timed(channel):
        start = sim.now
        yield from channel.request("server", "echo", None, 64)
        return sim.now - start
    fast = drive(sim, timed(cheap))
    costly = RequestChannel(sim, fabric, "client",
                            post_overhead_us=1.0, completion_overhead_us=1.0)
    slow = drive(sim, timed(costly))
    assert slow == pytest.approx(fast + 2.0)


def test_error_reply_raises(sim, fabric, drive):
    _echo_server(sim, fabric, fail=True)
    channel = RequestChannel(sim, fabric, "client")
    def main():
        with pytest.raises(ValueError, match="server error"):
            yield from channel.request("server", "echo", None, 64)
        return "handled"
    assert drive(sim, main()) == "handled"


def test_timeout_raises_and_late_reply_dropped(sim, fabric, drive):
    _echo_server(sim, fabric, delay=100.0)
    channel = RequestChannel(sim, fabric, "client")
    def main():
        with pytest.raises(TimeoutError):
            yield from channel.request("server", "echo", None, 64,
                                       timeout_us=10.0)
        return "timed out"
    assert drive(sim, main()) == "timed out"
    sim.run()  # late reply arrives; must be silently dropped


def test_ack_timer_runs_from_the_instant_the_request_leaves_the_tx_port(
        sim, drive):
    """The deadline is ``tx_done + timeout_us``, not ``post + timeout``:
    a request queued behind a busy TX port is not charged for the wait.
    Hand-computed: the port is busy until 5.0, the 300 B request posted
    at 0.25 serializes over [5, 8), so the timer fires at 8 + 75."""
    fabric = Fabric(sim, one_way_latency_us=1.0)
    fabric.add_host(Host(sim, "client", bytes_per_us=100))
    fabric.add_host(Host(sim, "server", bytes_per_us=100))
    fabric.host("server").register_service("void", lambda message: None)
    channel = RequestChannel(sim, fabric, "client", post_overhead_us=0.25)
    fabric.post("client", "server", "void", None, 500)

    def main():
        with pytest.raises(TimeoutExpired):
            yield from channel.request("server", "void", None, 300,
                                       timeout_us=75.0)
        return sim.now

    assert drive(sim, main()) == (5.0 + 3.0) + 75.0
    assert channel.timeouts == 1
