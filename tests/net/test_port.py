"""Request/reply channel: matching, overheads, failures, timeout."""

from functools import partial

import pytest

from repro.core.errors import PrismError
from repro.net.fabric import Fabric, Host
from repro.net.port import Reply, RequestChannel, send_reply
from repro.net.topology import RACK, make_fabric
from repro.obs import HostProfiler, UtilizationCollector
from repro.sim import Interrupt, Simulator, TimeoutExpired


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


# -- a round trip is one pipeline: the caller waits once -----------------------
#
# Hand-computable fabric: 100 B take 1 µs through every port and 1 µs one
# way, so a 100 B message posted at t is handed over at t + 3, and an echo
# answered from the handler's boot slot is back 6 µs after the post.


def _unit_fabric(sim):
    fabric = Fabric(sim, one_way_latency_us=1.0)
    for name in ("client", "server"):
        fabric.add_host(Host(sim, name, bytes_per_us=100))
    return fabric


def _unit_echo(sim, fabric, ok=True):
    def handler(message):
        request = message.payload
        body = request.body if ok else ValueError("server error")
        sim.spawn(send_reply(fabric, "server", request, body, 100, ok=ok))
    fabric.host("server").register_service("echo", handler)


class _RequestLog:
    """Bus subscriber: ``(kind, now)`` of every request-path event."""

    KINDS = ("req.send", "req.reply", "req.stale", "req.timeout")

    def __init__(self):
        self.events = []

    def bind(self, sim):
        self.sim = sim
        return self

    def subscribe(self, bus):
        for kind in self.KINDS:
            bus.subscribe(kind, partial(self._log, kind))

    def _log(self, kind, *_fields):
        self.events.append((kind, self.sim.now))


def _round_trip_costs(timeout_us=None, **overheads):
    """``(entries, resumes)`` per echo round trip, exact, by the slope
    between 10 and 110 of them; also checks the heap is left clean."""
    def counts(n):
        sim = Simulator()
        profiler = sim.attach(HostProfiler())
        fabric = make_fabric(sim, RACK, ["client", "server"])
        _echo_server(sim, fabric)
        channel = RequestChannel(sim, fabric, "client", **overheads)

        def client():
            for index in range(n):
                assert (yield from channel.request(
                    "server", "echo", index, 64,
                    timeout_us=timeout_us)) == index

        try:
            sim.run_until_complete(sim.spawn(client()))
            sim.run()   # pop what is left: only tombstoned ack timers
        finally:
            profiler.finish(sim.now)
        assert channel.outstanding == 0
        assert sim._queue == [] and sim._cancelled_timers == 0
        return sim.events_executed, profiler.resumes

    more, fewer = counts(110), counts(10)
    return (more[0] - fewer[0]) / 100, (more[1] - fewer[1]) / 100


def test_an_untimed_round_trip_costs_eight_entries_and_one_client_resume():
    """Post overhead, 2 + 2 message stages, the echo process's bootstrap
    and completion, completion overhead = 8 (10 while each message's TX
    serialization ended in an entry of its own). The reply's
    ready-deque slot went: the completion stage starts in the reply's
    hand-over. Two resumes: the echo handler's one, and the caller's —
    once, with the reply."""
    assert _round_trip_costs() == (8, 2)


def test_a_timed_round_trip_costs_what_an_untimed_one_does():
    """The ack deadline costs a heap push and no entry: the reply's
    hand-over tombstones it and starts the completion stage, as an
    untimed call's does. No deadline ever fires, none is left behind
    (checked in the helper)."""
    assert _round_trip_costs(timeout_us=75.0) == (8, 2)


def test_zero_overheads_skip_their_stage():
    """No zero-delay timer stands in for a skipped overhead: the call
    finishes in the reply's hand-over, timed or not — 6 entries."""
    assert _round_trip_costs(post_overhead_us=0.0,
                             completion_overhead_us=0.0) == (6, 2)
    assert _round_trip_costs(timeout_us=75.0, post_overhead_us=0.0,
                             completion_overhead_us=0.0) == (6, 2)


def test_an_error_reply_costs_no_completion_overhead(sim, drive):
    fabric = _unit_fabric(sim)
    _unit_echo(sim, fabric, ok=False)
    channel = RequestChannel(sim, fabric, "client")

    def main():
        with pytest.raises(ValueError, match="server error"):
            yield from channel.request("server", "echo", None, 100)
        return sim.now

    assert drive(sim, main()) == 0.25 + 6.0
    assert channel.outstanding == 0


def test_an_ack_expiry_costs_no_completion_overhead(sim, drive):
    fabric = _unit_fabric(sim)
    fabric.host("server").register_service("void", lambda message: None)
    channel = RequestChannel(sim, fabric, "client")

    def main():
        with pytest.raises(TimeoutExpired, match="request 1 to server/void"):
            yield from channel.request("server", "void", None, 100,
                                       timeout_us=2.0)
        return sim.now

    assert drive(sim, main()) == (0.25 + 1.0) + 2.0
    assert (channel.timeouts, channel.outstanding) == (1, 0)


def test_ack_deadline_and_reply_at_one_instant_deadline_popped_first(sim):
    """The tie as it arises by itself: the deadline's heap entry is
    older than the reply's last stage, so it is popped first and the
    caller times out in it. The reply, handed over later in the same
    instant, finds nothing pending: ``req.stale``."""
    log = sim.attach(_RequestLog())
    fabric = _unit_fabric(sim)
    _unit_echo(sim, fabric)
    channel = RequestChannel(sim, fabric, "client")
    outcome = []

    def main():
        try:
            yield from channel.request("server", "echo", None, 100,
                                       timeout_us=5.0)
        except TimeoutExpired:
            outcome.append(("timeout", sim.now))

    sim.spawn(main())
    sim.run()
    # reply handed over at 0.25 + 6; deadline (0.25 + 1) + 5
    assert outcome == [("timeout", 6.25)]
    assert log.events == [("req.send", 0.0), ("req.timeout", 6.25),
                          ("req.stale", 6.25)]
    assert (channel.timeouts, channel.outstanding) == (1, 0)
    assert sim._queue == [] and sim._cancelled_timers == 0


def test_ack_deadline_and_reply_at_one_instant_reply_popped_first(sim):
    """The other order needs a reply on the wire before its request:
    a 1000 B message forged with the request's id, whose RX stage
    (pushed at 16.25) ends at the deadline of a request posted at
    20.25. The reply's entry is popped first, so it resolves the call:
    the deadline is tombstoned and the caller gets the forged body
    after the completion overhead."""
    log = sim.attach(_RequestLog())
    fabric = _unit_fabric(sim)
    fabric.host("server").register_service("void", lambda message: None)
    channel = RequestChannel(sim, fabric, "client")
    outcome = []

    def forger():
        yield sim.timeout(5.25)     # TX 10, wire 1, RX 10: over at 26.25
        fabric.post("server", "client", channel.reply_service,
                    Reply(1, "forged"), 1000)

    def main():
        yield sim.timeout(20.0)
        outcome.append((yield from channel.request(
            "server", "void", None, 100, timeout_us=5.0)))
        outcome.append(sim.now)

    sim.spawn(forger())
    sim.spawn(main())
    sim.run()
    assert outcome == ["forged", 26.25 + 0.25]    # (20.25 + 1) + 5
    assert log.events == [("req.send", 20.0), ("req.reply", 26.25)]
    assert (channel.timeouts, channel.outstanding) == (0, 0)
    assert sim._queue == [] and sim._cancelled_timers == 0


def test_ack_deadline_and_reply_at_one_instant_resolve_once(ties):
    """Twenty requests in a row, each with its reply and its deadline at
    one instant. Under every tie order the first of the two entries
    resolves the call: the waiter resumes once, with the reply or the
    timeout; the loser finds nothing pending (a reply after the deadline
    is ``req.stale``); and no tombstone is left uncounted."""
    sim = Simulator()
    log = sim.attach(_RequestLog())
    fabric = _unit_fabric(sim)
    _unit_echo(sim, fabric)
    channel = RequestChannel(sim, fabric, "client")
    resumed = []

    def main():
        for index in range(20):
            try:
                value = yield from channel.request(
                    "server", "echo", index, 100, timeout_us=5.0)
            except TimeoutExpired:
                value = "timeout"
            resumed.append((index, value, sim.now))
            yield sim.sleep_until(100.0 * (index + 1))

    sim.spawn(main())
    sim.run()
    # reply handed over and deadline both at 100 k + 6.25
    assert [(index, now) for index, _value, now in resumed] == [
        (index, 100.0 * index + 6.25 + (value == index) * 0.25)
        for index, value, _now in resumed]
    assert [index for index, _value, _now in resumed] == list(range(20))
    assert all(value in (index, "timeout") for index, value, _now in resumed)
    assert channel._pending == {} and channel._open_calls == {}
    assert sim._queue == [] and sim._cancelled_timers == 0
    kinds = [kind for kind, _now in log.events]
    timeouts = kinds.count("req.timeout")
    assert kinds.count("req.send") == 20
    assert kinds.count("req.reply") == 20 - timeouts
    assert kinds.count("req.stale") == timeouts == channel.timeouts
    if ties is None:
        assert timeouts == 20  # the deadline's heap entry is the older
    else:
        assert 0 < timeouts < 20  # both orders drawn


# -- the waiter goes away ------------------------------------------------------


def _interrupted_request(sim, interrupt_at, timeout_us=None):
    """One echo request on the unit fabric whose caller is interrupted at
    ``interrupt_at``; the caller then issues a second request. Returns
    what is needed to check that nothing of the first is left."""
    sim.attach(UtilizationCollector())
    log = sim.attach(_RequestLog())
    fabric = _unit_fabric(sim)
    _unit_echo(sim, fabric)
    channel = RequestChannel(sim, fabric, "client")
    seen = {}

    def caller():
        try:
            yield from channel.request("server", "echo", "first", 100,
                                       timeout_us=timeout_us)
        except Interrupt:
            seen["outstanding"] = channel.outstanding
            seen["depth"] = channel.monitor.enters - channel.monitor.exits
        seen["second"] = yield from channel.request(
            "server", "echo", "second", 100, timeout_us=timeout_us)
        seen["done"] = sim.now

    victim = sim.spawn(caller())

    def killer():
        yield sim.timeout(interrupt_at)
        victim.interrupt("stop")

    sim.spawn(killer())
    sim.run()
    assert (seen["outstanding"], seen["depth"]) == (0, 0)
    assert seen["second"] == "second"
    assert channel.outstanding == 0
    assert channel.monitor.enters == channel.monitor.exits == 2
    assert sim._queue == [] and sim._cancelled_timers == 0
    return fabric, log, seen


@pytest.mark.parametrize("timeout_us", [None, 75.0])
def test_a_caller_interrupted_during_the_post_overhead_never_posts(
        sim, timeout_us):
    fabric, log, seen = _interrupted_request(sim, 0.125, timeout_us)
    assert fabric.hosts["client"].tx.messages_total == 1    # the second
    assert seen["done"] == 0.125 + 6.5
    assert [kind for kind, _when in log.events] == [
        "req.send", "req.send", "req.reply"]


@pytest.mark.parametrize("timeout_us", [None, 75.0])
def test_a_caller_interrupted_while_waiting_withdraws_the_pending_request(
        sim, timeout_us):
    """The posted message stays posted — it is the NIC's — and is
    answered; but the request is no longer pending (it used to be, for
    ever, with the depth monitor one too high), so the late reply is
    stale. The second request queues behind nothing and is unharmed."""
    fabric, log, seen = _interrupted_request(sim, 2.0, timeout_us)
    assert fabric.hosts["client"].tx.messages_total == 2
    assert seen["done"] == 2.0 + 6.5
    assert log.events == [
        ("req.send", 0.0), ("req.send", 2.0),
        ("req.stale", 6.25), ("req.reply", 8.25)]


@pytest.mark.parametrize("timeout_us", [None, 75.0])
def test_a_caller_interrupted_during_the_completion_overhead_is_done(
        sim, timeout_us):
    fabric, log, seen = _interrupted_request(sim, 6.375, timeout_us)
    assert seen["done"] == 6.375 + 6.5
    assert [kind for kind, _when in log.events] == [
        "req.send", "req.reply", "req.send", "req.reply"]
