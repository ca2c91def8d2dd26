"""RequestChannel retransmission: ack timeouts, backoff, give-up — the
retry stage of a call posted with ``retry=policy``."""

import heapq
from collections import deque
from functools import partial

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.net.fabric import Fabric, Host
from repro.net.port import RequestChannel, post_reply, send_reply
from repro.obs import HostProfiler, Tracer
from repro.sim import Interrupt, Simulator, TimeoutExpired


@pytest.mark.usefixtures("ties")
class TestRequestWithRetry:
    def test_retransmits_until_a_reply_arrives(self, sim, fabric, drive):
        channel = RequestChannel(sim, fabric, "client")
        seen = []

        def service(message):
            request = message.payload
            seen.append(request.id)
            if len(seen) < 3:
                return  # lose the first two requests (no reply)
            sim.spawn(send_reply(fabric, "server", request, "pong", 64))

        fabric.host("server").register_service("svc", service)
        policy = RetryPolicy(timeout_us=50.0, max_retries=5,
                             backoff_base_us=1.0)

        def main():
            value = yield channel.post("server", "svc", "ping", 64,
                                       retry=policy)
            return value

        assert drive(sim, main()) == "pong"
        # Each retransmission is a fresh request id.
        assert len(seen) == 3 and len(set(seen)) == 3
        assert channel.retransmissions == 2
        assert channel.timeouts == 2
        assert channel.outstanding == 0

    def test_gives_up_after_max_retries(self, sim, fabric, drive):
        channel = RequestChannel(sim, fabric, "client")
        seen = []
        fabric.host("server").register_service(
            "void", lambda message: seen.append(message.payload.id))
        policy = RetryPolicy(timeout_us=20.0, max_retries=2,
                             backoff_base_us=1.0)

        def main():
            yield channel.post("server", "void", "ping", 64, retry=policy)

        with pytest.raises(TimeoutExpired):
            drive(sim, main())
        assert len(seen) == 3  # original + 2 retransmissions
        assert channel.timeouts == 3
        assert channel.retransmissions == 2
        assert channel.outstanding == 0

    def test_late_reply_to_abandoned_id_is_dropped(self, sim, fabric, drive):
        """A reply that arrives after its attempt timed out must not
        complete the retransmitted attempt (fresh id) or crash."""
        channel = RequestChannel(sim, fabric, "client")
        attempts = []

        def service(message):
            request = message.payload
            attempts.append(request.id)

            def respond(delay, body):
                yield sim.timeout(delay)
                yield from send_reply(fabric, "server", request, body, 64)

            # First attempt answers long after the ack timeout; the
            # retransmission answers promptly.
            if len(attempts) == 1:
                sim.spawn(respond(200.0, "stale"))
            else:
                sim.spawn(respond(1.0, "fresh"))

        fabric.host("server").register_service("slow", service)
        policy = RetryPolicy(timeout_us=40.0, max_retries=3,
                             backoff_base_us=1.0)

        def main():
            value = yield channel.post("server", "slow", "ping", 64,
                                       retry=policy)
            # Let the stale reply land while nothing is pending.
            yield sim.timeout(300.0)
            return value

        assert drive(sim, main()) == "fresh"
        assert channel.outstanding == 0

    def test_nak_is_not_retried(self, sim, fabric, drive):
        """A delivered negative reply propagates immediately: it is an
        answer, not a loss."""
        channel = RequestChannel(sim, fabric, "client")
        calls = []

        def service(message):
            request = message.payload
            calls.append(request.id)
            sim.spawn(send_reply(fabric, "server", request,
                                 ValueError("nak"), 64, ok=False))

        fabric.host("server").register_service("nak", service)
        policy = RetryPolicy(timeout_us=50.0, max_retries=5)

        def main():
            yield channel.post("server", "nak", "ping", 64, retry=policy)

        with pytest.raises(ValueError):
            drive(sim, main())
        assert len(calls) == 1
        assert channel.retransmissions == 0


# -- the retry stage's kernel entries -------------------------------------------
#
# Hand-computable fabric: 100 B take 1 µs through every port and 1 µs one
# way. The server loses the first ``lose`` requests and answers the rest
# from the delivering entry.


class _EntryLog(deque):
    """A ready deque that logs the clock at each entry it hands out."""

    def __init__(self, sim, log):
        super().__init__()
        self.sim = sim
        self.log = log

    def popleft(self):
        self.log.append(self.sim._now)
        return super().popleft()


class _Bus:
    """Bus subscriber: ``(kind, now, fields)`` of the retry events."""

    KINDS = ("req.send", "req.timeout", "req.backoff", "req.exhausted")

    def __init__(self):
        self.events = []

    def bind(self, sim):
        self.sim = sim
        return self

    def subscribe(self, bus):
        for kind in self.KINDS:
            bus.subscribe(kind, partial(self._log, kind))

    def _log(self, kind, *fields):
        self.events.append((kind, self.sim.now, fields))


def _lossy(sim, lose):
    fabric = Fabric(sim, one_way_latency_us=1.0)
    for name in ("client", "server"):
        fabric.add_host(Host(sim, name, bytes_per_us=100))
    seen = []

    def service(message):
        seen.append(message.payload.id)
        if len(seen) > lose:
            post_reply(fabric, "server", message.payload, "pong", 100)

    fabric.host("server").register_service("lossy", service)
    return fabric, RequestChannel(sim, fabric, "client"), seen


def _logged_retry(monkeypatch, policy, lose=1):
    """Run one retried call; ``(kernel-entry instants, resumes, bus log,
    Simulator.timeout calls, channel)``."""
    sim = Simulator()
    profiler = sim.attach(HostProfiler())
    log = sim.attach(_Bus())
    instants = []
    sim._ready = _EntryLog(sim, instants)
    timeouts = [0]
    timeout = sim.timeout

    def counting_timeout(delay, value=None):
        timeouts[0] += 1
        return timeout(delay, value)

    sim.timeout = counting_timeout
    fabric, channel, _seen = _lossy(sim, lose)
    caller = sim.spawn((lambda: (yield channel.post(
        "server", "lossy", None, 100, retry=policy)))())
    pop = heapq.heappop

    def logging_pop(queue):
        entry = pop(queue)
        if not entry[2].cancelled:
            instants.append(entry[0])
        return entry

    monkeypatch.setattr(heapq, "heappop", logging_pop)
    try:
        sim.run()
    finally:
        profiler.finish(sim.now)
    assert caller.value == "pong"
    assert sim.events_executed == len(instants)
    return instants, profiler.resumes, log.events, timeouts[0], channel


def test_a_retransmission_takes_the_retrying_generators_entries(
        monkeypatch):
    """One lost request. Post overhead to 0.25; TX to 1.25, booked at
    the post, so no entry; wire and RX to 3.25 (lost); the ack deadline
    at (0.25 + 1) + 10, which books the backoff in its own entry; the
    backoff's entry at exactly 11.25 + 1; the second attempt 12.25 →
    18.75, whose reply's hand-over withdraws the deadline and starts
    the completion stage. The instants a process retrying by ``yield
    sim.timeout(backoff)`` had, with neither its two resumes (at the
    deadline and at the backoff) nor its ``timeout`` call, nor the
    reply's and the expiry's ready-deque slots, nor the three messages'
    TX-finish entries (at 1.25, 13.5 and 16.5). The caller is resumed
    once (plus its bootstrap)."""
    policy = RetryPolicy(timeout_us=10.0, max_retries=2,
                         backoff_base_us=1.0)
    instants, resumes, events, timeouts, channel = _logged_retry(
        monkeypatch, policy)
    assert instants == [
        0.0,                          # the caller's bootstrap
        0.25, 2.25, 3.25,             # post overhead, wire, RX (lost)
        11.25,                        # the ack deadline
        12.25,                        # the backoff runs out: post again
        12.5, 14.5, 15.5,             # post overhead, wire, RX
        17.5, 18.5,                   # the reply: wire, RX
        18.75, 18.75]                 # completion overhead; the caller's
                                      # completion entry
    assert (resumes, timeouts) == (2, 0)
    assert [(kind, now) for kind, now, _fields in events] == [
        ("req.send", 0.0), ("req.timeout", 11.25), ("req.backoff", 11.25),
        ("req.send", 12.25)]
    logical = events[0][2][0]
    assert events[3][2][:2] == (logical, 2)  # same logical id, fresh id
    assert (channel.timeouts, channel.retransmissions) == (1, 1)


def test_a_zero_backoff_takes_the_zero_delay_slot(monkeypatch):
    """``timeout(0)``'s two ready-deque hops after the deadline's entry:
    the pending timer's slot and the one that fires the retransmission."""
    policy = RetryPolicy(timeout_us=10.0, max_retries=2,
                         backoff_base_us=0.0)
    instants, _resumes, _events, timeouts, _channel = _logged_retry(
        monkeypatch, policy)
    assert instants[4:8] == [11.25, 11.25, 11.25, 11.5]
    assert timeouts == 0


@pytest.mark.usefixtures("ties")
def test_a_jittered_backoff_fires_at_exactly_now_plus_backoff():
    sim = Simulator()
    sim.set_faults(FaultPlan(seed=9))
    log = sim.attach(_Bus())
    fabric, channel, _seen = _lossy(sim, lose=2)
    policy = RetryPolicy(timeout_us=10.0, max_retries=4)
    sent = []

    def main():
        return (yield channel.post("server", "lossy", None, 100,
                                   retry=policy))

    assert sim.run_until_complete(sim.spawn(main())) == "pong"
    for kind, now, fields in log.events:
        if kind == "req.backoff":
            sent.append(now + fields[2])
    resent = [now for kind, now, _fields in log.events if kind == "req.send"]
    assert len(sent) == 2 and resent[1:] == sent
    assert all(now % 1 for now in sent)  # jittered, not whole µs


@pytest.mark.usefixtures("ties")
def test_retry_substreams_are_numbered_in_first_retried_post_order():
    """The backoff draws of a channel come from the substream allocated
    at its first post with a retry policy — not at construction, and
    not at a post without one."""
    def backoffs(order):
        sim = Simulator()
        sim.set_faults(FaultPlan(seed=5))
        log = sim.attach(_Bus())
        fabric = Fabric(sim, one_way_latency_us=1.0)
        for name in ("a", "b", "server"):
            fabric.add_host(Host(sim, name, bytes_per_us=100))
        fabric.host("server").register_service("void", lambda m: None)
        channels = {name: RequestChannel(sim, fabric, name)
                    for name in ("a", "b")}
        policy = RetryPolicy(timeout_us=5.0, max_retries=1)

        def main():
            for name in order:
                channels[name].post("server", "void", None, 100)  # untimed
            for name in order:
                try:
                    yield channels[name].post("server", "void", None, 100,
                                              retry=policy)
                except TimeoutExpired:
                    pass

        sim.run_until_complete(sim.spawn(main()))
        return [fields[2] for kind, _now, fields in log.events
                if kind == "req.backoff"]

    ab, ba = backoffs("ab"), backoffs("ba")
    assert len(ab) == 2 and ab[0] != ab[1]
    assert ab == ba    # first retried post gets stream 0, whoever it is


@pytest.mark.usefixtures("ties")
def test_interrupting_the_backoff_tombstones_it_and_closes_its_span():
    sim = Simulator()
    tracer = sim.attach(Tracer())
    fabric, channel, seen = _lossy(sim, lose=1)
    policy = RetryPolicy(timeout_us=10.0, max_retries=2,
                         backoff_base_us=4.0)
    root = tracer.root("op")
    outcome = []

    def caller():
        try:
            yield channel.post("server", "lossy", None, 100, span=root,
                               retry=policy)
        except Interrupt:
            outcome.append(sim.now)

    victim = sim.spawn(caller())

    def killer():
        yield sim.timeout(12.0)    # in the backoff: 11.25 to 15.25
        victim.interrupt("stop")

    sim.spawn(killer())
    sim.run()
    assert outcome == [12.0]
    assert len(seen) == 1          # never posted again
    backoff = [span for span in root.walk() if span.name == "client.backoff"]
    assert [(span.start, span.end, span.phase, span.attrs) for span in
            backoff] == [(11.25, 12.0, "queue", {"attempt": 1})]
    assert channel.outstanding == 0
    assert sim._queue == [] and sim._cancelled_timers == 0


@pytest.mark.usefixtures("ties")
def test_exhaustion_is_counted_once_everywhere():
    """The last expiry is one timeout — in the channel, the fault report
    and on the bus — and one ``req.exhausted``, naming every attempt."""
    sim = Simulator()
    faults = sim.set_faults(FaultPlan(seed=2))
    log = sim.attach(_Bus())
    fabric, channel, seen = _lossy(sim, lose=10)
    policy = RetryPolicy(timeout_us=5.0, max_retries=2)

    def main():
        with pytest.raises(TimeoutExpired):
            yield channel.post("server", "lossy", None, 100, retry=policy)

    sim.run_until_complete(sim.spawn(main()))
    kinds = [kind for kind, _now, _fields in log.events]
    assert kinds.count("req.timeout") == channel.timeouts == 3
    assert faults.counters["timeouts"] == 3
    assert kinds.count("req.backoff") == channel.retransmissions == 2
    assert faults.counters["retransmissions"] == 2
    assert faults.counters["retries_exhausted"] == 1
    exhausted = [(now, fields) for kind, now, fields in log.events
                 if kind == "req.exhausted"]
    assert len(exhausted) == 1 and exhausted[0][1][1] == 3
    assert kinds[-2:] == ["req.timeout", "req.exhausted"]
    assert len(seen) == 3 and channel.outstanding == 0


# -- the crash boundary of a software stack -------------------------------------


def _sw_read(crash=None):
    """One client READ on a ``prism-sw`` server under a retry plan, with
    ``crash`` (``(at_us, recover_at_us)`` of the server) or none.
    Returns the server, the client's channel, the read's value and
    the landing instant (RX-done) of each request delivery."""
    from repro.faults import CrashEvent
    from repro.net.topology import RACK, make_fabric
    from repro.prism import PrismClient, PrismServer, SoftwarePrismBackend

    sim = Simulator()
    crashes = () if crash is None else (CrashEvent("server", *crash),)
    sim.set_faults(FaultPlan(seed=1, crashes=crashes, retry=RetryPolicy(
        timeout_us=40.0, max_retries=2, backoff_base_us=1.0)))
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
    client = PrismClient(sim, fabric, "client", server)
    addr, rkey = server.add_region(64)
    server.space.write(addr, b"survives")
    handler, lead = fabric.host("server")._services["prism"]
    landed = []

    def recording(message):
        landed.append(message.landed)
        handler(message)

    fabric.host("server")._services["prism"] = (recording, lead)
    value = sim.run_until_complete(sim.spawn(client.read(addr, 8,
                                                         rkey=rkey)))
    return server, client.channel, value, landed


def test_a_request_in_the_stacks_pipeline_at_a_crash_is_dropped(ties):
    """The crash check runs at the hand-over, after the stack's
    pipeline: a request that landed less than ``admission_us`` before
    the server crashed is dropped (its arrival found the host up), and
    its retransmission, landing after recovery, executes."""
    server, channel, value, (landed,) = _sw_read()
    assert value == b"survives" and channel.retransmissions == 0
    lead = server.backend.admission_us
    crash_at = landed + lead / 2                # mid-pipeline
    server, channel, value, (first, second) = _sw_read(
        (crash_at, crash_at + 10.0))
    assert first == landed
    assert server.requests_dropped == 1
    assert channel.retransmissions == 1
    assert second > crash_at + 10.0              # after the recovery
    assert value == b"survives"
