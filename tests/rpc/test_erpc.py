"""Two-sided RPC layer: dispatch, service costs, core contention, the
server-side pipeline (kernel entries, instants, spans), and at-most-once
delivery — the last also for PRISM chains, which share the transport's
saved-reply sessions (``net.port.SavedReplies``). Only a fault plan
makes a client retry, so every test of a retransmission installs a quiet
one; a duplicate the test scripts itself needs none."""

import heapq
from collections import deque

import pytest

from repro.core.errors import AccessViolation
from repro.core.ops import AllocateOp, FetchAddOp, WriteOp
from repro.faults import FaultPlan, RetryPolicy
from repro.net.port import SavedReplies
from repro.net.topology import RACK, make_fabric
from repro.obs import HostProfiler, Tracer
from repro.prism import PrismClient, PrismServer, SoftwarePrismBackend
from repro.prism.backend import BackendConfig
from repro.rpc.erpc import RpcClient, RpcConfig, RpcServer
from repro.sim import Simulator


@pytest.fixture
def rpc(sim, fabric):
    server = RpcServer(sim, fabric, "server")
    client = RpcClient(sim, fabric, "client")
    return server, client


def test_basic_call(sim, fabric, rpc, drive):
    server, client = rpc
    server.register("add", lambda args: (args[0] + args[1], 8))
    def main():
        result = yield from client.call("server", "add", (2, 3),
                                        request_payload_bytes=16)
        return result
    assert drive(sim, main()) == 5


def test_duplicate_method_rejected(sim, fabric, rpc):
    server, _ = rpc
    server.register("m", lambda args: (None, 0))
    with pytest.raises(ValueError):
        server.register("m", lambda args: (None, 0))


def test_handler_side_effects_happen_at_service_end(sim, fabric, rpc, drive):
    server, client = rpc
    stamps = []
    server.register("mark", lambda args: (stamps.append(sim.now), 0),
                    service_us=5.0)
    def main():
        yield from client.call("server", "mark", None, 8)
        return stamps[0]
    executed_at = drive(sim, main())
    assert executed_at >= 5.0  # dispatch + service before the handler runs


def test_callable_service_time(sim, fabric, rpc, drive):
    server, client = rpc
    server.register("scan", lambda args: (len(args), 8),
                    service_us=lambda args: 1.0 * len(args))
    def timed(n):
        start = sim.now
        yield from client.call("server", "scan", list(range(n)), 8 * n)
        return sim.now - start
    small = drive(sim, timed(1))
    large = drive(sim, timed(10))
    assert large > small + 8.0  # 9 extra µs of handler time


def test_core_pool_limits_throughput(sim, fabric):
    config = RpcConfig(cores=1, default_service_us=10.0, dispatch_us=0.0)
    server = RpcServer(sim, fabric, "server", config=config)
    server.register("slow", lambda args: (None, 0))
    client = RpcClient(sim, fabric, "client", config=config)
    finishes = []
    def caller():
        yield from client.call("server", "slow", None, 8)
        finishes.append(sim.now)
    sim.spawn(caller())
    sim.spawn(caller())
    sim.run()
    # Second call serialized behind the first on the single core.
    assert finishes[1] - finishes[0] == pytest.approx(10.0, abs=0.5)


def test_calls_served_counter(sim, fabric, rpc, drive):
    server, client = rpc
    server.register("noop", lambda args: (None, 0))
    def main():
        for _ in range(3):
            yield from client.call("server", "noop", None, 8)
    drive(sim, main())
    assert server.calls_served == 3
    assert client.calls_made == 3


def test_rpc_latency_matches_paper_target(sim, fabric, drive):
    """A 512 B read RPC lands near the paper's 5.6 µs (§2.1)."""
    server = RpcServer(sim, fabric, "server")
    server.register("read", lambda args: (b"v" * 512, 512))
    client = RpcClient(sim, fabric, "client")
    def main():
        start = sim.now
        yield from client.call("server", "read", None, 16)
        return sim.now - start
    latency = drive(sim, main())
    assert 4.6 <= latency <= 6.6


def test_handler_exception_returned_to_caller(sim, fabric, rpc, drive):
    server, client = rpc
    def bad_handler(args):
        raise ValueError("handler bug")
    server.register("bad", bad_handler)
    def main():
        with pytest.raises(ValueError, match="handler bug"):
            yield from client.call("server", "bad", None, 8)
        return "survived"
    assert drive(sim, main()) == "survived"
    # The server keeps serving after a handler failure.
    server.register("good", lambda args: ("fine", 8))
    def again():
        return (yield from client.call("server", "good", None, 8))
    assert drive(sim, again()) == "fine"


def test_unknown_method_rejected_remotely(sim, fabric, rpc, drive):
    _server, client = rpc
    def main():
        with pytest.raises(Exception, match="no RPC method"):
            yield from client.call("server", "missing", None, 8)
        return True
    assert drive(sim, main())


# -- the pipeline: entries, instants, spans ------------------------------------


def _costs_per_call(config=None, n_extra=100):
    """``(kernel entries, process resumes, process spawns,
    Simulator.timeout calls)`` per call, exact, as the slope between a
    run of 10 calls and one of ``10 + n_extra``."""
    def counts(n):
        sim = Simulator()
        profiler = sim.attach(HostProfiler())
        spawns, timeouts = [0], [0]
        spawn, timeout = sim.spawn, sim.timeout

        def counting_spawn(generator, name=None):
            spawns[0] += 1
            return spawn(generator, name=name)

        def counting_timeout(delay, value=None):
            timeouts[0] += 1
            return timeout(delay, value)

        sim.spawn, sim.timeout = counting_spawn, counting_timeout
        fabric = make_fabric(sim, RACK, ["client", "server"])
        server = RpcServer(sim, fabric, "server", config=config)
        server.register("read", lambda args: (b"v" * 512, 512))
        client = RpcClient(sim, fabric, "client", config=config)

        def caller():
            for _ in range(n):
                yield from client.call("server", "read", None, 16)

        try:
            sim.run_until_complete(sim.spawn(caller()))
        finally:
            profiler.finish(sim.now)    # stop being the ambient profiler
        return sim.events_executed, profiler.resumes, spawns[0], timeouts[0]

    more, fewer = counts(10 + n_extra), counts(10)
    return tuple((a - b) / n_extra for a, b in zip(more, fewer))


def test_a_call_costs_seven_entries_one_resume_and_no_process():
    """At zero tolerance: 2 client stages + 2 x 2 message stages + the
    handling's service timer = 7 entries; a free core is granted inside
    the claim and each message's TX port is booked at its post (13 when
    the handler was a process: its completion entry; 12 while the
    handling took a boot slot after the delivering entry and the call a
    slot after the reply's hand-over; 10 while the core grant took a
    slot of its own; 9 while the end of each message's TX serialization
    was an entry). The caller is resumed once; the server spawns
    nothing and asks the kernel for no timeout event."""
    assert _costs_per_call() == (7, 1, 0, 0)


class _EntryLog(deque):
    """A ready deque that logs the clock at each entry it hands out."""

    def __init__(self, sim, log):
        super().__init__()
        self.sim = sim
        self.log = log

    def popleft(self):
        self.log.append(self.sim._now)
        return super().popleft()


def test_a_zero_cost_call_keeps_every_entry_at_its_instant(monkeypatch):
    """With ``dispatch_us = default_service_us = 0`` the service stage
    rides the zero-delay slot (two deque hops) a ``timeout(0)`` took.
    The instants of every kernel entry of one call, heap and deque: the
    handler process's were these plus its boot and completion entries,
    a fifth and sixth at t = 1.5496, and the reply's slot, a second
    entry at t = 2.4476; the handling's boot slot and the reply's slot
    went (15 entries, 13 a call, before), and so did the core grant's
    slot, a fifth at t = 1.5496 (14 entries, 11 a call, before), and
    the two messages' TX-finish entries, at t = 0.8748 and 1.6736 (12
    entries, 10 a call, before). Now the caller's boot, the post
    overhead, the request's wire, its RX end with the two service hops,
    the reply's wire and RX, the completion overhead and the caller's
    completion: 1 + 1 + 1 + 3 + 2 + 1 + 1 = 10 entries, 8 a call."""
    sim = Simulator()
    instants = []
    sim._ready = _EntryLog(sim, instants)
    pop = heapq.heappop

    def logging_pop(queue):
        entry = pop(queue)
        instants.append(entry[0])
        return entry

    config = RpcConfig(dispatch_us=0.0, default_service_us=0.0)
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = RpcServer(sim, fabric, "server", config=config)
    server.register("read", lambda args: (b"v" * 512, 512))
    client = RpcClient(sim, fabric, "client", config=config)
    sim.spawn(client.call("server", "read", None, 16))
    monkeypatch.setattr(heapq, "heappop", logging_pop)
    sim.run()
    arrival = 1.5495999999999999
    assert instants == [0.0, 0.85, 1.5248] + [arrival] * 3 + [
        2.3236, 2.4476, 3.2976, 3.2976]
    assert sim.events_executed == len(instants)
    assert _costs_per_call(config) == (8, 1, 0, 0)


def _booted_and_served(sim, server, service_us):
    """Register ``work`` on ``server``; returns the lists its boot
    instants (when ``service_us`` is priced) and handler instants fill."""
    booted, served = [], []

    def price(args):
        booted.append(sim.now)
        return service_us

    server.register("work", lambda args: (served.append(sim.now), 0),
                    service_us=price)
    return booted, served


def test_the_handler_runs_at_exactly_dispatch_plus_service(sim, fabric,
                                                           drive):
    config = RpcConfig(dispatch_us=0.6, cores=1)
    server = RpcServer(sim, fabric, "server", config=config)
    booted, served = _booted_and_served(sim, server, 5.0)
    client = RpcClient(sim, fabric, "client")
    drive(sim, client.call("server", "work", None, 8))
    assert served == [booted[0] + (5.0 + 0.6)]


def test_cores_limit_parallelism_fifo(sim, fabric):
    """Two cores, four 10 µs calls: 10, 10, 20, 20 after their boots."""
    config = RpcConfig(cores=2, dispatch_us=0.0)
    server = RpcServer(sim, fabric, "server", config=config)
    booted, served = _booted_and_served(sim, server, 10.0)
    client = RpcClient(sim, fabric, "client")
    for _ in range(4):
        sim.spawn(client.call("server", "work", None, 8))
    sim.run()
    first, second = booted[0] + 10.0, booted[1] + 10.0
    assert served == [first, second, first + 10.0, second + 10.0]
    assert [t - booted[0] for t in served] == pytest.approx(
        [10.0, 10.0, 20.0, 20.0], abs=0.1)
    assert server.calls_served == 4


def test_ops_counted_on_one_core(sim, fabric):
    """Two calls queued on one core are both counted once served."""
    config = RpcConfig(cores=1, dispatch_us=0.0)
    server = RpcServer(sim, fabric, "server", config=config)
    _booted_and_served(sim, server, 1.0)
    client = RpcClient(sim, fabric, "client")
    for _ in range(2):
        sim.spawn(client.call("server", "work", None, 8))
    sim.run()
    assert (server.calls_served, server.cores.in_use) == (2, 0)


def test_core_utilization(sim, fabric, drive):
    """One core of two busy for 10 µs out of 20 reads 0.25."""
    config = RpcConfig(cores=2, dispatch_us=0.0)
    server = RpcServer(sim, fabric, "server", config=config)
    _booted_and_served(sim, server, 10.0)
    client = RpcClient(sim, fabric, "client")
    drive(sim, client.call("server", "work", None, 8))
    assert server.cores.utilization(20.0) == pytest.approx(0.25)


def test_a_raising_handler_releases_its_core(sim, fabric, drive):
    server = RpcServer(sim, fabric, "server", config=RpcConfig(cores=1))

    def bad(args):
        raise ValueError("handler bug")
    server.register("bad", bad)
    server.register("good", lambda args: ("fine", 8))
    client = RpcClient(sim, fabric, "client")

    def main():
        with pytest.raises(ValueError, match="handler bug"):
            yield from client.call("server", "bad", None, 8)
        return (yield from client.call("server", "good", None, 8))

    assert drive(sim, main()) == "fine"
    assert (server.cores.in_use, server.calls_served) == (0, 1)


def test_an_unknown_method_never_takes_a_core(sim, fabric, drive):
    server = RpcServer(sim, fabric, "server")
    client = RpcClient(sim, fabric, "client")

    def main():
        with pytest.raises(KeyError, match="no RPC method"):
            yield from client.call("server", "missing", None, 8)

    drive(sim, main())
    assert server.cores.in_use == 0
    assert server.cores.utilization(sim.now) == 0.0
    assert server.calls_served == 0


def test_a_raising_service_time_stops_the_run_at_once(sim, fabric):
    """A bug in a pricing function surfaces from ``run`` in the entry
    that delivers the call, holding nothing — not at the end of the
    run."""
    server = RpcServer(sim, fabric, "server")

    def price(args):
        raise ZeroDivisionError("bad cost model")
    server.register("work", lambda args: (None, 0), service_us=price)
    client = RpcClient(sim, fabric, "client")
    sim.spawn(client.call("server", "work", None, 8))
    sim.call_at(1000.0, lambda: None)   # later work the run never reaches
    with pytest.raises(ZeroDivisionError, match="bad cost model"):
        sim.run()
    assert sim.now < 2.0
    assert server.cores.in_use == 0


def test_a_traced_call_keeps_its_handler_spans(sim):
    """``rpc.handler`` (cpu; method, host) holds the core wait and the
    service interval, named after the pool; with one core busy the
    second call's wait spans the first's service."""
    tracer = sim.attach(Tracer())
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = RpcServer(sim, fabric, "server", config=RpcConfig(cores=1))
    server.register("read", lambda args: (b"v" * 512, 512))
    client = RpcClient(sim, fabric, "client")

    def caller():
        root = tracer.root("op")
        yield from client.call("server", "read", None, 16, span=root)
        root.finish()

    sim.spawn(caller())
    sim.spawn(caller())
    sim.run()
    handlers = [span for root in tracer.roots for span in root.walk()
                if span.name == "rpc.handler"]
    assert [(h.phase, h.attrs) for h in handlers] == [
        ("cpu", {"method": "read", "host": "server"})] * 2
    shapes = [[(c.name, c.phase, c.start, c.end) for c in h.children]
              for h in handlers]
    arrival, second, done = 1.5495999999999999, 1.5744, 3.7496
    assert shapes == [
        [("rpc@server.queue", "queue", arrival, arrival),
         ("rpc@server.exec", "cpu", arrival, done)],
        [("rpc@server.queue", "queue", second, done),
         ("rpc@server.exec", "cpu", done, 5.9496)]]
    assert [(h.start, h.end) for h in handlers] == [
        (arrival, done), (second, 5.9496)]


# -- at-most-once delivery -----------------------------------------------------


_RETRY = RetryPolicy(timeout_us=50.0, max_retries=3, backoff_base_us=1.0)

#: a quiet plan: it loses and duplicates nothing, yet its clients retry
#: with ``_RETRY``
_PLAN = FaultPlan(seed=1, retry=_RETRY)


def _script(fabric, host, service, copies):
    """Hand each message for ``service`` on ``host`` to its handler
    ``copies(message)`` times: 0 loses it, 2 duplicates it. Returns the
    ``(instant, message)`` log of what arrived, before the script."""
    services = fabric.host(host)._services
    handler, lead = services[service]
    arrived = []

    def deliver(message):
        arrived.append((fabric.sim.now, message))
        for _ in range(copies(message)):
            handler(message)

    services[service] = (deliver, lead)
    return arrived


def _lose_first(n):
    """A ``copies`` script losing the first ``n`` messages."""
    fates = iter([0] * n)
    return lambda message: next(fates, 1)


def _counted(server, method="inc", fail=False):
    """Register ``method``: returns its run number, or raises; returns
    the list of the instants it ran at."""
    runs = []

    def handler(args):
        runs.append(server.sim.now)
        if fail:
            raise ValueError(f"run {len(runs)}")
        return len(runs), 8

    server.register(method, handler)
    return runs


class _RpcSession:
    """An RPC client of an ``inc`` method that returns its run number
    (``fail``: raises ``ValueError("run N")``)."""

    error = ValueError, "run 1"

    def __init__(self, sim, fabric, fail=False):
        server = RpcServer(sim, fabric, "server")
        self.runs = _counted(server, fail=fail)
        self.saved = server.saved
        self.client = RpcClient(sim, fabric, "client")
        self.channel = self.client.channel

    def call(self):
        return (yield from self.client.call("server", "inc", None, 8))


class _PrismSession:
    """A PRISM client of a FETCH_ADD counter that returns its run number
    (``fail``: its rkey is unknown, so the op NAKs); ``runs`` lists the
    instants the engine ran an op."""

    error = AccessViolation, None

    def __init__(self, sim, fabric, fail=False):
        self.server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
        self.counter, self.rkey = self.server.add_region(8)
        if fail:
            self.rkey += 1000
        self.saved = self.server.saved
        self.runs = runs = []
        engine = self.server.engine
        execute_op = engine.execute_op

        def counted(*args):
            runs.append(sim.now)
            return execute_op(*args)

        engine.execute_op = counted
        self.client = PrismClient(sim, fabric, "client", self.server)
        self.channel = self.client.channel

    def call(self):
        before = yield from self.client.fetch_add(self.counter, 1, self.rkey)
        return before + 1


@pytest.fixture(params=[_RpcSession, _PrismSession], ids=["rpc", "prism"])
def session(request, sim, fabric):
    """``session(fail=False)``: one server, one client, under ``_PLAN``."""
    sim.set_faults(_PLAN)
    return lambda **kwargs: request.param(sim, fabric, **kwargs)


def test_a_lost_reply_is_replayed_not_run_again(ties, sim, fabric, drive,
                                                session):
    rig = session()
    _script(fabric, "client", rig.channel.reply_service, _lose_first(1))
    assert drive(sim, rig.call()) == 1
    assert len(rig.runs) == 1 and rig.saved.replays == 1
    assert rig.channel.retransmissions == 1


def test_a_duplicate_waiting_for_a_core_is_replayed_after_the_original(sim):
    """One core, held by another client's 10 µs call: the original and
    its fabric twin both queue for it, and the twin is served — from the
    saved reply — one service time after the original. (Default tie
    order only: the two calls are posted at one instant, and a shuffle
    may hand the core to either.)"""
    fabric = make_fabric(sim, RACK, ["client", "other", "server"])
    server = RpcServer(sim, fabric, "server",
                       config=RpcConfig(cores=1, dispatch_us=0.0))
    runs = _counted(server)
    server.register("block", lambda args: (None, 0), service_us=10.0)
    _script(fabric, "server", "rpc",
            lambda message: 2 if message.payload.body[0] == "inc" else 1)
    client = RpcClient(sim, fabric, "client")
    replies = _script(fabric, "client", client.channel.reply_service,
                      lambda message: 1)
    sim.spawn(RpcClient(sim, fabric, "other").call("server", "block", None, 8))
    caller = sim.spawn(client.call("server", "inc", None, 8))
    sim.run()
    assert caller.value == 1
    assert len(runs) == 1 and runs[0] > 10.0  # it waited for the core
    assert server.saved.replays == 1 and server.cores.in_use == 0
    (first, original), (second, twin) = replies
    assert original.payload.body == twin.payload.body == 1
    assert second - first == pytest.approx(
        server.config.default_service_us)


def test_a_late_duplicate_below_the_horizon_gets_no_reply(ties, sim, fabric):
    """A copy of a call that ended before the client's next one began
    is below that session's horizon: it holds a core for its service
    time, then releases it without running the handler or replying."""
    server = RpcServer(sim, fabric, "server")
    runs = _counted(server)
    client = RpcClient(sim, fabric, "client")
    requests = _script(fabric, "server", "rpc", lambda message: 1)
    replies = _script(fabric, "client", client.channel.reply_service,
                      lambda message: 1)

    def main():
        yield from client.call("server", "inc", None, 8)
        yield from client.call("server", "inc", None, 8)
        (_, late), _ = requests
        fabric.host("server").handler_for("rpc")(late)  # the first, again
        yield sim.timeout(100.0)

    sim.run_until_complete(sim.spawn(main()))
    assert len(runs) == 2 and len(replies) == 2
    assert len(requests) == 3 and server.saved.replays == 0
    assert server.cores.in_use == 0
    config = server.config
    core_us = server.cores.utilization(sim.now) * config.cores * sim.now
    assert core_us == pytest.approx(
        3 * (config.default_service_us + config.dispatch_us))


def test_the_horizon_never_passes_an_open_call(sim, fabric):
    """Two calls in flight on one client; the older one's reply is lost.
    The newer call completes and a third is made while the older waits
    out its ack timeout — and the older call's retransmission is still
    answered from its saved reply. (Default tie order only: the first
    reply lost must be the older call's.)"""
    sim.set_faults(_PLAN)
    server = RpcServer(sim, fabric, "server")
    runs = _counted(server)
    client = RpcClient(sim, fabric, "client")
    _script(fabric, "client", client.channel.reply_service, _lose_first(1))
    results = {}

    def older():
        results["older"] = yield from client.call("server", "inc", None, 8)

    def newer():
        results["newer"] = yield from client.call("server", "inc", None, 8)
        results["third"] = yield from client.call("server", "inc", None, 8)
        results["third at"] = sim.now

    sim.spawn(older())
    sim.spawn(newer())
    sim.run()
    assert results["third at"] < _RETRY.timeout_us  # before the resend
    assert (results["older"], results["newer"], results["third"]) == (1, 2, 3)
    assert len(runs) == 3 and server.saved.replays == 1


def test_saved_replies_are_bounded_by_open_calls(ties, sim, drive, session):
    rig = session()
    saved = rig.saved._replies[rig.channel.reply_service]

    def sequential(n):
        for _ in range(n):
            yield from rig.call()
            assert len(saved) <= 1

    drive(sim, sequential(1000))
    assert len(saved) == 1
    for _ in range(8):
        sim.spawn(rig.call())
    sim.run()
    assert len(saved) == 8
    drive(sim, sequential(1))
    assert len(saved) == 1
    assert len(rig.runs) == 1009


def test_a_raising_handlers_error_is_replayed(ties, sim, fabric, drive,
                                              session):
    rig = session(fail=True)
    _script(fabric, "client", rig.channel.reply_service, _lose_first(1))
    error, match = rig.error

    def main():
        with pytest.raises(error, match=match):
            yield from rig.call()

    drive(sim, main())
    assert len(rig.runs) == 1 and rig.saved.replays == 1


def test_a_retransmitted_allocate_takes_one_buffer(ties, sim, fabric, drive):
    """The first reply to an ALLOCATE chain is lost; the retransmission
    is answered from the saved results: one buffer off the free list,
    and it is the one the caller is told about."""
    sim.set_faults(_PLAN)
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
    freelist, rkey = server.create_freelist(64, 4)
    client = PrismClient(sim, fabric, "client", server)
    _script(fabric, "client", client.channel.reply_service, _lose_first(1))
    first = server.freelist(freelist)._buffers[0]
    assert drive(sim, client.allocate(freelist, b"x" * 64, rkey)) == first
    assert len(server.freelist(freelist)) == 3
    assert server.saved.replays == 1 and client.channel.retransmissions == 1


def _duplicated_allocate_write():
    """An ALLOCATE + WRITE chain delivered twice at one instant to a
    one-core software PRISM server: ``(replies, server, buffers left)``,
    replies as ``(sent at, ChainResult)``."""
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend,
                         config=BackendConfig(sw_cores=1))
    freelist, rkey = server.create_freelist(64, 4)
    word, word_rkey = server.add_region(8)
    client = PrismClient(sim, fabric, "client", server)
    _script(fabric, "server", server.service, lambda message: 2)
    replies = _script(fabric, "client", client.channel.reply_service,
                      lambda message: 1)
    sim.run_until_complete(sim.spawn(client.execute(
        AllocateOp(freelist=freelist, data=b"x" * 64, rkey=rkey),
        WriteOp(addr=word, data=b"y" * 8, rkey=word_rkey))))
    sim.run()
    return ([(message.send_time, message.payload.body)
             for _, message in replies], server,
            len(server.freelist(freelist)))


def test_a_duplicate_of_an_executing_chain_replays_its_results(ties,
                                                              monkeypatch):
    """The twin boots while the original is in the software stack's
    admission and runs each op on the one core right behind it: it
    takes the original's per-op results, one buffer leaves the free
    list, and its reply is sent at the instant a second execution's was
    — measured here by switching the table off."""
    replies, server, left = _duplicated_allocate_write()
    (_, original), (_, twin) = replies
    assert all(a is b for a, b in zip(original.results, twin.results))
    assert server.saved.replays == 1 and server.engine.ops_executed == 2
    assert left == 3

    monkeypatch.setattr(SavedReplies, "session", lambda self, request: {})
    executed, rerun, left = _duplicated_allocate_write()
    assert rerun.engine.ops_executed == 4 and left == 2
    assert executed[0][1][0].value != executed[1][1][0].value
    assert [sent for sent, _ in replies] == [sent for sent, _ in executed]
