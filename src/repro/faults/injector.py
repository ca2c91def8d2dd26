"""The live fault injector: a bound :class:`FaultPlan` plus counters.

Installed with ``sim.set_faults(plan)`` *before* system construction —
the same contract as the observability collectors — so the fabric,
servers, and free lists self-register. With no injector installed every
hook in the data path is a single ``is None`` check and a run's timing
is bit-identical to an uninjected one.

Determinism: every stochastic choice draws from a named substream of
``SeededRng(plan.seed)``; message fate draws happen in post order
(itself deterministic), retry backoff jitter draws from one
stream per request channel. Same plan + same workload seed ⇒ the same
drops, the same retransmissions, the same ``RunResult``.
"""

from dataclasses import asdict

from repro.sim.rng import SeededRng


class MessageFate:
    """The injector's verdict on one fabric message."""

    __slots__ = ("drop", "duplicate", "delay_us")

    def __init__(self, drop=False, duplicate=False, delay_us=0.0):
        self.drop = drop
        self.duplicate = duplicate
        self.delay_us = delay_us


#: shared "nothing happens" verdict — the common case under low rates
_NO_FATE = MessageFate()

_COUNTER_NAMES = (
    "messages_dropped", "messages_duplicated", "messages_delayed",
    "crash_drops", "crashes", "recoveries", "starved_buffers",
    "restored_buffers", "retransmissions", "timeouts", "retries_exhausted",
    "recycles_abandoned",
)


class FaultInjector:
    """Executes a :class:`~repro.faults.plan.FaultPlan` on a simulator."""

    def __init__(self, plan):
        self.plan = plan
        self.sim = None
        self.counters = {name: 0 for name in _COUNTER_NAMES}
        self.delay_injected_us = 0.0
        self._down = set()
        self._servers = {}
        self._rng = None
        self._net = None
        self._retry_streams = 0

    def bind(self, sim):
        """Attach to ``sim``: seed the streams, schedule the crashes."""
        self.sim = sim
        self._rng = SeededRng(self.plan.seed)
        self._net = self._rng.stream("faults.net")
        for crash in self.plan.crashes:
            sim.call_at(crash.at_us, self._make_crash(crash))
            if crash.recover_at_us is not None:
                sim.call_at(crash.recover_at_us, self._make_recovery(crash))
        return self

    # -- registration (called during system construction) -----------------

    def register_server(self, host_name, server):
        """A crashable service on ``host_name`` (e.g. a PrismServer).

        The injector calls ``server.fail()`` / ``server.recover()``
        around the host's scheduled crash window so server-side
        counters (requests dropped while dead) stay truthful; the
        fabric-level down check is what actually kills the messages.
        """
        self._servers.setdefault(host_name, []).append(server)
        if host_name in self._down and hasattr(server, "fail"):
            server.fail()

    def register_freelist(self, server, freelist_id, qp):
        """A free list eligible for starvation pressure.

        With ``plan.starve == 0`` this is a no-op (no process spawned,
        timing untouched). Otherwise a pressure process pops the
        configured fraction of buffers at ``starve_at_us`` and — when
        ``starve_hold_us > 0`` — re-posts them through the server's
        quiescence gate after the hold.
        """
        if self.plan.starve <= 0.0:
            return
        self.sim.spawn(self._starve(server, freelist_id, qp),
                       name=f"faults.starve[{qp.name}]")

    # -- net side (called by Fabric) ---------------------------------------

    def is_down(self, host_name):
        """True while ``host_name`` is crash-stopped."""
        return host_name in self._down

    def on_message(self, message):
        """Draw this message's fate; one verdict per posted message,
        when it is posted (``Fabric.post`` has booked its TX port by
        then). The fate's bus event names the operation the message
        serves (requests and replies alike), the ``op`` of the span it
        carries."""
        plan = self.plan
        drop = plan.drop > 0.0 and self._net.random() < plan.drop
        duplicate = (plan.duplicate > 0.0
                     and self._net.random() < plan.duplicate)
        delay_us = (self._net.uniform(0.0, plan.jitter_us)
                    if plan.jitter_us > 0.0 else 0.0)
        if not drop and not duplicate and delay_us == 0.0:
            return _NO_FATE
        bus = self.sim.bus
        if bus is not None:
            where = (message.id, getattr(message.payload, "logical_id", None),
                     message.dst, message.service)
            op = message.span.op
            if drop:
                bus.emit("fault.drop", *where, op)
            else:
                if duplicate:
                    bus.emit("fault.dup", *where, op)
                if delay_us > 0.0:
                    bus.emit("fault.delay", *where, delay_us, op)
        if drop:
            self.counters["messages_dropped"] += 1
            return MessageFate(drop=True)
        if duplicate:
            self.counters["messages_duplicated"] += 1
        if delay_us > 0.0:
            self.counters["messages_delayed"] += 1
            self.delay_injected_us += delay_us
        return MessageFate(duplicate=duplicate, delay_us=delay_us)

    def note_crash_drop(self, message):
        """``message`` arrived at (or left) a crash-stopped host."""
        self.counters["crash_drops"] += 1
        bus = self.sim.bus
        if bus is not None:
            down = message.dst if self.is_down(message.dst) else message.src
            bus.emit("fault.crash_drop", message.id,
                     getattr(message.payload, "logical_id", None),
                     down, message.dst, message.span.op)

    # -- recovery-side accounting ------------------------------------------

    def retry_stream(self, label=None):
        """A fresh substream for retry backoff jitter.

        Streams are numbered in allocation order, which is itself
        deterministic for a given run — channel names are NOT used
        because they embed process-global counters that differ between
        runs in the same interpreter.
        """
        n = self._retry_streams
        self._retry_streams += 1
        return self._rng.stream(f"faults.retry.{n}")

    def note_timeout(self):
        self.counters["timeouts"] += 1

    def note_retransmit(self):
        self.counters["retransmissions"] += 1

    def note_retries_exhausted(self):
        self.counters["retries_exhausted"] += 1

    def note_recycle_abandoned(self, n_buffers):
        self.counters["recycles_abandoned"] += n_buffers

    # -- schedules ----------------------------------------------------------

    def _make_crash(self, crash):
        def execute():
            self._down.add(crash.host)
            self.counters["crashes"] += 1
            # Crash schedules run outside any process, so the flight
            # event is global (op=None) — forensics turns crash/recover
            # pairs into down windows and overlaps them with requests.
            if self.sim.bus is not None:
                self.sim.bus.emit("fault.crash", crash.host)
            for server in self._servers.get(crash.host, ()):
                if hasattr(server, "fail"):
                    server.fail()
        return execute

    def _make_recovery(self, crash):
        def execute():
            self._down.discard(crash.host)
            self.counters["recoveries"] += 1
            if self.sim.bus is not None:
                self.sim.bus.emit("fault.recover", crash.host)
            for server in self._servers.get(crash.host, ()):
                if hasattr(server, "recover"):
                    server.recover()
        return execute

    def _starve(self, server, freelist_id, qp):
        plan = self.plan
        yield self.sim.sleep_until(plan.starve_at_us)
        take = int(len(qp) * plan.starve)
        if take <= 0:
            return
        withheld = [qp.pop() for _ in range(take)]
        self.counters["starved_buffers"] += take
        if self.sim.bus is not None:
            self.sim.bus.emit("fault.starve", freelist_id, qp.name, take)
        if plan.starve_hold_us <= 0.0:
            return  # withheld for the rest of the run
        yield self.sim.timeout(plan.starve_hold_us)
        yield from server.post_buffers(freelist_id, withheld)
        self.counters["restored_buffers"] += take
        if self.sim.bus is not None:
            self.sim.bus.emit("fault.restore", freelist_id, qp.name, take)

    # -- reporting ----------------------------------------------------------

    def report(self):
        """Plain-dict snapshot for the CLI/JSON goodput report."""
        report = dict(self.counters)
        report["delay_injected_us"] = round(self.delay_injected_us, 3)
        report["hosts_down"] = sorted(self._down)
        report["plan"] = plan = asdict(self.plan)
        plan["crashes"] = list(plan["crashes"])
        return report
