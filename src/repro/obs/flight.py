"""Causal flight recorder: one bounded event log across every layer.

The other collectors each watch one family of transitions (spans,
resource busy time, primitive outcomes, fault counters). The flight
recorder is the layer that ties them into *stories*: a bounded
ring buffer of structured events — operation open/close, request
send/reply/timeout/backoff, CAS misses and NAKs, chain aborts, and
every fault injection — each stamped with the id of the client
operation it belongs to, so :mod:`repro.obs.forensics` can rebuild the
causal timeline of any single slow or failed request after the run.

A subscriber of the probe bus, under its install contract (off by
default, bit-identical when on; see :mod:`repro.obs.bus`)::

    recorder = sim.attach(FlightRecorder(capacity=65536))  # BEFORE build
    ... build system, run ...
    recorder.dump("flight.json")  # or recorder.to_dict()

It logs the bus kinds in :data:`LOGGED_KINDS` verbatim, field for
field, and only ever appends to a host-side deque.

Causal attribution rides on the span every call site already holds
(see :mod:`repro.obs.trace`): the workload driver numbers client
operations from 1 in ``op.open`` order and opens each one's root span
with that ``op`` — an untraced span carrying only the id when tracing
is off — and every child inherits it. Each flight-logged bus kind
carries the ``op`` of the span at its emitting site: the client call's
``request.span`` for sends, timeouts and backoffs, the message's span
in the fabric and the fault injector (so replies and the fault fates of
either direction land on the originating operation), the execution's
span for CAS misses, NAKs and chain aborts on the server. A launched
task — a retire flush — is handed the op-only ``span.untraced()`` of
the operation that launches it, so its report is that operation's
without adding to its trace. Nothing is ambient: no kernel hook, no
context stack. The crash and starvation schedules belong to no
operation and carry ``op=None``; they are reported as global.

Retransmissions are linkable because :mod:`repro.net.port` stamps every
:class:`~repro.net.port.Request` with a stable ``logical_id`` that
survives fresh-id retransmission attempts; flight events on the
request path carry both the per-attempt ``req`` id and the ``logical``
id.
"""

import json
from collections import deque
from functools import partial

from repro.obs.bus import VOCABULARY, Observer

DEFAULT_CAPACITY = 65536

#: Bus kinds logged as-is, under their vocabulary field names (with
#: ``op.open``/``op.close``, the dump's whole vocabulary). The other
#: kinds — every CAS attempt, deref depths, chain completions,
#: allocator pops — fire per engine op and would flush the ring.
LOGGED_KINDS = (
    "req.send", "req.reply", "req.stale", "req.timeout", "req.backoff",
    "req.exhausted", "chain.submit", "chain.abort", "rpc.submit",
    "cas.miss", "op.nak", "fault.drop", "fault.dup", "fault.delay",
    "fault.crash_drop", "fault.crash", "fault.recover", "fault.starve",
    "fault.restore",
)


class FlightRecorder(Observer):
    """Bounded structured event log with per-operation causal context.

    Events are plain dicts ``{"seq", "t", "op", "kind", ...fields}``;
    ``seq`` is a monotone append index (so eviction is observable),
    ``t`` the simulated time, ``op`` the owning client operation id or
    None for global events. The ring holds the most recent
    ``capacity`` events; ``evicted`` counts what fell off the front.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("FlightRecorder needs capacity >= 1")
        self.capacity = capacity
        self._events = deque(maxlen=capacity)
        self.recorded = 0
        self.ops_opened = 0
        self.ops_closed = 0
        self._sim = None

    def bind(self, sim):
        """Attach to the simulator (``sim.attach`` calls this);
        ``sim.flight`` is the handle post-hoc readers use."""
        self._sim = sim
        sim.flight = self
        return self

    def subscribe(self, bus):
        bus.subscribe("op.open", self.op_open)
        bus.subscribe("op.close", self.op_close)
        for kind in LOGGED_KINDS:
            # Flight events are keyed by operation, not connection.
            names = [name for name in VOCABULARY[kind][0].split()
                     if name != "conn"]
            bus.subscribe(kind, partial(self._log, kind, names))

    def _log(self, kind, names, *values):
        self.record(kind, **dict(zip(names, values)))

    # -- operation lifecycle (workload driver) ------------------------------

    def op_open(self, name, client, op):
        """Client operation ``op`` begins."""
        self.ops_opened += 1
        self.record("op.open", op=op, name=name, client=client)

    def op_close(self, status, latency_us, aborts, retries, measured, op):
        """Client operation ``op`` finished."""
        self.ops_closed += 1
        self.record("op.close", op=op, status=status, latency_us=latency_us,
                    aborts=aborts, retries=retries, measured=measured)

    # -- recording -----------------------------------------------------------

    def record(self, kind, op=None, **fields):
        """Append one event of operation ``op`` (None: a global one)."""
        event = {"seq": self.recorded,
                 "t": self._sim.now if self._sim is not None else 0.0,
                 "op": op, "kind": kind}
        event.update(fields)
        self.recorded += 1
        self._events.append(event)

    # -- reading back --------------------------------------------------------

    @property
    def evicted(self):
        """Events lost to the ring bound (oldest first)."""
        return self.recorded - len(self._events)

    @property
    def events(self):
        """The surviving events, oldest first."""
        return list(self._events)

    def to_dict(self):
        """JSON-ready snapshot (the flight-dump format)."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "evicted": self.evicted,
            "ops_opened": self.ops_opened,
            "ops_closed": self.ops_closed,
            "events": self.events,
        }

    def dump(self, path):
        """Write the flight dump as JSON; returns ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, default=repr)
            handle.write("\n")
        return path


def load_dump(path):
    """Read a flight dump written by :meth:`FlightRecorder.dump`."""
    with open(path) as handle:
        return json.load(handle)
