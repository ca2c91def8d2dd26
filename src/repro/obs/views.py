"""Online telemetry views: queryable sliding-window signals in-sim.

Every other collector in :mod:`repro.obs` is post-hoc — signals are
aggregated on the simulated clock but only *read* after the run. This
module turns the same hook points (`prism.engine` CAS/NAK/pointer-chase
outcomes, `prism` client round trips, `net.port` timeouts and backoffs)
into **live** per-connection and per-key windowed views a policy layer
can query *mid-run*:

    view.rate("cas_retry", conn)          # windowed events/sec
    view.rate("cas_retry", key=target)    # per hot address
    view.ewma("chase_depth", conn)        # exponential average
    view.quantile("chase_depth", 0.99, conn)

Each signal is a :class:`~repro.obs.windows.Rings` counter of
``n_buckets`` sub-windows per key (advance on touch, bounded by the
ring length), so a query is a running sum and an update is one
increment — near-zero cost on the data path. The per-address map is
bounded (``max_keys``, stalest-entry eviction), so memory never grows
with the address space.

On top sits a structured **decision log**: :meth:`ViewCollector.probe`
records would-be policy decisions (inputs snapshot + verdict + sim
timestamp) into a bounded ring, and registered probe objects (see
:class:`RfpCrossoverProbe`) are evaluated whenever a connection's
signals cross into a new window — event-driven, never scheduled, so
the bit-identical-when-off contract of every collector holds here too.

A subscriber of the probe bus, under its install contract (off by
default, bit-identical when on; see :mod:`repro.obs.bus`)::

    views = sim.attach(ViewCollector(window_us=50.0))  # BEFORE build
    ... build system, run ...       # query views.rate(...) mid-run
    views.finish(sim.now)
    report = views.report()

Host cost is accounted to the ``hooks.views`` hostprof bucket (see
:mod:`repro.obs.hostprof`).

Reconciliation: every collector folds the same bus events, so the
views' signal totals equal the post-hoc aggregates on the same run by
construction — CAS attempts/misses match primitives', timeout/backoff
totals match the series window counters (``tests/obs/test_views.py``
proves the wiring).
"""

from collections import deque

from repro.obs import quantiles
from repro.obs.bus import Observer
from repro.obs.hostprof import charged
from repro.obs.windows import Rings

#: default sliding-window width, simulated microseconds
DEFAULT_WINDOW_US = 50.0

#: sub-buckets per sliding window (rate resolution vs ring memory)
DEFAULT_N_BUCKETS = 8

#: per-key ring maps are bounded to this many tracked keys
DEFAULT_MAX_KEYS = 128

#: decision-log ring capacity (decisions, not bytes)
DEFAULT_DECISION_CAPACITY = 4096

#: EWMA smoothing factor (weight of the newest sample)
EWMA_ALPHA = 0.2

#: counting signals exposed as windowed rates; ``cas_retry`` is also
#: tracked per target address (the hot-key view)
RATE_SIGNALS = ("cas_retry", "cas_attempt", "nak", "timeout", "backoff")

#: signals exposed as EWMAs (``chase_depth`` also carries a quantile
#: sketch — an exact bounded histogram, depths are tiny integers)
EWMA_SIGNALS = ("chase_depth", "service_time_us")


class ViewCollector(Observer):
    """Bounded-memory sliding-window telemetry views on the sim clock.

    See the module docstring for the install pattern, the off-by-
    default guarantee, and the reconciliation contract. Hook methods
    (``note_*``) are fed by the engine, client, and net layers' bus
    events; query methods (:meth:`rate`, :meth:`ewma`, :meth:`quantile`) are
    safe to call from inside a running simulation process.
    """

    def __init__(self, window_us=DEFAULT_WINDOW_US,
                 n_buckets=DEFAULT_N_BUCKETS, max_keys=DEFAULT_MAX_KEYS,
                 decision_capacity=DEFAULT_DECISION_CAPACITY):
        #: signal -> ring over every connection (the global view)
        self._global = Rings(window_us, int(n_buckets))
        #: (signal, conn) -> ring; conns are bounded by the population
        self._conns = Rings(window_us, int(n_buckets))
        #: cas_retry target address -> ring, at most max_keys of them
        self._keys = Rings(window_us, int(n_buckets), int(max_keys))
        self.window_us = float(window_us)
        self.n_buckets = int(n_buckets)
        self.sim = None
        #: (signal, conn) -> EWMA value, plus conn=None for the global one
        self._ewmas = {}
        #: conn -> {depth: count}, exact (depths are 0-2 per op)
        self._chase_hist = {}
        # decision log: bounded ring of probe verdicts
        self.decision_capacity = int(decision_capacity)
        self.decisions = deque(maxlen=self.decision_capacity)
        self.decisions_recorded = 0
        # registered probe objects, evaluated on window transitions
        self._probes = []
        #: conn -> window index of the last probe evaluation
        self._probe_windows = {}
        self.end_us = None

    def bind(self, sim):
        """Attach to the simulator (``sim.attach`` calls this);
        ``sim.views`` is what ``PrismClient.views`` hands to app code."""
        self.sim = sim
        sim.views = self
        return self

    def subscribe(self, bus):
        for kind, handler in (
                ("cas.attempt", lambda target, mode, swapped, conn:
                 self.note_cas(conn, target, swapped)),
                ("op.deref", lambda opname, hops, bounded, conn:
                 self.note_chase(conn, opname, hops)),
                ("op.nak", lambda opname, error, op, conn:
                 self.note_nak(conn, opname)),
                ("req.timeout",
                 lambda logical, req, dst, timeout_us, op, conn:
                 self.note_timeout(conn)),
                ("req.backoff", lambda logical, attempt, backoff_us, op, conn:
                 self.note_backoff(conn)),
                ("chain.roundtrip", lambda latency_us, conn:
                 self.note_service_time(conn, latency_us))):
            bus.subscribe(kind, handler)

    # -- hot-path hooks ------------------------------------------------------

    def _count(self, signal, conn, now):
        self._global.add(signal, now)
        self._conns.add((signal, conn), now)

    def _ewma_update(self, signal, conn, sample):
        """Fold ``sample`` into the EWMA; the first sample seeds it."""
        ewmas = self._ewmas
        for k in ((signal, conn), (signal, None)):
            value = ewmas.get(k)
            ewmas[k] = (float(sample) if value is None else
                        EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * value)

    @charged("hooks.views")
    def note_cas(self, conn, target, swapped):
        """One CAS attempt by ``conn`` on ``target``; miss feeds the
        retry-rate views (per connection and per address)."""
        now = self.sim._now
        self._count("cas_attempt", conn, now)
        if not swapped:
            self._count("cas_retry", conn, now)
            self._keys.add(target, now)
        self._tick_probes(conn)

    @charged("hooks.views")
    def note_chase(self, conn, opname, hops):
        """Pointer-chase depth of one executed op (0 = direct)."""
        self._ewma_update("chase_depth", conn, hops)
        hist = self._chase_hist.get(conn)
        if hist is None:
            hist = self._chase_hist[conn] = {}
        hist[hops] = hist.get(hops, 0) + 1
        self._tick_probes(conn)

    @charged("hooks.views")
    def note_nak(self, conn, opname):
        """An op by ``conn`` hard-NAK'd at the engine."""
        self._count("nak", conn, self.sim._now)
        self._tick_probes(conn)

    @charged("hooks.views")
    def note_timeout(self, conn):
        """A request by ``conn`` hit its ack timeout."""
        self._count("timeout", conn, self.sim._now)
        self._tick_probes(conn)

    @charged("hooks.views")
    def note_backoff(self, conn):
        """A request by ``conn`` entered retransmission backoff."""
        self._count("backoff", conn, self.sim._now)
        self._tick_probes(conn)

    @charged("hooks.views")
    def note_service_time(self, conn, latency_us):
        """One client round trip by ``conn`` took ``latency_us``."""
        self._ewma_update("service_time_us", conn, latency_us)
        self._tick_probes(conn)

    # -- queries -------------------------------------------------------------

    def rate(self, signal, conn=None, key=None):
        """Windowed event rate (events/sec) as of now.

        ``conn`` selects one connection's view; ``key`` (for
        ``cas_retry``) selects one target address; neither selects the
        global view. An untracked conn/key reads as 0.0 — absence of
        evidence is a rate of zero, not an error.
        """
        if signal not in RATE_SIGNALS:
            raise ValueError(f"unknown rate signal {signal!r} "
                             f"(rate signals: {RATE_SIGNALS})")
        now = self.sim._now
        if key is not None:
            if signal != "cas_retry":
                raise ValueError("per-key views exist only for 'cas_retry'")
            total = self._keys.total(key, now)
        elif conn is not None:
            total = self._conns.total((signal, conn), now)
        else:
            total = self._global.total(signal, now)
        return total / self.window_us * 1e6

    def ewma(self, signal, conn=None):
        """Exponential average of ``signal`` (NaN before any sample)."""
        if signal not in EWMA_SIGNALS:
            raise ValueError(f"unknown ewma signal {signal!r} "
                             f"(ewma signals: {EWMA_SIGNALS})")
        return self._ewmas.get((signal, conn), float("nan"))

    def quantile(self, signal, q, conn=None):
        """Quantile of the depth sketch (only ``chase_depth`` has one)."""
        if signal != "chase_depth":
            raise ValueError("quantile sketches exist only for 'chase_depth'")
        if conn is None:
            merged = {}
            for hist in self._chase_hist.values():
                for hops, count in hist.items():
                    merged[hops] = merged.get(hops, 0) + count
            hist = merged
        else:
            hist = self._chase_hist.get(conn) or {}
        if not hist:
            return float("nan")
        items = sorted(hist.items())
        return quantiles.percentile_weighted(items, q * 100.0)

    def connections(self):
        """Every connection any signal has been recorded for."""
        conns = {conn for _signal, conn in self._conns.keys()}
        conns.update(conn for _signal, conn in self._ewmas
                     if conn is not None)
        conns.update(self._chase_hist)
        return sorted(conns, key=str)

    @property
    def evicted_keys(self):
        """Tracked keys evicted to keep the per-key map bounded."""
        return self._keys.evicted

    # -- decision log --------------------------------------------------------

    def probe(self, name, inputs, verdict):
        """Record one would-be policy decision; returns the entry.

        ``inputs`` is a snapshot of the signals the decision read;
        ``verdict`` is what the policy would have done. Entries land in
        a bounded ring (oldest evicted first) stamped with the sim
        clock, the bench record's ``views.decisions`` section, and the
        human-readable report.
        """
        entry = {
            "seq": self.decisions_recorded,
            "t_us": self.sim._now if self.sim is not None else 0.0,
            "name": name,
            "inputs": dict(inputs),
            "verdict": verdict,
        }
        self.decisions.append(entry)
        self.decisions_recorded += 1
        return entry

    def decision_log(self):
        """Decisions in record order."""
        return list(self.decisions)

    @property
    def decisions_evicted(self):
        return self.decisions_recorded - len(self.decisions)

    # -- probes --------------------------------------------------------------

    def add_probe(self, probe):
        """Register a probe object evaluated on window transitions.

        ``probe.evaluate(views, conn, window_start_us)`` runs the first
        time any of ``conn``'s signals land in a new ``window_us``-wide
        window — event-driven at hook time (no scheduled events), so
        registration preserves bit-identical simulated timing.
        """
        self._probes.append(probe)
        return probe

    def _tick_probes(self, conn):
        if not self._probes:
            return
        window = int(self.sim._now // self.window_us)
        last = self._probe_windows.get(conn)
        if last == window:
            return
        self._probe_windows[conn] = window
        start = window * self.window_us
        for probe in self._probes:
            probe.evaluate(self, conn, start)

    # -- lifecycle / reporting ----------------------------------------------

    def finish(self, elapsed=None):
        """Close the views at ``elapsed`` (default: now). Idempotent."""
        if elapsed is None:
            elapsed = self.sim._now if self.sim is not None else 0.0
        if self.end_us is None or elapsed > self.end_us:
            self.end_us = elapsed
        return self

    def report(self, top=8):
        """JSON-ready snapshot: totals, per-conn views, decision log."""
        nan = float("nan")
        signals = {}
        for signal in RATE_SIGNALS:
            signals[signal] = {"total": self._global.lifetime(signal),
                               "rate_per_s": self.rate(signal)}
        conns = {}
        for conn in self.connections():
            hist = self._chase_hist.get(conn) or {}
            row = {
                "chase_depth_ewma": self.ewma("chase_depth", conn),
                "chase_depth_p99": (self.quantile("chase_depth", 0.99, conn)
                                    if hist else nan),
                "chase_ops": sum(hist.values()),
                "service_time_ewma_us": self.ewma("service_time_us", conn),
            }
            for signal in RATE_SIGNALS:
                row[f"{signal}_total"] = self._conns.lifetime((signal, conn))
                row[f"{signal}_per_s"] = self.rate(signal, conn)
            conns[str(conn)] = row
        keys = self._keys
        hot = sorted(keys.keys(),
                     key=lambda key: (-keys.lifetime(key), str(key)))
        return {
            "window_us": self.window_us,
            "n_buckets": self.n_buckets,
            "end_us": self.end_us,
            "signals": signals,
            "connections": conns,
            "hot_keys": [{"key": key, "cas_retry_total": keys.lifetime(key),
                          "cas_retry_per_s": self.rate("cas_retry", key=key)}
                         for key in hot[:top]],
            "tracked_keys": len(keys),
            "evicted_keys": self.evicted_keys,
            "probes": [getattr(p, "name", type(p).__name__)
                       for p in self._probes],
            "decisions": {
                "recorded": self.decisions_recorded,
                "evicted": self.decisions_evicted,
                "capacity": self.decision_capacity,
                "log": self.decision_log(),
            },
        }


class RfpCrossoverProbe:
    """Shadow-mode RFP crossover detector (the demonstration probe).

    The RFP argument ("RDMA vs. RPC for Implementing Distributed Data
    Structures", PAPERS.md; ROADMAP open item 4): RPC beats one-sided
    access exactly when contention is high — hot-key CAS retry storms,
    deep pointer chases — because the server CPU resolves conflicts
    locally instead of the client burning round trips. This probe
    watches each connection's online views once per window and logs
    which transport the RFP rule *would* pick; it never switches
    anything (shadow mode — the policy layer is a later PR).

    A decision is logged on the first evaluation of a connection and on
    every verdict transition, so a steady contended run yields one
    decision per connection rather than one per window.
    """

    name = "rfp-crossover"

    def __init__(self, cas_retry_per_s=50_000.0, chase_depth=1.5,
                 timeout_per_s=1_000.0):
        self.cas_retry_per_s = cas_retry_per_s
        self.chase_depth = chase_depth
        self.timeout_per_s = timeout_per_s
        self._last_verdict = {}

    def evaluate(self, views, conn, window_start_us):
        cas_rate = views.rate("cas_retry", conn)
        chase = views.ewma("chase_depth", conn)
        timeout_rate = views.rate("timeout", conn)
        contended = (cas_rate >= self.cas_retry_per_s
                     or (chase == chase and chase >= self.chase_depth)
                     or timeout_rate >= self.timeout_per_s)
        verdict = "rpc" if contended else "one-sided"
        if self._last_verdict.get(conn) == verdict:
            return
        self._last_verdict[conn] = verdict
        views.probe(self.name, {
            "conn": conn,
            "window_start_us": window_start_us,
            "cas_retry_per_s": cas_rate,
            "chase_depth_ewma": chase,
            "timeout_per_s": timeout_rate,
            "service_time_ewma_us": views.ewma("service_time_us", conn),
        }, verdict)


def crossover_vs_series(decisions, series_report):
    """Validate shadow-probe verdicts against post-hoc changepoints.

    ``decisions`` is the views' decision log (rfp-crossover entries);
    ``series_report`` is :meth:`repro.obs.series.SeriesCollector.report`
    output from the *same run*. The two layers watch the same run
    through different lenses, so they must not contradict each other: a
    switch-to-RPC decision (contention seen online) landing inside a
    window the series flagged as a latency *dip* is a conflict, as is a
    switch-to-one-sided decision inside a latency-*spike* window.
    Steady runs — no changepoints at all — agree vacuously, which is
    the expected outcome on a stationary contention sweep.

    Returns ``{"decisions", "changepoints", "conflicts", "agree"}``.
    """
    spans = {"latency-spike": [], "latency-dip": []}
    for annotation in series_report.get("annotations", []):
        if annotation["kind"] in spans:
            spans[annotation["kind"]].append(
                (annotation["start_us"], annotation["end_us"]))

    def inside(t, intervals):
        return any(start <= t < end for start, end in intervals)

    conflicts = []
    relevant = [d for d in decisions
                if d.get("name") == RfpCrossoverProbe.name]
    for decision in relevant:
        t = decision["inputs"].get("window_start_us", decision["t_us"])
        if decision["verdict"] == "rpc" and inside(t, spans["latency-dip"]):
            conflicts.append({"decision": decision,
                              "against": "latency-dip"})
        elif (decision["verdict"] == "one-sided"
              and inside(t, spans["latency-spike"])):
            conflicts.append({"decision": decision,
                              "against": "latency-spike"})
    return {
        "decisions": len(relevant),
        "changepoints": sum(len(v) for v in spans.values()),
        "conflicts": conflicts,
        "agree": not conflicts,
    }
