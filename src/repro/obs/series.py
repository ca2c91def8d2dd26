"""Windowed time-series telemetry with steady-state detection.

Every other collector answers "what did the run do *in aggregate*?" —
one mean, one p99, one busy fraction. This module answers "how did the
run *evolve*?": it buckets operation completions, latency samples, and
net-layer recovery events (timeouts, retransmissions, NAKs) into the
fixed-width buckets of :mod:`repro.obs.windows` (one cell per window:
counters and a mergeable latency digest), then post-processes the raw
series into

* an **MSER steady-state verdict** — where the warm-up transient ends,
  and whether the configured warmup actually covers it;
* **changepoint annotations** — windows deviating from the
  steady-state band, cross-referenced against the fault plan's
  injected crash/drop/starvation windows so a chaos run's dips carry
  named causes instead of reading as noise.

A subscriber of the probe bus, under its install contract (off by
default, bit-identical when on; see :mod:`repro.obs.bus`)::

    series = sim.attach(SeriesCollector(window_us=50.0))  # BEFORE build
    ... build system, run ...
    series.finish(sim.now)
    report = series.report(utilization=collector, faults=faults_report)

``op.close`` events fill the windows, and :data:`COUNTED_KINDS` maps
the net/fault-layer kinds onto the window counters.

Reconciliation contract: the per-window ``measured_ops`` counts sum
*exactly* to the run's measured operation total, and merging the
per-window latency digests reproduces the end-of-run
:class:`~repro.sim.stats.LatencyRecorder` mean/p50/p99 exactly while
every window's digest stays under ``digest_cap`` samples (the common
case by orders of magnitude). A window that overflows its cap
compresses into ≤ ``sketch_k`` weighted order statistics; merged
quantiles then carry an error bounded by the value span of one
centroid run of that window — documented, observable via the
``digest_exact`` flag, and never silent.
"""

import math

from repro.obs import quantiles
from repro.obs.bus import Observer
from repro.obs.windows import (
    DEFAULT_DIGEST_CAP,
    Buckets,
    LatencyDigest,
    merge_digests,
)

#: default series window width, simulated microseconds
DEFAULT_WINDOW_US = 50.0

#: deviation threshold: a steady window is anomalous when it strays
#: from the steady mean by more than max(MSER_SIGMA * std, REL_FLOOR *
#: |mean|) — the relative floor keeps near-deterministic runs (tiny
#: std) from flagging every float wiggle as a changepoint
DEVIATION_SIGMA = 3.0
DEVIATION_REL_FLOOR = 0.10

#: The window counters: bus kind -> the counter one such net/fault-
#: layer event bumps. (``naks`` is fed by the ``req.reply`` events with
#: ok=False; see ``SeriesCollector.subscribe``.)
COUNTED_KINDS = {
    "req.timeout": "timeouts",
    "req.backoff": "retransmissions",
    "req.exhausted": "retries_exhausted",
    "fault.drop": "drops",
    "fault.dup": "dups",
    "fault.delay": "delays",
    "fault.crash_drop": "crash_drops",
}


class _Window:
    """One bucket's cell of the series."""

    __slots__ = ("ops", "measured_ops", "good_ops", "lat_sum_us",
                 "digest", "counters")

    def __init__(self, digest_cap):
        self.ops = 0             # every completion, warmup included
        self.measured_ops = 0    # completions inside the measurement window
        self.good_ops = 0        # measured and not aborted (goodput)
        self.lat_sum_us = 0.0    # over ALL completions (transient visible)
        self.digest = LatencyDigest(cap=digest_cap)   # measured only
        self.counters = None     # lazily created dict

    def bump(self, name, n):
        if self.counters is None:
            self.counters = {}
        self.counters[name] = self.counters.get(name, 0) + n


class SeriesCollector(Observer):
    """Event-driven windowed time series on the simulated clock.

    The workload driver reports every operation completion via
    :meth:`record_op`; the net layer and the fault injector bucket
    recovery/injection counters via :meth:`count`. Nothing here ever
    schedules simulator events, so collection is bit-identical to
    no collection.
    """

    def __init__(self, window_us=DEFAULT_WINDOW_US,
                 digest_cap=DEFAULT_DIGEST_CAP):
        self.digest_cap = digest_cap
        self.buckets = Buckets(window_us, lambda: _Window(digest_cap))
        self.window_us = self.buckets.width
        self._sim = None
        self.total_measured = 0
        #: measurement geometry, set by the harness before the run
        self.warmup_us = 0.0
        self.measure_us = None
        self.end_us = None        # run end, set by finish()

    def bind(self, sim):
        """Attach to the simulator (``sim.attach`` calls this)."""
        self._sim = sim
        sim.series = self
        return self

    def subscribe(self, bus):
        bus.subscribe("op.close",
                      lambda status, latency_us, aborts, retries, measured,
                      op: self.record_op(self._sim.now, latency_us,
                                         measured, ok=not aborts))
        bus.subscribe("req.reply", lambda logical, req, ok, op:
                      None if ok else self.count("naks"))
        for kind, counter in COUNTED_KINDS.items():
            bus.subscribe(kind, lambda *_fields, _name=counter:
                          self.count(_name))

    def configure(self, warmup_us, measure_us):
        """Record the run's measurement geometry (harness contract)."""
        self.warmup_us = float(warmup_us)
        self.measure_us = float(measure_us)
        return self

    # -- hot-path hooks ------------------------------------------------------

    def record_op(self, t, latency_us, measured, ok=True):
        """One operation completed at simulated time ``t``."""
        window = self.buckets.at(t)
        window.ops += 1
        window.lat_sum_us += latency_us
        if measured:
            window.measured_ops += 1
            self.total_measured += 1
            window.digest.add(latency_us)
            if ok:
                window.good_ops += 1

    def count(self, name, n=1, t=None):
        """Bucket a recovery/injection counter into the current window."""
        if t is None:
            t = self._sim.now if self._sim is not None else 0.0
        self.buckets.at(t).bump(name, n)

    # -- lifecycle -----------------------------------------------------------

    def finish(self, elapsed=None):
        """Close the series at ``elapsed`` (default: now). Idempotent."""
        if elapsed is None:
            elapsed = self._sim.now if self._sim is not None else 0.0
        if self.end_us is None or elapsed > self.end_us:
            self.end_us = elapsed
        return self

    # -- analysis ------------------------------------------------------------

    def report(self, utilization=None, faults=None):
        """The full series report: windows, steady state, annotations.

        ``utilization`` (a bound
        :class:`~repro.obs.timeline.UtilizationCollector`, optional)
        contributes per-window busy fractions for the busiest
        resources, resampled from the timeline monitors onto this
        series' grid. ``faults`` (the injector's report dict, optional)
        contributes the named fault windows that the annotator
        cross-references deviations against.
        """
        grid = self.buckets.spans(self.end_us)
        cells = [cell for _start, _stop, cell in grid]
        window_us = self.window_us
        end_us = self.end_us if self.end_us is not None else (
            len(grid) * window_us)
        measure_end = (self.warmup_us + self.measure_us
                       if self.measure_us is not None else end_us)

        windows = []
        empty = _Window(self.digest_cap)
        for start, stop, w in grid:
            w = w or empty
            width = max(stop - start, 1e-12)
            row = {
                "start": start,
                "end": stop,
                "ops": w.ops,
                "measured_ops": w.measured_ops,
                "good_ops": w.good_ops,
                "tput_ops_per_sec": w.ops / width * 1e6,
                "goodput_ops_per_sec": w.good_ops / width * 1e6,
                "lat_mean_us": (w.lat_sum_us / w.ops if w.ops
                                else float("nan")),
                "latency": w.digest.summary(),
            }
            if w.counters:
                row["counters"] = dict(w.counters)
            windows.append(row)

        report = {
            "window_us": window_us,
            "n_windows": len(windows),
            "run_end_us": end_us,
            "warmup_us": self.warmup_us,
            "measure_us": self.measure_us,
            "measure_end_us": measure_end,
            "windows": windows,
        }

        # reconciliation: window sums vs the collector's own totals
        items, exact = merge_digests(
            cell.digest for cell in self.buckets.cells.values())
        merged_count = sum(weight for _, weight in items)
        merged = {
            "count": merged_count,
            "mean_us": (sum(v * wgt for v, wgt in items) / merged_count
                        if merged_count else float("nan")),
            "p50_us": quantiles.percentile_weighted(items, 50),
            "p99_us": quantiles.percentile_weighted(items, 99),
            "max_us": items[-1][0] if items else float("nan"),
        }
        report["reconciliation"] = {
            "measured_ops": self.total_measured,
            "window_measured_sum": sum(w["measured_ops"] for w in windows),
            "digest_exact": exact,
            "merged": merged,
        }

        report["steady_state"] = self._steady_state(windows, cells,
                                                    measure_end)
        report["annotations"] = self._annotations(
            windows, report["steady_state"], measure_end, faults)
        if utilization is not None:
            report["utilization"] = self._utilization_series(
                utilization, windows)
        return report

    # -- steady-state detection ---------------------------------------------

    def _detection_series(self, windows, measure_end):
        """Per-window mean latency (all ops), transient included.

        Empty windows carry the previous value forward (an idle window
        tells us nothing about the response-time level); leading
        empties before the first completion count as transient.
        """
        values = []
        previous = None
        for w in windows:
            if w["start"] >= measure_end:
                break
            if w["ops"] > 0:
                previous = w["lat_mean_us"]
            values.append(previous)
        # leading Nones: backfill with the first real value so MSER
        # sees a flat prefix rather than a hole
        first = next((v for v in values if v is not None), 0.0)
        return [first if v is None else v for v in values]

    def _steady_state(self, windows, cells, measure_end):
        values = detection_values = self._detection_series(
            windows, measure_end)
        d = detect_steady_state(detection_values)
        transient_end = d * self.window_us
        steady = values[d:]
        steady_mean = (sum(steady) / len(steady)) if steady else float("nan")
        steady_var = (sum((v - steady_mean) ** 2 for v in steady)
                      / len(steady)) if steady else float("nan")
        steady_std = math.sqrt(steady_var) if steady else float("nan")

        # steady-state-only aggregates over *measured* samples, for
        # compare --series: windows fully inside
        # [max(transient, warmup), measure_end]
        steady_from = max(transient_end, self.warmup_us)
        steady = [(w, cell) for w, cell in zip(windows, cells)
                  if w["start"] >= steady_from
                  and w["end"] <= measure_end + 1e-9]
        steady_rows = [w for w, _cell in steady]
        items, _exact = merge_digests(cell.digest for _w, cell in steady
                                      if cell is not None)
        steady_count = sum(wgt for _, wgt in items)
        duration = sum(w["end"] - w["start"] for w in steady_rows)
        steady_measured = sum(w["measured_ops"] for w in steady_rows)
        warmup_sufficient = self.warmup_us >= transient_end
        return {
            "detector": "mser",
            "transient_windows": d,
            "transient_end_us": transient_end,
            "configured_warmup_us": self.warmup_us,
            "warmup_sufficient": warmup_sufficient,
            "band": {
                "metric": "lat_mean_us",
                "mean": steady_mean,
                "std": steady_std,
                "lo": steady_mean - DEVIATION_SIGMA * steady_std,
                "hi": steady_mean + DEVIATION_SIGMA * steady_std,
            },
            "steady_from_us": steady_from,
            "steady_windows": len(steady_rows),
            "steady_measured_ops": steady_measured,
            "steady_mean_us": (sum(v * wgt for v, wgt in items)
                               / steady_count if steady_count
                               else float("nan")),
            "steady_p99_us": quantiles.percentile_weighted(items, 99),
            "steady_tput_ops_per_sec": (steady_measured / duration * 1e6
                                        if duration > 0 else float("nan")),
        }

    # -- annotations ---------------------------------------------------------

    def _annotations(self, windows, steady, measure_end, faults):
        annotations = list(_fault_annotations(windows, faults,
                                              self.end_us or measure_end))
        fault_spans = [(a["start_us"], a["end_us"], a["label"])
                       for a in annotations]
        d = steady["transient_windows"]
        mean = steady["band"]["mean"]
        std = steady["band"]["std"]
        if not (isinstance(mean, float) and math.isnan(mean)):
            threshold = max(DEVIATION_SIGMA * std,
                            DEVIATION_REL_FLOOR * abs(mean))
            # throughput band from the same steady windows
            tput = [w["tput_ops_per_sec"] for w in windows[d:]
                    if w["end"] <= measure_end + 1e-9]
            tput_mean = sum(tput) / len(tput) if tput else float("nan")
            tput_std = (math.sqrt(sum((v - tput_mean) ** 2 for v in tput)
                                  / len(tput)) if tput else float("nan"))
            tput_threshold = max(DEVIATION_SIGMA * tput_std,
                                 DEVIATION_REL_FLOOR * abs(tput_mean))
            for w in windows[d:]:
                if w["end"] > measure_end + 1e-9:
                    break
                deviations = []
                if (w["ops"] > 0
                        and abs(w["lat_mean_us"] - mean) > threshold):
                    kind = ("latency-spike" if w["lat_mean_us"] > mean
                            else "latency-dip")
                    deviations.append((kind, "lat_mean_us",
                                       w["lat_mean_us"], mean))
                if (not math.isnan(tput_mean)
                        and abs(w["tput_ops_per_sec"] - tput_mean)
                        > tput_threshold):
                    kind = ("throughput-burst"
                            if w["tput_ops_per_sec"] > tput_mean
                            else "throughput-drop")
                    deviations.append((kind, "tput_ops_per_sec",
                                       w["tput_ops_per_sec"], tput_mean))
                for kind, metric, value, expected in deviations:
                    annotations.append({
                        "kind": kind,
                        "start_us": w["start"],
                        "end_us": w["end"],
                        "metric": metric,
                        "value": value,
                        "expected": expected,
                        "label": f"{kind} at {w['start']:.0f} µs",
                        "cause": _cause_for(w, fault_spans),
                    })
        annotations.sort(key=lambda a: (a["start_us"], a["kind"]))
        return annotations

    # -- utilization resampling ----------------------------------------------

    def _utilization_series(self, collector, windows, top=4):
        """Busy fraction per series window for the busiest resources."""
        start, end = collector.window_bounds()
        ranked = []
        for monitor in collector.monitors:
            if monitor.capacity is None:
                continue
            util = monitor.utilization(start, end)
            if util is not None:
                ranked.append((util, monitor))
        ranked.sort(key=lambda pair: -pair[0])
        rows = []
        for _util, monitor in ranked[:top]:
            busy = []
            for w in windows:
                width = max(w["end"] - w["start"], 1e-12)
                busy.append(monitor.busy_between(w["start"], w["end"])
                            / (width * monitor.capacity))
            rows.append({"name": monitor.name, "kind": monitor.kind,
                         "busy": busy})
        return rows


def _cause_for(window, fault_spans):
    """Name the injected cause of a deviating window, if any."""
    counters = window.get("counters") or {}
    injected = {name: counters[name] for name in
                ("drops", "dups", "delays", "crash_drops")
                if counters.get(name)}
    for start, end, label in fault_spans:
        if window["start"] < end and window["end"] > start:
            return f"fault:{label}"
    if injected:
        detail = ", ".join(f"{name} x{count}"
                           for name, count in sorted(injected.items()))
        return f"fault:injected {detail}"
    if counters.get("timeouts") or counters.get("retransmissions"):
        return (f"retry burst (timeouts x{counters.get('timeouts', 0)}, "
                f"retransmissions x{counters.get('retransmissions', 0)})")
    return None


def _fault_annotations(windows, faults, run_end):
    """Named annotations for the fault plan's injected windows."""
    if not faults:
        return
    plan = faults.get("plan") or {}
    for crash in plan.get("crashes", ()):
        start = crash.get("at_us", 0.0)
        end = crash.get("recover_at_us")
        yield {
            "kind": "fault.crash",
            "start_us": start,
            "end_us": run_end if end is None else end,
            "label": (f"crash {crash.get('host')} "
                      f"{start:.0f}..{'end' if end is None else f'{end:.0f}'}"
                      " µs"),
            "cause": None,
        }
    if plan.get("starve"):
        start = plan.get("starve_at_us", 0.0)
        hold = plan.get("starve_hold_us", 0.0)
        yield {
            "kind": "fault.starve",
            "start_us": start,
            "end_us": (start + hold) if hold else run_end,
            "label": f"free-list starvation from {start:.0f} µs",
            "cause": None,
        }
    dropped = [w for w in windows
               if (w.get("counters") or {}).get("drops")]
    if dropped:
        total = sum(w["counters"]["drops"] for w in dropped)
        yield {
            "kind": "fault.drop",
            "start_us": dropped[0]["start"],
            "end_us": dropped[-1]["end"],
            "label": (f"message drops injected in {len(dropped)} "
                      f"window(s) (x{total})"),
            "cause": None,
        }


def detect_steady_state(values, max_truncation=0.5):
    """MSER truncation point of a per-window series.

    Returns the number of leading windows to discard as transient: the
    ``d`` minimizing the marginal standard error
    ``var(values[d:]) / (n - d)`` over ``d in [0, n * max_truncation]``
    (White's MSER rule). A flat series yields 0; a series shorter than
    4 windows is too short to judge and also yields 0. Ties break
    toward the earliest cut, so the detector never discards data
    without evidence.
    """
    n = len(values)
    if n < 4:
        return 0
    best_d = 0
    best = None
    for d in range(0, int(n * max_truncation) + 1):
        tail = values[d:]
        m = len(tail)
        if m < 2:
            break
        mean = sum(tail) / m
        var = sum((v - mean) ** 2 for v in tail) / m
        stat = var / m
        if best is None or stat < best - 1e-15:
            best = stat
            best_d = d
    return best_d
