"""Observability: span tracing, metrics, and latency attribution.

Three pieces, all driven by the simulated clock:

* :mod:`repro.obs.trace` — a span-based tracer. Instrumented code
  holds a parent :class:`Span` and opens children around timed work;
  the default :data:`NULL_SPAN` / :data:`NULL_TRACER` singletons make
  every instrumentation point a no-op, so untraced runs pay nothing.
* :mod:`repro.obs.metrics` — a labeled metrics registry (counters,
  gauges, histograms) that server/bench snapshots are built from.
* :mod:`repro.obs.breakdown` — aggregates finished span trees into a
  per-phase (wire / nic / pcie / cpu / queue) latency attribution, and
  :mod:`repro.obs.chrome_trace` exports them as Chrome trace-event
  JSON loadable in Perfetto.
* :mod:`repro.obs.windows` — the one windowed store the three
  clock-windowed collectors below keep their data in: fixed-width
  buckets, per-key sliding rings and mergeable latency digests.
* :mod:`repro.obs.timeline` — windowed busy/idle accounting and
  queue-depth telemetry for every contended resource (install a
  :class:`UtilizationCollector` with ``sim.attach``), and
  :mod:`repro.obs.bottleneck` — the analyzer that names the saturated
  resource and its headroom.
* :mod:`repro.obs.quantiles` — the one shared implementation of
  linear-interpolated percentiles and fixed-width histograms.
* :mod:`repro.obs.bus` — the probe bus: hook sites emit each event
  once; primitives, flight, series and views below are subscribers.
  Every collector here installs with ``sim.attach(collector)``.
* :mod:`repro.obs.primitives` — semantic counters for the PRISM
  primitives themselves (CAS outcomes and contention, pointer-chase
  depth, chain lengths/aborts, allocator watermarks, key hotness):
  :class:`PrimitiveCollector`.
* :mod:`repro.obs.critpath` — per-request critical-path attribution
  over span trees: which phase/span actually bounded end-to-end
  latency, vs slack the request never waited on.
* :mod:`repro.obs.hostprof` — the one layer on the *wall* clock:
  host-side self-profiling of the simulator itself (events/sec,
  per-bucket host-time attribution, cProfile/collapsed-stack export);
  :class:`HostProfiler`.
* :mod:`repro.obs.flight` — a bounded causal event log tying every
  layer's events (ops, retries, CAS misses, fault injections) to the
  client operation they belong to: :class:`FlightRecorder`.
  :mod:`repro.obs.forensics` replays a flight
  log into per-request timelines and automatic diagnoses.
* :mod:`repro.obs.series` — windowed time-series telemetry on the
  simulated clock (per-window throughput/goodput/latency digests and
  retry/NAK counters) with MSER steady-state detection and
  changepoint annotation cross-referenced against injected faults:
  :class:`SeriesCollector`.
* :mod:`repro.obs.views` — *online* sliding-window telemetry views:
  per-connection/per-key CAS retry, NAK, pointer-chase, timeout, and
  service-time signals maintained in O(1) rings and queryable
  mid-run (``views.rate(...)``/``views.ewma(...)``), plus a bounded
  decision log for shadow-mode policy probes: :class:`ViewCollector`.
"""

from repro.obs.bottleneck import (
    SATURATION_THRESHOLD,
    analyze,
    format_analysis,
)
from repro.obs.breakdown import (
    PHASES,
    breakdown,
    breakdown_rows,
    phase_attribution,
)
from repro.obs.chrome_trace import to_chrome_events, write_chrome_trace
from repro.obs.hostprof import (
    BUCKETS as HOST_BUCKETS,
    HostProfiler,
    ProfileSession,
    StackSampler,
    profile_session,
)
from repro.obs.critpath import (
    critical_attribution,
    critical_contributors,
    critical_segments,
    critpath_profile,
    critpath_rows,
    slack_us,
)
from repro.obs.flight import DEFAULT_CAPACITY as FLIGHT_DEFAULT_CAPACITY
from repro.obs.flight import FlightRecorder, load_dump as load_flight_dump
from repro.obs.forensics import (
    crash_windows,
    diagnose,
    explain_lines,
    narrate,
    timelines,
    worst_requests,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.primitives import PrimitiveCollector, TopK
from repro.obs.series import (
    DEFAULT_WINDOW_US as SERIES_DEFAULT_WINDOW_US,
    SeriesCollector,
    detect_steady_state,
)
from repro.obs.views import (
    DEFAULT_WINDOW_US as VIEWS_DEFAULT_WINDOW_US,
    RfpCrossoverProbe,
    ViewCollector,
    crossover_vs_series,
)
from repro.obs.timeline import (
    ChargeMonitor,
    DepthMonitor,
    ResourceMonitor,
    UtilizationCollector,
)
from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.windows import Buckets, LatencyDigest, Rings, merge_digests

__all__ = [
    "FLIGHT_DEFAULT_CAPACITY",
    "HOST_BUCKETS",
    "PHASES",
    "SATURATION_THRESHOLD",
    "SERIES_DEFAULT_WINDOW_US",
    "VIEWS_DEFAULT_WINDOW_US",
    "analyze",
    "crossover_vs_series",
    "breakdown",
    "breakdown_rows",
    "crash_windows",
    "diagnose",
    "explain_lines",
    "critical_attribution",
    "critical_contributors",
    "critical_segments",
    "critpath_profile",
    "critpath_rows",
    "detect_steady_state",
    "format_analysis",
    "load_flight_dump",
    "merge_digests",
    "narrate",
    "phase_attribution",
    "profile_session",
    "slack_us",
    "timelines",
    "to_chrome_events",
    "worst_requests",
    "write_chrome_trace",
    "Buckets",
    "ChargeMonitor",
    "Counter",
    "DepthMonitor",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HostProfiler",
    "LatencyDigest",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "PrimitiveCollector",
    "ProfileSession",
    "ResourceMonitor",
    "RfpCrossoverProbe",
    "Rings",
    "SeriesCollector",
    "Span",
    "StackSampler",
    "TopK",
    "Tracer",
    "UtilizationCollector",
    "ViewCollector",
]
