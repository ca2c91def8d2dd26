"""The observer table, and the one point runner on top of it.

Everything a measurement point can arm is a :class:`Row` of
:data:`ROWS`: its flag (spelling, argparse shape, validator, help),
the flags it implies, the factory for its collector and the
:func:`~repro.bench.harness.run_point` keyword the collector rides,
its report function, its ``*_report_lines`` printer and block title,
and the record sections it fills. Row order is print order. This is
the only module under ``repro.bench`` that names a collector class
(``tests/bench/test_observers.py`` scans for that).

:class:`Session` is the runner every front end calls —
``repro.bench.cli``'s ``point`` and figure commands and the
``benchmarks/bench_*.py`` scripts: per point it arms the rows the
flags ask for, runs, lets each armed row report and print in table
order, and collects the ``--json`` point. The front ends differ only
in the data they hand it.
"""

from dataclasses import dataclass, field

from repro.bench.harness import run_point
from repro.bench.regress import (
    make_point,
    make_record,
    wall_section,
    write_record,
)
from repro.bench.reporting import (
    UTILIZATION_HEADERS,
    faults_report_lines,
    flight_summary_lines,
    host_report_lines,
    primitives_report_lines,
    print_block,
    print_table,
    series_report_lines,
    utilization_rows,
    views_report_lines,
)
from repro.bench.tracing import (
    check_breakdown,
    check_critpath,
    measured_roots,
    print_breakdown,
    print_critpath,
    traced_work,
)
from repro.obs import (
    FLIGHT_DEFAULT_CAPACITY,
    SERIES_DEFAULT_WINDOW_US,
    VIEWS_DEFAULT_WINDOW_US,
    FlightRecorder,
    HostProfiler,
    PrimitiveCollector,
    SeriesCollector,
    Tracer,
    UtilizationCollector,
    ViewCollector,
    analyze,
    breakdown,
    critpath_profile,
    crossover_vs_series,
    format_analysis,
    write_chrome_trace,
)
from repro.obs.hostprof import activate, deactivate, profile_session


@dataclass(frozen=True)
class Row:
    """One observer: flag, collector, report, printer, record sections."""

    flag: str                #: CLI spelling; ``args.<dest>`` holds its value
    help: str
    arg: dict                #: argparse shape beyond ``help``
    keyword: str = None      #: the ``run_point`` keyword its factory fills
    factory: object = None   #: ``(args, probes) -> collector``
    report: object = None    #: ``(point) -> report`` (a tuple for 2 sections)
    lines: object = None     #: ``report -> lines``, printed under ``title``
    title: str = None
    show: object = None      #: ``(point, report)``: prints more than a block
    close: object = None     #: ``(session)``: once, after the last point
    sections: tuple = ()     #: record keys the report fills
    implies: tuple = ()      #: dests armed along with this one
    invalid: object = None   #: ``value -> bool``, with ``complaint``
    complaint: str = None
    commands: tuple = ()     #: commands besides the point commands it serves
    anywhere: bool = False   #: meaningful on every command

    @property
    def dest(self):
        return self.flag.lstrip("-")


@dataclass
class Point:
    """One armed, finished measurement point: what row functions read."""

    session: object
    label: str
    kind: str
    flavor: str
    config: dict
    result: object
    observers: dict          #: ``run_point`` keyword -> collector
    trace_path: str          #: where ``--trace`` writes this point, or None
    trace_note: str
    #: record key -> report, filled in table order (later rows read
    #: earlier ones: series the fault report, views the series)
    sections: dict = field(default_factory=dict)

    @property
    def args(self):
        return self.session.args

    def title(self, suffix):
        return f"{self.label}{self.session.sep} {suffix}"

    def block(self, row, report):
        print_block(self.title(row.title), row.lines(report))


# -- row functions -----------------------------------------------------------


def _trace_report(point):
    """Write ``--trace`` here; the breakdown, for front ends that show it."""
    tracer = point.observers["tracer"]
    if point.trace_path:
        write_chrome_trace(tracer.roots, point.trace_path,
                           process_spans=tracer.process_spans)
    if point.session.breakdown:
        return breakdown(measured_roots(tracer))
    return None


def _trace_show(point, phases):
    session = point.session
    if phases is not None:
        print_breakdown(f"{point.label}: phase breakdown (mean µs per op)",
                        phases)
        mean = point.result.mean_latency_us
        if session.strict_sum:
            print(f"phase sum {check_breakdown(point.result, phases):.3f} "
                  f"µs == mean latency {mean:.3f} µs (within 1%)")
        elif session.strict_sum is not None:
            print(f"total traced work {traced_work(phases):.3f} µs/op vs "
                  f"wall-clock mean {mean:.3f} µs (parallel fan-out)")
    if point.trace_path:
        print(f"chrome trace written to {point.trace_path}"
              f"{point.trace_note}")


def _series_report(point):
    return point.observers["series"].report(
        utilization=point.observers["utilization"],
        faults=point.sections.get("faults"))


def _views_factory(args, probes):
    views = ViewCollector(args.views)
    for probe in probes:
        views.add_probe(probe())
    return views


def _views_show(point, report):
    """The views block; with a series report from the same run and probe
    decisions on record, the shadow verdicts are validated against the
    post-hoc changepoint windows. Accumulates ``--views-log``."""
    lines = VIEWS.lines(report)
    print_block(point.title(VIEWS.title), lines)
    series_report = point.sections.get("series")
    if series_report is not None and report["decisions"]["recorded"]:
        check = crossover_vs_series(point.observers["views"].decision_log(),
                                    series_report)
        verdict = ("agree" if check["agree"]
                   else f"CONFLICT ({len(check['conflicts'])})")
        print(f"shadow probe vs series changepoints: {verdict} "
              f"({check['decisions']} decision(s), "
              f"{check['changepoints']} changepoint window(s))")
    if getattr(point.args, "views_log", None):
        log = point.session.state.setdefault("views_lines", [])
        log.append(f"== {point.label} ==")
        log.extend(lines)


def _views_close(session):
    """--views-log: write the accumulated decision-log transcript."""
    path = getattr(session.args, "views_log", None)
    if path and session.state.get("views_lines"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(session.state["views_lines"]) + "\n")
        print(f"views decision-log report written to {path}")


#: flight events that make a run worth a post-mortem on their own
_FLIGHT_ANOMALY_KINDS = {"req.timeout", "req.exhausted", "fault.crash_drop"}


def _flight_anomalous(flight, result):
    """Dump-on-anomaly trigger: failed ops, timeouts, retry give-ups."""
    if result.aborts:
        return True
    for event in flight.events:
        if event["kind"] in _FLIGHT_ANOMALY_KINDS:
            return True
        if event["kind"] == "op.close" and event.get("status") != "ok":
            return True
    return False


def _write_flight(flight, path, anomaly):
    flight.dump(path)
    why = "anomaly detected; " if anomaly else ""
    print(f"flight dump written to {path} ({why}inspect with: "
          f"python -m repro.bench.cli explain {path})")
    return path


def _flight_show(point, dump):
    """The digest; only the first anomalous point of a command dumps."""
    point.block(FLIGHT, dump)
    args, state = point.args, point.session.state
    flight = state["flight_last"] = point.observers["flight"]
    if (state.get("flight_written") is None
            and _flight_anomalous(flight, point.result)):
        path = args.flight_dump or f"flight.{args.command}.json"
        state["flight_written"] = _write_flight(flight, path, True)


def _flight_close(session):
    """--flight-dump promises a dump even when every point was clean."""
    path, state = session.args.flight_dump, session.state
    if (path and state.get("flight_written") is None
            and state.get("flight_last") is not None):
        _write_flight(state["flight_last"], path, False)


def _primitives_report(point):
    return (point.observers["primitives"].report(),
            critpath_profile(measured_roots(point.observers["tracer"])))


def _primitives_show(point, reports):
    """Telemetry + critical-path profile; the critical-path sums must
    equal the measured mean latency (exactly, by construction)."""
    report, profile = reports
    point.block(PRIMITIVES, report)
    print_critpath(point.title("critical path (mean µs per op)"), profile)
    weighted = check_critpath(point.result, profile)
    print(f"critical-path sum {weighted:.3f} µs == mean latency "
          f"{point.result.mean_latency_us:.3f} µs (exact)")


def _util_report(point):
    report = point.observers["utilization"].report()
    return report, analyze(report)


def _util_show(point, reports):
    """Armed by --json and --series too; printed only for --util. A
    sweep prints each point's ten busiest resources, a single point
    all of them."""
    if not point.args.util:
        return
    report, verdict = reports
    if point.session.single:
        print_table(f"{point.label}: {UTIL.title} (measurement window)",
                    UTILIZATION_HEADERS, UTIL.lines(report))
    else:
        print_table(point.title(UTIL.title), UTILIZATION_HEADERS,
                    UTIL.lines(report, top=10))
    print(format_analysis(verdict))


def _json_report(point):
    """Last row: every section is in, so the point record is made here."""
    session, result = point.session, point.result
    config = dict(point.config)
    if point.args.faults:
        config["faults"] = point.args.faults
    if "source_model" in result.extra:
        # The resolved model (with per-source windows) from the
        # harness, so the record reproduces the point exactly.
        config["source_model"] = result.extra["source_model"]
    if session.wall:
        point.sections["wall"] = wall_section(result)
    session.points.append(make_point(point.kind, point.flavor, result,
                                     config, **point.sections))


def _json_close(session):
    args = session.args
    write_record(make_record(session.benchmark, session.points), args.json)
    print(f"result record written to {args.json}")


# -- the table ---------------------------------------------------------------

TRACE = Row(
    "--trace", arg=dict(metavar="PATH"),
    help="write Chrome trace-event JSON to PATH; a sweep traces one point "
         "(first flavor, largest client count, most skewed zipf)",
    keyword="tracer", factory=lambda _args, _probes: Tracer(),
    report=_trace_report, show=_trace_show, sections=("phases",))
FAULTS = Row(
    "--faults", arg=dict(metavar="SPEC"),
    help="run under a seeded fault plan, e.g. seed=3,drop=0.01 or "
         "crash=replica1@500+400 (see repro.faults.parse_faults)",
    keyword="faults", factory=lambda args, _probes: args.faults,
    report=lambda point: point.result.extra.get("faults"),
    lines=faults_report_lines, title="faults", sections=("faults",))
PROFILE = Row(
    "--profile", arg=dict(nargs="?", const="sample",
                          choices=["cprofile", "sample"], metavar="MODE"),
    help="profile the simulator on the host clock: events/sec and "
         "per-bucket wall time per point, and the whole command as a "
         "cProfile session (<command>.pstats) or, by default, sampled "
         "collapsed stacks (flame.<command>.txt)",
    keyword="hostprof",
    factory=lambda args, _probes: HostProfiler(
        stride=getattr(args, "profile_stride", 1)),
    report=lambda point: point.observers["hostprof"].report(),
    lines=host_report_lines, title="host self-profile",
    sections=("host",), anywhere=True)
SERIES = Row(
    "--series", arg=dict(nargs="?", const=SERIES_DEFAULT_WINDOW_US,
                         type=float, metavar="WINDOW_US"),
    help="windowed time series on the simulated clock (default "
         f"{SERIES_DEFAULT_WINDOW_US:g} µs): sparklines, MSER steady-state "
         "verdict, fault-correlated changepoints; (compare) diff the "
         "steady-state series aggregates, not the end-of-run metrics",
    keyword="series",
    factory=lambda args, _probes: SeriesCollector(args.series),
    report=_series_report, lines=series_report_lines, title="time series",
    sections=("series",), implies=("util",),
    invalid=lambda window_us: window_us <= 0,
    complaint="--series window must be > 0 µs", commands=("compare",))
VIEWS = Row(
    "--views", arg=dict(nargs="?", const=VIEWS_DEFAULT_WINDOW_US,
                        type=float, metavar="WINDOW_US"),
    help="online sliding-window views (default "
         f"{VIEWS_DEFAULT_WINDOW_US:g} µs): per-connection/per-key "
         "CAS-retry/NAK/timeout rates, chase/service-time EWMAs and the "
         "shadow-probe decision log (fig7/fig10 arm the RFP probe)",
    keyword="views", factory=_views_factory,
    report=lambda point: point.observers["views"].report(),
    lines=views_report_lines, title="online views", show=_views_show,
    close=_views_close, sections=("views",),
    invalid=lambda window_us: window_us <= 0,
    complaint="--views window must be > 0 µs")
FLIGHT = Row(
    "--flight", arg=dict(nargs="?", const=FLIGHT_DEFAULT_CAPACITY,
                         type=int, metavar="N"),
    help="causal flight recorder with an N-event ring (default "
         f"{FLIGHT_DEFAULT_CAPACITY}): a digest per point, and the event "
         "log dumped on anomalies for the explain subcommand",
    keyword="flight",
    factory=lambda args, _probes: FlightRecorder(args.flight),
    report=lambda point: point.observers["flight"].to_dict(),
    lines=flight_summary_lines, title="flight recorder",
    show=_flight_show, close=_flight_close,
    invalid=lambda capacity: capacity < 1,
    complaint="--flight capacity must be >= 1")
PRIMITIVES = Row(
    "--primitives", arg=dict(action="store_true"),
    help="primitive-level telemetry (CAS contention, pointer-chase depth, "
         "allocator watermarks, key hotness) and the critical-path profile",
    keyword="primitives",
    factory=lambda _args, _probes: PrimitiveCollector(),
    report=_primitives_report, lines=primitives_report_lines,
    title="primitive telemetry", show=_primitives_show,
    sections=("primitives", "critpath"), implies=("trace",))
UTIL = Row(
    "--util", arg=dict(action="store_true"),
    help="print per-resource utilization and the bottleneck verdict",
    keyword="utilization",
    factory=lambda _args, _probes: UtilizationCollector(),
    report=_util_report, lines=utilization_rows,
    title="resource utilization", show=_util_show,
    sections=("utilization", "bottleneck"))
JSON = Row(
    "--json", arg=dict(metavar="PATH"),
    help="write a machine-readable result record (repro.bench.regress "
         "schema) to PATH",
    report=_json_report, close=_json_close, implies=("util",))

#: report (and print) order; install order is the harness's
ROWS = (TRACE, FAULTS, PROFILE, SERIES, VIEWS, FLIGHT, PRIMITIVES, UTIL,
        JSON)


# -- flags -------------------------------------------------------------------


def add_flags(parser, rows=ROWS):
    """Define each row's flag on ``parser`` — the one place they are."""
    for row in rows:
        parser.add_argument(row.flag, help=row.help, **row.arg)


def is_set(args, row):
    """Is the row's flag on? (A parser may not define it; store_true
    flags default to False; ``--flight=0`` is set, and invalid.)"""
    value = getattr(args, row.dest, None)
    return value is not None and value is not False


def invalid_flag(args):
    """The complaint of the first row that rejects its value, or None."""
    for row in ROWS:
        if (row.invalid is not None and is_set(args, row)
                and row.invalid(getattr(args, row.dest))):
            return row.complaint
    return None


# -- the runner --------------------------------------------------------------


@dataclass
class Session:
    """One command's measurement points: arm → run → report → record.

    The fields after ``benchmark`` (the record's name) are what differs
    between front ends, and is constant for each.
    """

    args: object
    benchmark: str
    #: one point: each row's ``close`` runs right after its block, and
    #: utilization is printed in full
    single: bool = False
    sep: str = ""             #: between a point's label and a block title
    traced: bool = False      #: arm a tracer on every point
    #: print and record the phase breakdown whenever a tracer is armed
    breakdown: bool = False
    #: the breakdown's reconciliation line. None: none; True: phase sums
    #: must equal the mean; False: parallel fan-out, report total work
    strict_sum: bool = None
    probes: tuple = ()        #: probe classes the views factory arms
    wall: bool = False        #: record the ``wall`` section
    headline: object = None   #: called with the result before any block
    points: list = field(default_factory=list)   #: the record's, so far
    #: what else rows carry from point to point (dump written, log lines)
    state: dict = field(default_factory=dict)

    def point(self, label, kind, flavor, workload, n_clients, config,
              trace=True, trace_note="", **kwargs):
        """Run one point; returns its :class:`RunResult`.

        ``config`` is the point's record fingerprint (the json row adds
        ``faults`` and the resolved source model); ``trace`` says
        whether ``--trace`` designates this point and ``trace_note``
        tags its "written" line; ``kwargs`` go to :func:`run_point`.
        """
        args = self.args
        # In effect for this point: flags that are set (--trace only on
        # the designated point), what the front end forces, and what
        # those imply.
        armed = {row.dest for row in ROWS if is_set(args, row)}
        if not trace:
            armed.discard("trace")
        if self.traced:
            armed.add("trace")
        for row in ROWS:
            if row.dest in armed:
                armed.update(row.implies)
        observers = {row.keyword: row.factory(args, self.probes)
                     for row in ROWS if row.dest in armed and row.factory}
        result = run_point(kind, flavor, workload, n_clients, **kwargs,
                           **observers)
        if self.headline is not None:
            self.headline(result)
        point = Point(self, label, kind, flavor, config, result, observers,
                      args.trace if trace else None, trace_note)
        for row in ROWS:
            if row.dest not in armed:
                continue
            report = row.report(point)
            if row.show is not None:
                row.show(point, report)
            elif row.lines is not None:
                point.block(row, report)
            reports = report if len(row.sections) > 1 else (report,)
            point.sections.update(zip(row.sections, reports))
            if self.single and row.close is not None:
                row.close(self)
        return result

    def close(self):
        """After a sweep's last point: dumps, logs and the record."""
        for row in ROWS:
            if row.close is not None and is_set(self.args, row):
                row.close(self)


def run_traced_point(kind, flavor, workload_factory, n_clients,
                     trace_path=None, **kwargs):
    """:func:`run_point` with span tracing on.

    Returns ``(result, report, tracer)`` where ``report`` is the
    :func:`repro.obs.breakdown` over the measured operations. With
    ``trace_path``, also writes the Chrome trace-event file. Other
    observers ride ``kwargs`` as for :func:`run_point`.
    """
    tracer = TRACE.factory(None, ())
    result = run_point(kind, flavor, workload_factory, n_clients,
                       tracer=tracer, **kwargs)
    if trace_path:
        write_chrome_trace(tracer.roots, trace_path,
                           process_spans=tracer.process_spans)
    return result, breakdown(measured_roots(tracer)), tracer


def profiled(args, prefix, title, run):
    """``run()``, under ``--profile`` when the flag is set.

    Besides the per-point meters the profile row installs, an ambient
    profiler catches simulators built internally (the fig1/fig2/
    motivation microbenches, the pytest-only benchmark scripts), and the
    whole command is captured as a cProfile session or sampled collapsed
    stacks.
    """
    if args.profile is None:
        return run()
    ambient = activate(PROFILE.factory(args, ()))
    capture = profile_session(args.profile, prefix=prefix)
    try:
        with capture:
            outcome = run()
    finally:
        deactivate(ambient)
    if ambient.events:
        print_block(f"{title}: {PROFILE.title}",
                    host_report_lines(ambient.report()))
    for path in capture.paths:
        print(f"profile artifact written to {path}")
    return outcome
