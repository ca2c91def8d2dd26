"""Plain-text tables for benchmark output (and EXPERIMENTS.md)."""


def format_cell(cell):
    """A table cell as text: floats to two decimals."""
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def print_table(title, headers, rows, out=print):
    """Render an aligned text table (``rows`` is a list of sequences)."""
    formatted = [[format_cell(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]),
                  max((len(row[i]) for row in formatted), default=0))
              for i in range(len(headers))]
    out("")
    out(f"== {title} ==")
    out("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out("  ".join("-" * w for w in widths))
    for row in formatted:
        out("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    out("")


def print_block(title, lines, out=print):
    """Print a ``*_report_lines`` rendering as a titled block."""
    out("")
    out(f"== {title} ==")
    for line in lines:
        out(line)
    out("")


def curve_rows(results):
    """Rows for a throughput/latency sweep table."""
    return [[r.clients, round(r.throughput_ops_per_sec / 1e6, 3),
             round(r.mean_latency_us, 2), round(r.p99_latency_us, 2),
             r.aborts]
            for r in results]


CURVE_HEADERS = ["clients", "Mops/s", "mean_us", "p99_us", "aborts"]


def peak_throughput(results):
    """Max throughput across a sweep (the 'saturation' number)."""
    return max(r.throughput_ops_per_sec for r in results)


UTILIZATION_HEADERS = ["resource", "kind", "busy", "q_mean", "q_max",
                       "q_delay_p99_us"]


def utilization_rows(report, top=None):
    """Rows for a per-resource utilization table, busiest first.

    ``report`` is :meth:`repro.obs.UtilizationCollector.report` output.
    Resources without a capacity ceiling (channels, fabric occupancy)
    sort after capacity-bearing ones and show ``-`` for busy fraction.
    """
    def order(entry):
        util = entry.get("utilization")
        return (0, -util) if util is not None else (1, 0.0)

    rows = []
    for entry in sorted(report, key=order):
        queue = entry.get("queue", {})
        delay = queue.get("delay_us") or {}
        util = entry.get("utilization")
        p99 = delay.get("p99")
        rows.append([
            entry["name"], entry["kind"],
            "-" if util is None else round(util, 3),
            round(queue.get("mean_depth", 0.0), 2),
            queue.get("max_depth", 0),
            "-" if p99 is None or p99 != p99 else round(p99, 2),
        ])
    return rows[:top] if top else rows


def _fmt_hist(items, limit=8):
    """``[[bucket, count], ...]`` as ``{bucket: count, ...}`` text."""
    if not items:
        return "{}"
    shown = ", ".join(f"{bucket}: {count}" for bucket, count
                      in items[:limit])
    more = "" if len(items) <= limit else ", ..."
    return "{" + shown + more + "}"


def _fmt_topk(entries, limit=5):
    if not entries:
        return "(none)"
    return ", ".join(
        (f"{entry['key']:#x}" if isinstance(entry["key"], int)
         else str(entry["key"])) + f" x{entry['count']}"
        for entry in entries[:limit])


def primitives_report_lines(report, top=5):
    """Human-readable rendering of a
    :meth:`repro.obs.PrimitiveCollector.report` snapshot."""
    cas = report["cas"]
    chains = report["chains"]
    chase = report["pointer_chase"]
    lines = []
    lines.append(
        f"CAS: {cas['attempts']} attempts, {cas['misses']} misses "
        f"({cas['miss_rate']:.2%}), retry chains "
        f"{_fmt_hist(cas['retry_chains'])} "
        f"(open: {cas['open_retry_chains']})")
    for mode, outcomes in cas["by_mode"].items():
        lines.append(f"  mode {mode}: ok={outcomes['ok']} "
                     f"miss={outcomes['miss']}")
    lines.append("  contended addresses (top-K by misses): "
                 + _fmt_topk(cas["contended_topk"], top))
    lines.append("  hot targets (top-K by attempts): "
                 + _fmt_topk(cas["hot_targets_topk"], top))
    lines.append(
        f"chains: {chains['requests']} requests "
        f"({chains['committed']} committed, {chains['aborted']} aborted), "
        f"lengths {_fmt_hist(chains['lengths'])}, "
        f"derefs/chain {_fmt_hist(chains['hops'])}")
    if chains["abort_reasons"]:
        reasons = ", ".join(f"{reason}: {count}" for reason, count
                            in chains["abort_reasons"].items())
        lines.append(f"  abort reasons: {reasons}")
    if chains["nak_reasons"]:
        naks = "; ".join(
            f"{opname}: " + ", ".join(f"{cls} x{count}" for cls, count
                                      in classes.items())
            for opname, classes in chains["nak_reasons"].items())
        lines.append(f"  NAKs: {naks}")
    lines.append(
        f"  ops executed {chains['ops_executed']}, "
        f"skipped {chains['ops_skipped']}")
    if chase["depth_by_op"]:
        depths = "; ".join(f"{opname} {_fmt_hist(hist)}" for opname, hist
                           in chase["depth_by_op"].items())
        lines.append(f"pointer chase (derefs per op): {depths} "
                     f"(bounded reads: {chase['bounded_reads']})")
    if report["allocator"]:
        lines.append("allocator free-list watermarks:")
        for row in report["allocator"]:
            lines.append(
                f"  {row['name']}#{row['freelist']}: "
                f"depth {row['depth']}/{row['capacity']} "
                f"(occupancy {row['occupancy']:.1%}), low watermark "
                f"{row['low_watermark']} (lifetime "
                f"{row['lifetime_low_watermark']}), pops {row['pops']}, "
                f"exhaustions {row['exhaustions']}")
    if report["keys"]:
        lines.append("hot keys (top-K per app):")
        for app, entry in report["keys"].items():
            ops = ", ".join(f"{kind}: {count}" for kind, count
                            in entry["ops"].items())
            lines.append(f"  {app} ({ops}): " + _fmt_topk(entry["topk"], top))
    return lines


def faults_report_lines(report):
    """Human-readable goodput-under-faults summary.

    ``report`` is the dict :func:`repro.bench.harness.run_point` stores
    in ``result.extra["faults"]`` (the injector's counters plus the
    bound plan and the run's goodput).
    """
    plan = report.get("plan", {})
    retry = plan.get("retry", {})
    lines = []
    crashes = plan.get("crashes", [])
    lines.append(
        f"plan: seed={plan.get('seed')} drop={plan.get('drop', 0.0):g} "
        f"dup={plan.get('duplicate', 0.0):g} "
        f"jitter={plan.get('jitter_us', 0.0):g}us "
        f"crashes={len(crashes)} starve={plan.get('starve', 0.0):g}")
    lines.append(
        f"retry policy: timeout={retry.get('timeout_us', 0.0):g}us, "
        f"max_retries={retry.get('max_retries')}, backoff "
        f"{retry.get('backoff_base_us', 0.0):g}.."
        f"{retry.get('backoff_max_us', 0.0):g}us")
    lines.append(
        f"injected: {report.get('messages_dropped', 0)} dropped, "
        f"{report.get('messages_duplicated', 0)} duplicated, "
        f"{report.get('messages_delayed', 0)} delayed "
        f"(+{report.get('delay_injected_us', 0.0):g}us), "
        f"{report.get('crash_drops', 0)} killed at down hosts")
    if crashes or report.get("crashes", 0):
        hosts_down = report.get("hosts_down", [])
        lines.append(
            f"crashes: {report.get('crashes', 0)} fired, "
            f"{report.get('recoveries', 0)} recovered, still down: "
            + (", ".join(hosts_down) if hosts_down else "(none)"))
    if report.get("starved_buffers", 0):
        lines.append(
            f"starvation: {report.get('starved_buffers', 0)} buffers "
            f"withheld, {report.get('restored_buffers', 0)} restored")
    lines.append(
        f"recovered: {report.get('timeouts', 0)} timeouts, "
        f"{report.get('retransmissions', 0)} retransmissions, "
        f"{report.get('retries_exhausted', 0)} gave up, "
        f"{report.get('recycles_abandoned', 0)} recycle reports abandoned")
    goodput = report.get("goodput_mops")
    if goodput is not None:
        lines.append(f"goodput under faults: {goodput:.3f} Mops/s")
    return lines


def host_report_lines(report):
    """Human-readable simulator self-profile summary.

    ``report`` is :meth:`repro.obs.HostProfiler.report` output — wall
    clock only, so these numbers describe the machine running the
    simulation, never the simulated system.
    """
    lines = []
    stride = report.get("stride", 1)
    sampled = "" if stride == 1 else f" (sampling 1/{stride} events)"
    lines.append(
        f"host: {report['events']} events in {report['wall_s']:.3f}s wall "
        f"= {report['events_per_sec']:,.0f} events/s, "
        f"{report['resumes_per_sec']:,.0f} resumes/s{sampled}")
    buckets = report.get("buckets", {})
    parts = [f"{name} {entry['share']:.1%}"
             for name, entry in buckets.items() if entry["seconds"] > 0]
    if parts:
        lines.append(
            "  attribution: " + ", ".join(parts)
            + f" (attributed {report['attributed_share']:.1%} of wall)")
    return lines


def flight_summary_lines(dump, top=3):
    """Human-readable flight-recorder digest: counts + worst stories.

    ``dump`` is :meth:`repro.obs.FlightRecorder.to_dict` output (or a
    loaded flight dump). Shows the ring-buffer health line, the
    anomaly count, and the ``top`` worst requests' one-line headers —
    the full narratives live in the ``explain`` subcommand.
    """
    from repro.obs.forensics import (
        crash_windows,
        is_anomalous,
        timelines,
        worst_requests,
    )
    by_op, global_events = timelines(dump.get("events", []))
    anomalous = sum(1 for tl in by_op.values() if is_anomalous(tl))
    lines = [
        f"flight: {dump.get('recorded', 0)} events recorded "
        f"({dump.get('evicted', 0)} evicted, capacity "
        f"{dump.get('capacity', 0)}), {dump.get('ops_opened', 0)} ops, "
        f"{anomalous} anomalous"
    ]
    windows = crash_windows(global_events)
    for host, down, up in windows:
        up_text = f"{up:.0f} µs" if up != float("inf") else "end of run"
        lines.append(f"  crash window: {host} down {down:.0f} µs -> "
                     f"{up_text}")
    for timeline in worst_requests(by_op, top=top)[:top]:
        latency = timeline["latency_us"]
        if latency is None:
            latency = timeline["end"] - timeline["start"]
        lines.append(
            f"  worst: op #{timeline['op']} {timeline['kind'] or '?'} "
            f"(client {timeline['client']}) {latency:.2f} µs "
            f"status={timeline['status']}")
    return lines


#: sparkline glyphs, lowest to highest (space = empty window)
SPARK_GLYPHS = " ▁▂▃▄▅▆▇█"


def sparkline(values):
    """Render ``values`` as a block-character sparkline.

    ``None``/NaN entries render as spaces (no data); otherwise values
    scale linearly between the series min and max. A flat non-empty
    series renders at mid-height so it reads as "present and steady".
    """
    cleaned = [None if v is None or v != v else v for v in values]
    present = [v for v in cleaned if v is not None]
    if not present:
        return " " * len(values)
    low, high = min(present), max(present)
    span = high - low
    glyphs = SPARK_GLYPHS[1:]
    chars = []
    for v in cleaned:
        if v is None:
            chars.append(" ")
        elif span <= 0:
            chars.append(glyphs[len(glyphs) // 2])
        else:
            index = int((v - low) / span * (len(glyphs) - 1) + 0.5)
            chars.append(glyphs[index])
    return "".join(chars)


def _series_marker_line(report, n_shown):
    """One marker char per window: w/s boundaries, f faults, ! deviations."""
    window_us = report["window_us"]
    steady = report.get("steady_state", {})
    marks = [" "] * n_shown

    def mark(index, char):
        if 0 <= index < len(marks) and marks[index] == " ":
            marks[index] = char

    for annotation in report.get("annotations", []):
        if annotation["kind"] == "fault.drop":
            # The aggregate drop annotation spans first..last injected
            # drop; marking that whole span would flood the line under
            # a scattered low-rate plan. Drop windows are marked from
            # their own counters below.
            continue
        first = int(annotation["start_us"] // window_us)
        last = int(max(annotation["end_us"] - 1e-9, annotation["start_us"])
                   // window_us)
        char = "f" if annotation["kind"].startswith("fault.") else "!"
        for index in range(first, last + 1):
            mark(index, char)
    for index, window in enumerate(report["windows"][:n_shown]):
        counters = window.get("counters") or {}
        if any(counters.get(name) for name in
               ("drops", "dups", "delays", "crash_drops")):
            mark(index, "f")
    mark(int(steady.get("configured_warmup_us", 0.0) // window_us), "w")
    mark(int(steady.get("steady_from_us", 0.0) // window_us), "s")
    return "".join(marks)


def series_report_lines(report, out_width=72):
    """Human-readable windowed-series summary with sparklines.

    ``report`` is :meth:`repro.obs.SeriesCollector.report` output.
    Two sparklines (throughput, mean latency) over the window grid, a
    marker line (``w`` warmup boundary, ``s`` steady-state start,
    ``f`` fault window, ``!`` deviation), the MSER steady-state
    verdict, the reconciliation line, and one line per annotation.
    """
    steady = report.get("steady_state", {})
    recon = report.get("reconciliation", {})
    # Render up to the end of the measurement window: the drain tail
    # (in-flight ops completing after it) is a few sparse part-width
    # windows whose inflated per-µs rates would dominate the scale.
    measure_end = report["measure_end_us"]
    windows = [w for w in report["windows"] if w["start"] < measure_end]
    drained = report["n_windows"] - len(windows)
    tail = f" + {drained} drain" if drained else ""
    lines = [
        f"series: {report['n_windows']} windows x "
        f"{report['window_us']:g} µs "
        f"(run {report['run_end_us']:.0f} µs, measure ends "
        f"{measure_end:.0f} µs; showing {len(windows)}{tail})"
    ]
    tput = [w["tput_ops_per_sec"] / 1e6 or None for w in windows]
    lat = [w["lat_mean_us"] if w["ops"] else None for w in windows]
    lines.append(f"  tput  |{sparkline(tput)}| peak "
                 f"{max((v or 0.0) for v in tput):.3f} Mops/s")
    lines.append(f"  lat   |{sparkline(lat)}| mean "
                 f"{steady.get('band', {}).get('mean', float('nan')):.2f} µs "
                 f"steady")
    marker = _series_marker_line(report, len(windows))
    if marker.strip():
        lines.append(f"        |{marker}| w=warmup s=steady f=fault "
                     f"!=deviation")
    transient = steady.get("transient_end_us", 0.0)
    warmup = steady.get("configured_warmup_us", 0.0)
    if steady.get("warmup_sufficient", True):
        lines.append(
            f"  steady state: transient ends {transient:.0f} µs (MSER); "
            f"warmup {warmup:g} µs covers it [OK]")
    else:
        lines.append(
            f"  WARNING: detected transient ({transient:.0f} µs) is longer "
            f"than configured warmup ({warmup:g} µs) — measured window "
            f"includes warm-up noise; raise --warmup-us")
    lines.append(
        f"  steady window: {steady.get('steady_windows', 0)} windows from "
        f"{steady.get('steady_from_us', 0.0):.0f} µs, "
        f"{steady.get('steady_measured_ops', 0)} measured ops, "
        f"mean {steady.get('steady_mean_us', float('nan')):.2f} µs, "
        f"p99 {steady.get('steady_p99_us', float('nan')):.2f} µs, "
        f"{steady.get('steady_tput_ops_per_sec', 0.0) / 1e6:.3f} Mops/s")
    merged = recon.get("merged", {})
    exact = "exact" if recon.get("digest_exact") else "approx (compressed)"
    lines.append(
        f"  reconciliation: window measured sum "
        f"{recon.get('window_measured_sum')} "
        f"{'==' if recon.get('window_measured_sum') == recon.get('measured_ops') else '!='} "
        f"{recon.get('measured_ops')} measured ops; merged digest "
        f"p50 {merged.get('p50_us', float('nan')):.2f} / "
        f"p99 {merged.get('p99_us', float('nan')):.2f} µs [{exact}]")
    annotations = report.get("annotations", [])
    if annotations:
        lines.append(f"  annotations ({len(annotations)}):")
        for annotation in annotations:
            cause = annotation.get("cause")
            suffix = f" — cause: {cause}" if cause else ""
            lines.append(
                f"    [{annotation['kind']}] "
                f"{annotation['start_us']:.0f}..{annotation['end_us']:.0f} µs"
                f" {annotation['label']}{suffix}")
    else:
        lines.append("  annotations: none (steady run)")
    for row in report.get("utilization", []):
        lines.append(f"  busy  |{sparkline(row['busy'][:len(windows)])}| "
                     f"{row['name']} ({row['kind']})")
    return lines


def views_report_lines(report, top=5):
    """Human-readable online-views summary with decision transcript.

    ``report`` is :meth:`repro.obs.ViewCollector.report` output: the
    end-of-run state of the sliding-window signals (totals plus the
    rate over the final window), the per-connection EWMA views, the
    hot contended addresses, and the shadow-probe decision log.
    """
    signals = report.get("signals", {})
    decisions = report.get("decisions", {})
    lines = []
    parts = [f"{name} {entry['total']:g}"
             for name, entry in signals.items() if entry["total"]]
    lines.append(
        f"views: window {report['window_us']:g} µs x "
        f"{report['n_buckets']} buckets; totals "
        + (", ".join(parts) if parts else "(no signals)"))
    conns = report.get("connections", {})
    shown = sorted(conns.items())[:top]
    for conn, row in shown:
        chase = row.get("chase_depth_ewma", float("nan"))
        service = row.get("service_time_ewma_us", float("nan"))
        lines.append(
            f"  conn {conn}: cas {row.get('cas_attempt_total', 0):g} "
            f"({row.get('cas_retry_total', 0):g} retries), "
            f"chase ewma {chase:.2f} "
            f"(p99 {row.get('chase_depth_p99', float('nan')):.2f}), "
            f"service ewma {service:.2f} µs, "
            f"timeouts {row.get('timeout_total', 0):g}, "
            f"backoffs {row.get('backoff_total', 0):g}")
    if len(conns) > len(shown):
        lines.append(f"  ... and {len(conns) - len(shown)} more connection(s)")
    hot = report.get("hot_keys", [])
    if hot:
        lines.append("  hot CAS targets: " + ", ".join(
            (f"{entry['key']:#x}" if isinstance(entry["key"], int)
             else str(entry["key"]))
            + f" x{entry['cas_retry_total']:g}" for entry in hot[:top])
            + (f" ({report.get('evicted_keys', 0)} keys evicted)"
               if report.get("evicted_keys") else ""))
    recorded = decisions.get("recorded", 0)
    lines.append(
        f"  decisions: {recorded} recorded "
        f"({decisions.get('evicted', 0)} evicted, capacity "
        f"{decisions.get('capacity', 0)}); probes: "
        + (", ".join(report.get("probes", [])) or "(none)"))
    for entry in decisions.get("log", []):
        inputs = entry.get("inputs", {})
        detail = ", ".join(
            f"{key}={value:.3g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in inputs.items() if key != "conn")
        lines.append(
            f"    [{entry['t_us']:.1f} µs] {entry['name']} "
            f"conn={inputs.get('conn', '-')}: {entry['verdict']} ({detail})")
    return lines


def low_load_latency(results):
    """Mean latency of the single-client point."""
    for r in results:
        if r.clients == min(x.clients for x in results):
            return r.mean_latency_us
    raise ValueError("empty sweep")
