"""Command-line experiment runner.

Regenerate any paper figure (or run a custom point) without pytest::

    python -m repro.bench.cli fig1
    python -m repro.bench.cli fig3 --clients 1,8,32 --keys 4000
    python -m repro.bench.cli point --kind tx --flavor prism-sw \\
        --clients 96 --zipf 0.9
    python -m repro.bench.cli list

Figure commands print the same tables as the benchmark suite but let
you rescale client counts / key counts for quicker (or bigger) runs.
``point`` and the fig3/4/6/7/9/10 commands run measurement points;
every observer flag (``--help`` lists them, the table is
:data:`repro.bench.observers.ROWS`, docs/observability.md shows what
each prints) works on all of them and leaves simulated timing
bit-identical. ``compare baseline.json run.json`` diffs two ``--json``
records under per-metric tolerance bands and exits non-zero on
regression; ``explain flight.json`` replays a ``--flight`` dump into
per-request narratives.

This module is also the ``__main__`` of the ``benchmarks/bench_*.py``
scripts: :func:`bench_main` for the four that measure one traced
point, :func:`standalone_main` for the rest.
"""

import argparse
import sys
import time
from dataclasses import dataclass

from repro.bench.microbench import (
    CLASSIC_PRIMITIVES,
    PRIMITIVES,
    measure_one_sided_read,
    measure_primitive,
    measure_rpc_read,
    measure_two_rdma_reads,
)
from repro.bench.observers import (
    FLIGHT,
    PROFILE,
    ROWS,
    Session,
    add_flags,
    invalid_flag,
    is_set,
    profiled,
)
from repro.bench.reporting import CURVE_HEADERS, curve_rows, print_table
from repro.net.topology import CLUSTER, DATACENTER, DIRECT, RACK
from repro.obs import RfpCrossoverProbe
from repro.workload import (
    YCSB_A,
    YCSB_C,
    YcsbTransactionalWorkload,
    YcsbWorkload,
)

DEFAULT_CLIENTS = [1, 8, 32, 96, 176]

#: measurement geometry used when --warmup-us/--measure-us are absent
#: (the values harness.run_point has always defaulted to)
DEFAULT_WARMUP_US = 300.0
DEFAULT_MEASURE_US = 1500.0
#: fig7/fig10 have always measured a longer window
CONTENTION_MEASURE_US = 2000.0


def _measure_windows(args, default_measure=DEFAULT_MEASURE_US):
    """Resolve --warmup-us/--measure-us against a command's defaults."""
    warmup = (args.warmup_us if args.warmup_us is not None
              else DEFAULT_WARMUP_US)
    measure = (args.measure_us if args.measure_us is not None
               else default_measure)
    return warmup, measure


def _parse_int_list(text):
    return [int(piece) for piece in text.split(",") if piece]


def _reject(message):
    """A command line that cannot run: say why, exit status 2."""
    print(message, file=sys.stderr)
    return 2


def cmd_motivation(args):
    print_table("§2.1 motivation (512 B, one ToR switch)",
                ["operation", "latency_us"],
                [["one-sided READ", measure_one_sided_read(profile=RACK)],
                 ["two-sided eRPC", measure_rpc_read(profile=RACK)],
                 ["two dependent READs", measure_two_rdma_reads(profile=RACK)]])


def cmd_fig1(args):
    columns = ["rdma", "prism-sw", "prism-bluefield", "prism-hw"]
    rows = []
    for primitive in PRIMITIVES:
        row = [primitive]
        for backend in columns:
            if backend == "rdma" and primitive not in CLASSIC_PRIMITIVES:
                row.append("-")
            else:
                row.append(measure_primitive(backend, primitive,
                                             profile=DIRECT))
        rows.append(row)
    print_table("Fig. 1: primitive latency, direct link (µs)",
                ["primitive"] + columns, rows)


def cmd_fig2(args):
    tiers = [("rack", RACK), ("cluster", CLUSTER),
             ("datacenter", DATACENTER)]
    rows = []
    for name, profile in tiers:
        rows.append([name,
                     measure_two_rdma_reads(profile=profile),
                     measure_primitive("prism-sw", "indirect-read",
                                       profile=profile),
                     measure_primitive("prism-bluefield", "indirect-read",
                                       profile=profile),
                     measure_primitive("prism-hw", "indirect-read",
                                       profile=profile)])
    print_table("Fig. 2: indirect read latency by deployment (µs)",
                ["tier", "2x-rdma", "prism-sw", "bluefield", "prism-hw"],
                rows)


def _ycsb_t(keys, **kwargs):
    return YcsbTransactionalWorkload(keys, keys_per_txn=1, **kwargs)


@dataclass(frozen=True)
class Figure:
    """A figure command as data: systems, workload, sweep, summary."""

    kind: str
    flavors: tuple
    workload: object        #: ``(keys, zipf=, seed=, client_id=) -> workload``
    seed: int
    clients: tuple = tuple(DEFAULT_CLIENTS)    #: when --clients is absent
    measure_us: float = DEFAULT_MEASURE_US
    #: None: sweep --clients at --zipf and print each flavor's curve.
    #: ``(heading, column)``: sweep --zipfs too and print, per zipf and
    #: flavor, the peak of ``column(result)`` over the client counts.
    versus_zipf: tuple = None
    probes: tuple = ()      #: shadow probes ``--views`` arms


FIGURES = {
    "fig3": Figure("kv", ("prism-sw", "pilaf-hw", "pilaf-sw"), YCSB_C, 11),
    "fig4": Figure("kv", ("prism-sw", "pilaf-hw", "pilaf-sw"), YCSB_A, 13),
    "fig6": Figure("rs", ("prism-sw", "abdlock-hw", "abdlock-sw"), YCSB_A,
                   17),
    "fig9": Figure("tx", ("prism-sw", "farm-hw", "farm-sw"), _ycsb_t, 23),
    # The contention figures arm the demonstration probe: shadow-mode
    # RFP crossover detection (see repro.obs.views); it logs which
    # transport the RFP rule would pick and switches nothing.
    "fig7": Figure("rs", ("prism-sw", "abdlock-hw"), YCSB_A, 19,
                   clients=(100,), measure_us=CONTENTION_MEASURE_US,
                   versus_zipf=("mean latency (µs)",
                                lambda r: r.mean_latency_us),
                   probes=(RfpCrossoverProbe,)),
    "fig10": Figure("tx", ("prism-sw", "farm-hw"), _ycsb_t, 29,
                    clients=(24, 96, 176), measure_us=CONTENTION_MEASURE_US,
                    versus_zipf=("throughput (M/s)",
                                 lambda r: r.throughput_ops_per_sec / 1e6),
                    probes=(RfpCrossoverProbe,)),
}


def resolve_clients(args):
    """``--clients`` when given, else the command's own sweep. (When the
    flag is absent argparse hands back the default object itself.)"""
    if args.clients is not DEFAULT_CLIENTS or args.command not in FIGURES:
        return args.clients
    return list(FIGURES[args.command].clients)


def cmd_figure(args):
    fig = FIGURES[args.command]
    clients = resolve_clients(args)
    zipfs = args.zipfs if fig.versus_zipf else [args.zipf]
    warmup_us, measure_us = _measure_windows(args, fig.measure_us)
    # --trace on a sweep traces one designated point: the first flavor
    # at the most skewed zipf and the largest client count (the most
    # interesting trace, and one file — a trace per point would clobber
    # the same path).
    designated = (zipfs[-1], fig.flavors[0], max(clients))
    session = Session(args, args.command, probes=fig.probes)
    rows = []
    for zipf in zipfs:
        row = [zipf]
        for flavor in fig.flavors:
            started = time.perf_counter()
            results = []
            for n_clients in clients:
                if not fig.versus_zipf:
                    name = f"{flavor} c={n_clients}"
                elif len(clients) == 1:
                    name = f"{flavor} zipf={zipf}"
                else:
                    name = f"{flavor} zipf={zipf} c={n_clients}"
                config = {"kind": fig.kind, "flavor": flavor,
                          "clients": n_clients, "keys": args.keys,
                          "zipf": zipf, "seed": fig.seed,
                          "warmup_us": warmup_us, "measure_us": measure_us}
                results.append(session.point(
                    f"{args.command}: {name}", fig.kind, flavor,
                    lambda i, z=zipf: fig.workload(
                        args.keys, zipf=z, seed=fig.seed, client_id=i),
                    n_clients, config,
                    trace=(zipf, flavor, n_clients) == designated,
                    trace_note=f" ({name})", n_keys=args.keys,
                    warmup_us=warmup_us, measure_us=measure_us))
                if args.json and fig.versus_zipf:
                    # kind/flavor/clients repeat across the zipf axis
                    session.points[-1]["id"] += f"/z{zipf:g}"
            if fig.versus_zipf:
                row.append(max(fig.versus_zipf[1](r) for r in results))
                continue
            wall_s = time.perf_counter() - started
            events = sum(r.extra.get("events_executed", 0) for r in results)
            rate = f", {events / wall_s:,.0f} events/s" if wall_s > 0 else ""
            print_table(f"{args.command}: {flavor} "
                        f"({wall_s:.1f}s wall{rate})",
                        CURVE_HEADERS, curve_rows(results))
        rows.append(row)
    session.close()
    if fig.versus_zipf:
        print_table(f"{args.command}: {fig.versus_zipf[0]} vs zipf",
                    ["zipf"] + list(fig.flavors), rows)


def cmd_point(args):
    if args.kind == "tx":
        make = _ycsb_t
    else:
        make = (lambda keys, **kwargs: YcsbWorkload(
            keys, read_fraction=args.read_fraction, **kwargs))
    label = f"{args.kind}/{args.flavor}"
    warmup_us, measure_us = _measure_windows(args)
    config = {"kind": args.kind, "flavor": args.flavor,
              "clients": args.clients[0], "keys": args.keys,
              "zipf": args.zipf, "read_fraction": args.read_fraction,
              "seed": 1, "warmup_us": warmup_us, "measure_us": measure_us}
    session = Session(
        args, f"point:{label}", single=True, breakdown=True,
        headline=lambda result: print_table(label, CURVE_HEADERS,
                                            curve_rows([result])))
    session.point(label, args.kind, args.flavor,
                  lambda i: make(args.keys, zipf=args.zipf, seed=1,
                                 client_id=i),
                  args.clients[0], config, n_keys=args.keys,
                  warmup_us=warmup_us, measure_us=measure_us)


def cmd_compare(args):
    from repro.bench.regress import compare, format_compare, load_record
    if len(args.paths) != 2:
        return _reject(
            "usage: repro.bench.cli compare <baseline.json> <run.json>")
    tolerances = {}
    for spec in args.tolerance or []:
        metric, sep, frac = spec.partition("=")
        if not sep:
            return _reject(f"--tolerance expects metric=frac, got {spec!r}")
        tolerances[metric] = float(frac)
    baseline = load_record(args.paths[0])
    run = load_record(args.paths[1])
    report = compare(baseline, run, tolerances=tolerances,
                     series=args.series is not None)
    print(f"baseline: {args.paths[0]} "
          f"(commit {report['baseline_commit'] or 'unknown'})")
    print(f"run:      {args.paths[1]} "
          f"(commit {report['run_commit'] or 'unknown'})")
    print(format_compare(report))
    return 0 if report["ok"] else 1


def cmd_explain(args):
    from repro.obs import explain_lines, load_flight_dump
    if len(args.paths) != 1:
        return _reject(
            "usage: repro.bench.cli explain <flight.json> [--top K]")
    dump = load_flight_dump(args.paths[0])
    for line in explain_lines(dump, top=args.top):
        print(line)
    return 0


def cmd_list(args):
    print("figures: motivation fig1 fig2 fig3 fig4 fig6 fig7 fig9 fig10")
    print("systems: kv={prism-sw,prism-hw,prism-bluefield,pilaf-hw,pilaf-sw}")
    print("         rs={prism-sw,prism-hw,abdlock-hw,abdlock-sw}")
    print("         tx={prism-sw,prism-hw,farm-hw,farm-sw}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli",
        description="Regenerate figures from the PRISM paper.")
    parser.add_argument("command",
                        choices=["motivation", "fig1", "fig2", "fig3",
                                 "fig4", "fig6", "fig7", "fig9", "fig10",
                                 "point", "compare", "explain", "list"])
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="(compare) baseline.json and run.json; "
                             "(explain) a flight dump")
    parser.add_argument("--clients", type=_parse_int_list,
                        default=DEFAULT_CLIENTS,
                        help="comma-separated client counts (point uses "
                             "the first; default: fig7 100, fig10 "
                             "24,96,176 — both report the peak over the "
                             "list — else 1,8,32,96,176)")
    parser.add_argument("--keys", type=int, default=8000)
    parser.add_argument("--zipf", type=float, default=0.0)
    parser.add_argument("--zipfs", type=lambda t: [float(x) for x in
                                                   t.split(",")],
                        default=[0.0, 0.5, 0.9, 1.2])
    parser.add_argument("--kind", choices=["kv", "rs", "tx"], default="kv")
    parser.add_argument("--flavor", default="prism-sw")
    parser.add_argument("--read-fraction", type=float, default=0.5)
    add_flags(parser)
    parser.add_argument("--tolerance", action="append", metavar="METRIC=REL",
                        default=None,
                        help="(compare) override a tolerance band, e.g. "
                             "--tolerance p99_us=0.10 (repeatable)")
    parser.add_argument("--views-log", metavar="PATH", default=None,
                        help="(with --views) write the per-point views "
                             "reports and decision-log transcript to PATH")
    parser.add_argument("--warmup-us", type=float, default=None,
                        metavar="US",
                        help="warmup before the measurement window "
                             f"(default {DEFAULT_WARMUP_US:g} µs); the "
                             "series steady-state verdict checks it covers "
                             "the detected transient")
    parser.add_argument("--measure-us", type=float, default=None,
                        metavar="US",
                        help="measurement window length (default "
                             f"{DEFAULT_MEASURE_US:g} µs; fig7/fig10 use "
                             f"{CONTENTION_MEASURE_US:g} µs)")
    parser.add_argument("--flight-dump", metavar="PATH", default=None,
                        help="(with --flight) write the flight dump to "
                             "PATH even when the run is clean; sweeps "
                             "still prefer the first anomalous point")
    parser.add_argument("--top", type=int, default=5, metavar="K",
                        help="(explain) how many worst-request narratives "
                             "to print (default 5)")
    return parser


#: commands that run measurement points, which the observer rows arm
_POINT_COMMANDS = {"fig3", "fig4", "fig6", "fig7", "fig9", "fig10", "point"}


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Fail fast instead of silently ignoring per-point flags on
    # commands that never run a measurement point.
    point_flags = [(row.flag, is_set(args, row), row.commands)
                   for row in ROWS if not row.anywhere]
    point_flags += [("--views-log", args.views_log is not None, ()),
                    ("--warmup-us", args.warmup_us is not None, ()),
                    ("--measure-us", args.measure_us is not None, ())]
    for flag, given, also in point_flags:
        allowed = _POINT_COMMANDS | set(also)
        if given and args.command not in allowed:
            return _reject(
                f"{flag} is not supported by {args.command!r}: only "
                "point and the fig sweeps run a measurement point "
                "(supported: " + ", ".join(sorted(allowed)) + ")")
    complaint = invalid_flag(args)
    if complaint is not None:
        return _reject(complaint)
    if args.views_log and args.views is None:
        return _reject("--views-log requires --views")
    if args.warmup_us is not None and args.warmup_us <= 0:
        return _reject("--warmup-us must be positive")
    if args.measure_us is not None and args.measure_us <= 0:
        return _reject("--measure-us must be positive (the warmup must end "
                       "before the run does)")
    dispatch = {
        "motivation": cmd_motivation,
        "fig1": cmd_fig1,
        "fig2": cmd_fig2,
        "point": cmd_point,
        "compare": cmd_compare,
        "explain": cmd_explain,
        "list": cmd_list,
    }
    command = dispatch.get(args.command, cmd_figure)
    return int(profiled(args, args.command, args.command,
                        lambda: command(args)) or 0)


# -- the benchmarks/bench_*.py front ends ------------------------------------


def bench_main(kind, flavor, workload_maker, title, argv=None,
               default_clients=4, default_keys=4000, strict_sum=True,
               seed=None, benchmark=None, **point_kwargs):
    """``__main__`` of the scripts that measure one traced point.

    ``workload_maker(n_keys)`` must return a ``workload_factory``
    suitable for :func:`run_point` (a per-client-index callable).
    ``strict_sum=False`` skips the sums-to-mean check for systems with
    parallel fan-out (quorum replication), whose phase sums read as
    total work across replicas rather than wall-clock latency.
    ``seed`` is recorded in ``--json`` output so regression baselines
    carry the workload seed; ``benchmark`` names the record (defaults
    to the title).
    """
    parser = argparse.ArgumentParser(description=title)
    add_flags(parser, [row for row in ROWS if row is not FLIGHT])
    parser.add_argument("--clients", type=int, default=default_clients)
    parser.add_argument("--clients-aggregated", type=int, default=None,
                        metavar="N",
                        help="model N clients (10⁵–10⁶ is fine) with "
                             "aggregated open-loop arrival sources instead "
                             "of closed-loop coroutines (see "
                             "repro.workload.sources)")
    parser.add_argument("--arrival-rate", type=float, default=50.0,
                        metavar="OPS_PER_S",
                        help="with --clients-aggregated, each modeled "
                             "client's Poisson op rate (default 50 op/s)")
    parser.add_argument("--source-window", type=int, default=None,
                        metavar="W",
                        help="with --clients-aggregated, max ops in "
                             "flight per source coroutine (default: "
                             "population-scaled, see sources module)")
    parser.add_argument("--keys", type=int, default=default_keys)
    parser.add_argument("--profile-stride", type=int, default=16,
                        metavar="N",
                        help="with --profile, time bucket attribution on "
                             "every N-th kernel event (default 16; 1 is "
                             "exhaustive and slower); events/sec and "
                             "counters stay exact")
    args = parser.parse_args(argv)
    complaint = invalid_flag(args)
    if complaint is not None:
        parser.error(complaint)
    source_model = None
    n_clients = args.clients
    if args.clients_aggregated is not None:
        source_model = {"rate_per_client_ops_s": args.arrival_rate,
                        "seed": seed or 0}
        if args.source_window is not None:
            source_model["window"] = args.source_window
        n_clients = args.clients_aggregated
    config = {"kind": kind, "flavor": flavor, "clients": n_clients,
              "keys": args.keys, "seed": seed}
    config.update({key: value for key, value in point_kwargs.items()
                   if isinstance(value, (int, float, str, bool))})

    def headline(result):
        print_table(title, ["clients", "ops", "Mops/s", "mean_us", "p99_us"],
                    [[result.clients, result.ops,
                      round(result.throughput_ops_per_sec / 1e6, 3),
                      round(result.mean_latency_us, 2),
                      round(result.p99_latency_us, 2)]])
        if source_model is not None:
            model = result.extra["source_model"]
            print(f"source model: aggregated open-loop, "
                  f"{model['clients']:,} modeled clients over "
                  f"{model['n_sources']} sources at "
                  f"{model['rate_per_client_ops_s']:g} op/s each "
                  f"(window {model['window']}, "
                  f"{result.extra['stalled_arrivals']} stalled arrivals)")

    session = Session(args, benchmark or title, single=True, sep=":",
                      traced=True, breakdown=True, strict_sum=strict_sum,
                      wall=True, headline=headline)
    profiled(args, benchmark or f"{kind}-{flavor}", title,
             lambda: session.point(
                 title, kind, flavor, workload_maker(args.keys), n_clients,
                 config, n_keys=args.keys, source_model=source_model,
                 **point_kwargs))
    return 0


class _NullBenchmark:
    """pytest-benchmark stand-in for ``__main__`` runs.

    The benchmark scripts' test functions take the pytest-benchmark
    fixture; running one outside pytest only needs ``pedantic`` to
    call the target once and hand back its result — no timing, no
    stats.
    """

    def pedantic(self, target, args=(), kwargs=None, **_options):
        return target(*args, **(kwargs or {}))

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)


def standalone_main(test, title, prefix="bench", argv=None):
    """``__main__`` of the scripts that are one pytest-benchmark test.

    ``test(benchmark)`` runs the benchmark and prints its own tables.
    The only flag is ``--profile``: an ambient profiler meters every
    simulator the script builds internally, and the host self-profile
    is printed after the benchmark's own output.
    """
    parser = argparse.ArgumentParser(description=title)
    add_flags(parser, [PROFILE])
    args = parser.parse_args(argv)
    profiled(args, prefix, title, lambda: test(_NullBenchmark()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
