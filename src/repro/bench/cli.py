"""Command-line experiment runner.

Run any row of the experiment table (or a custom point) without pytest::

    python -m repro.bench.cli fig1
    python -m repro.bench.cli fig3 --clients 1,8,32 --keys 4000
    python -m repro.bench.cli point --kind tx --flavor prism-sw \\
        --clients 96 --zipf 0.9
    python -m repro.bench.cli list

A command named after a row of :data:`repro.bench.experiments.EXPERIMENTS`
runs that row through the runner the ``benchmarks/`` scripts use: with no
flags it is the same geometry, the same tables and the same claims,
checked (exit status 1 names a violated one); ``--clients`` / ``--keys``
/ ``--zipfs`` / ``--warmup-us`` / ``--measure-us`` rescale it for a
quicker (or bigger) run, which evaluates no claim. ``point`` and the
sweep rows run measurement points; every observer flag (``--help``
lists them, the table is :data:`repro.bench.observers.ROWS`,
docs/observability.md shows what each prints) works on all of them and
leaves simulated timing bit-identical. ``explain flight.json`` replays
a ``--flight`` dump into per-request narratives.
"""

import argparse
import sys

from repro.bench.experiments import (
    EXPERIMENTS,
    Experiment,
    all_rows,
    exit_status,
    geometry,
    run,
    ycsb_t,
)
from repro.bench.observers import (
    ROWS,
    Session,
    add_flags,
    invalid_flag,
    is_set,
    profiled,
)
from repro.bench.reporting import CURVE_HEADERS, curve_rows, print_table
from repro.workload import YcsbWorkload

#: the rows that run measurement points, which the observer rows arm
SWEEPS = [row for row in EXPERIMENTS.values() if row.kind]
#: what ``point`` measures when its flags are absent
POINT = Experiment("point", "", "", "", clients=(1,))


def _parse_int_list(text):
    return [int(piece) for piece in text.split(",") if piece]


def _defaults(field, rows=(POINT, *SWEEPS)):
    """A geometry flag's per-row defaults, for its help string."""
    commands = {}
    for row in rows:
        value = getattr(row, field)
        text = (",".join(f"{v:g}" for v in value) if isinstance(value, tuple)
                else f"{value:g}")
        commands.setdefault(text, []).append(row.name)
    return "; ".join(f"{' '.join(names)}: {text}"
                     for text, names in commands.items())


def _reject(message):
    """A command line that cannot run: say why, exit status 2."""
    print(message, file=sys.stderr)
    return 2


def cmd_experiment(args):
    row = EXPERIMENTS[args.command]
    results = run(row, args)
    if geometry(row, args) != geometry(row) or args.faults:
        return 0    # rescaled or faulted: the claims are about neither
    return exit_status(row, results)


def cmd_point(args):
    if args.kind == "tx":
        make = ycsb_t
    else:
        make = (lambda keys, **kwargs: YcsbWorkload(
            keys, read_fraction=args.read_fraction, **kwargs))
    label = f"{args.kind}/{args.flavor}"
    keys, (n_clients, *_), (zipf,), warmup_us, measure_us = geometry(POINT,
                                                                     args)
    config = {"kind": args.kind, "flavor": args.flavor,
              "clients": n_clients, "keys": keys,
              "zipf": zipf, "read_fraction": args.read_fraction,
              "seed": 1, "warmup_us": warmup_us, "measure_us": measure_us}
    session = Session(
        args, f"point:{label}", single=True, breakdown=True,
        headline=lambda result: print_table(label, CURVE_HEADERS,
                                            curve_rows([result])))
    session.point(label, args.kind, args.flavor,
                  lambda i: make(keys, zipf=zipf, seed=1, client_id=i),
                  n_clients, config, n_keys=keys,
                  warmup_us=warmup_us, measure_us=measure_us)


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
    """Every row: the table's are commands here, a script's own runs from
    its script; sweeps show the systems they compare."""
    print_table(
        "experiments (point --kind/--flavor takes any system of "
        "repro.bench.harness)", ["row", "paper", "what", "systems", "script"],
        [[row.name, row.section, row.caption,
          f"{row.kind}: {', '.join(row.systems)}" if row.kind else "-",
          path.name if path else "-"] for row, _claims, path in all_rows()])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli",
        description="Regenerate figures from the PRISM paper.")
    parser.add_argument("command",
                        choices=[*EXPERIMENTS, "point", "explain", "list"])
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="(explain) a flight dump")
    parser.add_argument("--clients", type=_parse_int_list, default=None,
                        help="comma-separated client counts (point uses "
                             "the first; a zipf sweep reports the peak over "
                             f"the list; default: {_defaults('clients')})")
    parser.add_argument("--keys", type=int, default=None,
                        help=f"default: {_defaults('keys')}")
    parser.add_argument("--zipf", type=float, default=None,
                        help="key skew of point and the client sweeps "
                             "(default 0, uniform)")
    parser.add_argument("--zipfs", type=lambda t: [float(x) for x in
                                                   t.split(",")],
                        default=None,
                        help="comma-separated skews of a zipf sweep "
                             "(default: " + _defaults(
                                 "zipfs", [row for row in SWEEPS
                                           if row.versus_zipf]) + ")")
    parser.add_argument("--kind", choices=["kv", "rs", "tx"], default="kv")
    parser.add_argument("--flavor", default="prism-sw")
    parser.add_argument("--read-fraction", type=float, default=0.5)
    add_flags(parser)
    parser.add_argument("--views-log", metavar="PATH", default=None,
                        help="(with --views) write the per-point views "
                             "reports and decision-log transcript to PATH")
    parser.add_argument("--warmup-us", type=float, default=None,
                        metavar="US",
                        help="warmup before the measurement window "
                             f"(default: {_defaults('warmup_us')}); the "
                             "series steady-state verdict checks it covers "
                             "the detected transient")
    parser.add_argument("--measure-us", type=float, default=None,
                        metavar="US",
                        help="measurement window length (default: "
                             f"{_defaults('measure_us')})")
    parser.add_argument("--flight-dump", metavar="PATH", default=None,
                        help="(with --flight) write the flight dump to "
                             "PATH even when the run is clean; sweeps "
                             "still prefer the first anomalous point")
    parser.add_argument("--top", type=int, default=5, metavar="K",
                        help="(explain) how many worst-request narratives "
                             "to print (default 5)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Fail fast instead of silently ignoring per-point flags on
    # commands that never run a measurement point.
    point_flags = [(row.flag, is_set(args, row))
                   for row in ROWS if not row.anywhere]
    point_flags += [("--views-log", args.views_log is not None),
                    ("--flight-dump", args.flight_dump is not None),
                    ("--warmup-us", args.warmup_us is not None),
                    ("--measure-us", args.measure_us is not None)]
    allowed = {"point", *(row.name for row in SWEEPS)}
    for flag, given in point_flags:
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
    if args.flight_dump and args.flight is None:
        return _reject("--flight-dump requires --flight")
    if args.warmup_us is not None and args.warmup_us <= 0:
        return _reject("--warmup-us must be positive")
    if args.measure_us is not None and args.measure_us <= 0:
        return _reject("--measure-us must be positive (the warmup must end "
                       "before the run does)")
    dispatch = {
        "point": cmd_point,
        "explain": cmd_explain,
        "list": cmd_list,
    }
    command = dispatch.get(args.command, cmd_experiment)
    return int(profiled(args, args.command, args.command,
                        lambda: command(args)) or 0)


if __name__ == "__main__":
    sys.exit(main())
