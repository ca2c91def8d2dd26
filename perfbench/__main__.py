"""``python3 -m perfbench``: run one workload, or all of them.

With ``--workload`` this is the one-process, one-thread run the benchmark
contract describes: it prints every metric by name with its unit, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ledger
with ``--trace 1``). Without ``--workload`` it runs every workload in a process
of its own and, with ``--out``, collects their detailed results in one file
for ``perfbench.compare``. The exit code is non-zero when any check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

from perfbench import add_src_to_path, spec as spec_module


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this "
                        "process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed repeats run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer ledger "
                        "(all workloads: the ledger as well)")
    parser.add_argument("--quick", action="store_true",
                        help="2 repeats at a tenth of the simulated "
                        "duration, every check on")
    parser.add_argument("--out", help="write the detailed result here")
    return parser.parse_args(argv)


def _print_metrics(document, specs):
    for name, row in document["metrics"].items():
        line = f"  {name:<44} {row['value']:>16.6g} {specs[name].unit}"
        if row.get("q1", row["value"]) != row.get("q3", row["value"]):
            line += (f"   (q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, "
                     f"R={document['repeats']})")
        print(line)
    for problem in document["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _contract_line(document, specs):
    missing = sorted(set(specs) - set(document["metrics"]))
    if missing and document["correct"]:
        raise AssertionError(f"metrics not emitted: {missing}")
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": row["value"], "unit": specs[name].unit}
                    for name, row in document["metrics"].items()},
    })


def run_one(args, spec):
    """The contract run: one workload in this process."""
    import_start = perf_counter()
    import repro.bench.harness  # noqa: F401  (timed: bench.import_s)
    import_s = perf_counter() - import_start
    from perfbench.workloads import BY_NAME
    if args.workload not in BY_NAME:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(BY_NAME)}")
    workload = BY_NAME[args.workload]
    seconds = spec.run_seconds if args.seconds is None else args.seconds
    if args.trace:
        from perfbench.layers import trace
        document = trace(workload, args.seed, seconds, import_s, args.quick)
        specs = spec.per_layer
    else:
        from perfbench.endtoend import measure
        document = measure(workload, args.seed, seconds, args.quick)
        specs = spec.end_to_end
    print(f"{workload.name}  seed={args.seed}  trace={args.trace}"
          f"{'  quick' if args.quick else ''}")
    _print_metrics(document, specs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    print(_contract_line(document, specs))
    return 0 if document["correct"] else 1


def run_all(args, spec):
    """Every workload, each in a single-threaded process of its own."""
    os.makedirs(spec_module.OUT_DIR, exist_ok=True)
    suite = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    status = 0
    for name in spec.workloads:
        entry = suite["workloads"][name] = {}
        for trace in range(args.trace + 1):
            part = os.path.join(spec_module.OUT_DIR,
                                f"{name}.trace{trace}.json")
            command = [sys.executable, "-m", "perfbench", "--workload", name,
                       "--seed", str(args.seed), "--trace", str(trace),
                       "--out", part]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            finished = subprocess.run(command, cwd=spec_module.ROOT)
            status = status or finished.returncode
            if os.path.exists(part):
                with open(part, encoding="utf-8") as handle:
                    entry["per_layer" if trace else "end_to_end"] = (
                        json.load(handle))
                os.remove(part)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(suite, handle, indent=1)
    return status


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    add_src_to_path()
    spec = spec_module.load()
    return (run_one if args.workload else run_all)(args, spec)


if __name__ == "__main__":
    sys.exit(main())
