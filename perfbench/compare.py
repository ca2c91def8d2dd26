"""Compare two benchmark results, or two checkouts pair by pair.

``python3 -m perfbench.compare PARENT.json CHILD.json`` reads two files written
by ``python3 -m perfbench --out`` and prints one row per (workload, end-to-end
metric): both medians with their quartiles, the bound from ``BENCHMARK.json``
and a verdict.

* ``unresolved`` - the parent's own inter-quartile spread exceeds the bound, so
  the run cannot tell a regression from noise;
* ``worse`` - the child's median is worse than the parent's by more than the
  bound;
* ``better`` - it is better by more than the parent's spread and by more than
  a tenth of the bound (and, with ``--pairs``, the child won at least nine
  tenths of the pairs);
* ``same`` - anything else.

``--pairs N PARENT_DIR CHILD_DIR`` runs the whole benchmark N times in each of
two checkouts, alternating which side goes first, and applies the same rules
to the N medians per side. The exit code is 1 on any ``worse`` row or when a
workload's ``failed_share`` grew.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from perfbench import spec as spec_module
from perfbench.stats import quartiles

VERDICTS = ("better", "same", "worse", "unresolved")
WIN_SHARE = 0.9


def worsening(metric, parent, child):
    """Relative change of ``child`` against ``parent``, positive = worse."""
    if parent == 0:
        return 0.0 if child == 0 else float("inf")
    change = (child - parent) / abs(parent)
    return change if metric.better == "lower" else -change


def verdict(metric, parent, child_median, wins=None, pairs=None):
    """One of :data:`VERDICTS`; ``parent`` is ``(q1, median, q3)``."""
    q1, median, q3 = parent
    spread = (q3 - q1) / abs(median) if median else 0.0
    if spread > metric.bound:
        return "unresolved"
    change = worsening(metric, median, child_median)
    if change > metric.bound:
        return "worse"
    won_enough = wins is None or wins >= WIN_SHARE * pairs
    # A single reading (peak RSS) has no spread of its own; a tenth of the
    # bound keeps its run-to-run wobble from reading as a gain.
    if -change > max(spread, metric.bound / 10.0) and won_enough:
        return "better"
    return "same"


def _row(metrics, name):
    row = metrics[name]
    return row["q1"], row["value"], row["q3"]


def compare_documents(parent, child, spec):
    """Rows and failed-share regressions for two ``--out`` suite files."""
    rows = []
    regressions = []
    for workload in spec.workloads:
        pair = [side["workloads"].get(workload, {}).get("end_to_end")
                for side in (parent, child)]
        if None in pair:
            continue
        if pair[1]["failed_share"] > pair[0]["failed_share"]:
            regressions.append(
                f"{workload}: failed_share {pair[0]['failed_share']:.6g} -> "
                f"{pair[1]['failed_share']:.6g}")
        for name, metric in spec.end_to_end.items():
            if name not in pair[0]["metrics"] or name not in pair[1]["metrics"]:
                continue
            before = _row(pair[0]["metrics"], name)
            after = _row(pair[1]["metrics"], name)
            rows.append((workload, metric, before, after,
                         verdict(metric, before, after[1])))
    return rows, regressions


def compare_pairs(parents, children, spec):
    """The same rows from N suite files per side, run as alternating pairs."""
    rows = []
    regressions = []
    for workload in spec.workloads:
        sides = [[run["workloads"][workload]["end_to_end"] for run in runs]
                 for runs in (parents, children)]
        worst = [max(doc["failed_share"] for doc in side) for side in sides]
        if worst[1] > worst[0]:
            regressions.append(f"{workload}: failed_share {worst[0]:.6g} -> "
                               f"{worst[1]:.6g}")
        for name, metric in spec.end_to_end.items():
            values = [[doc["metrics"][name]["value"] for doc in side]
                      for side in sides]
            wins = sum(worsening(metric, before, after) < 0
                       for before, after in zip(*values))
            before, after = (quartiles(side) for side in values)
            rows.append((workload, metric, before, after,
                         verdict(metric, before, after[1], wins,
                                 len(values[0]))))
    return rows, regressions


def print_rows(rows, regressions):
    print(f"{'workload':<16} {'metric':<16} {'parent median [q1, q3]':<38} "
          f"{'child median [q1, q3]':<38} {'change':>8} {'bound':>6}  verdict")
    for workload, metric, before, after, outcome in rows:
        def cell(stats):
            return f"{stats[1]:.6g} [{stats[0]:.6g}, {stats[2]:.6g}]"
        change = worsening(metric, before[1], after[1])
        print(f"{workload:<16} {metric.name:<16} {cell(before):<38} "
              f"{cell(after):<38} {change:>+8.2%} {metric.bound:>6.0%}  "
              f"{outcome}")
    for line in regressions:
        print(f"FAILED SHARE GREW  {line}")


def _run_suite(checkout, seed, out):
    subprocess.run([sys.executable, "-m", "perfbench", "--seed", str(seed),
                    "--out", out], cwd=checkout, check=False,
                   stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def run_pairs(parent_dir, child_dir, pairs, seed):
    """N alternating (parent, child) suite runs; returns two lists."""
    results = {parent_dir: [], child_dir: []}
    os.makedirs(spec_module.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=spec_module.OUT_DIR) as scratch:
        for index in range(pairs):
            order = [parent_dir, child_dir]
            if index % 2:
                order.reverse()
            for checkout in order:
                out = os.path.join(scratch, f"{len(results[checkout])}.json")
                results[checkout].append(_run_suite(checkout, seed, out))
                os.remove(out)
                print(f"pair {index + 1}/{pairs}: ran {checkout}",
                      file=sys.stderr)
    return results[parent_dir], results[child_dir]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench.compare",
        description="Compare two perfbench results metric by metric.")
    parser.add_argument("parent", help="PARENT.json, or with --pairs the "
                        "parent commit's checkout")
    parser.add_argument("child", help="CHILD.json, or with --pairs the "
                        "child commit's checkout")
    parser.add_argument("--pairs", type=int, default=0,
                        help="run this many alternating parent/child pairs")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for --pairs runs")
    args = parser.parse_args(argv)
    spec = spec_module.load()
    if args.pairs:
        parents, children = run_pairs(os.path.abspath(args.parent),
                                      os.path.abspath(args.child),
                                      args.pairs, args.seed)
        rows, regressions = compare_pairs(parents, children, spec)
    else:
        documents = []
        for path in (args.parent, args.child):
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        rows, regressions = compare_documents(*documents, spec)
    print_rows(rows, regressions)
    failed = regressions or any(row[4] == "worse" for row in rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
