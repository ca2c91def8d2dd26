"""The untraced pass: end-to-end metrics of one workload.

One untimed audit repeat (which also warms the interpreter), then timed
repeats until ``--seconds`` have passed. Each repeat is a fresh ``run_point``
call, so a fresh ``Simulator``, with ``gc.collect()`` before it (``run_point``
switches the collector off while it runs, and without the explicit collect
``ru_maxrss`` grows 15-45 MiB per repeat) and a calibration loop on either
side. Host times are divided by the mean of those two loops; simulated results
and event counts are taken as they are and must be identical in every repeat.
"""

import gc
import time
import traceback

from perfbench.audit import audit_history
from perfbench.calib import calibration_loop, normalised
from perfbench.stats import quartiles
from perfbench.workloads import OpCounter, run_once

MIN_REPEATS = 5
QUICK_REPEATS = 2
QUICK_SCALE = 0.1


def differing_fields(record, reference):
    """Names of the simulated fields on which ``record`` departs."""
    return sorted(key for key in reference if record.get(key) != reference[key])


def timed_repeats(workload, seed, scale, seconds, min_repeats):
    """Run calibrated repeats for ``seconds``, and at least ``min_repeats``.

    Returns ``(rows, crashed)``. A row is ``(repeat, calib_before,
    calib_after)``; ``crashed`` counts the repeats whose simulation raised,
    which leave no row. ``seconds=0`` runs exactly ``min_repeats``.
    """
    rows = []
    crashed = 0
    calib_before = calibration_loop()
    deadline = time.perf_counter() + seconds
    while (len(rows) + crashed < min_repeats
           or time.perf_counter() < deadline):
        gc.collect()
        try:
            repeat = run_once(workload, seed, scale, OpCounter())
        except Exception:
            # A simulation that dies is a failed repeat to report, not a
            # reason to lose the measurements already taken.
            traceback.print_exc()
            crashed += 1
            continue
        calib_after = calibration_loop()
        rows.append((repeat, calib_before, calib_after))
        calib_before = calib_after
    return rows, crashed


def host_metrics(rows):
    """Per-repeat normalised host cost and set-up time from timed rows."""
    host_us_per_op = [
        normalised(repeat.wall_s, before, after)
        / repeat.record["attempted"] * 1e6
        for repeat, before, after in rows]
    setup_s = [normalised(repeat.total_s - repeat.wall_s, before, after)
               for repeat, before, after in rows]
    return host_us_per_op, setup_s


def measure(workload, seed, seconds, quick=False):
    """Run the untraced pass; returns the detailed result document."""
    scale = QUICK_SCALE if quick else 1.0
    problems = []
    attempted = failed = 0

    # -- audit repeat (untimed; also the warm-up) --------------------------
    counter = OpCounter(check_values=workload.audit == "values")
    try:
        audit = run_once(workload, seed, scale, counter)
    except Exception:
        traceback.print_exc()
        ops = max(counter.attempted, 1)
        return _document(workload, seed, quick, 0, False, ops, ops,
                         ["the audit repeat raised"], {}, None)
    reference = audit.record
    attempted += reference["attempted"]
    failed += counter.wrong_values + reference["faults"]["retries_exhausted"]
    if counter.wrong_values:
        problems.append(f"{counter.wrong_values} of {counter.gets_checked} "
                        "GETs returned a value other than the loaded one")
    if workload.audit == "values" and not counter.gets_checked:
        problems.append("the audit checked no GET")
    if reference["faults"]["retries_exhausted"]:
        problems.append("a request exhausted its retries")
    if workload.audit == "history":
        try:
            audit_history(workload.kind, seed)
        except Exception as exc:
            traceback.print_exc()
            problems.append(f"hot-key history check failed: {exc}")

    # -- timed repeats ---------------------------------------------------
    if quick:
        rows, crashed = timed_repeats(workload, seed, scale, 0.0,
                                      QUICK_REPEATS)
    else:
        rows, crashed = timed_repeats(workload, seed, scale, seconds,
                                      MIN_REPEATS)
    if crashed:
        problems.append(f"{crashed} timed repeats raised")
        attempted += crashed * reference["attempted"]
        failed += crashed * reference["attempted"]
    for index, (repeat, _before, _after) in enumerate(rows):
        attempted += repeat.record["attempted"]
        failed += repeat.record["faults"]["retries_exhausted"]
        fields = differing_fields(repeat.record, reference)
        if fields:
            problems.append(f"repeat {index} is not deterministic: "
                            f"{', '.join(fields)} differ from the audit")

    metrics = {}
    exact = {
        "events_per_op": reference["events_executed"] / reference["attempted"],
        "sim_tput_mops": reference["throughput_ops_per_sec"] / 1e6,
        "sim_p50_us": reference["median_latency_us"],
        "sim_p99_us": reference["p99_latency_us"],
    }
    if rows:
        host_us_per_op, setup_s = host_metrics(rows)
        metrics["host_us_per_op"] = quartiles(host_us_per_op)
        metrics["setup_s"] = quartiles(setup_s)
        # Read after a fixed number of repeats, not at the end: the number
        # of repeats that fit in --seconds varies with the machine's speed.
        exact["peak_rss_mb"] = rows[min(len(rows), MIN_REPEATS) - 1][
            0].peak_rss_mb
    metrics.update({name: (value, value, value)
                    for name, value in exact.items()})
    return _document(workload, seed, quick, len(rows),
                     not problems and failed == 0, attempted, failed,
                     problems, metrics, reference)


def _document(workload, seed, quick, repeats, correct, attempted, failed,
              problems, metrics, record):
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 0,
        "quick": quick,
        "repeats": repeats,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "metrics": {name: {"q1": q1, "value": median, "q3": q3}
                    for name, (q1, median, q3) in metrics.items()},
        "simulated": record,
    }
