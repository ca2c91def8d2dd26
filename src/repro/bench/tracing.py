"""Reading a traced point: measured roots, breakdown and critical path.

Helpers over a :class:`repro.obs.Tracer`'s span trees that the bench
front ends and tests share: which roots were measured, the printed
phase-breakdown and critical-path tables, and the two reconciliation
checks. Because spans only *read* the simulated clock, a traced run's
timing is identical to the untraced run — the breakdown's phase sums
match the measured mean latency exactly, not just within tolerance.
(:func:`repro.bench.observers.run_traced_point` runs such a point.)
"""

from repro.bench.reporting import print_table
from repro.obs import breakdown_rows, critpath_rows
from repro.obs.critpath import format_contributors


def measured_roots(tracer):
    """The root spans of operations counted in the measurement window."""
    return [root for root in tracer.roots
            if root.end is not None and root.attrs.get("measured")]


def print_breakdown(title, report):
    headers, rows = breakdown_rows(report)
    print_table(title, headers, rows)


def print_critpath(title, profile):
    """Critical-path profile table + per-op contributor lines."""
    headers, rows = critpath_rows(profile)
    print_table(title, headers, rows)
    print(format_contributors(profile))


def check_critpath(result, profile, tolerance=1e-6):
    """Assert per-request critical-path sums equal measured latency.

    The critical path tiles ``[root.start, root.end]`` by
    construction, so the count-weighted mean of ``critical_sum_us``
    must equal the measured mean latency to float rounding.
    """
    total_ops = sum(entry["count"] for entry in profile.values())
    if total_ops == 0:
        raise AssertionError("no measured operations were traced")
    weighted = sum(entry["critical_sum_us"] * entry["count"]
                   for entry in profile.values()) / total_ops
    mean = result.mean_latency_us
    if abs(weighted - mean) > tolerance * max(mean, 1.0):
        raise AssertionError(
            f"critical-path sums ({weighted:.6f} µs) diverge from measured "
            f"mean latency ({mean:.6f} µs)")
    return weighted


def traced_work(report):
    """Count-weighted mean of the per-op-type phase sums (µs per op);
    NaN when no measured operation was traced."""
    total_ops = sum(entry["count"] for entry in report.values())
    if total_ops == 0:
        return float("nan")
    return sum(entry["phase_sum_us"] * entry["count"]
               for entry in report.values()) / total_ops


def check_breakdown(result, report, tolerance=0.01):
    """Assert the phase sums reconcile with the measured mean latency.

    The measured mean is the count-weighted mean of the per-op-type
    means, so the weighted phase sums must match it within
    ``tolerance`` (they match exactly up to float rounding; the
    tolerance is the acceptance bound, not slack we expect to use).
    """
    weighted_sum = traced_work(report)
    if weighted_sum != weighted_sum:
        raise AssertionError("no measured operations were traced")
    mean = result.mean_latency_us
    if abs(weighted_sum - mean) > tolerance * mean:
        raise AssertionError(
            f"phase sums ({weighted_sum:.4f} µs) diverge from measured "
            f"mean latency ({mean:.4f} µs) by more than {tolerance:.0%}")
    return weighted_sum
