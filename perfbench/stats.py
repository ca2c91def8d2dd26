"""The one summary the benchmark reports: a median with its quartiles."""

import statistics


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
