"""Summary statistics used by the benchmark."""

import math
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it, so one outlier cannot set it.
MIN_BEYOND = 10


def _rank(n, p):
    # the tolerance keeps 99.9% of 10000 at rank 9990 despite rounding
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the nearest-rank p-th one."""
    return n - _rank(n, p)


def highest_percentile(n, candidates=(99.9, 99.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile with MIN_BEYOND samples beyond it."""
    for p in candidates:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) by ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}
