"""Latency summaries: median and the tail percentile with enough samples.

Percentiles use the nearest-rank rule, so every reported value is one
that was measured.  The tail is the highest of ``TAIL_PERCENTILES``
that leaves at least ``MIN_BEYOND`` samples strictly beyond it; a run
too short for any of them reports its maximum and says so.  The
percentiles step by decades so that a modest change in how many
requests fit in a run does not move the tail to another percentile.
"""

import math
import statistics
from fractions import Fraction

TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def _rank(n, q):
    # exact arithmetic: 99.9 / 100 * 10000 is not 9990 in floating point
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def nearest_rank(sorted_values, q):
    """The q-th percentile (0 < q <= 100) of an ascending list, by nearest rank."""
    return sorted_values[_rank(len(sorted_values), q) - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail(values):
    """(value, label, samples beyond) for the tail latency of a run."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        beyond = samples_beyond(n, q)
        if beyond >= MIN_BEYOND:
            return nearest_rank(ordered, q), f"p{q:g}", beyond
    return ordered[-1], "max", 0


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(q3 - q1) / median, the run-to-run spread measure for a metric."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
