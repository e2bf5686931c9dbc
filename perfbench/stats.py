"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

#: the tail percentile is the highest one with at least this many jobs beyond it
TAIL_BEYOND = 10


def tail(latencies, beyond: int = TAIL_BEYOND):
    """(value, percentile) at the highest nearest-rank percentile that still
    has at least `beyond` samples strictly above its rank.

    With N samples that is rank N - beyond (1-based), i.e. percentile
    100 * (N - beyond) / N.  Fewer than beyond + 1 samples leave no such
    percentile; the rule then falls back to the maximum, at percentile 100.
    """
    xs = sorted(latencies)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n


def spread(values):
    """Interquartile distance, from statistics.quantiles(n=4), as a share of
    the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
