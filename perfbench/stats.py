"""Summary statistics shared by the runner and its tests."""

from __future__ import annotations

import statistics

#: The tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample; with n samples it sits at the
    100 * (n - 10) / n percentile. Needs more than ten samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        raise ValueError(f"the tail needs more than {TAIL_SAMPLES} samples, got {n}")
    return 100.0 * (n - TAIL_SAMPLES) / n, ordered[n - TAIL_SAMPLES - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
