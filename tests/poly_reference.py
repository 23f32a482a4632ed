"""Per-window sliding polynomial fit, kept as the test oracle.

This is how ``derivkit.smoothers.polydiff`` used to fit its windows: one
``numpy.polynomial.Polynomial.fit`` and one ``.deriv()`` per window in a
Python loop, with the overlapping evaluations summed into accumulators. It
exists only so tests can compare the batched fit against it.
"""

from __future__ import annotations

import numpy as np


def loop_polydiff(t, y, window: int, stride: int, degree: int, weights=None):
    """``(smoothed, derivative)`` of the per-window loop; uniform weights by default."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(t)
    starts = list(range(0, n - window + 1, stride))
    if starts[-1] != n - window:
        starts.append(n - window)
    weights = np.ones(window) if weights is None else np.asarray(weights, dtype=float)
    acc_s = np.zeros(n)
    acc_d = np.zeros(n)
    acc_w = np.zeros(n)
    for lo in starts:
        sl = slice(lo, lo + window)
        fit = np.polynomial.Polynomial.fit(t[sl], y[sl], degree)
        acc_s[sl] += weights * fit(t[sl])
        acc_d[sl] += weights * fit.deriv()(t[sl])
        acc_w[sl] += weights
    return acc_s / acc_w, acc_d / acc_w
