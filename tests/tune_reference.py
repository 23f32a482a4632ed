"""The tuner's robust loss as it was computed with ``np.median``, kept as the test oracle.

This is how ``derivkit.tune.robust_proxy_loss`` used to measure the residual
scatter and the Huber location: ``np.median`` twice on the unsorted
residuals, and a location search that sorts them again and builds its
cumulative sum by concatenation. It exists only so tests can check that
the loss computed from one sort keeps every bit.

It also keeps the Nelder-Mead search as it was before the tuner read its result
from one evaluation log: each start tracks its own best point and evaluation
count, and the starts run one after another, the best of them winning (ties to
the earlier evaluation). Tests pin the search through it.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.optimize import minimize

from derivkit.core import ValidationError, total_variation
from derivkit.tune import DIAMETER_TOL, MAD_NORMALIZER, _integrated, proxy_loss


def _huber(x: np.ndarray, radius: float) -> np.ndarray:
    a = np.abs(x)
    return np.where(a <= radius, 0.5 * x * x, radius * a - 0.5 * radius * radius)


def median_robust_location(resid: np.ndarray, radius: float) -> float:
    """argmin_c sum Huber(resid + c, radius), by the root of the piecewise-linear influence sum."""
    r = np.sort(resid)
    csum = np.concatenate([[0.0], np.cumsum(r)])
    c = np.sort(np.concatenate([-r - radius, -r + radius]))
    low = np.searchsorted(r, -radius - c, "right")
    high = np.searchsorted(r, radius - c, "left")
    f = radius * (len(r) - high - low) + csum[high] - csum[low] + (high - low) * c
    k = int(np.argmax(f >= 0))
    return float(c[k - 1] - f[k - 1] * (c[k] - c[k - 1]) / (f[k] - f[k - 1]))


def median_robust_proxy_loss(derivative, signal, gamma: float, m: float = 6.0) -> float:
    """Huberized reconstruction loss plus gamma * TV, with the MAD from two ``np.median`` calls."""
    if gamma < 0:
        raise ValidationError("gamma must be >= 0")
    if m <= 0:
        raise ValidationError("m must be positive")
    integral, xdot = _integrated(derivative, signal)
    resid = integral - signal.values
    sigma_mad = float(np.median(np.abs(resid - np.median(resid)))) / MAD_NORMALIZER
    if sigma_mad == 0.0:
        return proxy_loss(derivative, signal, gamma)
    radius = m * sigma_mad
    c = median_robust_location(resid, radius)
    fidelity = math.sqrt(2.0 / len(resid) * float(np.sum(_huber(resid + c, radius))))
    return fidelity + gamma * total_variation(xdot)


def nelder_mead(fn, x0: np.ndarray, step: np.ndarray, max_evals: int):
    """One start of scipy's Nelder-Mead from ``x0``, its first simplex stepping ``step``
    along each axis. Returns the best point evaluated, its f and the evaluations, or
    (None, the largest float, evaluations) when every evaluation failed; ties go to the
    earlier evaluation."""
    best_x, best_loss = None, sys.float_info.max

    def finite(x: np.ndarray) -> float:
        nonlocal best_x, best_loss
        loss = min(fn(x), sys.float_info.max)
        if loss < best_loss:
            best_x, best_loss = x, float(loss)
        return loss

    res = minimize(finite, x0, method="Nelder-Mead", options={
        "initial_simplex": np.vstack([x0, x0 + np.diag(step)]),
        "maxfev": max_evals, "xatol": DIAMETER_TOL, "fatol": math.inf})
    return best_x, best_loss, res.nfev


def multi_start(fn, lo_t: np.ndarray, hi_t: np.ndarray, starts: int, max_evals: int,
                rng: np.random.Generator):
    """:func:`nelder_mead` from ``starts`` points drawn uniformly in ``[lo_t, hi_t]``, all
    drawn first, each stepping ``0.15 * (hi_t - lo_t)``. Returns the best point evaluated,
    its f and the evaluations, or (None, inf, evaluations) when every evaluation failed;
    ties go to the earlier evaluation."""
    x0s = [rng.uniform(lo_t, hi_t) for _ in range(starts)]
    best_x, best_loss, total_evals = None, sys.float_info.max, 0
    for x0 in x0s:
        x, loss, evals = nelder_mead(fn, x0, 0.15 * (hi_t - lo_t), max_evals)
        if loss < best_loss:
            best_x, best_loss = x, loss
        total_evals += evals
    return best_x, best_loss if best_x is not None else math.inf, total_evals
