"""The tuner's robust loss as it was computed with ``np.median``, kept as the test oracle.

This is how ``derivkit.tune.robust_proxy_loss`` used to measure the residual
scatter and the Huber location: ``np.median`` twice on the unsorted
residuals, and a location search that sorts them again and builds its
cumulative sum by concatenation. It exists only so tests can check that
the loss computed from one sort keeps every bit.
"""

from __future__ import annotations

import math

import numpy as np

from derivkit.core import ValidationError, total_variation
from derivkit.tune import MAD_NORMALIZER, _integrated, proxy_loss


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
