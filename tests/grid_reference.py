"""Grids shared by the bit-for-bit oracle tests of the Kalman and spline bands."""

from __future__ import annotations

import numpy as np


def oracle_grids(n, rng):
    """Uniform, dropped-sample, jittered and epoch-stamped (t0 = 1.7e9) grids of n points."""
    base = 0.01 * np.arange(n)
    jitter = base + 0.003 * rng.uniform(-1, 1, n)
    dropped = 0.01 * np.sort(rng.choice(2 * n, n, replace=False))
    return {"uniform": base, "dropped": dropped, "jittered": jitter, "epoch": 1.7e9 + dropped}
