"""Hand-written finite-difference stencils, kept as the test oracle.

These are the per-call stencils that ``derivkit.fd`` replaced with one plan
built per call: the iterated-FD smoothing pass, which solved its stencils
afresh on every pass, and TVR's order-2 first-derivative matrix with its
coefficients typed in by hand. They exist only so tests can compare the
plan against them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from derivkit import Stencil, ValidationError, stencil_coefficients
from derivkit.fd import _centered_halfwidth


def safe_first_derivative(y: np.ndarray, dt: float, order: int) -> np.ndarray:
    """First derivative whose coefficients all satisfy ``|c * dt| <= 1``.

    Endpoints use the spaced stencils [0, 2, 4] / [0, -2, -4]; near-edge
    points shrink the centered stencil.
    """
    n_points = len(y)
    h = _centered_halfwidth(1, order)
    if n_points < max(2 * h + 1, 5):
        raise ValidationError(f"iterated_fd needs at least {max(2 * h + 1, 5)} samples")
    out = np.empty(n_points)
    c_center = stencil_coefficients(Stencil(tuple(range(-h, h + 1)), 1), dt)
    out[h : n_points - h] = np.convolve(y, c_center[::-1], mode="valid")
    c_spaced = stencil_coefficients(Stencil((0, 2, 4), 1), dt)
    out[0] = c_spaced @ y[(0, 2, 4),]
    out[-1] = -(c_spaced @ y[(-1, -3, -5),])
    for n in range(1, h):
        c = stencil_coefficients(Stencil(tuple(range(-n, n + 1)), 1), dt)
        out[n] = c @ y[: 2 * n + 1]
        out[n_points - 1 - n] = c @ y[n_points - 2 * n - 1 :]
    return out


def first_diff_table(n_points: int, dt: float) -> sp.csr_matrix:
    """Order-2 first-derivative matrix: centered interior, one-sided edge rows."""
    idx = np.arange(1, n_points - 1)
    last = n_points - 1
    rows = np.concatenate([[0, 0, 0], np.repeat(idx, 2), [last] * 3])
    cols = np.concatenate([[0, 1, 2], np.column_stack([idx - 1, idx + 1]).ravel(),
                           [last - 2, last - 1, last]])
    vals = np.concatenate([[-3 / (2 * dt), 4 / (2 * dt), -1 / (2 * dt)],
                           np.tile([-1 / (2 * dt), 1 / (2 * dt)], len(idx)),
                           [1 / (2 * dt), -4 / (2 * dt), 3 / (2 * dt)]])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_points, n_points))
