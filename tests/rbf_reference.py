"""Dense assembly of the radial-basis fit, kept as the test oracle.

This is how ``derivkit.smoothers.rbfdiff`` used to build its system: dense
N x N gaps, mask, kernel, kernel-derivative and damped matrices, copied
diagonal by diagonal into LAPACK band storage for the solve, with the
read-outs as dense matrix-vector products. It needs O(N^2) memory, so it
exists only so tests can compare the banded assembly against it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_banded


class DenseRbf(NamedTuple):
    smoothed: np.ndarray
    derivative: np.ndarray
    A: np.ndarray      # truncated Gaussian kernel matrix
    Adot: np.ndarray   # its derivative in the evaluation point
    M: np.ndarray      # A + damping I, the collocation matrix
    coef: np.ndarray
    half_bw: int


def dense_rbf(t, y, sigma: float, rho: float, damping: float) -> DenseRbf:
    t = np.asarray(t, dtype=float)
    n = len(t)
    gaps = np.abs(t[:, None] - t[None, :])
    mask = gaps < rho
    half_bw = int(np.max(np.abs(np.nonzero(mask)[0] - np.nonzero(mask)[1])))
    A = np.where(mask, np.exp(-0.5 * (gaps / sigma) ** 2), 0.0)
    Adot = -(t[:, None] - t[None, :]) / sigma**2 * A

    ab = np.zeros((2 * half_bw + 1, n))
    M = A + damping * np.eye(n)
    for off in range(-half_bw, half_bw + 1):
        diag = np.diagonal(M, off)
        if off >= 0:
            ab[half_bw - off, off:] = diag
        else:
            ab[half_bw - off, : n + off] = diag
    coef = solve_banded((half_bw, half_bw), ab, y)
    return DenseRbf(A @ coef, Adot @ coef, A, Adot, M, coef, half_bw)


def extended_rbf(t, y, sigma: float, rho: float, damping: float, steps: int = 3):
    """The smoothed values and derivative of the radial-basis fit in ``np.longdouble``.

    The kernel entries are taken as float64 computes them, so the reference and
    ``rbfdiff`` fit the same matrix. The coefficients are refined ``steps`` times
    from a float64 LU solve, with residuals ``y - M c`` in extended precision; each
    step shrinks the error by about cond(M) * eps. The matrix is held in float64 and
    widened one block of rows at a time.
    """
    ref = dense_rbf(t, y, sigma, rho, damping)
    t = np.asarray(t, dtype=np.longdouble)
    lu = lu_factor(ref.M)
    coef = lu_solve(lu, y).astype(np.longdouble)

    def times(matrix, weight=None):
        out = np.empty(len(t), dtype=np.longdouble)
        for i in range(0, len(t), 500):
            rows = matrix[i:i + 500].astype(np.longdouble)
            if weight is not None:
                rows *= t[None, :] - t[i:i + 500, None]
            out[i:i + 500] = rows @ coef
        return out

    for _ in range(steps):
        coef += lu_solve(lu, (np.asarray(y, np.longdouble) - times(ref.M)).astype(float))
    return times(ref.A), times(ref.A, weight=True) / np.longdouble(sigma) ** 2
