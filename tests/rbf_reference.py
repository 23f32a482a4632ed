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
from scipy.linalg import solve_banded


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
