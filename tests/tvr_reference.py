"""ADMM solver for total-variation regularization, kept as the test oracle.

This is the operator-splitting loop that ``derivkit.tvr`` replaced with a
primal-dual interior-point method. It alternates a banded quadratic solve
with soft thresholding and adapts its penalty parameter by residual
balancing; the per-iteration cost is linear in N, but it needs hundreds to
thousands of iterations. It exists only so tests can compare the new
solver's objective against it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from derivkit.tvr import _difference_operator


def _upper_banded(M: sp.spmatrix) -> np.ndarray:
    dia = M.todia()
    ku = int(max(dia.offsets.max(), 0))
    n = M.shape[0]
    ab = np.zeros((ku + 1, n))
    for off in range(ku + 1):
        ab[ku - off, off:] = M.diagonal(off)
    return ab


def admm_tvr(y, dt: float, gamma: float, nu: int = 1, tol: float = 1e-6,
             max_iter: int = 20000):
    """Minimize ``||y - x||^2 + gamma/N * ||E x||_1`` by ADMM.

    Returns ``(x, objective, converged, iterations)``, where ``x`` is the
    iterate with the lowest objective seen.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    E = _difference_operator(n, dt, nu)
    Et = E.T.tocsr()
    EtE = (Et @ E).tocsc()
    weight = gamma / n

    def objective(x):
        return float(np.sum((y - x) ** 2) + weight * np.sum(np.abs(E @ x)))

    identity2 = 2.0 * sp.eye(n, format="csc")
    rho = 20.0 / max(np.abs(EtE).max(), 1e-300)
    factor = cholesky_banded(_upper_banded(identity2 + rho * EtE))

    x = y.copy()
    z = E @ x
    u = np.zeros(E.shape[0])
    scale = tol * np.sqrt(n)
    best_x, best_obj = x, objective(x)
    converged = False
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        x = cho_solve_banded((factor, False), 2.0 * y + rho * (Et @ (z - u)))
        Ex = E @ x
        z_prev = z
        v = Ex + u
        z = np.sign(v) * np.maximum(np.abs(v) - weight / rho, 0.0)
        u += Ex - z
        primal = np.linalg.norm(Ex - z)
        dual = rho * np.linalg.norm(Et @ (z - z_prev))
        if it % 5 == 0:
            obj = objective(x)
            if obj < best_obj:
                best_obj, best_x = obj, x.copy()
        if primal <= scale and dual <= scale:
            converged = True
            break
        if it % 25 == 24:  # residual balancing keeps the iteration count low
            if primal > 10 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10 * primal:
                rho /= 2.0
                u *= 2.0
            else:
                continue
            factor = cholesky_banded(_upper_banded(identity2 + rho * EtE))
    obj = objective(x)
    if obj < best_obj:
        best_obj, best_x = obj, x
    return best_x, best_obj, converged, iterations
