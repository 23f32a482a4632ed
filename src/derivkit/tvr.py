"""Total-variation-regularized derivative estimation.

Minimizes ``||y - x||^2 + gamma * TV(D^nu x)`` where ``D`` is the
second-order finite-difference derivative operator and TV is the normalized
total variation. The l1 term drives the nu-th difference toward sparsity,
giving piecewise-constant (nu=1), piecewise-linear (nu=2), or
piecewise-quadratic (nu=3) derivatives.

Solved by operator splitting (ADMM) on the equivalent problem with a banded
quadratic subproblem, so the per-iteration cost is linear in N. Note the
fidelity term is not normalized by N while TV is, so useful gamma values
grow with the signal length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .core import DerivativeResult, Signal, ValidationError, _require_uniform
from .fd import _first_diff_matrix
from .smoothers import _gaussian_blur


@dataclass(frozen=True)
class TvrSpec:
    """Parameters for a TVR solve."""

    gamma: float
    nu: int = 1
    tol: float = 1e-6
    max_iter: int = 20000
    soften_sigma: float | None = None

    def __post_init__(self):
        if self.nu not in (1, 2, 3):
            raise ValidationError(f"nu must be 1, 2, or 3, got {self.nu}")
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValidationError("tol must be > 0 and max_iter >= 1")
        if self.soften_sigma is not None and self.soften_sigma < 0:
            raise ValidationError("soften_sigma must be >= 0")


def _difference_operator(n: int, dt: float, nu: int) -> sp.csr_matrix:
    """Adjacent differences of the nu-th FD derivative: the TV argument."""
    D = _first_diff_matrix(n, dt)
    Dnu = D
    for _ in range(nu - 1):
        Dnu = D @ Dnu
    adjacent = sp.diags([np.ones(n - 1), -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    return (adjacent @ Dnu).tocsr()


def _upper_banded(M: sp.spmatrix) -> np.ndarray:
    dia = M.todia()
    ku = int(max(dia.offsets.max(), 0))
    n = M.shape[0]
    ab = np.zeros((ku + 1, n))
    for off in range(ku + 1):
        ab[ku - off, off:] = M.diagonal(off)
    return ab


def tvrdiff(signal: Signal, spec: TvrSpec) -> DerivativeResult:
    """TVR smoothing plus a finite-difference read-out of the derivative.

    The solver alternates a banded quadratic solve with soft thresholding,
    adapting the penalty parameter by residual balancing. Among all iterates
    the one with the lowest true objective is returned; non-convergence
    within ``max_iter`` is reported through ``flags['converged']``.
    """
    dt = _require_uniform(signal, "tvrdiff")
    y = signal.values
    n = len(y)
    D1 = _first_diff_matrix(n, dt)
    E = _difference_operator(n, dt, spec.nu)
    Et = E.T.tocsr()
    EtE = (Et @ E).tocsc()
    weight = spec.gamma / n

    def objective(x):
        return float(np.sum((y - x) ** 2) + weight * np.sum(np.abs(E @ x)))

    identity2 = 2.0 * sp.eye(n, format="csc")
    rho = 20.0 / max(np.abs(EtE).max(), 1e-300)
    factor = cholesky_banded(_upper_banded(identity2 + rho * EtE))

    x = y.copy()
    z = E @ x
    u = np.zeros(E.shape[0])
    scale = spec.tol * np.sqrt(n)
    best_x, best_obj = x, objective(x)
    converged = False
    iterations = 0
    for it in range(spec.max_iter):
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

    return DerivativeResult(
        smoothed=best_x,
        derivative=D1 @ best_x,
        method="tvr",
        phi={"nu": spec.nu, "gamma": spec.gamma},
        flags={"converged": converged, "iterations": iterations, "objective": best_obj},
    )


def smooth_accel_tvr(signal: Signal, spec: TvrSpec) -> DerivativeResult:
    """Second-derivative TVR followed by Gaussian softening of the corners."""
    if spec.nu != 2:
        spec = replace(spec, nu=2)
    base = tvrdiff(signal, spec)
    sigma = spec.soften_sigma or 0.0
    return DerivativeResult(
        smoothed=base.smoothed,
        derivative=_gaussian_blur(np.asarray(base.derivative), sigma),
        method="smooth_accel_tvr",
        phi={**base.phi, "soften_sigma": sigma},
        flags=base.flags,
    )
