"""Total-variation-regularized derivative estimation.

Minimizes ``||y - x||^2 + gamma * TV(D^nu x)`` where ``D`` is the
second-order finite-difference derivative operator and TV is the normalized
total variation. The l1 term drives the nu-th difference toward sparsity,
giving piecewise-constant (nu=1), piecewise-linear (nu=2), or
piecewise-quadratic (nu=3) derivatives.

Solved by a primal-dual interior-point method on the problem and its
box-constrained dual (Kim, Koh, Boyd & Gorinevsky, "l1 trend filtering",
SIAM Review 2009). Each Newton step is one banded Cholesky solve of the dual
Schur complement ``E E^T + diag(b)``, as in that paper, so an iteration
costs O(N), and the iteration count hardly grows with N (17 to 32 at
N = 1e4 with the registry defaults). ``E`` has N - 1 rows and rank
N - 1 - nu, so ``E E^T`` is singular, with a nu-dimensional null space, at
every N and gamma: only the barrier diagonal ``b`` makes the complement
definite, and the Cholesky can break down wherever ``b`` is negligible on
``null(E^T)``. That step instead solves the full KKT system in ``x`` and
the dual variable by a pivoting banded LU, and ``flags["lu_steps"]``
counts such steps. The solver stops on a certified relative duality gap,
``TvrSpec.tol``. Note the fidelity term is not normalized by N while TV is,
so useful gamma values grow with the signal length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .core import (DerivativeResult, Signal, ValidationError, _band, _require_finite_settings,
                   _require_int, _require_uniform, _solve_banded, _solve_spd_banded)
from .fd import _first_diff_matrix
from .smoothers import _gaussian_blur


#: The barrier weight is raised to ``_MU`` times the number of box constraints
#: (2 per row of E) over the duality gap of ``1/2 ||y - x||^2 + lam ||E x||_1``.
_MU = 2.0
#: Fraction of the distance to the boundary that a step may cover.
_STEP_FRACTION = 0.99
#: Backtracking line search: sufficient residual decrease, shrink factor, tries.
_ALPHA = 0.01
_BETA = 0.5
_MAX_BACKTRACK = 20


@dataclass(frozen=True)
class TvrSpec:
    """Parameters for a TVR solve.

    ``tol`` is the relative duality gap at which the solver stops and
    ``max_iter`` the largest number of Newton iterations it takes;
    ``soften_sigma``, when set, is the width in samples of a Gaussian that
    blurs the derivative.
    """

    gamma: float
    nu: int = 1
    tol: float = 1e-8
    max_iter: int = 100
    soften_sigma: float | None = None

    def __post_init__(self):
        _require_finite_settings(gamma=self.gamma, tol=self.tol, soften_sigma=self.soften_sigma)
        object.__setattr__(self, "nu", _require_int("nu", self.nu, 1, 3))
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if self.tol <= 0:
            raise ValidationError(f"tol must be > 0, got {self.tol}")
        object.__setattr__(self, "max_iter", _require_int("max_iter", self.max_iter, 1))
        if self.soften_sigma is not None and self.soften_sigma < 0:
            raise ValidationError("soften_sigma must be >= 0")


def _difference_operator(n: int, dt: float, nu: int, D=None) -> sp.csr_matrix:
    """The TV argument: adjacent differences of ``D^nu`` (``D`` is built unless given)."""
    D = _first_diff_matrix(n, dt) if D is None else D
    Dnu = D
    for _ in range(nu - 1):
        Dnu = D @ Dnu
    adjacent = sp.diags([np.ones(n - 1), -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    return (adjacent @ Dnu).tocsr()


def _kkt_band(E: sp.csr_matrix) -> tuple[int, np.ndarray]:
    """``[[I, E^T], [E, 0]]`` as ``core._band`` stores it, the unknowns interleaved
    (``x_0, z_0, x_1, z_1, ...``) to keep the band narrow; the ``z`` diagonal (row ``k``,
    odd columns) is left zero for the caller to fill."""
    m, n = E.shape
    coo = E.tocoo()
    rows = np.concatenate([2 * coo.col, 2 * coo.row + 1, 2 * np.arange(n)])
    cols = np.concatenate([2 * coo.row + 1, 2 * coo.col, 2 * np.arange(n)])
    vals = np.concatenate([coo.data, coo.data, np.ones(n)])
    return _band(rows, cols, vals, n + m)


def _schur_band(E: sp.csr_matrix, Et: sp.csr_matrix) -> np.ndarray:
    """The lower band of ``E E^T`` as ``core._solve_spd_banded`` reads it,
    ``band[i - j, j] = (E E^T)[i, j]``, Fortran-ordered for cheap per-step copies."""
    coo = (E @ Et).tocoo()  # a sparse product holds no duplicate entries
    lower = coo.row >= coo.col
    d, j = coo.row[lower] - coo.col[lower], coo.col[lower]
    band = np.zeros((int(d.max(initial=0)) + 1, E.shape[0]), order="F")
    band[d, j] = coo.data[lower]
    return band


def _interior_point(y: np.ndarray, E: sp.csr_matrix, weight: float, tol: float,
                    max_iter: int):
    """Minimize ``||y - x||^2 + weight * ||E x||_1`` by a primal-dual interior-point method.

    ``E`` is scaled to unit maximum row norm and ``lam = weight * scale / 2``.
    The dual of the problem is ``min_{|z| <= lam} 1/2 ||E^T z||^2 - (E y)^T z``
    with ``x = y - E^T z`` at the optimum (Kim, Koh, Boyd & Gorinevsky, SIAM
    Review 2009). Newton steps are taken on the barrier-perturbed optimality
    conditions in ``x``, ``z`` and the box multipliers ``mu1, mu2``, whose
    linear system is ``[[I, E^T], [E, -diag(b)]] [dx; dz] = [-r_p; r_z]``
    with the barrier ``b = mu1 / s1 + mu2 / s2`` on the box slacks ``s1, s2``
    and the primal residual ``r_p = x + E^T z - y``. Each step eliminates
    ``dx``: the dual Schur complement ``E E^T + diag(b)`` is symmetric, positive
    definite for ``b > 0``, with half-bandwidth ``2 nu + 1``, and one banded Cholesky of
    ``(E E^T + diag(b)) dz = -E r_p - r_z`` gives ``dz``, then
    ``dx = -r_p - E^T dz``. The band of ``E E^T`` is built once per solve.

    ``E E^T`` alone is singular: ``E`` has N - 1 rows and rank N - 1 - nu, so
    its null space has dimension nu at every N and gamma. Wherever ``b`` is
    negligible on ``null(E^T)``, the Cholesky can break down, not only at
    nu = 3 or large gamma. That step then solves the interleaved system
    itself by a pivoting banded LU, which keeps ``x`` an unknown and so stays
    accurate; its band is built on the first such step, and these steps are
    counted in ``lu_steps``.

    Every iterate gives an objective value and, through its dual point, a
    lower bound ``2 (E y)^T z - ||E^T z||^2``. The method stops once the best
    objective exceeds the best bound by at most ``tol`` relative, or by no
    more than the rounding error of evaluating ``lam ||E x||_1``. Returns the
    best ``x``, its objective, the relative gap, whether it converged, the
    iteration count and the number of LU steps.
    """
    m = E.shape[0]
    scale = float(np.sqrt(E.multiply(E).sum(axis=1).max())) or 1.0  # E = 0 for N = 3, nu >= 2
    E = (E / scale).tocsr()
    Et = E.T.tocsr()
    abs_E = abs(E)
    lam = 0.5 * weight * scale
    schur = _schur_band(E, Et)
    kkt = None  # the interleaved LU's band, built on the first Cholesky breakdown
    lu_steps = 0
    # rounding error of one entry of E x, relative to (|E| |x|)_i
    rounding = np.finfo(float).eps * float(np.max(np.diff(E.indptr)))
    Ey = E @ y

    x = y.copy()
    z = np.zeros(m)
    mu1 = np.ones(m)
    mu2 = np.ones(m)
    Ex, Etz = E @ x, Et @ z
    t = 1e-10
    step = np.inf

    def residuals(x, z, mu1, mu2, Ex, Etz):
        return (x + Etz - y, mu1 - mu2 - Ex,
                mu1 * (lam - z) - 1.0 / t, mu2 * (lam + z) - 1.0 / t)

    def norm(res):
        return np.sqrt(sum(r @ r for r in res))

    best_x, best_obj, best_bound = x, np.inf, 0.0
    converged = False
    iterations = 0
    for it in range(max_iter + 1):
        obj = float(np.sum((y - x) ** 2) + 2.0 * lam * np.sum(np.abs(Ex)))
        if obj < best_obj:
            best_obj, best_x = obj, x
        best_bound = max(best_bound, float(2.0 * (Ey @ z) - Etz @ Etz))
        # the rounding bound only matters, and is only computed, where the gap test fails
        excess = best_obj - best_bound
        if excess <= tol * best_obj or excess <= 2.0 * lam * rounding * float(
                np.sum(abs_E @ np.abs(best_x))):
            converged = True
            break
        if it == max_iter:
            break
        iterations = it + 1
        if step >= 0.2:  # after a short step, recentre before tightening the barrier
            t = max(4.0 * m * _MU / (best_obj - best_bound), 1.2 * t)
        s1, s2 = lam - z, lam + z
        res = residuals(x, z, mu1, mu2, Ex, Etz)
        r_p, r_d, r_c1, r_c2 = res
        b = mu1 / s1 + mu2 / s2
        r_z = r_d - r_c1 / s1 + r_c2 / s2
        ab = schur.copy(order="F")
        ab[0] += b
        dz = _solve_spd_banded(ab, -(E @ r_p) - r_z)
        if dz is not None:
            dx = -r_p - Et @ dz
        else:
            lu_steps += 1
            if kkt is None:
                k, kkt = _kkt_band(E)
                rhs = np.zeros(kkt.shape[1])
            kkt[k, 1::2] = -b  # the z diagonal
            rhs[0::2] = -r_p
            rhs[1::2] = r_z
            sol = _solve_banded(k, kkt, rhs, "singular Newton system in tvrdiff")
            dx, dz = sol[0::2], sol[1::2]
        dmu1 = (mu1 * dz - r_c1) / s1
        dmu2 = -(mu2 * dz + r_c2) / s2

        # the multipliers and the box slacks stay positive along the step
        step = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for v, dv in ((mu1, dmu1), (mu2, dmu2), (s1, -dz), (s2, dz)):
                step = min(step, _STEP_FRACTION * float(np.min(np.where(dv < 0, -v / dv, np.inf))))
        r_norm = norm(res)
        for _ in range(_MAX_BACKTRACK):
            new = (x + step * dx, z + step * dz, mu1 + step * dmu1, mu2 + step * dmu2)
            Ex, Etz = E @ new[0], Et @ new[1]
            if norm(residuals(*new, Ex, Etz)) <= (1.0 - _ALPHA * step) * r_norm:
                break
            step *= _BETA
        x, z, mu1, mu2 = new
    gap = (best_obj - best_bound) / best_obj if best_obj > 0 else 0.0
    return best_x, best_obj, gap, converged, iterations, lu_steps


def tvrdiff(signal: Signal, spec: TvrSpec) -> DerivativeResult:
    """TVR smoothing plus a finite-difference read-out of the derivative.

    The objective is minimized by a primal-dual interior-point method whose
    Newton steps each solve one banded system. ``spec.tol`` is the relative
    duality gap ``(objective - dual bound) / objective`` at which it stops,
    and ``spec.max_iter`` caps the number of Newton iterations. The iterate
    with the lowest objective is returned; ``flags`` report ``converged``,
    ``iterations``, ``objective``, the certified relative ``duality_gap``,
    and ``lu_steps``, the Newton steps that fell back from the banded
    Cholesky to the LU. A ``spec.soften_sigma`` blurs the derivative with a
    Gaussian of that many samples and is recorded in ``phi``.
    """
    dt = _require_uniform(signal, "tvrdiff")
    y = signal.values
    n = len(y)
    D = _first_diff_matrix(n, dt)
    E = _difference_operator(n, dt, spec.nu, D)
    x, obj, gap, converged, iterations, lu_steps = _interior_point(
        y, E, spec.gamma / n, spec.tol, spec.max_iter)
    phi = {"nu": spec.nu, "gamma": spec.gamma}
    derivative = D @ x
    if spec.soften_sigma is not None:
        derivative = _gaussian_blur(derivative, spec.soften_sigma)
        phi["soften_sigma"] = spec.soften_sigma
    return DerivativeResult(
        smoothed=x,
        derivative=derivative,
        method="tvr",
        phi=phi,
        flags={"converged": converged, "iterations": iterations, "objective": obj,
               "duality_gap": gap, "lu_steps": lu_steps},
    )


def smooth_accel_tvr(signal: Signal, spec: TvrSpec) -> DerivativeResult:
    """Second-derivative TVR followed by Gaussian softening of the corners:
    :func:`tvrdiff` at ``nu = 2`` (any other ``nu`` is refused), with no softening
    (``soften_sigma`` 0) when ``spec`` sets none."""
    if spec.nu != 2:
        raise ValidationError(f"smooth_accel_tvr penalizes nu = 2, got nu = {spec.nu}")
    _require_uniform(signal, "smooth_accel_tvr")
    result = tvrdiff(signal, replace(spec, soften_sigma=spec.soften_sigma or 0.0))
    return replace(result, method="smooth_accel_tvr")
