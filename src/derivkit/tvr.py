"""Total-variation-regularized derivative estimation.

Minimizes ``||y - x||^2 + gamma * TV(D^nu x)`` where ``D`` is the
second-order finite-difference derivative operator and TV is the normalized
total variation. The l1 term drives the nu-th difference toward sparsity,
giving piecewise-constant (nu=1), piecewise-linear (nu=2), or
piecewise-quadratic (nu=3) derivatives.

Solved by a primal-dual interior-point method on the problem and its
box-constrained dual (Kim, Koh, Boyd & Gorinevsky, "l1 trend filtering",
SIAM Review 2009). Each Newton step solves one banded system, so an
iteration costs O(N), and the iteration count hardly grows with N (17 to 32
at N = 1e4 with the registry defaults). The solver stops on a certified
relative duality gap, ``TvrSpec.tol``. Note the fidelity term is not
normalized by N while TV is, so useful gamma values grow with the signal
length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .core import (DerivativeResult, Signal, ValidationError, _band, _require_finite_settings,
                   _require_uniform, _solve_banded)
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
        if self.nu not in (1, 2, 3):
            raise ValidationError(f"nu must be 1, 2, or 3, got {self.nu}")
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValidationError("tol must be > 0 and max_iter >= 1")
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


def _interior_point(y: np.ndarray, E: sp.csr_matrix, weight: float, tol: float,
                    max_iter: int):
    """Minimize ``||y - x||^2 + weight * ||E x||_1`` by a primal-dual interior-point method.

    ``E`` is scaled to unit maximum row norm and ``lam = weight * scale / 2``.
    The dual of the problem is ``min_{|z| <= lam} 1/2 ||E^T z||^2 - (E y)^T z``
    with ``x = y - E^T z`` at the optimum (Kim, Koh, Boyd & Gorinevsky, SIAM
    Review 2009). Newton steps are taken on the barrier-perturbed optimality
    conditions in ``x``, ``z`` and the box multipliers ``mu1, mu2``; each
    solves one banded system ``[[I, E^T], [E, -diag(barrier)]]``; eliminating
    ``x`` from it would give the dual Newton matrix ``E E^T + diag(barrier)``.
    Keeping ``x`` an unknown of the system, rather than recovering it as
    ``y - E^T z``, keeps the steps accurate when ``E E^T`` is numerically
    singular: its condition number reaches 1e20 at N = 2000, nu = 3, where
    large gamma leaves the box inactive on long stretches.

    Every iterate gives an objective value and, through its dual point, a
    lower bound ``2 (E y)^T z - ||E^T z||^2``. The method stops once the best
    objective exceeds the best bound by at most ``tol`` relative, or by no
    more than the rounding error of evaluating ``lam ||E x||_1``. Returns the
    best ``x``, its objective, the relative gap, whether it converged and
    the iteration count.
    """
    m = E.shape[0]
    scale = float(np.sqrt(E.multiply(E).sum(axis=1).max())) or 1.0  # E = 0 for N = 3, nu >= 2
    E = (E / scale).tocsr()
    Et = E.T.tocsr()
    abs_E = abs(E)
    lam = 0.5 * weight * scale
    k, kkt = _kkt_band(E)
    z_diag = (k, slice(1, None, 2))
    rhs = np.zeros(kkt.shape[1])
    # rounding error of one entry of E x, relative to (|E| |x|)_i
    rounding = np.finfo(float).eps * float(np.max(np.diff(E.indptr)))
    Ey = E @ y

    x = y.copy()
    z = np.zeros(m)
    mu1 = np.ones(m)
    mu2 = np.ones(m)
    t = 1e-10
    step = np.inf

    def residuals(x, z, mu1, mu2):
        return (x + Et @ z - y, mu1 - mu2 - E @ x,
                mu1 * (lam - z) - 1.0 / t, mu2 * (lam + z) - 1.0 / t)

    def norm(res):
        return np.sqrt(sum(r @ r for r in res))

    best_x, best_obj, best_bound = x, np.inf, 0.0
    converged = False
    iterations = 0
    for it in range(max_iter + 1):
        obj = float(np.sum((y - x) ** 2) + 2.0 * lam * np.sum(np.abs(E @ x)))
        if obj < best_obj:
            best_obj, best_x = obj, x
        Etz = Et @ z
        best_bound = max(best_bound, float(2.0 * (Ey @ z) - Etz @ Etz))
        resolution = 2.0 * lam * rounding * float(np.sum(abs_E @ np.abs(best_x)))
        if best_obj - best_bound <= max(tol * best_obj, resolution):
            converged = True
            break
        if it == max_iter:
            break
        iterations = it + 1
        if step >= 0.2:  # after a short step, recentre before tightening the barrier
            t = max(4.0 * m * _MU / (best_obj - best_bound), 1.2 * t)
        s1, s2 = lam - z, lam + z
        res = residuals(x, z, mu1, mu2)
        r_p, r_d, r_c1, r_c2 = res
        kkt[z_diag] = -(mu1 / s1 + mu2 / s2)
        rhs[0::2] = -r_p
        rhs[1::2] = r_d - r_c1 / s1 + r_c2 / s2
        sol = _solve_banded(k, kkt, rhs, "singular Newton system in tvrdiff")
        dx, dz = sol[0::2], sol[1::2]
        dmu1 = (mu1 * dz - r_c1) / s1
        dmu2 = -(mu2 * dz + r_c2) / s2

        # the multipliers and the box slacks stay positive along the step
        step = 1.0
        for v, dv in ((mu1, dmu1), (mu2, dmu2), (s1, -dz), (s2, dz)):
            neg = dv < 0
            if np.any(neg):
                step = min(step, _STEP_FRACTION * float(np.min(-v[neg] / dv[neg])))
        r_norm = norm(res)
        for _ in range(_MAX_BACKTRACK):
            new = (x + step * dx, z + step * dz, mu1 + step * dmu1, mu2 + step * dmu2)
            if norm(residuals(*new)) <= (1.0 - _ALPHA * step) * r_norm:
                break
            step *= _BETA
        x, z, mu1, mu2 = new
    gap = (best_obj - best_bound) / best_obj if best_obj > 0 else 0.0
    return best_x, best_obj, gap, converged, iterations


def tvrdiff(signal: Signal, spec: TvrSpec) -> DerivativeResult:
    """TVR smoothing plus a finite-difference read-out of the derivative.

    The objective is minimized by a primal-dual interior-point method whose
    Newton steps each solve one banded system. ``spec.tol`` is the relative
    duality gap ``(objective - dual bound) / objective`` at which it stops,
    and ``spec.max_iter`` caps the number of Newton iterations. The iterate
    with the lowest objective is returned; ``flags`` report ``converged``,
    ``iterations``, ``objective`` and the certified relative
    ``duality_gap``. A ``spec.soften_sigma`` blurs the derivative with a
    Gaussian of that many samples and is recorded in ``phi``.
    """
    dt = _require_uniform(signal, "tvrdiff")
    y = signal.values
    n = len(y)
    D = _first_diff_matrix(n, dt)
    E = _difference_operator(n, dt, spec.nu, D)
    x, obj, gap, converged, iterations = _interior_point(y, E, spec.gamma / n, spec.tol,
                                                         spec.max_iter)
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
               "duality_gap": gap},
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
