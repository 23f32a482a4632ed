"""Finite-difference differentiation.

Stencil coefficients come from the Vandermonde linear inverse problem: for
a stencil ``[s_0, ..., s_{S-1}]`` and derivative order ``nu``, solve

    sum_j s_j^i * c_j = (nu! / dx^nu) * delta(i, nu),  i = 0..S-1

Centered schemes are used on the interior and one-sided schemes of matching
accuracy at the edges. One plan holds every stencil: ``fd_derivative``, every
``iterated_fd`` pass and TVR's sparse difference matrix apply it.

- Uniform plans are solved by LAPACK once per (N, nu, order, dt), in steps
  scaled by ``dt^-nu``, and kept read-only in a small cache.
- Irregular plans are solved once per call, in units of the independent
  variable, by the Björck–Pereyra algorithm (Math. Comp. 24, 1970; error
  analysis by Higham, Numer. Math. 50, 1987), batched over every window with
  no LAPACK call per sample. Against the exact rational solutions of jittered
  windows it loses at most ~5e-15 relative at orders 2-8, where LAPACK lost
  up to ~8e-13 at order 8.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.polynomial import polyvander

from .core import (
    ConditioningWarning,
    DerivativeResult,
    Signal,
    ValidationError,
    _cumtrapz,
    _require_finite_settings,
    _require_int,
    _require_uniform,
)

#: Condition number ``|V|_1 |V^-1|_1`` (the 1-norm: largest absolute column sum)
#: above which a stencil solve emits a ConditioningWarning. ``V`` is taken in each
#: stencil's offsets over their largest magnitude, so uniform plans,
#: ``stencil_coefficients`` and irregular stencils read one figure for one window shape,
#: whatever the unit of the variable.
CONDITION_LIMIT = 1e12
#: ``_iterated_fd`` keeps every ``ITERATE_STRIDE``-th iterate in its memo for later calls.
ITERATE_STRIDE = 8


@dataclass(frozen=True)
class Stencil:
    """Sample offsets combined linearly to approximate a derivative.

    ``offsets`` are integer multiples of the step for uniform grids, or raw
    distances in units of the independent variable for irregular ones.
    """

    offsets: tuple
    nu: int

    def __post_init__(self):
        offs = tuple(float(s) for s in self.offsets)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "nu", _require_int("derivative order", self.nu, 1))
        for s in offs:
            _require_finite_settings(offsets=s)
        if len(offs) <= self.nu:
            raise ValidationError(
                f"stencil length {len(offs)} must exceed derivative order {self.nu}"
            )
        if len(set(offs)) != len(offs):
            raise ValidationError("stencil offsets must be distinct")


def _warn_if_ill_conditioned(cond: float, stacklevel: int) -> None:
    """Warn when the worst condition number ``cond`` of a batch of stencils exceeds
    :data:`CONDITION_LIMIT`, or is NaN; ``stacklevel`` counts from the caller of this
    function."""
    if not cond <= CONDITION_LIMIT:
        warnings.warn(
            f"stencil system condition number {cond:.2e} exceeds {CONDITION_LIMIT:.0e}; "
            "coefficients may be inaccurate",
            ConditioningWarning,
            stacklevel=stacklevel + 1,
        )


def _vandermonde_solve(locs: np.ndarray, nu: int, rhs_scale: float, stacklevel=3) -> np.ndarray:
    """Coefficients for each row of ``locs`` (``(..., S)``) by LAPACK; warns on the
    worst-conditioned, measured as :func:`_bjorck_pereyra` does, on the offsets over
    their largest magnitude. Offsets whose powers leave float64 give NaN
    coefficients, and warn with a NaN condition number."""
    S = locs.shape[-1]
    V = np.swapaxes(polyvander(locs, S - 1), -1, -2)
    rhs = np.zeros(locs.shape + (1,))
    rhs[..., nu, 0] = math.factorial(nu) * rhs_scale
    c = np.linalg.solve(V, rhs)[..., 0]
    Vs = np.swapaxes(polyvander(locs / np.abs(locs).max(-1, keepdims=True), S - 1), -1, -2)
    cond = np.max(np.abs(Vs).sum(-2).max(-1) * np.abs(np.linalg.inv(Vs)).sum(-2).max(-1))
    _warn_if_ill_conditioned(cond if np.isfinite(c).all() else math.nan, stacklevel)
    return c


def _bjorck_pereyra(locs: np.ndarray, nu: int) -> tuple[np.ndarray, float]:
    """Coefficients, ``(P, S)``, of the ``P`` stencils that are the columns of ``locs``
    (``(S, P)``, distances in units of the variable), and their worst condition number.

    The Björck–Pereyra algorithm for ``V x = b`` with ``V[i, j] = locs[j]^i`` (Higham,
    "Accuracy and Stability of Numerical Algorithms", ch. 22) runs on the ``S`` unit
    right-hand sides at once, window index last, so it gives each ``V^-1``: the
    coefficients are its column ``nu`` times ``nu!``. The condition number is
    ``|V_s|_1 |V_s^-1|_1`` of the window's distances divided by their largest magnitude
    ``s``, so it does not depend on the unit of the variable: ``V_s = diag(s^-i) V``, and
    ``V_s^-1 = V^-1 diag(s^i)`` is taken in logarithms, where ``s^i`` could overflow.
    """
    S = len(locs)
    inv = np.zeros((S, S, locs.shape[1]))
    inv[np.arange(S), np.arange(S)] = 1.0
    for k in range(S - 1):
        inv[k + 1 :] -= locs[k] * inv[k:-1]
    for k in range(S - 2, -1, -1):
        inv[k + 1 :] /= (locs[k + 1 :] - locs[: S - k - 1])[:, None]
        inv[k:-1] -= inv[k + 1 :]
    scale = np.abs(locs).max(0)
    v_norm = np.abs(polyvander(locs / scale, S - 1)).sum(-1).max(0)
    with np.errstate(divide="ignore"):  # a zero column sum adds nothing to the norm
        log_inv = np.log(np.abs(inv).sum(0)) + np.arange(S)[:, None] * np.log(scale)
    cond = np.max(v_norm * np.exp(log_inv.max(0)))
    return np.ascontiguousarray(inv[:, nu].T * math.factorial(nu)), cond


def stencil_coefficients(stencil: Stencil, dx: float) -> np.ndarray:
    """Coefficients ``c`` with ``sum_j c_j y(t + s_j dx) ~ y^(nu)(t)``.

    Error is O(dx^(S-nu)), one order better for even ``nu`` on symmetric
    odd-length stencils.
    """
    _require_finite_settings(dx=dx)
    if dx <= 0:
        raise ValidationError(f"dx must be positive, got {dx}")
    return _vandermonde_solve(np.asarray(stencil.offsets), stencil.nu,
                              _step_scale(dx, stencil.nu, "dx"))


def _step_scale(step: float, nu: int, name: str) -> float:
    """``step ** -nu``, refused with a ValidationError naming ``name`` when it overflows
    or falls below float64's normal range (where the coefficients would be 0 or lose
    digits)."""
    try:
        scale = float(step) ** -nu
    except OverflowError:
        scale = math.inf
    if not sys.float_info.min <= scale < math.inf:
        raise ValidationError(f"{name}={step:g} puts {name}**-{nu} outside float64's normal range")
    return scale


def irregular_coefficients(distances, nu: int) -> np.ndarray:
    """Stencil coefficients for distances given in units of the variable.

    ``distances`` are signed offsets from the evaluation point (zero allowed),
    solved by Björck–Pereyra as the irregular ``fd`` plan is. Agrees to rounding
    with :func:`stencil_coefficients` when the distances are integer multiples
    of a common step. Coefficients that leave float64's range (distances near
    1e-200 at ``nu`` 2) raise a ValidationError.
    """
    d = np.asarray(distances, dtype=float)
    for x in d:
        _require_finite_settings(distances=x)
    stencil = Stencil(tuple(d), nu)  # validates distinctness and length
    c, cond = _bjorck_pereyra(np.asarray(stencil.offsets)[:, None], stencil.nu)
    _warn_if_ill_conditioned(cond, 2)
    if not np.isfinite(c).all():
        raise ValidationError(
            f"distances {list(stencil.offsets)} give nu={stencil.nu} stencil coefficients "
            "outside float64's range")
    return c[0]


def _effective_order(size: int, nu: int) -> int:
    """Accuracy order of a centered odd-length stencil of ``size`` points."""
    m = size - nu
    return m if m % 2 == 0 else m + 1


def _centered_halfwidth(nu: int, order: int) -> int:
    h = max((nu + 1) // 2, 1)
    while _effective_order(2 * h + 1, nu) < order:
        h += 1
    return h


def _edge_plan(n_points: int, nu: int, order: int):
    """``(h, edges)``: points ``h <= n < N - h`` use the window ``[n - h, n + h]``;
    ``edges`` lists ``(n, lo, size)`` for the other 2h, shrunk or one-sided."""
    h = _centered_halfwidth(nu, order)
    s_edge = nu + 2  # one-sided stencil with second-order accuracy
    if n_points < max(2 * h + 1, s_edge):
        raise ValidationError(
            f"need at least {max(2 * h + 1, s_edge)} samples for nu={nu}, order={order}; "
            f"got {n_points}"
        )
    edges = []
    for n in [*range(h), *range(n_points - h, n_points)]:
        h_avail = min(n, n_points - 1 - n)
        if 2 * h_avail + 1 > nu and h_avail >= 1:
            edges.append((n, n - h_avail, 2 * h_avail + 1))
        else:
            edges.append((n, min(max(n - s_edge // 2, 0), n_points - s_edge), s_edge))
    return h, edges


class _FdPlan(NamedTuple):
    """Points ``h <= n < N - h`` take the centered ``interior`` coefficients (one row, or
    one per point on an irregular grid); ``edges`` lists ``(n, window, c)``: ``c @ y[window]``."""

    h: int
    interior: np.ndarray
    edges: tuple

    def apply(self, y: np.ndarray) -> np.ndarray:
        deriv = np.empty(len(y))
        inner = slice(self.h, len(y) - self.h)
        if self.interior.ndim == 1:
            deriv[inner] = np.convolve(y, self.interior[::-1], mode="valid")
        else:
            deriv[inner] = np.vecdot(self.interior, sliding_window_view(y, 2 * self.h + 1))
        for n, window, c in self.edges:
            deriv[n] = c @ y[window]
        return deriv


def _read_only(plan: _FdPlan) -> _FdPlan:
    """``plan`` with its coefficient arrays made read-only, for sharing from a cache."""
    for c in (plan.interior, *(c for _, _, c in plan.edges)):
        c.flags.writeable = False
    return plan


def _fd_plan(n_points: int, nu: int, order: int, dt: float | None, t=None) -> _FdPlan:
    """The plan on a uniform grid of step ``dt`` (stencils in steps solved by LAPACK,
    scaled by ``dt^-nu``; cached, read-only), or, for ``dt=None``, on the irregular
    points ``t``: every interior window in one Björck–Pereyra batch, then each edge
    stencil. One ConditioningWarning covers the whole plan.

    Uniform plans keep LAPACK because the tuner's goldens pin the bits of ``fd``,
    ``iterated_fd`` and ``kernel``, and Björck–Pereyra matches LAPACK's bits on only 6
    of the 21 uniform stencils of nu 1-3 and orders 2-8 (at dt = 0.01)."""
    if dt is not None:
        return _uniform_plan(n_points, nu, order, dt)
    h, edges = _edge_plan(n_points, nu, order)
    interior, cond = _bjorck_pereyra(
        sliding_window_view(t, 2 * h + 1).T - t[h : n_points - h], nu)
    solved = []
    for n, lo, size in edges:
        c, edge_cond = _bjorck_pereyra((t[lo : lo + size] - t[n])[:, None], nu)
        solved.append((n, slice(lo, lo + size), c[0]))
        cond = max(cond, edge_cond)
    _warn_if_ill_conditioned(cond, 3)
    return _FdPlan(h, interior, tuple(solved))


@lru_cache(maxsize=32)
def _uniform_plan(n_points: int, nu: int, order: int, dt: float) -> _FdPlan:
    """``_fd_plan`` on a uniform grid, built once per (N, nu, order, dt)."""
    h, edges = _edge_plan(n_points, nu, order)
    scale = _step_scale(dt, nu, "dt")
    interior = _vandermonde_solve(np.arange(-h, h + 1.0), nu, scale, stacklevel=5)
    return _read_only(_FdPlan(h, interior, tuple(
        (n, slice(lo, lo + size),
         _vandermonde_solve(np.arange(lo - n, lo - n + size, 1.0), nu, scale, stacklevel=5))
        for n, lo, size in edges)))


def fd_derivative(signal: Signal, nu: int = 1, *, order: int) -> DerivativeResult:
    """Pointwise finite-difference derivative; does no smoothing.

    Interior points use centered schemes of accuracy order ``order``, which has no
    default (the registry's ``fd`` holds it); edge points fall back to one-sided
    second-order schemes and near-edge points shrink the centered stencil rather than
    grow a one-sided one.
    Irregular grids take one batched Björck–Pereyra solve over the interior
    windows, in units of the independent variable. ``nu`` must be a whole number >= 1.
    """
    nu, order = _require_int("derivative order", nu, 1), _require_int("order", order, 1)
    y = signal.values
    plan = _fd_plan(len(y), nu, order, signal.grid.dt, signal.grid.points)
    return DerivativeResult(smoothed=y, derivative=plan.apply(y), method="fd",
                            phi={"nu": nu, "order": order})


@lru_cache(maxsize=32)
def _iterated_plans(n_points: int, order: int, dt: float) -> tuple[_FdPlan, _FdPlan]:
    """``iterated_fd``'s read-only derivative plan and its smoothing plan."""
    plan = _fd_plan(n_points, 1, order, dt)
    return plan, _read_only(_smoothing_plan(plan, n_points, dt))


def _smoothing_plan(plan: _FdPlan, n_points: int, dt: float) -> _FdPlan:
    """``plan`` (nu = 1) with endpoint stencils [0, 2, 4] / [0, -2, -4]: with the shrunk
    centered ones near the edges, every coefficient satisfies ``|c * dt| <= 1``."""
    c, last = _vandermonde_solve(np.array([0.0, 2.0, 4.0]), 1, dt ** -1), n_points - 1
    ends = (0, [0, 2, 4], c), (last, [last, last - 2, last - 4], -c)
    return plan._replace(edges=(ends[0], *plan.edges[1:-1], ends[1]))


def iterated_fd(signal: Signal, order: int, iterations: int) -> DerivativeResult:
    """Smooth by ``iterations`` differentiate-then-integrate passes, then differentiate
    at accuracy order ``order``; neither has a default (the registry's ``iterated_fd``
    holds both).

    Each iteration applies the ``fd`` first-derivative plan, with edge-safe
    endpoint stencils, cumulatively integrates with the trapezoid rule, and
    re-anchors the lost integration constant as a mean offset. One round is
    equivalent to an IIR low-pass filter; more iterations sharpen the cutoff.
    Uniform grids only; the stencils are solved once per (N, order, dt).
    """
    return _iterated_fd(signal, order, iterations, {})


def _iterated_fd(signal: Signal, order: int, iterations: int, memo: dict) -> DerivativeResult:
    """:func:`iterated_fd`, continuing from the furthest iterate at or below ``iterations``
    that ``memo`` holds for this signal.

    ``memo[order]`` maps a pass count to the values after that many passes. It keeps
    every ``ITERATE_STRIDE``-th pass and the furthest one, so a later call runs fewer than
    ``ITERATE_STRIDE`` passes unless it goes beyond the furthest; at 200 passes it holds
    25 arrays. Each pass is the same arithmetic, so the result keeps every bit.
    """
    dt = _require_uniform(signal, "iterated_fd")
    order, iterations = _require_int("order", order, 1), _require_int("iterations", iterations, 0)
    if iterations and len(signal) < (needed := max(2 * _centered_halfwidth(1, order) + 1, 5)):
        raise ValidationError(f"iterated_fd needs at least {needed} samples")
    plan, smoothing = _iterated_plans(len(signal), order, dt)
    iterates = memo.setdefault(order, {})
    furthest = max(iterates, default=0)
    start = max((k for k in iterates if k <= iterations), default=0)
    z = iterates[start] if start else np.array(signal.values)
    for k in range(start + 1, iterations + 1):
        integ = _cumtrapz(signal.grid, smoothing.apply(z))
        z = integ + (z.mean() - integ.mean())
        if k % ITERATE_STRIDE == 0:
            iterates[k] = z
    if iterations > furthest:
        if furthest % ITERATE_STRIDE:
            del iterates[furthest]
        iterates[iterations] = z
    return DerivativeResult(smoothed=z, derivative=plan.apply(z), method="iterated_fd",
                            phi={"order": order, "iterations": iterations})


def _first_diff_matrix(n_points: int, dt: float) -> sp.csr_matrix:
    """The order-2 first-derivative plan as a sparse matrix (explicit zeros dropped)."""
    h, interior, edges = _fd_plan(n_points, 1, 2, dt)
    inner = np.arange(h, n_points - h)
    rows = np.concatenate([np.repeat(inner, 2 * h + 1), *(np.full(len(c), n) for n, _, c in edges)])
    cols = np.concatenate([(inner[:, None] + np.arange(-h, h + 1)).ravel(),
                           *(np.arange(n_points)[window] for _, window, _ in edges)])
    vals = np.concatenate([np.tile(interior, len(inner)), *(c for _, _, c in edges)])
    keep = vals != 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_points, n_points))
