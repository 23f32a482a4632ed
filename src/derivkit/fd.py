"""Finite-difference differentiation.

Stencil coefficients come from the Vandermonde linear inverse problem: for
a stencil ``[s_0, ..., s_{S-1}]`` and derivative order ``nu``, solve

    sum_j s_j^i * c_j = (nu! / dx^nu) * delta(i, nu),  i = 0..S-1

Centered schemes are used on the interior and one-sided schemes of matching
accuracy at the edges. Irregular grids solve one Vandermonde system per
sample in units of the independent variable, batched over the interior.
One plan holds every stencil: ``fd_derivative``, every ``iterated_fd`` pass
and TVR's sparse difference matrix apply it. Uniform plans are solved once
per (N, nu, order, dt) and kept read-only in a small cache; irregular plans
are solved once per call.
"""

from __future__ import annotations

import math
import numbers
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
    _require_uniform,
)

#: Condition number ``|V|_1 |V^-1|_1`` (the 1-norm: largest absolute column sum)
#: above which a stencil solve emits a ConditioningWarning.
CONDITION_LIMIT = 1e12
#: ``_iterated_fd`` keeps every ``ITERATE_STRIDE``-th iterate in its memo for later calls.
ITERATE_STRIDE = 8


def _derivative_order(nu) -> int:
    """``nu`` as an int, refused with a ValidationError unless it is a whole number >= 1."""
    if not (isinstance(nu, numbers.Real) and float(nu).is_integer()):
        raise ValidationError(f"derivative order must be an integer, got {nu!r}")
    if nu < 1:
        raise ValidationError(f"derivative order must be >= 1, got {nu}")
    return int(nu)


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
        object.__setattr__(self, "nu", _derivative_order(self.nu))
        for s in offs:
            _require_finite_settings(offsets=s)
        if len(offs) <= self.nu:
            raise ValidationError(
                f"stencil length {len(offs)} must exceed derivative order {self.nu}"
            )
        if len(set(offs)) != len(offs):
            raise ValidationError("stencil offsets must be distinct")


def _vandermonde_solve(locs: np.ndarray, nu: int, rhs_scale: float, stacklevel=3) -> np.ndarray:
    """Coefficients for each row of ``locs`` (``(..., S)``); warns on the worst-conditioned."""
    V = np.swapaxes(polyvander(locs, locs.shape[-1] - 1), -1, -2)
    rhs = np.zeros(locs.shape + (1,))
    rhs[..., nu, 0] = math.factorial(nu) * rhs_scale
    cond = np.max(np.abs(V).sum(-2).max(-1) * np.abs(np.linalg.inv(V)).sum(-2).max(-1))
    if cond > CONDITION_LIMIT:
        warnings.warn(
            f"stencil system condition number {cond:.2e} exceeds {CONDITION_LIMIT:.0e}; "
            "coefficients may be inaccurate",
            ConditioningWarning,
            stacklevel=stacklevel,
        )
    return np.linalg.solve(V, rhs)[..., 0]


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

    ``distances`` are signed offsets from the evaluation point (zero allowed).
    Reduces exactly to :func:`stencil_coefficients` when the distances are
    integer multiples of a common step.
    """
    d = np.asarray(distances, dtype=float)
    for x in d:
        _require_finite_settings(distances=x)
    stencil = Stencil(tuple(d), nu)  # validates distinctness and length
    return _vandermonde_solve(np.asarray(stencil.offsets), nu, 1.0)


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
    """The plan on a uniform grid of step ``dt`` (stencils in steps, scaled by
    ``dt^-nu``; cached, read-only), or, for ``dt=None``, on the irregular points ``t``."""
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if dt is not None:
        return _uniform_plan(n_points, nu, order, dt)
    h, edges = _edge_plan(n_points, nu, order)
    scale, windows = 1.0, sliding_window_view(t, 2 * h + 1)
    interior = _vandermonde_solve(windows - t[h : n_points - h, None], nu, scale, stacklevel=4)
    return _FdPlan(h, interior, tuple(
        (n, slice(lo, lo + size),
         _vandermonde_solve(t[lo : lo + size] - t[n], nu, scale, stacklevel=4))
        for n, lo, size in edges))


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


def fd_derivative(signal: Signal, nu: int = 1, order: int = 2) -> DerivativeResult:
    """Pointwise finite-difference derivative; does no smoothing.

    Interior points use centered schemes of the requested accuracy order;
    edge points fall back to one-sided second-order schemes and near-edge
    points shrink the centered stencil rather than grow a one-sided one.
    Irregular grids take one batched Vandermonde solve over the interior
    windows, in units of the independent variable. ``nu`` must be a whole number >= 1.
    """
    nu = _derivative_order(nu)
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


def iterated_fd(signal: Signal, order: int = 2, iterations: int = 1) -> DerivativeResult:
    """Smooth by repeated differentiate-then-integrate passes, then differentiate.

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
    if iterations < 0:
        raise ValidationError(f"iterations must be >= 0, got {iterations}")
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
