"""Finite-difference differentiation.

Stencil coefficients come from the Vandermonde linear inverse problem: for
a stencil ``[s_0, ..., s_{S-1}]`` and derivative order ``nu``, solve

    sum_j s_j^i * c_j = (nu! / dx^nu) * delta(i, nu),  i = 0..S-1

Centered schemes are used on the interior and one-sided schemes of matching
accuracy at the edges. Irregular grids solve one Vandermonde system per
sample in units of the independent variable, batched over the interior.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    ConditioningWarning,
    DerivativeResult,
    Signal,
    ValidationError,
    _cumtrapz,
    _require_uniform,
    validate,
)

#: Condition number above which a stencil solve emits a ConditioningWarning.
CONDITION_LIMIT = 1e12


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
        if self.nu < 1:
            raise ValidationError(f"derivative order must be >= 1, got {self.nu}")
        if len(offs) <= self.nu:
            raise ValidationError(
                f"stencil length {len(offs)} must exceed derivative order {self.nu}"
            )
        if len(set(offs)) != len(offs):
            raise ValidationError("stencil offsets must be distinct")


def _vandermonde_solve(locs: np.ndarray, nu: int, rhs_scale: float) -> np.ndarray:
    """Coefficients for each row of ``locs`` (``(..., S)``); warns on the worst-conditioned."""
    size = locs.shape[-1]
    V = np.ones(locs.shape[:-1] + (size, size))
    V[..., 1:, :] = locs[..., None, :]
    np.multiply.accumulate(V[..., 1:, :], axis=-2, out=V[..., 1:, :])
    rhs = np.zeros(locs.shape + (1,))
    rhs[..., nu, 0] = math.factorial(nu) * rhs_scale
    cond = np.max(np.linalg.cond(V))
    if cond > CONDITION_LIMIT:
        warnings.warn(
            f"stencil system condition number {cond:.2e} exceeds {CONDITION_LIMIT:.0e}; "
            "coefficients may be inaccurate",
            ConditioningWarning,
            stacklevel=3,
        )
    return np.linalg.solve(V, rhs)[..., 0]


def stencil_coefficients(stencil: Stencil, dx: float) -> np.ndarray:
    """Coefficients ``c`` with ``sum_j c_j y(t + s_j dx) ~ y^(nu)(t)``.

    Error is O(dx^(S-nu)), one order better for even ``nu`` on symmetric
    odd-length stencils.
    """
    if dx <= 0:
        raise ValidationError(f"dx must be positive, got {dx}")
    return _vandermonde_solve(np.asarray(stencil.offsets), stencil.nu, dx ** -stencil.nu)


def irregular_coefficients(distances, nu: int) -> np.ndarray:
    """Stencil coefficients for distances given in units of the variable.

    ``distances`` are signed offsets from the evaluation point (zero allowed).
    Reduces exactly to :func:`stencil_coefficients` when the distances are
    integer multiples of a common step.
    """
    d = np.asarray(distances, dtype=float)
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


def fd_derivative(signal: Signal, nu: int = 1, order: int = 2) -> DerivativeResult:
    """Pointwise finite-difference derivative; does no smoothing.

    Interior points use centered schemes of the requested accuracy order;
    edge points fall back to one-sided second-order schemes and near-edge
    points shrink the centered stencil rather than grow a one-sided one.
    Irregular grids take one batched Vandermonde solve over the interior
    windows, in units of the independent variable.
    """
    validate(signal)
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    t = signal.grid.points
    y = signal.values
    n_points = len(y)
    h, edges = _edge_plan(n_points, nu, order)
    uniform = signal.grid.uniform
    scale = signal.grid.dt ** -nu if uniform else 1.0
    inner = slice(h, n_points - h)

    deriv = np.empty(n_points)
    if uniform:
        c = _vandermonde_solve(np.arange(-h, h + 1.0), nu, scale)
        deriv[inner] = np.convolve(y, c[::-1], mode="valid")
    else:
        c = _vandermonde_solve(sliding_window_view(t, 2 * h + 1) - t[inner, None], nu, scale)
        deriv[inner] = np.vecdot(c, sliding_window_view(y, 2 * h + 1))
    for n, lo, size in edges:
        locs = np.arange(lo - n, lo - n + size, dtype=float) if uniform else t[lo : lo + size] - t[n]
        deriv[n] = _vandermonde_solve(locs, nu, scale) @ y[lo : lo + size]

    return DerivativeResult(
        smoothed=y,
        derivative=deriv,
        method="fd",
        phi={"nu": nu, "order": order},
    )


def _safe_first_derivative(y: np.ndarray, dt: float, order: int) -> np.ndarray:
    """First derivative whose coefficients all satisfy ``|c * dt| <= 1``.

    Endpoints use the spaced stencils [0, 2, 4] / [0, -2, -4]; near-edge
    points shrink the centered stencil. Used by the iterated-FD smoothing
    pass, where large one-sided edge coefficients would amplify noise.
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


def iterated_fd(signal: Signal, order: int = 2, iterations: int = 1) -> DerivativeResult:
    """Smooth by repeated differentiate-then-integrate passes, then differentiate.

    Each iteration applies a first-derivative pass (with edge-safe stencils),
    cumulatively integrates with the trapezoid rule, and re-anchors the lost
    integration constant as a mean offset. One round is equivalent to an IIR
    low-pass filter; more iterations sharpen the cutoff. Uniform grids only.
    """
    dt = _require_uniform(signal, "iterated_fd")
    if iterations < 0:
        raise ValidationError(f"iterations must be >= 0, got {iterations}")
    z = np.array(signal.values)
    for _ in range(iterations):
        d = _safe_first_derivative(z, dt, order)
        integ = _cumtrapz(dt, d)
        z = integ + (np.mean(z) - np.mean(integ))
    final = fd_derivative(Signal(signal.grid, z), nu=1, order=order)
    return DerivativeResult(
        smoothed=z,
        derivative=final.derivative,
        method="iterated_fd",
        phi={"order": order, "iterations": iterations},
    )


def _first_diff_matrix(n_points: int, dt: float) -> sp.csr_matrix:
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
