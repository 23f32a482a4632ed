"""Shared data model and small numerical primitives.

Signals are dense arrays of 64-bit reals on strictly increasing sample
grids. Uniform spacing is detected at construction time; irregular grids
are first-class and are never silently resampled. All containers are
immutable after construction and safe to share across threads.

A Grid or Signal is checked once, when it is built; library functions that
receive one trust it and do not check it again. :func:`validate` is for
callers who want to re-check a signal themselves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import get_lapack_funcs

#: Relative tolerance used to decide whether a grid is uniformly spaced.
UNIFORM_RTOL = 1e-9
#: Environment variable capping the worker processes of the sweep and of the tuner.
WORKERS_ENV = "DERIVKIT_WORKERS"


class ValidationError(ValueError):
    """Input data or parameters violate a documented invariant."""


class UnsupportedMethodError(ValidationError):
    """The requested method cannot operate on this input (e.g. irregular grid)."""


class NumericError(RuntimeError):
    """A numerical step failed (singular system, diverged solve, ...)."""


class ConditioningWarning(UserWarning):
    """A linear system was solved despite a very large condition number."""


def _require_finite_settings(**settings: float | None) -> None:
    """Refuse the first setting that is NaN or infinite, by name; None is left to the caller."""
    for name, value in settings.items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def _require_int(name: str, value, lo: int | None, hi: int | None = None) -> int:
    """``value`` as an int. A bool, a fractional or non-finite number, a non-number and a
    whole number outside ``[lo, hi]`` are refused by ``name``; with ``lo`` None, any whole
    number passes."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and value.is_integer())):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo is None:
        return value
    if hi is not None and not lo <= value <= hi:
        raise ValidationError(f"{name} must lie in [{lo}, {hi}], got {value}")
    if value < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value}")
    return value


def _worker_count(requested: int | None) -> int:
    """Worker processes to run: the CPUs this process may use (its affinity mask, where the
    platform has one), capped by ``requested`` and by ``DERIVKIT_WORKERS``; at least one.
    A ``DERIVKIT_WORKERS`` that is not an integer >= 1 is refused."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
        if cap < 1:
            raise ValidationError(f"{WORKERS_ENV} must be >= 1, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    if requested is not None:
        cap = min(cap, requested)
    return max(cap, 1)


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _uniform_tolerance(pts: np.ndarray, dt: float) -> float:
    """Largest deviation of a step from ``dt`` on a uniform grid.

    ``UNIFORM_RTOL`` relative to ``dt``, plus four units in the last place of
    the largest timestamp: rounding in the timestamps themselves scales
    with |t|, so epoch-stamped grids carry it whatever their step.
    """
    return UNIFORM_RTOL * dt + 4 * np.finfo(float).eps * np.max(np.abs(pts))


@dataclass(frozen=True)
class Grid:
    """Sample locations of the independent variable.

    Parameters
    ----------
    points : array_like
        Strictly increasing timestamps (seconds or unitless), length >= 2.

    Attributes
    ----------
    uniform : bool
        True when all steps agree with the mean step to ``UNIFORM_RTOL``
        relative to it, plus four units in the last place of the largest
        timestamp (epoch-stamped grids carry that much rounding).
    dt : float or None
        The common step when uniform, otherwise None.
    """

    points: np.ndarray
    uniform: bool = field(init=False)
    dt: float | None = field(init=False)

    def __post_init__(self):
        pts = _as_float_array(self.points, "grid points")
        _check_grid_points(pts)
        object.__setattr__(self, "points", _freeze(pts))
        steps = np.diff(pts)
        dt = (pts[-1] - pts[0]) / (len(pts) - 1)
        uniform = bool(np.max(np.abs(steps - dt)) <= _uniform_tolerance(pts, dt))
        object.__setattr__(self, "uniform", uniform)
        object.__setattr__(self, "dt", float(dt) if uniform else None)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])

    @staticmethod
    def regular(n: int, dt: float, t0: float = 0.0) -> "Grid":
        """Uniform grid of ``n`` points spaced ``dt`` starting at ``t0``."""
        return Grid(t0 + dt * np.arange(_require_int("n", n, 2)))


@dataclass(frozen=True)
class Signal:
    """A grid plus one real measurement per sample."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _as_float_array(self.values, "signal values")
        _check_signal_values(self.grid, vals)
        object.__setattr__(self, "values", _freeze(vals))

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def t(self) -> np.ndarray:
        return self.grid.points

    @staticmethod
    def from_arrays(t, y) -> "Signal":
        return Signal(Grid(t), y)


@dataclass(frozen=True)
class DerivativeResult:
    """Smoothed signal and derivative estimates with provenance.

    ``flags`` carries solver diagnostics (convergence, conditioning) that
    do not change the shape contract.
    """

    smoothed: np.ndarray
    derivative: np.ndarray
    method: str
    phi: Mapping[str, float] = field(default_factory=dict)
    flags: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        sm = _as_float_array(self.smoothed, "smoothed")
        dv = _as_float_array(self.derivative, "derivative")
        if len(sm) != len(dv):
            raise ValidationError(
                f"smoothed and derivative lengths differ: {len(sm)} vs {len(dv)}"
            )
        for name, arr in (("smoothed", sm), ("derivative", dv)):
            if not np.isfinite(arr).all():
                bad = np.flatnonzero(~np.isfinite(arr))[0]
                raise ValidationError(f"{name} contains non-finite value at index {bad}")
        object.__setattr__(self, "smoothed", _freeze(sm))
        object.__setattr__(self, "derivative", _freeze(dv))
        object.__setattr__(self, "phi", dict(self.phi))
        object.__setattr__(self, "flags", dict(self.flags))

    def __len__(self) -> int:
        return len(self.smoothed)


@dataclass(frozen=True)
class MethodConfig:
    """A method identifier plus the hyperparameter values it runs with.

    ``info`` is free-form diagnostic output (tuner loss, evaluation counts).
    The parameters' bounds and scales live in the method registry:
    ``get_method(method).build_params(signal)``.
    """

    method: str
    phi: Mapping[str, float]
    info: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "info", dict(self.info))
        object.__setattr__(self, "phi", dict(self.phi))


def _check_grid_points(pts: np.ndarray) -> None:
    if len(pts) < 2:
        raise ValidationError(f"grid needs at least 2 points, got {len(pts)}")
    bad = np.flatnonzero(~np.isfinite(pts))
    if bad.size:
        raise ValidationError(f"grid point non-finite at index {bad[0]}")
    steps = np.diff(pts)
    bad = np.flatnonzero(steps <= 0)
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"grid points not strictly increasing at index {i + 1}: "
            f"{pts[i]} -> {pts[i + 1]}"
        )


def _check_signal_values(grid: Grid, vals: np.ndarray) -> None:
    if len(vals) != len(grid.points):
        raise ValidationError(
            f"values length {len(vals)} does not match grid length {len(grid.points)}"
        )
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValidationError(f"signal value non-finite at index {bad[0]}")


def validate(signal: Signal) -> None:
    """Re-check every Grid/Signal invariant, raising at the first violation.

    Construction already checks all of them and the containers are immutable, so
    the library never calls this; it is for callers who want to re-check.
    """
    pts = np.asarray(signal.grid.points, dtype=float)
    _check_grid_points(pts)
    if signal.grid.uniform:
        dt = signal.grid.dt
        if dt is None or np.max(np.abs(np.diff(pts) - dt)) > _uniform_tolerance(pts, dt):
            raise ValidationError("grid marked uniform but steps disagree with dt")
    _check_signal_values(signal.grid, np.asarray(signal.values, dtype=float))


def _require_uniform(signal: Signal, what: str) -> float:
    """Return the step of a uniform ``signal``; ``what`` names the caller in the error."""
    if not signal.grid.uniform:
        raise UnsupportedMethodError(f"{what} requires a uniform grid")
    return signal.grid.dt


def _band_index(rows, cols, size: int) -> tuple[int, np.ndarray]:
    """``(k, index)``: the half-bandwidth of the ``size x size`` matrix with entries at
    ``(rows, cols)``, and each entry's flat position in ``_band``'s storage."""
    k = int(np.max(np.abs(rows - cols)))
    return k, (k + rows - cols) * size + cols


def _band(rows, cols, vals, size: int) -> tuple[int, np.ndarray]:
    """Sum the triplets ``M[rows, cols] += vals`` of a ``size x size`` matrix into the band
    storage ``_solve_banded`` reads, ``band[k + i - j, j] = M[i, j]``; returns ``(k, band)``."""
    k, index = _band_index(rows, cols, size)
    return k, np.bincount(index, vals, (2 * k + 1) * size).reshape(2 * k + 1, size)


def _solve_banded(k: int, ab: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve the band matrix ``M`` by LAPACK ``gbsv``. ``ab`` is either its ``2k+1``
    diagonals, ``ab[k + i - j, j] = M[i, j]``, which are copied into a ``(3k+1, N)`` LU
    workspace, or that workspace itself: Fortran-ordered, ``ab[2k + i - j, j] = M[i, j]``
    under ``k`` zero rows for the LU's fill-in, factored in place and so overwritten.

    A failed or non-finite solve raises NumericError: ``what``, then ``gbcon``'s 1-norm
    condition estimate from the same LU (``inf`` when singular). A workspace factored in
    place no longer holds ``M``'s 1-norm, so the error then says only whether a pivot was
    zero or the solution non-finite."""
    gbsv, gbcon = get_lapack_funcs(("gbsv", "gbcon"), (ab,))
    in_place = len(ab) > 2 * k + 1  # for k = 0 both forms are one row: copy
    if in_place:
        lu = ab
    else:
        lu = np.zeros((3 * k + 1, ab.shape[1]), order="F")
        lu[k:] = ab
    lu, piv, x, info = gbsv(k, k, lu, rhs, overwrite_ab=True)
    if info != 0 or not np.all(np.isfinite(x)):
        if in_place:
            raise NumericError(f"{what} ({'zero pivot' if info > 0 else 'non-finite solution'})")
        rcond, _ = gbcon(k, k, lu, piv, np.abs(ab).sum(axis=0).max())
        raise NumericError(f"{what} (condition estimate {1.0 / rcond if rcond else np.inf:.2e})")
    return x


def _solve_spd_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve the symmetric positive definite band matrix ``M`` by LAPACK ``pbsv``
    (banded Cholesky). ``ab`` holds its diagonal and ``k`` subdiagonals,
    ``ab[i - j, j] = M[i, j]`` for ``i >= j``; a Fortran-ordered ``ab`` is overwritten by
    the factor. Returns None when the factorization breaks down (``M`` is not numerically
    positive definite) or the solution is non-finite, for the caller to fall back to a
    pivoting solve."""
    pbsv, = get_lapack_funcs(("pbsv",), (ab,))
    _, x, info = pbsv(ab, rhs, lower=1, overwrite_ab=True)
    if info != 0 or not np.all(np.isfinite(x)):
        return None
    return x


def _reflect_pad(values: np.ndarray, h: int) -> np.ndarray:
    """``np.pad(values, h, mode="reflect")``, a new C-contiguous array, without its overhead:
    two reversed slices, or for ``h >= len(values)`` the mirror images repeated with period
    ``2 (len(values) - 1)``; ``values`` holds at least two samples."""
    n = len(values)
    if h < n:
        return np.concatenate([values[h:0:-1], values, values[-2 : -h - 2 : -1]])
    i = np.arange(-h, n + h) % (2 * n - 2)
    return values[np.minimum(i, 2 * n - 2 - i)]


def _cumtrapz(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of ``v`` over ``grid``, out[0] = 0; uniform grids use ``dt``,
    as differences of epoch timestamps would carry ``|t| * eps`` into every step."""
    steps = grid.dt if grid.uniform else np.diff(grid.points)
    out = np.empty_like(v, dtype=float)
    out[0] = 0.0
    np.cumsum(0.5 * (v[1:] + v[:-1]) * steps, out=out[1:])
    return out


def cumtrapz(signal: Signal) -> np.ndarray:
    """Cumulative trapezoidal integral of a signal, anchored at zero.

    Works on irregular grids: each increment is
    ``0.5 * (v[n] + v[n-1]) * (t[n] - t[n-1])``.
    """
    return _cumtrapz(signal.grid, signal.values)


def total_variation(v) -> float:
    """Normalized total variation: mean absolute step, ``sum|v[n]-v[n+1]| / N``.

    The divisor is the vector length N, not the number of differences.
    """
    arr = _as_float_array(v, "input")
    if len(arr) < 2:
        raise ValidationError(f"total_variation needs length >= 2, got {len(arr)}")
    return float(np.sum(np.abs(np.diff(arr))) / len(arr))
