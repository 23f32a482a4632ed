"""Local smoothing-based differentiators.

Each method produces a smoothed signal and its derivative. Convolution-type
methods handle edges by mirror extension; fit-type methods (sliding
polynomials, splines, radial basis functions) evaluate their fits at the
sample locations and work on irregular grids.

The Butterworth sections and the zero-phase filter behind ``butterdiff`` are
derivkit's own, and bit-identical to ``scipy.signal``'s ``butter``,
``sosfilt`` and ``sosfiltfilt``, so the package never imports
``scipy.signal`` (which alone took half of derivkit's import time).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.polynomial import polyvander
from scipy.interpolate import BSpline
from scipy.linalg import companion, get_blas_funcs
from scipy.optimize import brentq

from .core import (
    DerivativeResult,
    Signal,
    ValidationError,
    _reflect_pad,
    _require_finite_settings,
    _require_int,
    _require_uniform,
    _solve_banded,
    _solve_spd_banded,
)
from .fd import _fd_plan

_KERNEL_KINDS = ("mean", "gaussian", "friedrichs", "median")


@dataclass(frozen=True, kw_only=True)
class KernelSpec:
    """A sliding-window kernel: its kind, window length, and Gaussian width.

    ``window`` has no default, nor has ``sigma``, which only the Gaussian reads: the
    registry's ``kernel`` holds both (window ``2 ceil(4 sigma) + 1``).
    """

    kind: str = "gaussian"
    window: int
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
            raise ValidationError(f"kernel kind must be one of {_KERNEL_KINDS}, got {self.kind!r}")
        _require_finite_settings(sigma=self.sigma)
        object.__setattr__(self, "window", _require_int("window", self.window, 3))
        if self.window % 2 == 0:
            raise ValidationError(f"window must be odd and >= 3, got {self.window}")
        if self.kind == "gaussian" and (self.sigma is None or self.sigma <= 0):
            raise ValidationError(f"gaussian sigma must be positive, got {self.sigma}")


def _kernel_weights(kind: str, length: int, sigma: float) -> np.ndarray:
    """Normalized kernel samples of a given length (weights sum to 1)."""
    center = (length - 1) / 2.0
    j = np.arange(length) - center
    if kind == "mean":
        w = np.ones(length)
    elif kind == "gaussian":
        w = np.exp(-0.5 * (j / sigma) ** 2)
    elif kind == "friedrichs":
        u = j / (center + 1.0)
        w = np.exp(-1.0 / (1.0 - u * u))
    else:
        raise ValidationError(f"kernel kind {kind!r} has no weight representation")
    return w / w.sum()


def _reflect_correlate(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Slide odd-length ``weights`` over ``values`` mirror-extended by half its length."""
    return np.convolve(_reflect_pad(values, len(weights) // 2), weights[::-1], mode="valid")


def _gaussian_window(sigma: float) -> int:
    """Length of the Gaussian kernel of width ``sigma``: radius ceil(4 sigma), at least 1."""
    return 2 * max(int(np.ceil(4 * sigma)), 1) + 1


def _gaussian_blur(values: np.ndarray, sigma: float | None) -> np.ndarray:
    """Normalized ``_gaussian_window(sigma)``-tap Gaussian, reflect-padded; no-op for 0/None."""
    if not sigma:
        return values
    return _reflect_correlate(values, _kernel_weights("gaussian", _gaussian_window(sigma), sigma))


def _kernel_values(signal: Signal, spec: KernelSpec) -> np.ndarray:
    """``kernel_smooth``'s smoothed values, as a plain array."""
    _require_uniform(signal, "kernel_smooth")
    n = len(signal)
    if spec.window > n:
        raise ValidationError(f"window {spec.window} exceeds signal length {n}")
    if spec.kind == "median":
        windows = sliding_window_view(_reflect_pad(signal.values, spec.window // 2), spec.window)
        return np.median(windows, axis=1)
    return _reflect_correlate(signal.values, _kernel_weights(spec.kind, spec.window, spec.sigma))


def kernel_smooth(signal: Signal, spec: KernelSpec) -> Signal:
    """Convolve with a normalized kernel (or slide a median) over the signal.

    Edges are handled by mirror extension of half the window length.
    """
    return Signal(signal.grid, _kernel_values(signal, spec))


def kerneldiff(signal: Signal, spec: KernelSpec) -> DerivativeResult:
    """Kernel smoothing followed by second-order finite differences."""
    smoothed = _kernel_values(signal, spec)
    return DerivativeResult(
        smoothed=smoothed,
        derivative=_fd_plan(len(smoothed), 1, 2, signal.grid.dt).apply(smoothed),
        method="kerneldiff",
        phi={"kind": spec.kind, "window": spec.window, "sigma": spec.sigma},
    )


def _butter_sos(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Second-order sections of the digital Butterworth low-pass, as
    ``scipy.signal.butter(order, cutoff_hz, fs=fs, output="sos")`` makes them.

    The analog prototype's poles are prewarped to the cutoff and mapped by the
    bilinear transform, with every zero at -1; an odd order adds a pole and a
    zero at 0. Sections are filled from last to first, each with the pole
    nearest the unit circle, its conjugate (or the other real pole nearest the
    circle) and the two zeros nearest it, and section 0 takes the gain. Each
    step repeats scipy 1.17's operations in scipy's order, so every bit
    matches (``tests/test_smoothers.py`` checks it against ``scipy.signal``).
    """
    wn = cutoff_hz / (fs / 2)
    warped = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
    p = warped * -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=float) / (2 * order))
    k = warped**order * np.real(1.0 / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    z = -np.ones(order)
    if order % 2:
        p, z = np.append(p, 0.0), np.append(z, 0.0)
    # conjugate pairs by real part then |imag|, one member each, before the real poles
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= 100 * np.finfo(float).eps * abs(p)
    upper, lower = p[~real & (p.imag > 0)], p[~real & (p.imag < 0)]
    p = np.concatenate(((upper + lower.conj()) / 2, p[real].real))
    sos = np.zeros(((order + 1) // 2, 6))
    for si in range(len(sos) - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(p))
            i = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        i = np.argsort(np.abs(z - p1))[0]
        z1, z = z[i], np.delete(z, i)
        i = np.argsort(np.abs(z - p1))[0]
        z2, z = z[i], np.delete(z, i)
        sos[si, :3] = np.convolve(np.convolve(np.ones(1), [1.0, -z1]), [1.0, -z2])
        sos[si, 3:] = np.convolve(np.convolve(np.ones(1, p.dtype), [1.0, -p1]), [1.0, -p2]).real
    sos[0, :3] *= k
    return sos


def _sosfilt(sos: np.ndarray, x: list, zi: list) -> list:
    """Run the sections over the floats ``x`` from the states ``zi`` (a pair per section).

    This is scipy's transposed direct form II recursion on Python floats. A
    section sees only its own input, so filtering one section at a time over
    the whole signal rounds as scipy's sample-by-sample loop does.
    """
    for (b0, b1, b2, _, a1, a2), (z0, z1) in zip(sos.tolist(), zi):
        y = []
        append = y.append
        for v in x:
            w = b0 * v + z0
            z0 = b1 * v - a1 * w + z1
            z1 = b2 * v - a2 * w
            append(w)
        x = y
    return x


def _sosfiltfilt(sos: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """Forward-backward filtering of ``x``, odd-extended by ``padlen`` samples at each end,
    as ``scipy.signal.sosfiltfilt(sos, x, padlen=padlen)`` does it.

    Each pass starts from the steady state of a unit step scaled by the first
    sample it sees. The result is a C-contiguous array: ``np.convolve`` rounds
    differently on a reversed view.
    """
    if padlen > 0:
        x = np.concatenate((2 * x[:1] - x[padlen:0:-1], x, 2 * x[-1:] - x[-2:-(padlen + 2):-1]))
    zi, scale = np.empty((len(sos), 2)), 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        zi[section] = scale * np.linalg.solve(np.eye(2) - companion(a).T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    y = _sosfilt(sos, x.tolist(), (zi * x[0]).tolist())
    y = _sosfilt(sos, y[::-1], (zi * y[-1]).tolist())[::-1]
    return np.array(y[padlen:len(y) - padlen] if padlen > 0 else y)


def _butter_design(signal: Signal, order: int, cutoff_hz: float, what: str):
    """Second-order sections of the order-``order`` Butterworth low-pass at ``cutoff_hz``
    for the signal's uniform grid, its sampling rate and the order as an int; ``what``
    names the caller."""
    fs = 1.0 / _require_uniform(signal, what)
    order = _require_int("order", order, 1)
    if not 0 < cutoff_hz < fs / 2:
        raise ValidationError(
            f"cutoff must lie in (0, {fs / 2}) Hz for dt={signal.grid.dt}, got {cutoff_hz}"
        )
    return _butter_sos(order, cutoff_hz, fs), fs, order


def butterdiff(signal: Signal, order: int, cutoff_hz: float) -> DerivativeResult:
    """Zero-phase Butterworth smoothing followed by second-order differences.

    ``order`` and ``cutoff_hz`` have no defaults: the registry's ``butter`` holds them.

    The filter is designed as cascaded second-order sections via the bilinear
    transform (with frequency prewarping, so the half-power point lands
    exactly on ``cutoff_hz``) and applied forward then backward. The sections
    and the filter are derivkit's own, bit-identical to ``scipy.signal``'s
    ``butter`` and ``sosfiltfilt``. The filter runs on Python floats, at about
    0.16 us per sample and section (x86-64, CPython 3.11): ~3.5 ms at
    N = 1e4 and order 2, where scipy's compiled loop took ~1 ms.
    """
    sos, fs, order = _butter_design(signal, order, cutoff_hz, "butterdiff")
    # Generous odd-extension padding: initial-condition transients decay over
    # several filter time constants before they can reach the data.
    padlen = int(min(len(signal) - 2, max(24, np.ceil(4 * fs / cutoff_hz))))
    smoothed = _sosfiltfilt(sos, signal.values, padlen)
    return DerivativeResult(
        smoothed=smoothed,
        derivative=_fd_plan(len(smoothed), 1, 2, signal.grid.dt).apply(smoothed),
        method="butterdiff",
        phi={"order": order, "cutoff_hz": cutoff_hz},
    )


def butter_single_pass(signal: Signal, order: int, cutoff_hz: float) -> np.ndarray:
    """One forward pass of the same Butterworth design (for gain measurements)."""
    sos = _butter_design(signal, order, cutoff_hz, "butter_single_pass")[0]
    return np.array(_sosfilt(sos, signal.values.tolist(), [(0.0, 0.0)] * len(sos)))


def _window_fits(offsets: np.ndarray, degree: int) -> tuple:
    """``(fit, full_rank)`` for least-squares polynomials on a stack of windows whose
    sample offsets from their window's start are the rows of ``offsets``.

    Each window is mapped onto [-1, 1] from its own start, as ``Polynomial.fit`` maps
    its domain, and fitted as ``lstsq`` fits it: columns scaled to unit norm, singular
    values kept above ``window * eps`` of the largest (``full_rank`` when all are).
    ``fit(Y)`` takes the samples as a stack ``(len(offsets), window, k)`` of k columns
    per entry and returns the fitted values and slopes in the same shape."""
    window = offsets.shape[1]
    pad = float(window == 1)  # a lone point gets Polynomial.fit's domain [t - 1, t + 1]
    scale = 2.0 / (offsets[:, -1:] + 2 * pad)
    V = polyvander((offsets + pad) * scale - 1, degree)
    norms = np.sqrt(np.square(V).sum(axis=-2))[..., None]
    U, sv, Vh = np.linalg.svd(V / norms.mT, full_matrices=False)
    keep = sv > window * np.finfo(float).eps * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)[..., None]
    dV = V[..., :degree] * (np.arange(1, degree + 1) * scale[..., None])  # d/dt of V[..., 1:]

    def fit(Y):
        coef = Vh.mT @ (inv * (U.mT @ Y)) / norms
        return V @ coef, dV @ coef[:, 1:]
    return fit, bool(keep.all())


def polydiff(signal: Signal, window: int, stride: int | None = None, *, degree: int,
             weight_kernel: KernelSpec | None = None) -> DerivativeResult:
    """Sliding-window polynomial fits, combined by (weighted) averaging.

    ``window`` and ``degree`` have no defaults: the registry's ``poly`` holds them.
    Fits use the actual timestamps, so irregular grids are fine. Windows
    advance by ``stride``; a final window is anchored to the tail so every
    sample is covered. Each window is fitted as ``Polynomial.fit`` fits it
    (``RankWarning`` included), but in offsets from its first sample, so
    epoch timestamps lose no precision. On a uniform grid every window has
    the offsets ``i * grid.dt``, and one SVD serves them all; on an
    irregular grid each block of windows takes one batched SVD. Blocks hold
    about N samples, so memory is O(N * (degree + 1)) at any stride.
    Overlapping fit evaluations are averaged uniformly unless a weight kernel
    (center-heavy weighting within each window) is given.
    """
    n = len(signal)
    degree, window = _require_int("degree", degree, 0), _require_int("window", window, 1)
    if window > n:
        raise ValidationError(f"window {window} exceeds signal length {n}")
    if window < degree + 1:
        raise ValidationError(f"window {window} must be at least degree+1 = {degree + 1}")
    stride = window // 2 if stride is None else _require_int("stride", stride, 1, window)
    t = signal.grid.points
    y = signal.values

    starts = np.unique(np.append(np.arange(0, n - window + 1, stride), n - window))
    weights = (np.ones(window) if weight_kernel is None
               else _kernel_weights(weight_kernel.kind, window, weight_kernel.sigma))
    if signal.grid.uniform:  # every window has the same shape: one fit for all
        uniform_fit = _window_fits(signal.grid.dt * np.arange(window)[None], degree)
    acc, full_rank = np.zeros((2, n)), True  # weighted fit values and slopes
    for block in np.array_split(starts, -(-len(starts) * window // n)):
        idx = block[:, None] + np.arange(window)
        fit, block_full_rank = uniform_fit if signal.grid.uniform else _window_fits(
            t[idx] - t[block, None], degree)
        full_rank &= block_full_rank
        # the block's windows: columns of one stack entry, or one column per entry
        k = len(block) if signal.grid.uniform else 1
        for total, part in zip(acc, fit(y[idx].reshape(-1, k, window).mT)):
            part = part.transpose(2, 0, 1).reshape(-1, window)
            total += np.bincount(idx.ravel(), (weights * part).ravel(), n)
    if not full_rank:
        warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    coverage = np.convolve(np.bincount(starts, minlength=n), weights)[:n]
    return DerivativeResult(
        smoothed=acc[0] / coverage,
        derivative=acc[1] / coverage,
        method="polydiff",
        phi={"window": window, "stride": stride, "degree": degree},
    )


def savgol_coefficients(window: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows 0 and 1 of the pseudoinverse of the window's Vandermonde matrix.

    Dotting the first row with a window of samples evaluates the least-squares
    polynomial at the window center; the second row gives its slope per
    sample step.
    """
    c_value, c_slope = _savgol_rows(_require_int("window", window, 3),
                                    _require_int("degree", degree, 0))
    return c_value.copy(), c_slope.copy()


# room for every pair the registry allows (63 odd windows x 8 degrees = 504, ~1 MB of rows)
@lru_cache(maxsize=512)
def _savgol_rows(window: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """``savgol_coefficients``' rows for an int window >= 3 and degree >= 0, cached and
    read-only."""
    if window % 2 == 0:
        raise ValidationError(f"window must be odd and >= 3, got {window}")
    if degree >= window:
        raise ValidationError(f"degree {degree} must be less than window {window}")
    P = np.linalg.pinv(polyvander(np.arange(window) - window // 2, degree))
    rows = P[0], P[1] if degree >= 1 else np.zeros(window)
    for row in rows:
        row.flags.writeable = False
    return rows


def savgoldiff(signal: Signal, window: int, degree: int,
               post_smooth_sigma: float | None) -> DerivativeResult:
    """Savitzky-Golay smoothing and differentiation by convolution.

    Equivalent to a stride-1 sliding polynomial fit evaluated only at window
    centers, but the coefficients are fixed and found offline. The derivative
    is Gaussian-smoothed afterwards with width ``post_smooth_sigma`` samples (None or 0:
    not at all), since neighboring implicit fits are independent and can jitter. No
    argument has a default: the registry's ``savgol`` holds them.
    """
    return _savgoldiff(signal, window, degree, post_smooth_sigma, {})


#: ``_savgoldiff`` keeps the stages of at most this many ``(window, degree)`` pairs.
SAVGOL_STAGES = 16


def _savgoldiff(signal: Signal, window: int, degree: int, post_smooth_sigma: float | None,
                memo: dict) -> DerivativeResult:
    """:func:`savgoldiff`, taking the smoothed values and the unblurred slope / dt from
    ``memo[(window, degree)]`` when an earlier call on this signal stored them there, so
    that only the post-smoothing blur runs again.

    A new pair drops the oldest once ``SAVGOL_STAGES`` are stored, which bounds the memo
    at ``32 N`` floats. On the sims cases at N = 400 a tuning run meets 131-188 distinct
    pairs in 1264-1442 calls, and the bound makes 217-274 of those calls compute their
    stage, against 131-188 without it."""
    dt = _require_uniform(signal, "savgoldiff")
    window, degree = _require_int("window", window, 3), _require_int("degree", degree, 0)
    _require_finite_settings(post_smooth_sigma=post_smooth_sigma)
    if post_smooth_sigma is not None and post_smooth_sigma < 0:
        raise ValidationError(f"post_smooth_sigma must be >= 0, got {post_smooth_sigma}")
    if (window, degree) not in memo:
        n = len(signal)
        if window > n:
            raise ValidationError(f"window {window} exceeds signal length {n}")
        c_value, c_slope = _savgol_rows(window, degree)
        if len(memo) >= SAVGOL_STAGES:
            del memo[next(iter(memo))]  # the oldest pair
        memo[window, degree] = (_reflect_correlate(signal.values, c_value),
                                _reflect_correlate(signal.values, c_slope) / dt)
    smoothed, slope = memo[window, degree]
    return DerivativeResult(
        smoothed=smoothed,
        derivative=_gaussian_blur(slope, post_smooth_sigma),
        method="savgoldiff",
        phi={"window": window, "degree": degree, "post_smooth_sigma": post_smooth_sigma},
    )


_SPLINE_MODES = ("lambda", "bound")


@dataclass(frozen=True, kw_only=True)
class SplineSpec:
    """Smoothing-spline parameters.

    ``lambda`` mode penalizes integrated squared curvature with weight ``lam`` (0
    interpolates). ``bound`` mode is Reinsch's spline: the smoothest fit whose residual
    sum of squares is at most ``s``. Either penalty needs degree >= 2. ``degree``,
    ``iterations`` and, in lambda mode, ``lam`` have no defaults: the registry's
    ``spline`` holds them.
    """

    degree: int
    mode: str = "lambda"
    lam: float | None = None
    s: float = 0.0
    iterations: int

    def __post_init__(self):
        if self.mode not in _SPLINE_MODES:
            raise ValidationError(f"mode must be one of {_SPLINE_MODES}, got {self.mode!r}")
        for name in ("degree", "iterations"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), 1))
        # s = inf is a bound every fit meets, so bound mode returns the least-squares line
        _require_finite_settings(lam=self.lam, s=None if self.s == np.inf else self.s)
        if self.mode == "lambda" and self.lam is None:
            raise ValidationError("lambda mode needs lam")
        if (self.lam is not None and self.lam < 0) or self.s < 0:
            raise ValidationError("lam and s must be >= 0")
        if self.mode == "lambda" and self.s != 0.0:
            raise ValidationError("bound s is unused in lambda mode; leave it at 0")
        if self.mode == "bound" and self.lam is not None:
            raise ValidationError("lam is unused in bound mode; leave it unset")
        if (self.mode == "bound" or self.lam > 0) and self.degree < 2:
            raise ValidationError("curvature penalty needs degree >= 2")


def _site_knots(t: np.ndarray, k: int) -> np.ndarray:
    """Knots at the samples (odd degree) or their midpoints (even degree), the ends repeated
    k + 1 times: the design matrix is square, so lam = 0 interpolates."""
    sites = t if k % 2 else 0.5 * (t[:-1] + t[1:])
    interior = sites[(k + 1) // 2 : len(sites) - (k + 1) // 2]
    return np.concatenate([np.full(k + 1, t[0]), interior, np.full(k + 1, t[-1])])


def _basis_rows(x: np.ndarray, knots: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k+1 nonzero B-spline values at each ``x`` and the column of the first."""
    B = BSpline.design_matrix(x, knots, k)
    return B.indices[:: k + 1], B.data.reshape(-1, k + 1)


def _curvature_rows(knots: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of K, with K^T K = the curvature penalty (integral of squared S''), as
    ``_basis_rows`` gives them: second derivatives of the basis at Gauss points,
    scaled by the square-rooted quadrature weights, found by raising degree-(k-2)
    basis values twice. Keeping the penalty in factored form lets huge smoothing
    weights be applied without squaring their scale.
    """
    spans = np.unique(knots[2:-2])
    nodes, wts = np.polynomial.legendre.leggauss(k - 1)  # exact for the degree 2(k-2) integrand
    half = 0.5 * np.diff(spans)[:, None]
    pts = (0.5 * (spans[:-1] + spans[1:])[:, None] + half * nodes).ravel()
    first, rows = _basis_rows(pts, knots[2:-2], k - 2)
    rows = rows * np.sqrt(half * wts).reshape(-1, 1)
    # (sum c_j B_j,d)' = sum d (c_j+1 - c_j) / (t_j+d+1 - t_j+1) B_j,d-1, on t = knots[k-d:d-k]
    for d in (k - 1, k):
        j = first[:, None] + np.arange(d)
        scaled = rows * d / (knots[j + k + 1] - knots[j + k - d + 1])
        rows = np.pad(scaled, ((0, 0), (1, 0))) - np.pad(scaled, ((0, 0), (0, 1)))
    return first, rows


class _SplineSystem(NamedTuple):
    """``_solve_spline``'s system for one grid and degree, all but ``y`` and ``sqrt(lam)``:
    ``where`` places the m coefficients, then one residual per row of ``A``; ``index`` is
    the flat position of each entry of ``[[I, A], [A^T, 0]]`` (half-bandwidth ``half``) in
    the Fortran-ordered ``(3 half + 1, size)`` LU workspace that ``core._solve_banded``
    factors in place, in the order ``I``, ``A^T``, ``A``, where ``A``'s entries are
    ``b_vals`` then ``sqrt(lam) * k_vals`` (empty without a penalty)."""

    knots: np.ndarray
    where: np.ndarray
    half: int
    index: np.ndarray
    b_vals: np.ndarray
    k_vals: np.ndarray


@lru_cache(maxsize=1)  # one system: at N = 1e5 ~25 MB at degree 3, ~56 MB at 5 (tracemalloc)
def _spline_system(grid: bytes, k: int, penalized: bool) -> _SplineSystem:
    """The read-only system on the sample times whose float64 bytes are ``grid``."""
    t = np.frombuffer(grid)
    knots = _site_knots(t, k)
    m = len(knots) - k - 1
    first, rows = _basis_rows(t, knots, k)
    k_vals = np.empty(0)
    if penalized:
        k_first, k_rows = _curvature_rows(knots, k)
        first, k_vals = np.concatenate([first, k_first]), k_rows.ravel()
    # where[i]: place of unknown i (coefficients, then residuals); ties put the coefficient first
    where = np.argsort(np.argsort(np.concatenate([np.arange(m), first + k / 2]), kind="stable"))
    cols = where[first[:, None] + np.arange(k + 1)].ravel()
    at = np.repeat(where[m:], k + 1)
    i, j = np.concatenate([where[m:], at, cols]), np.concatenate([where[m:], cols, at])
    half = int(np.max(np.abs(i - j)))
    index = j * (3 * half + 1) + 2 * half + i - j  # M[i, j] sits at lu[2 half + i - j, j]
    # kept in the smallest unsigned type that holds it: the index is most of what is cached
    index = index.astype(np.min_scalar_type(index.max()))
    system = _SplineSystem(knots, where, half, index, rows.ravel(), k_vals)
    for part in (knots, where, index, system.b_vals, k_vals):
        part.flags.writeable = False
    return system


def _solve_spline(t, y, k, lam):
    """The spline at ``_site_knots`` whose coefficients solve ``A alpha ~ [y; 0]``,
    ``A = [B; sqrt(lam) K]``, from the augmented system ``[[I, A], [A^T, 0]] [r; alpha] =
    [y; 0]``: neither ``B^T B`` nor ``K^T K`` is formed, so the solve is conditioned like
    ``A``, not its square. Each residual ``r_i`` is ordered just past the middle of the k+1
    coefficients its row touches, which makes the system banded (half-bandwidth 9 at k = 3).
    The system is assembled once per grid, degree and ``lam > 0`` (``_spline_system``); a
    call scales the curvature rows and scatters every entry straight into the LU workspace,
    which is factored in place. The positions are distinct, so each entry is the value
    itself (``+ 0.0`` turns a scaled -0.0 into the 0.0 that summing into zeros gives)."""
    knots, where, half, index, b_vals, k_vals = _spline_system(
        np.asarray(t, dtype=float).tobytes(), k, lam > 0)
    m, size = len(knots) - k - 1, len(where)
    lu = np.zeros(size * (3 * half + 1))
    lu[index[: size - m]] = 1.0
    k_vals = np.sqrt(lam) * k_vals + 0.0
    for part in np.split(index[size - m :], 2):  # A^T, then A
        lu[part[: len(b_vals)]] = b_vals
        lu[part[len(b_vals) :]] = k_vals
    rhs = np.bincount(where[m : m + len(y)], y, size)
    coef = _solve_banded(half, lu.reshape(size, 3 * half + 1).T, rhs, "singular spline system")
    return BSpline(knots, coef[where[:m]], k)


def _reinsch_fit(t, y, k, s):
    """Reinsch's spline, ``_solve_spline``'s fit at the lam where its residual sum of squares
    RSS(lam) is ``s``, as (fit, lam, RSS <= s). RSS rises with lam from the interpolant's
    (lam = 0, returned if no lam tried meets ``s``) to the least-squares line's (returned,
    knot-free, with lam None, if it meets ``s``). The search stops at the first feasible
    fit within 1e-7 relative of ``s``: where RSS(lam) is flat to rounding, as near the
    line's RSS, a bracket on lam would narrow to no gain. Otherwise, since d log RSS /
    d log lam <= 2, the feasible end of a final bracket 1e-7 wide in log lam is within 2e-7
    relative of ``s``."""
    x = t - t.mean()
    slope = (x @ y) / (x @ x)
    if np.sum((y - y.mean() - slope * x) ** 2) <= s:
        # a line's B-spline coefficients are its values at the Greville abscissae
        greville = x[0] + (t[-1] - t[0]) * np.arange(k + 1) / k
        return BSpline(np.repeat(t[[0, -1]], k + 1), y.mean() + slope * greville, k), None, True
    fits = {}  # lam -> (fit, RSS)

    def excess(log_lam):
        lam = float(np.exp(log_lam))
        if lam not in fits:
            fit = _solve_spline(t, y, k, lam)
            fits[lam] = fit, float(np.sum((y - fit(t)) ** 2))
        slack = s - fits[lam][1]
        return 0.0 if 0 <= slack <= 1e-7 * s else -slack  # 0 ends the search

    # with step h, the fit goes from interpolant to line as lam goes from h^3 to
    # span^4 / h; start halfway, at h span^2, and step by 1e3 until RSS crosses s
    step = np.log(1e3)
    lo = np.log((t[-1] - t[0]) ** 3 / (len(t) - 1))
    below = (f := excess(lo)) <= 0
    for _ in range(12):
        if f == 0:
            break
        hi = lo + (step if below else -step)
        if ((f := excess(hi)) <= 0) != below:
            brentq(excess, min(lo, hi), max(lo, hi), xtol=1e-7)
            break
        lo = hi
    else:
        if not below:
            fit = _solve_spline(t, y, k, 0.0)
            return fit, 0.0, bool(np.sum((y - fit(t)) ** 2) <= s)
    lam = max(lam for lam, (_, rss) in fits.items() if rss <= s)
    return fits[lam][0], lam, True


def splinediff(signal: Signal, spec: SplineSpec) -> DerivativeResult:
    """Smoothing-spline fit with an analytic derivative.

    Knots sit at the data sites. The coefficients solve the least-squares
    problem ``[B; sqrt(lam) K] alpha ~ [y; 0]`` (``K^T K`` the curvature
    penalty) through its augmented system, which is banded and never forms
    ``B^T B``. ``lambda`` mode takes ``lam``; ``bound`` mode finds it: the fit
    is Reinsch's spline, the smoothest with residual sum of squares <= ``s``,
    and ``flags['lam']`` is its lam (None when the least-squares line meets
    ``s`` and is returned). ``flags['bound_met']`` is False only when ``s`` is
    below the interpolant's residual; the interpolant is then returned. The
    whole fit can be iterated on its own output to remove noise more gently.
    ``flags['spline']`` holds the final fit's knots and coefficients as lists:
    ``BSpline(knots, coefficients, degree)`` rebuilds it.
    """
    t = signal.grid.points
    n = len(t)
    k = spec.degree
    if n < k + 2:
        raise ValidationError(f"need at least degree+2 = {k + 2} samples, got {n}")
    y = np.array(signal.values)
    flags: dict[str, object] = {}
    for _ in range(spec.iterations):
        if spec.mode == "lambda":
            fit = _solve_spline(t, y, k, spec.lam)
        else:
            fit, flags["lam"], flags["bound_met"] = _reinsch_fit(t, y, k, spec.s)
        y = fit(t)
    flags["spline"] = {"knots": fit.t.tolist(), "coefficients": fit.c.tolist()}
    return DerivativeResult(
        smoothed=y,
        derivative=fit(t, nu=1),
        method="splinediff",
        phi={"degree": spec.degree, "mode": spec.mode, "lam": spec.lam,
             "s": spec.s, "iterations": spec.iterations},
        flags=flags,
    )


def _rbf_gaps(t: np.ndarray, b: int, rho: float) -> np.ndarray:
    """The gaps ``t[j + d] - t[j]``, d = 0..b, in LAPACK's lower band storage: a new
    Fortran-ordered ``(b + 1, N)`` array. Past the last sample they lie beyond ``rho``."""
    out = np.empty((b + 1, len(t)), order="F")
    padded = np.pad(t, (0, b), constant_values=t[-1] + 2 * rho)
    np.subtract(sliding_window_view(padded, b + 1), t[:, None], out=out.T)
    return out


def _rbf_kernel(t: np.ndarray, b: int, sigma: float, rho: float) -> np.ndarray:
    """The lower band of the truncated Gaussian kernel matrix ``A``, ``ab[d, j] = A[j + d, j]``,
    stored as :func:`_rbf_gaps`; the mask of the gaps beyond ``rho`` is freed on return."""
    ab = _rbf_gaps(t, b, rho)
    far = ab >= rho
    ab /= sigma
    np.square(ab, out=ab)
    ab *= -0.5
    np.exp(ab, out=ab)
    ab[far] = 0.0
    return ab


def rbfdiff(signal: Signal, sigma: float, rho: float, damping: float) -> DerivativeResult:
    """Truncated-Gaussian radial basis fit with eigenvalue damping. No argument has a
    default: the registry's ``rbf`` holds ``sigma`` and ``damping``, and sets ``rho``
    from ``sigma``.

    One basis function sits on every sample. The kernel is cut off at radius
    ``rho``, so only a band of the collocation matrix is built: its half-width
    ``b`` is the most samples within ``rho`` on one side of a sample (about
    ``rho / dt``). Adding ``damping`` times the identity shifts all eigenvalues
    up from zero, trading a little fit fidelity for a dramatically smaller
    condition number. The derivative reuses the coefficients with analytic
    kernel derivatives.

    Only the lower band of the symmetric ``M = A + damping I`` is built, ``b + 1`` rows of
    N, and factored in place by banded Cholesky (LAPACK ``pbsv``). Before that, the gaps
    weight it into ``W[d, j] = (t[j + d] - t[j]) A[j + d, j]``, and the derivative is
    ``(W^T c - W c) / sigma^2``, two BLAS ``gbmv`` products. The smoothed values are
    ``A c = y - damping c``, read from the solve with no product: closer to an
    extended-precision reference than ``A c`` multiplied out. Memory is these two bands.
    Where the truncated kernel matrix is not numerically positive definite (small damping
    at a wide sigma), the Cholesky breaks down; the kernel band is built again, the full
    ``2b + 1``-row band is solved by pivoting banded LU (``gbsv``), and the smoothed values
    are ``A c`` by BLAS ``sbmv``, as the LU's larger residual would show in
    ``y - damping c``. ``flags["lu_steps"]`` is 1 then, else 0.
    """
    _require_finite_settings(sigma=sigma, rho=rho, damping=damping)
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if rho <= sigma:
        raise ValidationError(f"rho must exceed sigma, got rho={rho}, sigma={sigma}")
    if damping < 0:
        raise ValidationError(f"damping must be >= 0, got {damping}")
    t, y = signal.grid.points, signal.values
    n = len(t)

    # t is sorted: widened by a few ulps, this search reaches every |t_j - t_i| < rho
    b = int(np.max(np.searchsorted(t, t + rho + 4 * np.spacing(np.abs(t) + rho))
                   - np.arange(1, n + 1)))
    kernel = _rbf_kernel(t, b, sigma, rho)
    weighted = _rbf_gaps(t, b, rho)
    weighted *= kernel
    kernel[0] += damping
    coef = _solve_spd_banded(kernel, y)
    del kernel  # its factor, or a broken one: not read again, so freed before the read-outs
    lu_steps = int(coef is None)
    if coef is None:
        kernel = _rbf_kernel(t, b, sigma, rho)
        band = np.zeros((2 * b + 1, n))
        for d in range(b + 1):  # M[j + d, j] = M[j, j + d]
            band[b + d, :n - d] = band[b - d, d:] = kernel[d, :n - d]
        band[b] += damping
        coef = _solve_banded(b, band, y, "banded radial-basis solve failed")
        smoothed = get_blas_funcs("sbmv", (kernel,))(b, 1.0, kernel, coef, lower=1)
    else:
        smoothed = y - damping * coef
    gbmv = get_blas_funcs("gbmv", (weighted,))
    derivative = gbmv(n, n, b, 0, 1.0, weighted, coef, trans=1)
    derivative = gbmv(n, n, b, 0, -1.0, weighted, coef, beta=1.0, y=derivative, overwrite_y=1)
    derivative /= sigma**2
    return DerivativeResult(
        smoothed=smoothed,
        derivative=derivative,
        method="rbfdiff",
        phi={"sigma": sigma, "rho": rho, "damping": damping},
        flags={"lu_steps": lu_steps},
    )
