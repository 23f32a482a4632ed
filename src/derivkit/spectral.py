"""Global spectral differentiation and filtering.

Fourier differentiation multiplies real-FFT bins by (ik)^nu at integer
wavenumbers k, after an optional ideal low-pass that zeroes every k >= keep_modes.
Chebyshev differentiation runs scipy's DCT-I, a coefficient recurrence, and the
inverse DCT-I; it is intended for noiseless data only, since polynomial fit
errors compound from high modes to low ones during differentiation.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct, idct

from .core import (DerivativeResult, Signal, ValidationError, _reflect_pad,
                   _require_finite_settings, _require_int, _require_uniform)

#: Absolute tolerance (on the [-1, 1] reference interval) for cosine-spaced layouts.
NODE_TOL = 1e-8


def _fourier_pass(values: np.ndarray, dt: float, nu: int | None, keep_modes: int | None,
                  smooth: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Real FFT, optional ideal low-pass, then one inverse real FFT per requested output.

    Returns ``(smoothed, derivative)``: the low-passed values when ``smooth``
    and their ``nu``-th derivative when ``nu`` is given, None otherwise.
    """
    n = len(values)
    if n < 4:
        raise ValidationError(f"spectral methods need n >= 4, got {n}")
    coef = np.fft.rfft(values)
    k = np.arange(n // 2 + 1)
    if keep_modes is not None:
        coef[k >= keep_modes] = 0.0
    smoothed = np.fft.irfft(coef, n) if smooth else None
    if nu is None:
        return smoothed, None
    # irfft drops the imaginary part of an even length's Nyquist bin, which zeroes it for odd nu
    scale = (2 * np.pi / (n * dt)) ** nu
    return smoothed, np.fft.irfft(coef * (1j * k) ** nu, n) * scale


def _keep_modes(keep_modes, n: int) -> int | None:
    """``keep_modes`` as an int in [1, n // 2] for a transform of ``n`` samples, or None."""
    return None if keep_modes is None else _require_int("keep_modes", keep_modes, 1, n // 2)


def fourier_derivative(signal: Signal, nu: int = 1, keep_modes: int | None = None) -> DerivativeResult:
    """Differentiate a signal assumed periodic on [t0, t0 + N*dt).

    The grid is treated as positions within one period; the result does not
    depend on the absolute phase origin. ``keep_modes`` optionally applies an
    ideal low-pass to both outputs before differentiation.
    """
    dt = _require_uniform(signal, "fourier_derivative")
    nu, keep_modes = _require_int("derivative order", nu, 1), _keep_modes(keep_modes, len(signal))
    smoothed, deriv = _fourier_pass(signal.values, dt, nu, keep_modes,
                                    smooth=keep_modes is not None)
    return DerivativeResult(
        smoothed=signal.values if smoothed is None else smoothed,
        derivative=deriv,
        method="fourier",
        phi={"nu": nu, "keep_modes": keep_modes},
    )


def fourier_lowpass(signal: Signal, keep_modes: int) -> Signal:
    """Ideal low-pass: zero every Fourier mode with integer wavenumber |k| >= keep_modes."""
    dt = _require_uniform(signal, "fourier_lowpass")
    keep_modes = _keep_modes(keep_modes, len(signal))
    return Signal(signal.grid, _fourier_pass(signal.values, dt, None, keep_modes)[0])


def power_spectrum(signal: Signal) -> tuple[np.ndarray, np.ndarray]:
    """Power in decibels, ``10*log10|FFT(y)|^2``, at nonnegative frequencies.

    The frequency axis is in Hz and ends at the Nyquist frequency 1/(2*dt).
    Bins with exactly zero power map to ``-inf``.
    """
    dt = _require_uniform(signal, "power_spectrum")
    n = len(signal)
    freqs = np.arange(n // 2 + 1) / (n * dt)
    mag = np.abs(np.fft.rfft(signal.values))
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag)
    return freqs, db


def cheb_nodes(n: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes cos(pi*j/(n-1)), descending from 1 to -1."""
    n = _require_int("n", n, 2)
    return np.cos(np.pi * np.arange(n) / (n - 1))


def _chebder_once(coef: np.ndarray) -> np.ndarray:
    """One pass of the Chebyshev derivative recurrence; keeps array length."""
    n = len(coef)
    out = np.zeros(n)
    for k in range(n - 1, 0, -1):
        out[k - 1] = (out[k + 1] if k + 1 < n else 0.0) + 2 * k * coef[k]
    out[0] *= 0.5
    return out


def chebyshev_derivative(values, a: float = -1.0, b: float = 1.0, nu: int = 1,
                         points=None) -> DerivativeResult:
    """Differentiate samples taken at Chebyshev-Lobatto nodes mapped to [a, b].

    ``values[j]`` corresponds to the node ``cos(pi*j/(N-1))`` mapped affinely
    so node 1 lands on ``b`` (descending layout). If ``points`` is supplied it
    is checked against that layout; an ascending layout is accepted and outputs
    are returned in the input's order. Noiseless data only.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValidationError("values must be a 1-D sequence of length >= 2")
    if not np.all(np.isfinite(v)):
        raise ValidationError("values must be finite")
    nu = _require_int("derivative order", nu, 1)
    _require_finite_settings(a=a, b=b)
    if not b > a:
        raise ValidationError(f"need b > a, got [{a}, {b}]")
    n = len(v)
    nodes = cheb_nodes(n)
    flipped = False
    if points is not None:
        pts = np.asarray(points, dtype=float)
        if pts.shape != v.shape:
            raise ValidationError("points and values must have the same length")
        ref = (2 * pts - (a + b)) / (b - a)
        if np.max(np.abs(ref - nodes)) <= NODE_TOL:
            pass
        elif np.max(np.abs(ref[::-1] - nodes)) <= NODE_TOL:
            flipped = True
            v = v[::-1]
        else:
            raise ValidationError(
                "sample locations are not Chebyshev-Lobatto nodes on "
                f"[{a}, {b}] (max deviation above {NODE_TOL})"
            )

    coef = dct(v, type=1) / (n - 1)
    coef[0] *= 0.5
    coef[-1] *= 0.5
    for _ in range(nu):
        coef = _chebder_once(coef)
    back = coef * (n - 1)
    back[0] *= 2.0
    back[-1] *= 2.0
    deriv = idct(back, type=1) * (2.0 / (b - a)) ** nu
    if flipped:
        v = v[::-1]
        deriv = deriv[::-1]
    return DerivativeResult(
        smoothed=v, derivative=deriv, method="chebyshev", phi={"nu": nu, "a": a, "b": b}
    )


def fourier_extension_derivative(signal: Signal, pad: int = 0, extension: str = "even",
                                 keep_modes: int | None = None, nu: int = 1) -> DerivativeResult:
    """Fourier differentiation made workable for aperiodic (noisy) signals.

    The signal is insulated by ``pad`` repeats of its end values, the padding
    is blended by a moving average of window ceil(pad/4) (original samples are
    restored), and the result is optionally concatenated with its mirror image
    so the transform sees a periodic sequence. High modes are zeroed before
    differentiation and the original index range is sliced back out.
    """
    dt = _require_uniform(signal, "fourier_extension_derivative")
    pad, nu = _require_int("pad", pad, 0), _require_int("derivative order", nu, 1)
    if extension not in ("none", "even"):
        raise ValidationError(f"extension must be 'none' or 'even', got {extension!r}")
    y = signal.values
    n = len(y)

    z = np.concatenate([np.full(pad, y[0]), y, np.full(pad, y[-1])])
    if pad > 0:
        w = int(np.ceil(pad / 4))
        if w > 1:
            # only the pads are kept: each is blended from its own stretch of the reflected
            # sequence, with the w neighbours on either side its full windows reach
            zp, box, k = _reflect_pad(z, w), np.full(w, 1.0 / w), pad + 2 * w
            z[:pad] = np.convolve(zp[:k], box, mode="same")[w:-w]
            z[-pad:] = np.convolve(zp[-k:], box, mode="same")[w:-w]

    ext = np.concatenate([z, z[-2:0:-1]]) if extension == "even" else z
    keep_modes = _keep_modes(keep_modes, len(ext))
    smoothed, deriv = _fourier_pass(ext, dt, nu, keep_modes)
    return DerivativeResult(
        smoothed=smoothed[pad : pad + n],
        derivative=deriv[pad : pad + n],
        method="fourier_extension",
        phi={"pad": pad, "extension": extension, "keep_modes": keep_modes, "nu": nu},
    )
