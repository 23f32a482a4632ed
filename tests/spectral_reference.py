"""Complex-FFT Fourier pass with exact integer wavenumbers, kept as the test oracle.

``derivkit.spectral`` runs its low-pass and derivative on the real FFT. This
module does the same on the full complex FFT: every bin gets its signed
integer wavenumber, the low-pass keeps the bins with ``|k| < keep_modes``, and
the Nyquist bin of an even length is spelled out by hand (``(i n/2)^nu`` for
even ``nu``, zero for odd ``nu``). It exists only so tests can compare the
library against it.
"""

from __future__ import annotations

import numpy as np


def signed_wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT bin order: 0..n//2, then -((n-1)//2)..-1."""
    return np.r_[0 : n // 2 + 1, -((n - 1) // 2) : 0]


def fourier_pass(values: np.ndarray, dt: float, nu: int | None,
                 keep_modes: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """``(low-passed values, their nu-th derivative or None)`` of a periodic sequence."""
    n = len(values)
    k = signed_wavenumbers(n)
    coef = np.fft.fft(values)
    if keep_modes is not None:
        coef = np.where(np.abs(k) < keep_modes, coef, 0.0)
    smoothed = np.fft.ifft(coef).real
    if nu is None:
        return smoothed, None
    mult = (1j * k) ** nu
    if n % 2 == 0:
        mult[n // 2] = (1j * n / 2) ** nu if nu % 2 == 0 else 0.0
    return smoothed, np.fft.ifft(coef * mult).real * (2 * np.pi / (n * dt)) ** nu


def extended(y: np.ndarray, pad: int, extension: str) -> np.ndarray:
    """The periodic sequence ``fourier_extension_derivative`` transforms: ``pad`` end
    values on each side, blended by one moving average of window ceil(pad/4) over the
    whole reflected sequence with the samples restored, then mirrored when ``extension``
    is ``"even"``."""
    n = len(y)
    z = np.concatenate([np.full(pad, y[0]), y, np.full(pad, y[-1])])
    w = int(np.ceil(pad / 4))
    if w > 1:
        z = np.convolve(np.pad(z, w, mode="reflect"), np.full(w, 1.0 / w), mode="same")[w:-w]
        z[pad : pad + n] = y
    return np.concatenate([z, z[-2:0:-1]]) if extension == "even" else z
