"""scipy.signal-based Butterworth smoothing, kept as the bit-for-bit test oracle.

These are ``derivkit.smoothers``' ``_butter_design``, ``butterdiff`` and
``butter_single_pass`` as they were while the library built its sections with
``scipy.signal.butter`` and filtered with ``sosfiltfilt`` and ``sosfilt``.
Tests may import ``scipy.signal``; the library does not, so that importing
derivkit stays cheap.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import butter, sosfilt, sosfiltfilt

from derivkit.core import DerivativeResult, Signal, ValidationError, _require_uniform
from derivkit.fd import _fd_plan


def _butter_design(signal: Signal, order: int, cutoff_hz: float, what: str):
    fs = 1.0 / _require_uniform(signal, what)
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if not 0 < cutoff_hz < fs / 2:
        raise ValidationError(
            f"cutoff must lie in (0, {fs / 2}) Hz for dt={signal.grid.dt}, got {cutoff_hz}"
        )
    return butter(order, cutoff_hz, fs=fs, output="sos"), fs


def butterdiff(signal: Signal, order: int = 2, cutoff_hz: float = 1.0) -> DerivativeResult:
    sos, fs = _butter_design(signal, order, cutoff_hz, "butterdiff")
    padlen = int(min(len(signal) - 2, max(24, np.ceil(4 * fs / cutoff_hz))))
    # a C-contiguous copy of sosfiltfilt's reversed view: np.convolve rounds differently on it
    smoothed = np.ascontiguousarray(sosfiltfilt(sos, signal.values, padlen=padlen))
    return DerivativeResult(
        smoothed=smoothed,
        derivative=_fd_plan(len(smoothed), 1, 2, signal.grid.dt).apply(smoothed),
        method="butterdiff",
        phi={"order": order, "cutoff_hz": cutoff_hz},
    )


def butter_single_pass(signal: Signal, order: int, cutoff_hz: float) -> np.ndarray:
    return sosfilt(_butter_design(signal, order, cutoff_hz, "butter_single_pass")[0], signal.values)
