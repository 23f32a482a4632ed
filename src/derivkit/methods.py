"""Registry of differentiation methods for tuning, benchmarking, and the CLI.

Each entry declares its hyperparameters (name, bounds, scale, default,
whether the tuner should search it), how to canonicalize a raw parameter
set (odd windows, even orders, cross-parameter constraints), and how to run
the method. Bounds may depend on the signal, e.g. on its length or Nyquist
frequency.

The registry is the one home of these defaults: the library functions and specs the
adapters call take every parameter the registry declares without a default, and each
adapter passes all the values its function runs with.

``run(signal, phi, nu, memo)`` takes a dict the caller owns for one signal.
A method may keep stages there that later runs on that signal reuse without
changing a bit: ``iterated_fd`` its iterates, ``savgol`` its smoothed values
and unblurred slope per ``(window, degree)``. Either bounds what it keeps to a
few dozen arrays of length N. A stage that raises is not stored. :func:`apply_method`
passes a fresh dict; the tuner passes one dict per search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import fd, kalman, smoothers, spectral, tvr
from .core import DerivativeResult, Grid, Signal, ValidationError, _require_int


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: float
    hi: float
    scale: str  # log | linear | integer
    default: float
    tunable: bool = True


@dataclass(frozen=True)
class MethodSpec:
    name: str
    description: str
    build_params: Callable[[Signal], tuple[ParamSpec, ...]]
    run: Callable[[Signal, dict, int, dict], DerivativeResult]  # (signal, phi, nu, memo)
    canonical: Callable[[dict], dict] = lambda phi: phi
    supports_nu: bool = False


_REGISTRY: dict[str, MethodSpec] = {}


def register(spec: MethodSpec) -> None:
    _REGISTRY[spec.name] = spec


def method_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_method(name: str) -> MethodSpec:
    if name not in _REGISTRY:
        raise ValidationError(
            f"unknown method {name!r}; available: {', '.join(method_names())}"
        )
    return _REGISTRY[name]


def _bounded_params(spec: MethodSpec, signal: Signal) -> tuple[ParamSpec, ...]:
    """``spec``'s parameters on ``signal``, each default clamped into its bounds.

    The bounds depend on the signal's length only; a signal too short for some
    interval to hold a value raises ValidationError with the shortest length
    (at the same mean step) that leaves every interval nonempty.
    """
    params = spec.build_params(signal)
    if any(p.lo > p.hi for p in params):
        n, step = len(signal), signal.grid.span / (len(signal) - 1)
        need = next(m for m in itertools.count(n + 1) if all(
            p.lo <= p.hi for p in spec.build_params(Signal(Grid.regular(m, step), np.zeros(m)))))
        raise ValidationError(f"method {spec.name!r} needs at least {need} samples, got {n}")
    return tuple(replace(p, default=min(max(p.default, p.lo), p.hi)) for p in params)


def resolve(spec: MethodSpec, params: tuple[ParamSpec, ...], phi: Mapping | None = None
            ) -> dict:
    """The parameters ``spec`` runs with: each value in ``phi`` as a float, else the
    default from ``params`` (``_bounded_params``'s), integer-scale values rounded to
    ``int``, every value checked against its bounds, then canonicalized. Resolving a
    resolved phi returns it unchanged."""
    merged = {p.name: p.default for p in params}
    for key, value in (phi or {}).items():
        if key not in merged:
            raise ValidationError(
                f"unknown parameter {key!r} for method {spec.name!r}; expected one of "
                f"{sorted(merged)}"
            )
        merged[key] = float(value)
    for p in params:
        value = merged[p.name]
        if p.scale == "integer" and math.isfinite(value):  # the bounds refuse the rest
            value = merged[p.name] = int(round(value))
        if not (p.lo <= value <= p.hi):
            raise ValidationError(
                f"parameter {p.name}={value:g} outside bounds [{p.lo:g}, {p.hi:g}]"
            )
    return spec.canonical(merged)


def describe(name: str, signal: Signal) -> str:
    """One-line parameter schema on ``signal`` with the resolved defaults, used by CLI
    usage errors."""
    spec = get_method(name)
    params = _bounded_params(spec, signal)
    defaults = resolve(spec, params)
    parts = [
        f"{p.name}={defaults[p.name]:g} ({p.scale} in [{p.lo:g}, {p.hi:g}])" for p in params
    ]
    return f"{spec.name}: {spec.description}; parameters: " + ", ".join(parts)


def apply_method(name: str, signal: Signal, phi: dict | None = None, nu: int = 1
                 ) -> DerivativeResult:
    """Run a registered method on ``signal`` with ``phi`` resolved by :func:`resolve`:
    missing parameters take their defaults, clamped into their bounds. ``nu``, the
    derivative order, must be an integer >= 1, and 1 unless the method supports more."""
    spec = get_method(name)
    nu = _require_int("derivative order", nu, 1)
    if nu != 1 and not spec.supports_nu:
        raise ValidationError(f"method {name!r} only produces first derivatives")
    return spec.run(signal, resolve(spec, _bounded_params(spec, signal), phi), nu, {})


def _odd(w: int) -> int:
    """An even window widened by one; every window bound is odd, so it stays in bounds."""
    return w if w % 2 else w + 1


def _nyquist(signal: Signal) -> float:
    if signal.grid.uniform:
        return 0.5 / signal.grid.dt
    return 0.5 * (len(signal) - 1) / signal.grid.span


# --- adapters -----------------------------------------------------------

def _fd_params(signal: Signal):
    return (ParamSpec("order", 2, 8, "integer", 2),)


def _even_order(phi):
    """An odd accuracy order raised to the even one that runs: the centered stencils reach
    only even orders (``fd._effective_order``). Every order bound is even."""
    return {**phi, "order": phi["order"] + phi["order"] % 2}


def _fd_run(signal, phi, nu, memo):
    return fd.fd_derivative(signal, nu=nu, order=phi["order"])


def _ifd_params(signal: Signal):
    return (
        ParamSpec("iterations", 0, 200, "integer", 10),
        ParamSpec("order", 2, 6, "integer", 2, tunable=False),
    )


def _ifd_run(signal, phi, nu, memo):
    return fd._iterated_fd(signal, phi["order"], phi["iterations"], memo)


def _kernel_params(signal: Signal):
    # the window's radius ceil(4 sigma) stays within (N - 1) // 2, so the window fits
    return (ParamSpec("sigma", 0.5, min(50.0, (len(signal) - 1) // 2 / 4), "log", 3.0),)


def _kernel_run(signal, phi, nu, memo):
    sigma = phi["sigma"]
    spec = smoothers.KernelSpec(window=smoothers._gaussian_window(sigma), sigma=sigma)
    return smoothers.kerneldiff(signal, spec)


def _butter_params(signal: Signal):
    nyq = _nyquist(signal)
    lo = max(2.0 / max(signal.grid.span, 1e-12), 1e-4 * nyq)
    return (
        ParamSpec("order", 1, 8, "integer", 2, tunable=False),
        ParamSpec("cutoff_hz", lo, 0.95 * nyq, "log", min(3.0, 0.5 * nyq)),
    )


def _butter_run(signal, phi, nu, memo):
    return smoothers.butterdiff(signal, order=phi["order"], cutoff_hz=phi["cutoff_hz"])


def _savgol_params(signal: Signal):
    n = len(signal)
    hi = min(n if n % 2 == 1 else n - 1, 129)
    return (
        ParamSpec("window", 5, hi, "integer", 21),
        ParamSpec("degree", 1, 8, "integer", 3),
        ParamSpec("post_smooth_sigma", 0.05, 50.0, "log", 1.0),
    )


def _savgol_canonical(phi):
    out = dict(phi)
    out["window"] = _odd(phi["window"])
    out["degree"] = min(phi["degree"], out["window"] - 1)
    return out


def _savgol_run(signal, phi, nu, memo):
    return smoothers._savgoldiff(signal, phi["window"], phi["degree"],
                                 phi["post_smooth_sigma"], memo)


def _poly_params(signal: Signal):
    n = len(signal)
    return (
        ParamSpec("window", 8, min(n, 160), "integer", 40),
        ParamSpec("degree", 1, 8, "integer", 3),
    )


def _poly_canonical(phi):
    out = dict(phi)
    out["degree"] = min(phi["degree"], phi["window"] - 1)
    return out


def _poly_run(signal, phi, nu, memo):
    return smoothers.polydiff(signal, window=phi["window"], degree=phi["degree"])


def _spline_params(signal: Signal):
    return (
        ParamSpec("lam", 1e-9, 1e9, "log", 1e-3),
        ParamSpec("degree", 2, 5, "integer", 3, tunable=False),
        ParamSpec("iterations", 1, 10, "integer", 1, tunable=False),
    )


def _spline_run(signal, phi, nu, memo):
    spec = smoothers.SplineSpec(degree=phi["degree"], mode="lambda", lam=phi["lam"],
                                iterations=phi["iterations"])
    return smoothers.splinediff(signal, spec)


def _fourier_params(signal: Signal):
    n = len(signal)
    return (
        ParamSpec("keep_modes", 2, max(n // 2 - 1, 3), "integer", min(30, n // 4)),
        ParamSpec("pad", 0, n // 2, "integer", n // 8, tunable=False),
    )


def _fourier_run(signal, phi, nu, memo):
    return spectral.fourier_extension_derivative(
        signal, pad=phi["pad"], extension="even", keep_modes=phi["keep_modes"], nu=nu)


#: kernel value at the truncation radius rho = RBF_TRUNCATION_FACTOR * sigma is 1e-4
RBF_TRUNCATION_FACTOR = float(np.sqrt(2.0 * np.log(1e4)))


def _rbf_params(signal: Signal):
    dt = signal.grid.span / (len(signal) - 1)
    # capped in samples: the band holds ~2 rho / dt = 2 * 4.3 sigma / dt diagonals
    return (
        ParamSpec("sigma", 1.5 * dt, min(signal.grid.span / 8, 64 * dt), "log", 8 * dt),
        ParamSpec("damping", 1e-8, 10.0, "log", 0.1),
    )


def _rbf_run(signal, phi, nu, memo):
    sigma = phi["sigma"]
    return smoothers.rbfdiff(signal, sigma=sigma, rho=RBF_TRUNCATION_FACTOR * sigma,
                             damping=phi["damping"])


def _tvr_params(signal: Signal):
    return (
        ParamSpec("gamma", 1e-4, 1e6, "log", 10.0),
        # order of the derivative whose variation is penalized, not the output
        ParamSpec("nu", 1, 3, "integer", 1, tunable=False),
    )


def _tvr_run(signal, phi, nu, memo):
    spec = tvr.TvrSpec(gamma=phi["gamma"], nu=phi["nu"])
    return tvr.tvrdiff(signal, spec)


def _satvr_params(signal: Signal):
    return (
        ParamSpec("gamma", 1e-4, 1e6, "log", 10.0),
        ParamSpec("soften_sigma", 0.5, 30.0, "log", 4.0),
    )


def _satvr_run(signal, phi, nu, memo):
    spec = tvr.TvrSpec(gamma=phi["gamma"], nu=2, soften_sigma=phi["soften_sigma"])
    return tvr.smooth_accel_tvr(signal, spec)


def _rts_params(signal: Signal):
    return (
        # rtsdiff depends on q and r only through q / r, so r is not a parameter
        ParamSpec("q", 1e-10, 1e10, "log", 1e2),
        ParamSpec("nu", 1, 3, "integer", 2, tunable=False),
    )


def _rts_run(signal, phi, nu, memo):
    return kalman.rtsdiff(signal, nu=phi["nu"], q=phi["q"], r=1.0)


def _robust_params(signal: Signal):
    return (
        ParamSpec("q", 1e-10, 1e10, "log", 1e2),
        ParamSpec("r", 1e-6, 1e6, "log", 1.0),
        ParamSpec("m", 0.5, 20.0, "log", kalman.RobustSpec.huber_m_measurement,
                  tunable=False),
        ParamSpec("nu", 1, 3, "integer", 2, tunable=False),
    )


def _robust_run(signal, phi, nu, memo):
    spec = kalman.RobustSpec(huber_m_measurement=phi["m"])
    return kalman.robustdiff(signal, nu=phi["nu"], q=phi["q"], r=phi["r"], spec=spec)


register(MethodSpec("fd", "finite differences (no smoothing)",
                    _fd_params, _fd_run, _even_order, supports_nu=True))
register(MethodSpec("iterated_fd", "iterated finite differences (IIR smoothing)",
                    _ifd_params, _ifd_run, _even_order))
register(MethodSpec("kernel", "gaussian kernel smoothing + finite differences",
                    _kernel_params, _kernel_run))
register(MethodSpec("butter", "zero-phase Butterworth smoothing + finite differences",
                    _butter_params, _butter_run))
register(MethodSpec("savgol", "Savitzky-Golay convolution",
                    _savgol_params, _savgol_run, _savgol_canonical))
register(MethodSpec("poly", "sliding-window polynomial fits",
                    _poly_params, _poly_run, _poly_canonical))
register(MethodSpec("spline", "smoothing spline with curvature penalty",
                    _spline_params, _spline_run))
register(MethodSpec("fourier", "low-passed Fourier derivative on an even extension",
                    _fourier_params, _fourier_run, supports_nu=True))
register(MethodSpec("rbf", "damped radial basis function fit",
                    _rbf_params, _rbf_run))
register(MethodSpec("tvr", "total-variation-regularized derivative",
                    _tvr_params, _tvr_run))
register(MethodSpec("smooth_accel_tvr", "second-order TVR with softened corners",
                    _satvr_params, _satvr_run))
register(MethodSpec("rts", "constant-derivative-model RTS smoother",
                    _rts_params, _rts_run))
register(MethodSpec("robust", "constant-derivative model with robust MAP smoothing",
                    _robust_params, _robust_run))
