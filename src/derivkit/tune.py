"""Metrics, ground-truth-free losses, and hyperparameter search.

The proxy losses judge a derivative estimate without knowing the true
derivative: integrate the estimate, compare against the measurements, and
penalize total variation. Minimizing them over a method's hyperparameters
with multi-start Nelder-Mead lands near the Pareto front of the
(RMSE, error-correlation) plane.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MethodConfig,
    NumericError,
    Signal,
    ValidationError,
    _cumtrapz,
    total_variation,
)
from .methods import _bounded_params, get_method, resolve

#: median(|N(0,1)|): MAD of a standard normal, used to put MAD on a sigma scale.
MAD_NORMALIZER = 0.6745
#: How many failed evaluations :func:`autotune` reports the reasons of.
FAILURE_REASONS = 3
#: Nelder-Mead stops once its simplex is this small in transformed parameter space.
DIAMETER_TOL = 1e-3


def _pair(est, truth) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(est, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def rmse(est, truth) -> float:
    """Root mean squared error between two equal-length sequences."""
    a, b = _pair(est, truth)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def error_correlation(est, truth) -> float:
    """Squared correlation between estimate error and the true values.

    Measures systematic bias: a smoother that dulls large derivatives makes
    errors that track the truth. Zero when the error has no variance.
    """
    a, b = _pair(est, truth)
    err = a - b
    var_truth = np.var(b)
    if var_truth <= 0:
        raise ValidationError("truth has zero variance")
    var_err = np.var(err)
    # constant error (up to fp rounding of the subtraction) carries no bias
    fp_floor = 1e-13 * (abs(float(np.mean(err))) + float(np.sqrt(var_truth)))
    if var_err <= fp_floor**2:
        return 0.0
    cov = np.mean((err - err.mean()) * (b - b.mean()))
    return float(cov * cov / (var_err * var_truth))


def gamma_heuristic(f_hz: float, dt: float) -> float:
    """Smoothness weight from the signal bandlimit (Hz) and the step size."""
    if f_hz <= 0 or dt <= 0:
        raise ValidationError("f_hz and dt must be positive")
    return math.exp(-1.6 * math.log(f_hz) - 0.71 * math.log(dt) - 5.1)


def _integrated(derivative, signal: Signal) -> tuple[np.ndarray, np.ndarray]:
    xdot = np.asarray(derivative, dtype=float)
    if xdot.shape != signal.values.shape:
        raise ValidationError("derivative length must match the signal")
    if not np.isfinite(xdot).all():
        raise ValidationError("derivative must be finite")
    return _cumtrapz(signal.grid, xdot), xdot


def proxy_loss(derivative, signal: Signal, gamma: float) -> float:
    """Reconstruction RMSE of the integrated derivative plus gamma * TV.

    The lost constant of integration is restored as the mean difference
    between the measurements and the integral.
    """
    if gamma < 0:
        raise ValidationError("gamma must be >= 0")
    integral, xdot = _integrated(derivative, signal)
    mu = float(np.mean(signal.values - integral))
    return rmse(integral + mu, signal.values) + gamma * total_variation(xdot)


def _huber(x: np.ndarray, radius: float) -> np.ndarray:
    a = np.abs(x)
    return np.where(a <= radius, 0.5 * x * x, radius * a - 0.5 * radius * radius)


def _robust_location(resid: np.ndarray, radius: float) -> float:
    """argmin_c sum Huber(resid + c, radius): the root of the influence sum
    ``f(c) = sum clip(resid + c, -radius, radius)``, which rises from -N radius
    to N radius and is linear between its 2N breakpoints ``-resid -+ radius``."""
    r = np.sort(resid)
    csum = np.zeros(len(r) + 1)
    np.cumsum(r, out=csum[1:])
    a = -r[::-1]
    c = np.concatenate([a - radius, a + radius])
    c.sort(kind="stable")  # two ascending runs: the stable (merge) sort joins them in one pass
    low = np.searchsorted(r, -radius - c, "right")  # r[:low] clip at -radius
    high = np.searchsorted(r, radius - c, "left")  # r[high:] clip at +radius
    f = radius * (len(r) - high - low) + csum[high] - csum[low] + (high - low) * c
    k = int(np.argmax(f >= 0))
    return float(c[k - 1] - f[k - 1] * (c[k] - c[k - 1]) / (f[k] - f[k - 1]))


def _sorted_median(r: np.ndarray) -> float:
    """``np.median`` of the sorted ``r``, by the same arithmetic: its middle element, or
    the mean of its two middle ones."""
    h = len(r) // 2
    return r[h] if len(r) % 2 else (r[h - 1] + r[h]) / 2


def robust_proxy_loss(derivative, signal: Signal, gamma: float, m: float = 6.0) -> float:
    """Huberized reconstruction loss plus gamma * TV.

    Residual scatter is measured by the median absolute deviation scaled to
    match a Gaussian sigma; the Huber radius is ``m`` of those units, and
    the integration constant is chosen robustly under the same loss. For
    large ``m`` (or when the MAD is zero) this reduces to :func:`proxy_loss`.
    """
    if gamma < 0:
        raise ValidationError("gamma must be >= 0")
    if m <= 0:
        raise ValidationError("m must be positive")
    integral, xdot = _integrated(derivative, signal)
    resid = integral - signal.values
    r = np.sort(resid)
    spread = np.abs(r - _sorted_median(r))
    spread.sort(kind="stable")  # falls, then rises along r: two runs, joined in one merge pass
    sigma_mad = float(_sorted_median(spread)) / MAD_NORMALIZER
    if sigma_mad == 0.0:
        return proxy_loss(derivative, signal, gamma)
    radius = m * sigma_mad
    c = _robust_location(r, radius)
    # summed in the residuals' own order: np.sum's pairwise rounding depends on it
    fidelity = math.sqrt(2.0 / len(resid) * float(np.sum(_huber(resid + c, radius))))
    return fidelity + gamma * total_variation(xdot)


@dataclass(frozen=True)
class TuneSpec:
    """Settings for :func:`autotune`.

    The TV weight gamma is derived from ``cutoff_hz`` and the grid step by
    :func:`gamma_heuristic`. The Huber parameter defaults to 6, or 2 when the
    data is declared to contain outliers.
    """

    cutoff_hz: float = 3.0
    huber_m: float | None = None
    outliers: bool = False
    starts: int = 10
    max_evals: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.cutoff_hz <= 0:
            raise ValidationError("cutoff_hz must be positive")
        if self.huber_m is not None and self.huber_m <= 0:
            raise ValidationError("huber_m must be positive")
        if self.starts < 1 or self.max_evals < 1:
            raise ValidationError("starts and max_evals must be >= 1")

    @property
    def resolved_m(self) -> float:
        if self.huber_m is not None:
            return self.huber_m
        return 2.0 if self.outliers else 6.0


def _nelder_mead(fn, x0: np.ndarray, steps: np.ndarray, max_evals: int):
    """Downhill simplex with standard coefficients (1, 2, 0.5, 0.5).

    Terminates when the simplex diameter (max infinity-norm distance from
    the best vertex) falls below ``DIAMETER_TOL`` or the evaluation budget
    runs out. Returns (best x, best f, evaluations).
    """
    dim = len(x0)
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return fn(x)

    simplex = [np.array(x0, dtype=float)]
    for i in range(dim):
        v = np.array(x0, dtype=float)
        v[i] += steps[i]
        simplex.append(v)
    values = [call(v) for v in simplex]
    while evals < max_evals:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if max(np.max(np.abs(v - simplex[0])) for v in simplex[1:]) < DIAMETER_TOL:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = call(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = call(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = call(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, dim + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = call(simplex[i])
        if evals >= max_evals:
            break
    best = int(np.argmin(values))
    return simplex[best], values[best], evals


def _stable_int(part) -> int:
    digest = hashlib.sha256(repr(part).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stable_key(*parts) -> int:
    """Deterministic 63-bit integer derived from the parts (process-independent)."""
    return _stable_int(tuple(repr(p) for p in parts)) >> 1


def seeded_stream(*parts) -> np.random.Generator:
    """Counter-based random stream keyed deterministically by its parts."""
    entropy = [_stable_int(p) for p in parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _transform(value: float, scale: str) -> float:
    return math.log(value) if scale == "log" else float(value)


def _untransform(x: float, scale: str, lo: float, hi: float) -> float:
    v = math.exp(x) if scale == "log" else x
    return min(max(v, lo), hi)


def autotune(method: str, signal: Signal, spec: TuneSpec | None = None) -> MethodConfig:
    """Pick hyperparameters for a registered method by multi-start Nelder-Mead.

    The search minimizes :func:`robust_proxy_loss` in transformed parameter
    space (log for positive reals, continuous-then-rounded for integers),
    starting from ``spec.starts`` log-uniform seeds. Deterministic for a
    fixed seed; the winner is the feasible parameter set with the lowest
    loss, ties broken by start index. Evaluations that raise count as an
    infinite loss; ``info`` reports the evaluation count, the number of
    distinct canonical parameter sets, the number of failed evaluations and
    the first few failure reasons.

    Each distinct canonical parameter set is run and scored once; a repeat is
    served from a memo of its loss (or failure reason) and still counts as an
    evaluation, and a repeated failure as a failed evaluation, so the counts
    mean what they would if every evaluation ran the method. A point the
    search has already tried is looked up by its bytes, without mapping it
    to ``phi`` again.
    """
    spec = spec or TuneSpec()
    mspec = get_method(method)
    all_params = _bounded_params(mspec, signal)
    params = [p for p in all_params if p.tunable]
    if not params:
        raise ValidationError(f"method {method!r} has no tunable parameters")

    dt_eff = signal.grid.span / (len(signal) - 1)
    gamma = gamma_heuristic(spec.cutoff_hz, dt_eff)
    m = spec.resolved_m

    lo_t = np.array([_transform(p.lo, p.scale) for p in params])
    hi_t = np.array([_transform(p.hi, p.scale) for p in params])

    def to_phi(x: np.ndarray) -> dict:
        return resolve(mspec, all_params, {
            p.name: _untransform(min(max(xi, lo), hi), p.scale, p.lo, p.hi)
            for p, xi, lo, hi in zip(params, x, lo_t, hi_t)})

    failures: list[str] = []
    memo: dict[tuple, tuple[float, str | None]] = {}  # canonical phi -> (loss, failure)
    keys: dict[bytes, tuple] = {}  # point x -> its canonical phi's memo key

    def objective(x: np.ndarray) -> float:
        point = x.tobytes()
        if point not in keys:
            phi = to_phi(x)
            key = tuple(sorted(phi.items()))
            if key not in memo:
                try:
                    result = mspec.run(signal, phi, 1)
                    loss = robust_proxy_loss(result.derivative, signal, gamma, m)
                except (ValidationError, NumericError) as exc:
                    memo[key] = math.inf, f"{phi}: {exc}"
                else:
                    memo[key] = (loss if math.isfinite(loss) else math.inf), None
            keys[point] = key
        loss, failure = memo[keys[point]]
        if failure is not None:
            failures.append(failure)
        return loss

    rng = seeded_stream(spec.seed, "autotune", method)
    best_x = None
    best_loss = math.inf
    total_evals = 0
    for _ in range(spec.starts):
        x0 = rng.uniform(lo_t, hi_t)
        steps = 0.15 * (hi_t - lo_t)
        x, loss, used = _nelder_mead(objective, x0, steps, spec.max_evals)
        total_evals += used
        if loss < best_loss:
            best_loss, best_x = loss, x
    if best_x is None or not math.isfinite(best_loss):
        detail = "; ".join(failures[-3:]) or "no finite loss found"
        raise NumericError(f"autotune failed for {method!r}: {detail}")

    return MethodConfig(
        method=method,
        phi=to_phi(best_x),
        info={"loss": best_loss, "gamma": gamma, "m": m,
              "evaluations": total_evals, "distinct_evaluations": len(memo),
              "failed_evaluations": len(failures),
              "failure_reasons": failures[:FAILURE_REASONS], "seed": spec.seed},
    )
