"""Metrics, ground-truth-free losses, and hyperparameter search.

The proxy losses judge a derivative estimate without knowing the true
derivative: integrate the estimate, compare against the measurements, and
penalize total variation. Minimizing them over a method's hyperparameters
lands near the Pareto front of the (RMSE, error-correlation) plane.

A method whose one tunable parameter is continuous (``butter``, ``spline``,
``tvr``, ``rts``) is searched by a grid and bounded Brent searches; every other
method (two or more tunable parameters, or one integer one: ``fd``,
``fourier``, ``iterated_fd``) by multi-start Nelder-Mead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .core import (
    MethodConfig,
    NumericError,
    Signal,
    ValidationError,
    _cumtrapz,
    _require_finite_settings,
    total_variation,
)
from .methods import _bounded_params, get_method, resolve

#: median(|N(0,1)|): MAD of a standard normal, used to put MAD on a sigma scale.
MAD_NORMALIZER = 0.6745
#: How many failed evaluations :func:`autotune` reports the reasons of.
FAILURE_REASONS = 3
#: Nelder-Mead stops once its simplex is this small in transformed parameter space.
DIAMETER_TOL = 1e-3
#: Evenly spaced points the one-parameter search scans before its Brent searches.
GRID_POINTS = 25
#: Each bounded Brent search stops at this width in transformed parameter space.
XATOL = 1e-4


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
    :func:`gamma_heuristic`. The Huber parameter is 6, or 2 when the data is
    declared to contain outliers.

    Nelder-Mead runs ``starts`` times from points drawn by ``seed``, each with a
    budget of ``max_evals``. It checks that budget once per iteration, so a start
    can make up to ``max_evals + dim + 1`` evaluations, ``dim`` being the number
    of tunable parameters. The one-parameter grid and Brent search draws
    nothing, so ``seed`` does not affect it, and it makes at most
    ``starts * max_evals`` evaluations in all.
    """

    cutoff_hz: float = 3.0
    outliers: bool = False
    starts: int = 10
    max_evals: int = 200
    seed: int = 0

    def __post_init__(self):
        _require_finite_settings(cutoff_hz=self.cutoff_hz)
        if self.cutoff_hz <= 0:
            raise ValidationError("cutoff_hz must be positive")
        if self.starts < 1 or self.max_evals < 1:
            raise ValidationError("starts and max_evals must be >= 1")

    @property
    def resolved_m(self) -> float:
        return 2.0 if self.outliers else 6.0


def _nelder_mead(fn, x0: np.ndarray, steps: np.ndarray, max_evals: int):
    """Downhill simplex with standard coefficients (1, 2, 0.5, 0.5).

    Terminates when the simplex diameter (max infinity-norm distance from
    the best vertex) falls below ``DIAMETER_TOL`` or the evaluation budget
    runs out. The budget is checked once per iteration, and an iteration that
    starts one evaluation short of it can make ``dim + 2`` more (a reflection,
    a contraction, then a shrink of ``dim`` vertices), so a search makes at
    most ``max_evals + dim + 1``. Returns (best x, best f, evaluations).
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


def _multi_start(fn, lo_t: np.ndarray, hi_t: np.ndarray, starts: int, max_evals: int,
                 rng: np.random.Generator):
    """Nelder-Mead from ``starts`` points drawn uniformly in the box ``[lo_t, hi_t]``,
    each with a budget of ``max_evals``. Returns (best x, best f, evaluations); ties go
    to the earlier start."""
    best_x = None
    best_loss = math.inf
    total_evals = 0
    for _ in range(starts):
        x0 = rng.uniform(lo_t, hi_t)
        steps = 0.15 * (hi_t - lo_t)
        x, loss, used = _nelder_mead(fn, x0, steps, max_evals)
        total_evals += used
        if loss < best_loss:
            best_loss, best_x = loss, x
    return best_x, best_loss, total_evals


def _grid_brent(fn, lo: float, hi: float, budget: int):
    """Minimize ``fn`` over one coordinate in ``[lo, hi]`` with at most ``budget`` evaluations.

    ``min(GRID_POINTS, budget)`` evenly spaced points from ``lo`` to ``hi`` find the best
    grid point, and a bounded Brent search (``xatol=XATOL``) refines inside the two grid
    cells around it. The proxy losses of ``tvr`` and ``rts`` can hold a second, deeper
    local minimum a few hundredths away in that bracket, so the bracket is then split at
    the best point so far and Brent searches each side once more. Each search gets the
    budget left. ``fn`` takes a length-1 array. Returns (best x evaluated, its value,
    evaluations); ties go to the earlier evaluation.
    """
    best_x, best_f, evals = None, math.inf, 0

    def call(x) -> float:
        nonlocal best_x, best_f, evals
        evals += 1
        point = np.array([x], dtype=float)
        f = fn(point)
        if f < best_f:
            best_x, best_f = point, f
        return f

    def brent(a: float, b: float) -> None:
        # the bounded search evaluates at least twice, and at most maxiter times from then on
        if a < b and budget - evals >= 2:
            minimize_scalar(call, bounds=(a, b), method="bounded",
                            options={"xatol": XATOL, "maxiter": budget - evals})

    grid = np.linspace(lo, hi, min(GRID_POINTS, budget))
    k = int(np.argmin([call(x) for x in grid]))
    a, b = sorted(grid[[max(k - 1, 0), min(k + 1, len(grid) - 1)]])
    brent(a, b)
    if best_x is not None:
        split = best_x[0]
        brent(a, split)
        brent(split, b)
    return best_x, best_f, evals


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
    """Pick hyperparameters for a registered method without ground truth.

    The search minimizes :func:`robust_proxy_loss` in transformed parameter
    space (log for positive reals, continuous-then-rounded for integers).
    When the method's one tunable parameter is continuous, ``GRID_POINTS``
    evenly spaced points, then bounded Brent searches around the best of
    them, spend at most ``spec.starts * spec.max_evals`` evaluations, and
    ``spec.seed`` plays no part. Otherwise multi-start Nelder-Mead starts
    from ``spec.starts`` log-uniform seeds, deterministic for a fixed seed,
    ties broken by start index. The winner is the feasible parameter set
    with the lowest loss. Evaluations that raise count as an infinite loss;
    ``info`` reports the search that ran (``"grid+brent"`` or
    ``"nelder-mead"``), the evaluation count, the number of distinct
    canonical parameter sets, the number of failed evaluations and the
    first few failure reasons.

    Each distinct canonical parameter set is run and scored once; a repeat is
    served from a memo of its loss (or failure reason) and still counts as an
    evaluation, and a repeated failure as a failed evaluation, so the counts
    mean what they would if every evaluation ran the method.
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

    def objective(x: np.ndarray) -> float:
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
        loss, failure = memo[key]
        if failure is not None:
            failures.append(failure)
        return loss

    if len(params) == 1 and params[0].scale != "integer":
        search = "grid+brent"
        best_x, best_loss, total_evals = _grid_brent(
            objective, lo_t[0], hi_t[0], spec.starts * spec.max_evals)
    else:
        search = "nelder-mead"
        best_x, best_loss, total_evals = _multi_start(
            objective, lo_t, hi_t, spec.starts, spec.max_evals,
            seeded_stream(spec.seed, "autotune", method))
    if best_x is None or not math.isfinite(best_loss):
        detail = "; ".join(failures[-FAILURE_REASONS:]) or "no finite loss found"
        raise NumericError(f"autotune failed for {method!r}: {detail}")

    return MethodConfig(
        method=method,
        phi=to_phi(best_x),
        info={"loss": best_loss, "gamma": gamma, "m": m,
              "evaluations": total_evals, "distinct_evaluations": len(memo),
              "failed_evaluations": len(failures),
              "failure_reasons": failures[:FAILURE_REASONS], "search": search,
              "seed": spec.seed},
    )
