"""Metrics, ground-truth-free losses, and hyperparameter search.

The proxy losses judge a derivative estimate without knowing the true
derivative: integrate the estimate, compare against the measurements, and
penalize total variation. Minimizing them over a method's hyperparameters
lands near the Pareto front of the (RMSE, error-correlation) plane.

A method whose one tunable parameter is continuous (``kernel``, ``butter``,
``spline``, ``tvr``, ``rts``) is searched by a grid and bounded Brent searches;
every other method (two or more tunable parameters, or one integer one:
``fd``, ``fourier``, ``iterated_fd``) by scipy's Nelder-Mead from several
seeded starts, each held to an exact evaluation budget.

Two things keep one evaluation cheap without changing a bit of its loss. Each
search passes one stage memo to every run of the method, so ``iterated_fd``
continues from its stored iterates and ``savgol`` re-blurs its stored slope
rather than starting over. And the Huber location of the robust loss is
taken from the two middle breakpoints of its influence sum whenever a
rounding-error bound certifies that they bracket the root, as they do when
every residual lies within the Huber radius of the residuals' mean; otherwise
all 2N breakpoints are sorted and searched.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

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
    _require_finite_settings(f_hz=f_hz, dt=dt)
    if f_hz <= 0 or dt <= 0:
        raise ValidationError("f_hz and dt must be positive")
    try:
        gamma = math.exp(-1.6 * math.log(f_hz) - 0.71 * math.log(dt) - 5.1)
    except OverflowError:
        raise ValidationError(
            f"f_hz={f_hz:g} is too small at dt={dt:g}: gamma would exceed float64's range"
        ) from None
    if gamma < sys.float_info.min:  # zero or subnormal: the TV penalty would vanish
        raise ValidationError(
            f"f_hz={f_hz:g} is too large at dt={dt:g}: gamma would fall below float64's "
            "smallest normal number")
    return gamma


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
    _require_finite_settings(gamma=gamma)
    if gamma < 0:
        raise ValidationError("gamma must be >= 0")
    integral, xdot = _integrated(derivative, signal)
    mu = float(np.mean(signal.values - integral))
    return rmse(integral + mu, signal.values) + gamma * total_variation(xdot)


def _huber(x: np.ndarray, radius: float) -> np.ndarray:
    a = np.abs(x)
    return np.where(a <= radius, 0.5 * x * x, radius * a - 0.5 * radius * radius)


def _influence(r: np.ndarray, csum: np.ndarray, radius: float, c: np.ndarray) -> np.ndarray:
    """``f(c) = sum clip(r + c, -radius, radius)`` at each point of ``c``, from the sorted
    ``r`` and its cumulative sum ``csum`` (``csum[0] = 0``)."""
    low = np.searchsorted(r, -radius - c, "right")  # r[:low] clip at -radius
    high = np.searchsorted(r, radius - c, "left")  # r[high:] clip at +radius
    return radius * (len(r) - high - low) + csum[high] - csum[low] + (high - low) * c


def _secant_root(c: np.ndarray, f: np.ndarray, k: int) -> float:
    """The root of the line through ``(c[k - 1], f[k - 1])`` and ``(c[k], f[k])``."""
    return float(c[k - 1] - f[k - 1] * (c[k] - c[k - 1]) / (f[k] - f[k - 1]))


def _certified_location(r: np.ndarray, csum: np.ndarray, radius: float) -> float | None:
    """:func:`_robust_location`'s root from its two middle breakpoints, or None when they
    cannot be shown to bracket it.

    ``c_lo = -r[0] - radius`` is the largest of the N breakpoints ``-r - radius`` and
    ``c_hi = -r[-1] + radius`` the smallest of the N breakpoints ``-r + radius``. When
    ``c_lo <= c_hi`` the stable sort of all 2N puts them at N - 1 and N, and the full
    search picks k = N exactly when every computed f before N is negative and f at N is
    not. Let u = 2**-53 and M = max|r|, so every breakpoint has |c| <= M + radius. At any
    breakpoint, computed f differs from the exact sum of clips by at most
    delta = u N (M + radius) (2N + 16) / (1 - 2N u):
      - ``cumsum`` adds in sequence, so each of the two prefixes is off by at most
        gamma_(N-1) sum|r| <= (N - 1) u N M / (1 - (N - 1) u);
      - the two products and the three additions of :func:`_influence` add at most
        7 u N (M + radius), the bound on each partial result times u;
      - a residual within u |radius -+ c| of a rounded threshold ``-+radius - c`` may be
        clipped on the wrong side, which moves its term by at most u (M + 2 radius).
    These add up to at most u N (M + radius) (2(N - 1) / (1 - N u) + 9) <= delta.
    The exact f rises with c, so computed f(c_lo) < -2 delta keeps every computed f up to
    N - 1 negative. An overflowing or NaN bound fails the test and falls back. The two
    tests on f also imply c_lo < c_hi; checking the order first only saves computing f
    when the breakpoints interleave.
    """
    n = len(r)
    c = np.array([-r[0] - radius, -r[-1] + radius])
    if not c[0] <= c[1]:
        return None
    f = _influence(r, csum, radius, c)
    eps = 2.0 ** -52  # 2u
    delta = n * (n + 8) * (float(max(-r[0], r[-1])) + radius) * eps / (1.0 - n * eps)
    if f[0] < -2.0 * delta and f[1] >= 0:
        return _secant_root(c, f, 1)
    return None


def _robust_location(r: np.ndarray, radius: float) -> float:
    """argmin_c sum Huber(r + c, radius) for the residuals ``r``, sorted ascending: the
    root of the influence sum ``f(c) = sum clip(r + c, -radius, radius)``, which rises
    from -N radius to N radius and is linear between its 2N breakpoints ``-r -+ radius``.

    When every residual lies within ``radius`` of their mean, the root lies between
    the two middle breakpoints, and :func:`_certified_location` returns it without
    sorting all 2N; otherwise every breakpoint is searched. Both give the same bits."""
    csum = np.zeros(len(r) + 1)
    np.cumsum(r, out=csum[1:])
    root = _certified_location(r, csum, radius)
    if root is not None:
        return root
    a = -r[::-1]
    c = np.concatenate([a - radius, a + radius])
    c.sort(kind="stable")  # two ascending runs: the stable (merge) sort joins them in one pass
    f = _influence(r, csum, radius, c)
    return _secant_root(c, f, int(np.argmax(f >= 0)))


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
    _require_finite_settings(gamma=gamma, m=m)
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

    Nelder-Mead runs ``starts`` times from points drawn by ``seed``, each making
    at most ``max_evals`` evaluations. The one-parameter grid and Brent search
    draws nothing, so ``seed`` does not affect it. Either way a search makes at
    most ``starts * max_evals`` evaluations in all.
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


def _multi_start(fn, lo_t: np.ndarray, hi_t: np.ndarray, starts: int, max_evals: int,
                 rng: np.random.Generator):
    """scipy's Nelder-Mead from ``starts`` points drawn uniformly in the box ``[lo_t, hi_t]``.

    Each start steps ``0.15 * (hi_t - lo_t)`` along every axis for its first simplex,
    uses the standard coefficients (1, 2, 0.5, 0.5), stops once every vertex lies within
    ``DIAMETER_TOL`` of the best in the infinity norm, and makes at most ``max_evals``
    evaluations, the first simplex included. Returns the best point evaluated, its f and
    the evaluations, or (None, inf, evaluations) when every evaluation failed; ties go to
    the earlier evaluation. The best point is kept here, not taken from scipy's result:
    a start whose budget runs out right after a reflection ends without that point in
    its simplex, even when it beat every vertex.
    """
    best_x, best_loss, total_evals = None, sys.float_info.max, 0

    def finite(x: np.ndarray) -> float:
        nonlocal best_x, best_loss
        # the largest float stands in for a failed evaluation's inf: scipy also stops only
        # when the losses agree within fatol=inf, which inf - inf never does
        loss = min(fn(x), sys.float_info.max)
        if loss < best_loss:
            best_x, best_loss = x, float(loss)
        return loss

    for _ in range(starts):
        x0 = rng.uniform(lo_t, hi_t)
        res = minimize(finite, x0, method="Nelder-Mead", options={
            "initial_simplex": np.vstack([x0, x0 + np.diag(0.15 * (hi_t - lo_t))]),
            "maxfev": max_evals, "xatol": DIAMETER_TOL, "fatol": math.inf})
        total_evals += res.nfev
    return best_x, best_loss if best_x is not None else math.inf, total_evals


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
    ``spec.seed`` plays no part. Otherwise scipy's Nelder-Mead starts from
    ``spec.starts`` points drawn uniformly in the transformed box, deterministic
    for a fixed seed, with at most ``spec.max_evals`` evaluations each, ties
    broken by start index. The winner is the feasible parameter set
    with the lowest loss. Evaluations that raise count as an infinite loss;
    ``info`` reports the search that ran (``"grid+brent"`` or
    ``"nelder-mead"``), the evaluation count, the number of distinct
    canonical parameter sets, the number of failed evaluations and the
    first few failure reasons.

    Each distinct canonical parameter set is run and scored once; a repeat is
    served from a memo of its loss (or failure reason) and still counts as an
    evaluation, and a repeated failure as a failed evaluation, so the counts
    mean what they would if every evaluation ran the method. Every run of one
    search shares one stage memo (see :mod:`derivkit.methods`), which the
    search drops when it returns: ``iterated_fd`` continues from the nearest
    stored iterate, and ``savgol`` only re-blurs a stored slope when one of its
    16 latest ``(window, degree)`` pairs recurs. The loss certifies its Huber location from
    two breakpoints where it can (:func:`_certified_location`). Neither
    changes a bit of any loss.
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
    stages: dict = {}  # the method's own stage memo, shared by every run of this search

    def objective(x: np.ndarray) -> float:
        phi = to_phi(x)
        key = tuple(sorted(phi.items()))
        if key not in memo:
            try:
                result = mspec.run(signal, phi, 1, stages)
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
