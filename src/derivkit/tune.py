"""Metrics, ground-truth-free losses, and hyperparameter search.

The proxy losses judge a derivative estimate without knowing the true
derivative: integrate the estimate, compare against the measurements, and
penalize total variation. Minimizing them over a method's hyperparameters
lands near the Pareto front of the (RMSE, error-correlation) plane.

A method whose one tunable parameter is continuous (``kernel``, ``butter``,
``spline``, ``tvr``, ``rts``) is searched by a grid and bounded Brent searches,
which draw nothing; every other method, with one integer parameter (``fd``,
``fourier``, ``iterated_fd``) or two or more (``savgol``, ``poly``, ``rbf``,
``robust``, ``smooth_accel_tvr``), by scipy's Nelder-Mead from several seeded
starts, each held to an exact evaluation budget. A search only drives one
objective, which appends each evaluation's canonical parameter set, loss and
failure to a log; the tuned parameters, their loss and every count are read
from that log alone, so a new search only has to call the objective. A
repeated parameter set is served from a memo of its loss or failure, and
still counts as an evaluation.

The Nelder-Mead starts are independent, so they run split among forked
processes, one per usable CPU up to ``DERIVKIT_WORKERS``, with results identical
to running them one after another: every start point is drawn first, each
start sends back its slice of the log, and the slices are merged in start
order. The calling process reruns any start that no child reported, and no
child outlives the search. The search stays in one process for a single start,
off Linux, inside a ``multiprocessing`` worker such as the benchmark sweep's, or
while other Python threads run.

Two things keep one evaluation cheap without changing a bit of its loss. Each
search passes one stage memo to every run of the method in a process, so
``iterated_fd`` continues from its stored iterates and ``savgol`` re-blurs its
stored slope rather than starting over. And the Huber location of the robust
loss is taken from the two middle breakpoints of its influence sum whenever a
rounding-error bound certifies that they bracket the root, as they do when
every residual lies within the Huber radius of the residuals' mean; otherwise
all 2N breakpoints are sorted and searched.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import numbers
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from signal import SIGKILL

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .core import (
    MethodConfig,
    NumericError,
    Signal,
    ValidationError,
    _cumtrapz,
    _require_finite_settings,
    _require_int,
    _worker_count,
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
    declared to contain outliers: ``outliers`` takes a boolean, 0 or 1, and is stored as
    a bool (a string such as ``"false"`` is refused, not read as true).

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
        for name in ("starts", "max_evals"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, None))
        if not (isinstance(self.outliers, np.bool_)
                or isinstance(self.outliers, numbers.Integral) and self.outliers in (0, 1)):
            raise ValidationError("outliers must be a boolean, 0 or 1")
        object.__setattr__(self, "outliers", bool(self.outliers))

    @property
    def resolved_m(self) -> float:
        return 2.0 if self.outliers else 6.0


def _start_processes(starts: int) -> int:
    """How many processes a search's ``starts`` run in: :func:`~derivkit.core._worker_count`
    of them, or one on a platform other than Linux, inside a ``multiprocessing`` worker
    (such as :func:`~derivkit.sims.benchmark_sweep`'s, whose pool already fills the CPUs),
    or while another Python thread is alive, which a forked child would lack."""
    processes = _worker_count(starts)
    if (processes == 1 or sys.platform != "linux" or threading.active_count() > 1
            or multiprocessing.parent_process() is not None):
        return 1
    return processes


def _fork_map(run, count: int, processes: int) -> list:
    """``[run(i) for i in range(count)]``, which is what one process runs, else split among
    this process and ``processes - 1`` forked children: child ``k`` runs every
    ``processes``-th ``i`` from ``k``, this process those from 0. Each child sends its
    results back pickled through a pipe and exits. This process stops at its first ``i``
    that raises. Once every child is reaped, the ``i`` are taken in order: that exception
    is raised again at its ``i``, and each ``i`` that no child reported (it died, or
    ``run`` raised) is run here, so the results and any exception are the serial loop's.
    No child outlives the call."""
    if processes == 1:
        return [run(i) for i in range(count)]
    results, children, stop, error = {}, [], count, None
    try:
        for k in range(1, processes):
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # from Python 3.12 fork warns of any OS thread; with no Python thread
                    # alive, those are the BLAS pool's, which OpenBLAS stops before a fork
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump({i: run(i) for i in range(k, count, processes)}, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        for i in range(0, count, processes):
            try:
                results[i] = run(i)
            except Exception as exc:  # raised again below, after every earlier i
                stop, error = i, exc
                break
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status == 0:
                results.update(pickle.loads(payload))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    ordered = [results[i] if i in results else run(i) for i in range(stop)]
    if error is not None:
        raise error
    return ordered


def _nelder_mead(fn, x0: np.ndarray, step: np.ndarray, max_evals: int) -> None:
    """One start of scipy's Nelder-Mead on ``fn`` from ``x0``: its first simplex steps
    ``step`` along each axis, it uses the standard coefficients (1, 2, 0.5, 0.5), and it
    stops once every vertex lies within ``DIAMETER_TOL`` of the best in the infinity norm
    or after ``max_evals`` evaluations, the first simplex included."""
    # the largest float stands in for a failed evaluation's inf: scipy also stops only
    # when the losses agree within fatol=inf, which inf - inf never does
    minimize(lambda x: min(fn(x), sys.float_info.max), x0, method="Nelder-Mead", options={
        "initial_simplex": np.vstack([x0, x0 + np.diag(step)]),
        "maxfev": max_evals, "xatol": DIAMETER_TOL, "fatol": math.inf})


def _grid_brent(fn, lo: float, hi: float, budget: int) -> None:
    """Minimize ``fn`` over one coordinate in ``[lo, hi]`` with at most ``budget`` evaluations.

    ``min(GRID_POINTS, budget)`` evenly spaced points from ``lo`` to ``hi`` find the best
    grid point, and a bounded Brent search (``xatol=XATOL``) refines inside the two grid
    cells around it. The proxy losses of ``tvr`` and ``rts`` can hold a second, deeper
    local minimum a few hundredths away in that bracket, so the bracket is then split at
    the best point so far (the earlier of a tie) and Brent searches each side once more.
    Each search gets the budget left. ``fn`` takes a length-1 array.
    """
    best_x, best_f, evals = None, math.inf, 0

    def call(x) -> float:
        nonlocal best_x, best_f, evals
        evals += 1
        point = np.array([x], dtype=float)
        f = fn(point)
        if f < best_f:
            best_x, best_f = point[0], f
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
        split = best_x  # the search below the split may move best_x
        brent(a, split)
        brent(split, b)


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

    Minimizes :func:`robust_proxy_loss` over the method's tunable parameters in
    transformed space (log for positive reals, continuous-then-rounded for
    integers) by the search the module docstring describes, in at most
    ``spec.starts * spec.max_evals`` evaluations. ``phi`` is the first parameter
    set evaluated with the lowest loss. An evaluation that raises counts as an
    infinite loss; when no loss is finite, :class:`NumericError` names the last
    few failures. ``info`` reports the loss, gamma, m, the evaluation count, the
    number of distinct canonical parameter sets, the number of failed evaluations,
    the first few failure reasons, the search that ran (``"grid+brent"`` or
    ``"nelder-mead"``), how many processes it ran in and the seed. Only
    ``processes`` depends on how many processes ran.
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

    log: list[tuple[tuple, float, str | None]] = []  # (canonical phi, loss, failure) each
    memo: dict[tuple, tuple[float, str | None]] = {}  # canonical phi -> (loss, failure)
    stages: dict = {}  # the method's own stage memo, shared by every run of this search

    def objective(x: np.ndarray) -> float:
        phi = resolve(mspec, all_params, {
            p.name: _untransform(min(max(xi, lo), hi), p.scale, p.lo, p.hi)
            for p, xi, lo, hi in zip(params, x, lo_t, hi_t)})
        key = tuple(sorted(phi.items()))
        if key not in memo:
            try:
                result = mspec.run(signal, phi, 1, stages)
                loss = robust_proxy_loss(result.derivative, signal, gamma, m)
            except (ValidationError, NumericError) as exc:
                memo[key] = math.inf, f"{phi}: {exc}"
            else:
                memo[key] = (loss if math.isfinite(loss) else math.inf), None
        log.append((key, *memo[key]))
        return memo[key][0]

    if len(params) == 1 and params[0].scale != "integer":
        search, processes = "grid+brent", 1
        runs = [partial(_grid_brent, objective, lo_t[0], hi_t[0], spec.starts * spec.max_evals)]
    else:
        search, processes = "nelder-mead", _start_processes(spec.starts)
        rng = seeded_stream(spec.seed, "autotune", method)
        runs = [partial(_nelder_mead, objective, rng.uniform(lo_t, hi_t), 0.15 * (hi_t - lo_t),
                        spec.max_evals) for _ in range(spec.starts)]

    def run(i: int) -> list:
        n = len(log)
        runs[i]()
        return log[n:]

    log[:] = [entry for part in _fork_map(run, len(runs), processes) for entry in part]
    # not scipy's result: a start whose budget runs out right after a reflection ends
    # without that point in its simplex, even when it beat every vertex
    key, loss, _ = min(log, key=lambda entry: entry[1])
    failures = [failure for *_, failure in log if failure is not None]
    if not math.isfinite(loss):
        detail = "; ".join(failures[-FAILURE_REASONS:]) or "no finite loss found"
        raise NumericError(f"autotune failed for {method!r}: {detail}")

    return MethodConfig(
        method=method,
        phi=resolve(mspec, all_params, dict(key)),  # the registry's key order
        info={"loss": loss, "gamma": gamma, "m": m, "evaluations": len(log),
              "distinct_evaluations": len({entry[0] for entry in log}),
              "failed_evaluations": len(failures),
              "failure_reasons": failures[:FAILURE_REASONS], "search": search,
              "processes": processes, "seed": spec.seed},
    )
