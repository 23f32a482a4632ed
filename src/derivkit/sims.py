"""Ground-truth generators and the benchmark sweep harness.

Six simulations produce clean signals, their true derivatives, and a grid;
noise from three families (plus optional outliers) corrupts them. The sweep
harness varies one axis at a time around a common central point
(normal noise, scale 1, dt = 0.01, no outliers, 3 Hz cutoff), autotunes
each method per cell, and reports mean/std RMSE and error correlation.

All randomness flows from counter-based streams keyed by
(seed, case, method, axis, value, replicate), so results are independent of
execution order and parallelism.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (Grid, Signal, ValidationError, _require_finite_settings, _require_int,
                   _worker_count)
from .methods import apply_method, get_method
from .tune import TuneSpec, autotune, error_correlation, rmse, seeded_stream, stable_key

CASE_NAMES = ("sine_sum", "triangles", "cruise_control", "lti_second_order",
              "lorenz_x", "logistic_growth")
NOISE_FAMILIES = ("normal", "laplace", "uniform")
SWEEP_AXES = ("outliers", "noise_type", "noise_scale", "dt", "cutoff_f")

#: RK4 micro-steps per sample step in the simulations that integrate an ODE.
RK4_SUBSTEPS = 10
#: Outlier injection corrupts 1% of the samples, so it needs at least this many.
_MIN_OUTLIER_SAMPLES = 100


@dataclass(frozen=True)
class SimulationCase:
    """One benchmark scenario: which system, its span, and the step size."""

    name: str
    T: float = 4.0
    dt: float = 0.01

    def __post_init__(self):
        if self.name not in CASE_NAMES:
            raise ValidationError(f"unknown case {self.name!r}; choose from {CASE_NAMES}")
        _require_finite_settings(T=self.T, dt=self.dt)
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.T / self.dt < 16:
            raise ValidationError("span must cover at least 16 samples")


@dataclass(frozen=True)
class NoiseSpec:
    family: str = "normal"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValidationError(f"unknown noise family {self.family!r}")
        _require_finite_settings(scale=self.scale)
        if self.scale < 0:
            raise ValidationError("scale must be >= 0")
        # the noise stream is keyed by repr(scale): 1, 1.0 and np.float64(1.0) draw alike
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, None))


def cruise_control_matrices(dt: float):
    """Discrete matrices of the proportional-integral cruise controller.

    State is [position, velocity, acceleration, cumulative position error];
    inputs are [hill slope, desired velocity]; position is measured.
    """
    mg, fr, ki, kp = 10000.0, 0.9, 0.05, 0.25
    A = np.array([
        [1.0, dt, dt * dt / 2.0, 0.0],
        [0.0, 1.0, dt, 0.0],
        [0.0, -fr - kp / dt, 0.0, ki / dt**2],
        [0.0, -dt, 0.0, 1.0],
    ])
    B = np.array([
        [0.0, 0.0],
        [0.0, 0.0],
        [-mg, kp / dt],
        [0.0, dt],
    ])
    C = np.array([[1.0, 0.0, 0.0, 0.0]])
    return A, B, C


def hill_profile(t: np.ndarray) -> np.ndarray:
    """Oscillating hill slope driving the cruise-control simulation."""
    return (np.sin(2 * np.pi * t) + 0.3 * np.sin(8 * np.pi * t + 0.5)
            + 1.2 * np.sin(3.4 * np.pi * t + 0.5)) / 100.0


def _rk4(f, x0: list[float], t: np.ndarray) -> np.ndarray:
    """Classic fixed-step RK4 of the autonomous system ``x' = f(x)``,
    integrating ``RK4_SUBSTEPS`` micro-steps per sample.

    The state is a list of Python floats and ``f`` returns a list: on one
    to three entries, building a numpy array per stage made the loop 3-4x
    slower. Each stage is combined elementwise in the order of the array
    form kept in ``tests/sims_reference.py``, ``x + (h/2) k`` and
    ``x + (h/6) (((k1 + 2 k2) + 2 k3) + k4)``. A Python float and a float64
    array element round alike, so the output equals that form bit for
    bit; any other order changes the last bits, which the chaotic
    ``lorenz_x`` amplifies into a different trajectory after ~35 time
    units.
    """
    ts = t.tolist()
    x = list(x0)
    rows = [x]
    for n in range(1, len(ts)):
        h = (ts[n] - ts[n - 1]) / RK4_SUBSTEPS
        half, sixth = h / 2, h / 6
        for _ in range(RK4_SUBSTEPS):
            k1 = f(x)
            k2 = f([xi + half * ki for xi, ki in zip(x, k1)])
            k3 = f([xi + half * ki for xi, ki in zip(x, k2)])
            k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
            x = [xi + sixth * (a + 2 * b + 2 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        rows.append(x)
    return np.array(rows)


def simulate(case: SimulationCase) -> tuple[np.ndarray, np.ndarray, Grid]:
    """Return (truth values, truth derivative, grid) for a benchmark case; the
    arrays are copies the caller owns."""
    x, xdot, grid = _simulate(case)
    return x.copy(), xdot.copy(), grid


def _sample_count(case: SimulationCase) -> int:
    return int(round(case.T / case.dt))


@lru_cache(maxsize=64)
def _simulate(case: SimulationCase) -> tuple[np.ndarray, np.ndarray, Grid]:
    """Cached (x, xdot, grid) of a case; every array is bit-identical to the
    array-based form kept in ``tests/sims_reference.py``.

    The ODE cases integrate on Python floats (:func:`_rk4`), with right-hand
    sides that keep the array form's operation order. The cruise controller
    evaluates :func:`hill_profile` once over the grid and keeps the
    ``A @ x + B @ u`` matrix products per step: a scalar rewrite of those
    would not reproduce the BLAS summation order.
    """
    n = _sample_count(case)
    t = case.dt * np.arange(n)
    grid = Grid(t)

    if case.name == "sine_sum":
        x = np.zeros(n)
        xdot = np.zeros(n)
        for a, f, ph in zip((0.5, 0.35, 0.25), (1.0, np.sqrt(2.0), np.sqrt(5.0)), (0.0, 0.7, 1.9)):
            w = 2 * np.pi * f
            x += a * np.sin(w * t + ph)
            xdot += a * w * np.cos(w * t + ph)
        return x, xdot, grid

    if case.name == "triangles":
        amp, period = 0.8, 2.0
        phase = (t / period) % 1.0
        rising = phase < 0.5
        x = np.where(rising, amp * (4 * phase - 1), amp * (3 - 4 * phase))
        slope = 4 * amp / period
        xdot = np.where(rising, slope, -slope)
        return x, xdot, grid

    if case.name == "cruise_control":
        A, B, _ = cruise_control_matrices(case.dt)
        hill = hill_profile(t)
        states = np.zeros((n, 4))
        x = np.zeros(4)
        for i in range(1, n):
            u = np.array([hill[i - 1], 0.5])  # desired velocity 0.5
            x = A @ x + B @ u
            states[i] = x
        return states[:, 0], states[:, 1], grid

    if case.name == "lti_second_order":
        zeta, omega = 0.2, 2 * np.pi
        # -2 * zeta * omega * s[1] rounds left to right: folding its constants keeps the bits
        damping, stiffness = -2 * zeta * omega, omega**2

        def f(s):
            return [s[1], damping * s[1] - stiffness * (s[0] - 1.0)]

        states = _rk4(f, [0.0, 0.0], t)
        return states[:, 0], states[:, 1], grid

    if case.name == "lorenz_x":
        sig, rho, beta, scale = 10.0, 28.0, 8.0 / 3.0, 1.0 / 20.0

        def f(s):
            return [sig * (s[1] - s[0]),
                    s[0] * (rho - s[2]) - s[1],
                    s[0] * s[1] - beta * s[2]]

        states = _rk4(f, [-8.0, 8.0, 27.0], t)
        return scale * states[:, 0], scale * sig * (states[:, 1] - states[:, 0]), grid

    # logistic_growth
    rate, capacity, x_init = 2.0, 1.0, 0.05

    def f(s):
        return [rate * s[0] * (1.0 - s[0] / capacity)]

    states = _rk4(f, [x_init], t)
    x = states[:, 0]
    return x, rate * x * (1.0 - x / capacity), grid


def add_noise(clean: Signal, spec: NoiseSpec) -> Signal:
    """Add i.i.d. noise: normal(0, 0.1s), laplace(0, 0.1s), or uniform(+-0.2s)."""
    if spec.scale == 0:
        return clean
    rng = seeded_stream(spec.seed, "noise", spec.family, spec.scale)
    n = len(clean)
    if spec.family == "normal":
        eta = rng.normal(0.0, 0.1 * spec.scale, n)
    elif spec.family == "laplace":
        eta = rng.laplace(0.0, 0.1 * spec.scale, n)
    else:
        eta = rng.uniform(-0.2 * spec.scale, 0.2 * spec.scale, n)
    return Signal(clean.grid, clean.values + eta)


def _require_outlier_samples(n: int) -> None:
    if n < _MIN_OUTLIER_SAMPLES:
        raise ValidationError(
            f"outlier injection needs at least {_MIN_OUTLIER_SAMPLES} samples, got {n}")


def add_outliers(y: Signal, seed: int = 0) -> Signal:
    """Corrupt a random 1% of samples by +-[50%, 150%] of the series range."""
    n = len(y)
    _require_outlier_samples(n)
    rng = seeded_stream(_require_int("seed", seed, None), "outliers")
    count = int(round(0.01 * n))
    idx = rng.choice(n, size=count, replace=False)
    signs = rng.choice([-1.0, 1.0], size=count)
    magnitude = rng.uniform(0.5, 1.5, size=count)
    spread = float(np.max(y.values) - np.min(y.values))
    values = np.array(y.values)
    values[idx] = values[idx] + signs * magnitude * spread
    return Signal(y.grid, values)


_CENTRAL = {"noise_type": "normal", "noise_scale": 1.0, "outliers": False}


def _cell_settings(task: dict, seed: int = 0):
    """The ``SimulationCase``, ``NoiseSpec`` and ``TuneSpec`` of a cell, whose axis
    value replaces its setting at the central point; each refuses a bad value, as does
    outlier injection on too short a simulation."""
    setting = dict(_CENTRAL, dt=task["dt"], cutoff_f=task["spec"].cutoff_hz)
    setting[task["axis"]] = task["value"]
    case = SimulationCase(task["case"], T=task["T"], dt=setting["dt"])
    noise = NoiseSpec(family=setting["noise_type"], scale=setting["noise_scale"], seed=seed)
    spec = replace(task["spec"], cutoff_hz=setting["cutoff_f"], outliers=setting["outliers"],
                   seed=seed)
    if spec.outliers:
        _require_outlier_samples(_sample_count(case))
    return case, noise, spec


def _run_cell(task: dict) -> dict:
    """One benchmark cell: simulate, corrupt, tune, differentiate, score."""
    axis, value = task["axis"], task["value"]
    row = {"method": task["method"], "case": task["case"], "axis": axis,
           "value": value, "seed": task["seed"]}
    try:
        cell_seed = stable_key(task["seed"], task["case"], task["method"], axis, value)
        case, noise, tune_spec = _cell_settings(task, cell_seed)
        x, xdot, grid = simulate(case)
        y = add_noise(Signal(grid, x), noise)
        if tune_spec.outliers:
            y = add_outliers(y, seed=cell_seed + 1)
        config = autotune(task["method"], y, tune_spec)
        result = apply_method(task["method"], y, config.phi)
        row["rmse"] = rmse(result.derivative, xdot)
        row["error_correlation"] = error_correlation(result.derivative, xdot)
        row["phi"] = config.phi
    except Exception as exc:  # cell failures are recorded, the sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def benchmark_sweep(methods, cases, axis: str, values, seeds: int,
                    cutoff_hz: float = 3.0, T: float = 4.0, dt: float = 0.01,
                    starts: int = 3, max_evals: int = 30,
                    workers: int | None = None) -> list[dict]:
    """Sweep one axis of the benchmark space and aggregate per-cell metrics.

    Returns one row per (method, case, value) with mean and sample standard
    deviation of RMSE and error correlation over ``seeds`` replicates, plus
    any per-replicate failures. ``cases`` are names from ``CASE_NAMES``; every
    simulation spans ``T`` at step ``dt`` (the ``dt`` axis overrides the step).
    The tuner budget (``starts``, ``max_evals``) is deliberately small: trends,
    not confidence intervals. ``workers`` caps the worker processes (None: one
    per usable CPU). Tuner settings that :class:`TuneSpec` refuses, ``seeds``
    or ``workers`` that is not an integer >= 1, an axis value that is not a
    number, string, boolean or None, one equal to an earlier value, one that a
    cell's :class:`SimulationCase`, :class:`NoiseSpec` or :class:`TuneSpec`
    would refuse, and outliers on a simulation of fewer than 100 samples raise
    :class:`ValidationError` before any cell runs.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    method_list = list(methods)
    for m in method_list:
        get_method(m)
    case_names = list(cases)
    for case in case_names:
        if case not in CASE_NAMES:
            raise ValidationError(f"cases must be names from {CASE_NAMES}, got {case!r}")
    seeds = _require_int("seeds", seeds, 1)
    if workers is not None:
        workers = _require_int("workers", workers, 1)
    spec = TuneSpec(cutoff_hz=cutoff_hz, starts=starts, max_evals=max_evals)
    values = list(values)
    for i, value in enumerate(values):  # cells are grouped by value: distinct scalars
        if not (value is None or isinstance(value, (str, numbers.Number, np.generic))):
            raise ValidationError(f"{axis} value {value!r}: must be a number, string, "
                                  f"boolean or None")
        for earlier in values[:i]:
            if earlier == value:
                raise ValidationError(f"{axis} value {value!r}: repeats the earlier value "
                                      f"{earlier!r}")
    tasks = [{"method": method, "case": case, "axis": axis, "value": value, "seed": seed,
              "T": T, "dt": dt, "spec": spec}
             for method in method_list for case in case_names for value in values
             for seed in range(seeds)]
    for task in tasks:
        try:
            _cell_settings(task)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{axis} value {task['value']!r}: {exc}") from None

    n_workers = _worker_count(workers)
    if n_workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_cell, tasks, chunksize=1))
    else:
        results = [_run_cell(t) for t in tasks]

    by_cell: dict[tuple, list[dict]] = {}
    for row in results:
        by_cell.setdefault((row["method"], row["case"], row["value"]), []).append(row)

    table = []
    for method in method_list:
        for case in case_names:
            for value in values:
                rows = by_cell.get((method, case, value), [])
                ok = [r for r in rows if "error" not in r]
                errs = [r["error"] for r in rows if "error" in r]
                cell = {"method": method, "case": case, "axis": axis, "value": value,
                        "n_ok": len(ok), "n_fail": len(errs), "failures": errs}
                if ok:
                    rv = np.array([r["rmse"] for r in ok])
                    ev = np.array([r["error_correlation"] for r in ok])
                    cell["rmse_mean"] = float(rv.mean())
                    cell["rmse_std"] = float(rv.std(ddof=1)) if len(rv) > 1 else 0.0
                    cell["ec_mean"] = float(ev.mean())
                    cell["ec_std"] = float(ev.std(ddof=1)) if len(ev) > 1 else 0.0
                table.append(cell)
    return table
