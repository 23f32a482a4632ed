"""A fixed-seed sweep of every registry method over edge inputs.

Each method runs on short and long signals (N from 2 to 400) over uniform, epoch
(t0 = 1.7e9), micro- and kilo-step, jittered, thinned and lognormal grids, with a noisy
sine, a constant, a step, values at 1e9 and 1e-9 scale, and a 1e9 offset, each at the
registry's default phi and with every parameter at its lower, then its upper bound. A
call either returns finite arrays of the input's length or raises one of derivkit's three
errors; no warning but ``ConditioningWarning`` escapes; the same call twice gives the
same bits.
"""

import pickle
import warnings

import numpy as np
import pytest

from derivkit import (ConditioningWarning, Grid, NumericError, Signal, UnsupportedMethodError,
                      ValidationError, apply_method, get_method, method_names, methods)

LENGTHS = (2, 3, 4, 5, 8, 13, 60, 400)
GRIDS = ("uniform", "epoch", "micro", "kilo", "jittered", "dropped", "lognormal")
VALUES = ("sine", "constant", "step", "big", "tiny", "offset")
#: (method, N, grid kind, value kind): every method meets every length and grid, and each
#: (method, grid) pair all six value kinds.
CELLS = [(name, n, grid, VALUES[(i + j + k) % len(VALUES)])
         for i, name in enumerate(method_names())
         for j, n in enumerate(LENGTHS)
         for k, grid in enumerate(GRIDS)]


def _grid(kind: str, n: int, rng) -> Grid:
    k = np.arange(n, dtype=float)
    if kind == "uniform":
        return Grid.regular(n, 0.01)
    if kind == "epoch":
        return Grid.regular(n, 0.01, t0=1.7e9)
    if kind == "micro":
        return Grid.regular(n, 1e-6)
    if kind == "kilo":
        return Grid.regular(n, 1e3)
    if kind == "jittered":  # by up to 40% of a step
        return Grid(0.01 * (k + rng.uniform(-0.4, 0.4, n)))
    if kind == "dropped":  # half the samples of a uniform grid, at random
        return Grid(0.01 * np.sort(rng.choice(2 * n, n, replace=False)))
    return Grid(0.01 * np.cumsum(rng.lognormal(0.0, 2.0, n)))


def _values(kind: str, t: np.ndarray, rng) -> np.ndarray:
    n = len(t)
    sine = np.sin(4 * np.pi * (t - t[0]) / (t[-1] - t[0])) + 0.1 * rng.standard_normal(n)
    return {"sine": sine, "constant": np.full(n, 3.0),
            "step": (np.arange(n) > n // 2).astype(float), "big": 1e9 * sine,
            "tiny": 1e-9 * sine, "offset": 1e9 + sine}[kind]


def _signal(index: int) -> Signal:
    _, n, grid, values = CELLS[index]
    rng = np.random.default_rng(index)
    g = _grid(grid, n, rng)
    return Signal(g, _values(values, g.points, rng))


def _phis(name: str, signal: Signal) -> list:
    """The default phi, then every parameter at its lower and at its upper bound; only the
    default where the signal is too short for the bounds (which apply_method refuses)."""
    try:
        params = methods._bounded_params(get_method(name), signal)
    except ValidationError:
        return [None]
    return [None, {p.name: p.lo for p in params}, {p.name: p.hi for p in params}]


def _run(name: str, signal: Signal, phi):
    """The result's pickle, or the type of derivkit error raised, and the warnings that
    escaped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = apply_method(name, signal, phi)
        except (ValidationError, UnsupportedMethodError, NumericError) as exc:
            return type(exc), caught
    n = len(signal)
    for out in (result.smoothed, result.derivative):
        assert len(out) == n and np.all(np.isfinite(out)), (name, phi)
    return pickle.dumps(result), caught


@pytest.mark.parametrize("name", method_names())
def test_edge_inputs_give_results_or_derivkit_errors(name):
    for index, cell in enumerate(CELLS):
        if cell[0] != name:
            continue
        signal = _signal(index)
        for phi in _phis(name, signal):
            first, caught = _run(name, signal, phi)
            escaped = [f"{w.category.__name__}: {w.message}" for w in caught
                       if w.category is not ConditioningWarning]
            assert escaped == [], (cell, phi)
            assert _run(name, signal, phi)[0] == first, (cell, phi)


#: Cells whose TVR Newton system is singular (condition estimate inf): (cell index, phi).
SINGULAR_NEWTON = [
    (CELLS.index(("smooth_accel_tvr", 4, "micro", "step")),
     {"gamma": 1e6, "soften_sigma": 30.0}),
    (CELLS.index(("tvr", 5, "epoch", "tiny")), {"gamma": 1e-4, "nu": 1}),
]


@pytest.mark.xfail(strict=True, raises=NumericError,
                   reason="TVR's Newton system is singular at N = 3-5 (ROADMAP item 8)")
@pytest.mark.parametrize("index, phi", SINGULAR_NEWTON, ids=lambda v: repr(v))
def test_tvr_solves_short_edge_signals(index, phi):
    name = CELLS[index][0]
    assert phi in _phis(name, _signal(index))
    apply_method(name, _signal(index), phi)


def test_tvr_step_lets_no_overflow_warning_escape():
    # the step-length ratio -v / dv overflowed for a tiny negative dv, harmlessly
    step = (np.arange(400) > 200).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = apply_method("tvr", Signal(Grid(0.01 * np.arange(400)), step), {"gamma": 1e-4})
    assert result.flags["converged"]
