"""The four benchmark workloads: inputs, one op, and the check of its output.

Every workload is a closed loop over a fixed *round* of ops. A round pairs
each method with one simulation case, always the same pairing, so every
round is the same mix of work whatever the seed and however many rounds
a run holds. On ``diff_irregular`` the seed sets the noise realisation and
which samples are dropped; on the other workloads, whose signals use one
fixed realisation, it sets the order of the ops within the round. The
library receives only the generated inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from derivkit import cli, methods, sims
from derivkit.core import Grid, Signal

CASES = sims.CASE_NAMES
#: ``rbf`` builds dense N x N matrices: at N = 1e4 each needs 0.8 GB, so it
#: runs on ``diff_irregular`` (N ~ 4000) only.
DIFF_LONG_METHODS = tuple(m for m in methods.method_names() if m != "rbf")
DIFF_IRREGULAR_METHODS = ("fd", "poly", "spline", "rbf", "rts", "robust")
#: The three cases simulated without RK4: their 8000-sample truths take
#: ~0.2 s instead of ~2.5 s each, which keeps three set-ups per run affordable.
IRREGULAR_CASES = ("sine_sum", "triangles", "cruise_control")
TUNE_METHODS = ("fd", "kernel", "butter", "savgol", "poly", "spline", "fourier", "iterated_fd")
SWEEP_METHODS = ("savgol", "tvr", "rts")
SWEEP_DTS = (0.005, 0.01, 0.05)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    method: str
    case: str
    dt: float | None = None

    @property
    def kind(self) -> str:
        return f"{self.method}/{self.case}" + (f"/dt={self.dt:g}" if self.dt else "")


@dataclass
class Workload:
    round: list[Op]
    run: Callable[[Op], object]
    check: Callable[[Op, object], float]   # returns the op's deriv_nrmse
    #: Summed (scaled) op latency of one round at the commit that added the
    #: benchmark; fixes how many rounds a run of ``--seconds`` holds.
    round_s: float


def nrmse(derivative, truth) -> float:
    """RMSE against the true derivative over the true derivative's std."""
    derivative = np.asarray(derivative, dtype=float)
    return float(np.sqrt(np.mean((derivative - truth) ** 2)) / np.std(truth))


def _check_derivative(op: Op, derivative, truth, ceilings) -> float:
    derivative = np.asarray(derivative, dtype=float)
    if derivative.shape != truth.shape:
        raise CheckFailed(f"{op.kind}: derivative has shape {derivative.shape}, "
                          f"expected {truth.shape}")
    if not np.all(np.isfinite(derivative)):
        raise CheckFailed(f"{op.kind}: derivative is not finite")
    value = nrmse(derivative, truth)
    ceiling = ceilings.get(op.method)
    if ceiling is not None and not value <= ceiling:
        raise CheckFailed(f"{op.kind}: deriv_nrmse {value:.4g} above ceiling {ceiling:.4g}")
    return value


def _noisy(case: str, T: float, dt: float, noise_seed: int):
    """A case's simulated signal with normal noise at scale 1, and its true derivative."""
    x, xdot, grid = sims.simulate(sims.SimulationCase(case, T=T, dt=dt))
    noise = sims.NoiseSpec(family="normal", scale=1.0, seed=noise_seed)
    return sims.add_noise(Signal(grid, x), noise), xdot


def _write_ty(path: Path, signal: Signal) -> None:
    np.savetxt(path, np.column_stack([signal.t, signal.values]), delimiter=",",
               header="t,y", comments="", fmt="%.17g")


def _paired(method_list, cases=CASES) -> list[Op]:
    return [Op(m, cases[j % len(cases)]) for j, m in enumerate(method_list)]


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    return [ops[i] for i in np.random.default_rng([seed, 2]).permutation(len(ops))]


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"derivkit {argv[0]} exited with code {code}")


def diff_long(seed: int, workdir: Path, ceilings: dict) -> Workload:
    """``derivkit diff`` on uniform N = 10 000 signals, registry defaults.

    The solvers' iteration counts depend on the noise realisation (``robust``
    takes one or two IRLS iterations, +0.9 s; ``smooth_accel_tvr`` 1600 to
    2300 ADMM iterations) and a run holds three of each, so the signals use
    one fixed realisation and the seed orders the ops within the round.
    """
    inputs, truth = {}, {}
    for i, case in enumerate(CASES):
        signal, truth[case] = _noisy(case, 100.0, 0.01, i)
        inputs[case] = workdir / f"{case}.csv"
        _write_ty(inputs[case], signal)
    out = workdir / "diff_out.csv"

    def run(op: Op):
        _cli(["diff", str(inputs[op.case]), "--method", op.method, "--out", str(out)])

    def check(op: Op, _) -> float:
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        return _check_derivative(op, table[:, 3], truth[op.case], ceilings)

    return Workload(_shuffled(_paired(DIFF_LONG_METHODS), seed), run, check, 5.3)


def diff_irregular(seed: int, workdir: Path, ceilings: dict) -> Workload:
    """``apply_method`` on irregular N ~ 4000 grids: half of 8000 samples dropped."""
    rng = np.random.default_rng([seed, 1])
    signals, truth = {}, {}
    for i, case in enumerate(IRREGULAR_CASES):
        x, xdot, grid = sims.simulate(sims.SimulationCase(case, T=40.0, dt=0.005))
        keep = np.sort(rng.choice(len(x), size=len(x) // 2, replace=False))
        clean = Signal(Grid(grid.points[keep]), x[keep])
        noise = sims.NoiseSpec(family="normal", scale=1.0, seed=seed * 64 + i)
        signals[case], truth[case] = sims.add_noise(clean, noise), xdot[keep]

    def run(op: Op):
        return methods.apply_method(op.method, signals[op.case]).derivative

    def check(op: Op, derivative) -> float:
        return _check_derivative(op, derivative, truth[op.case], ceilings)

    return Workload(_paired(DIFF_IRREGULAR_METHODS, IRREGULAR_CASES),
                    run, check, 2.35)


def tune(seed: int, workdir: Path, ceilings: dict) -> Workload:
    """``derivkit tune`` at the CLI default budget on the sweep's central point.

    The tuner's work depends strongly on the noise realisation (one op's
    latency moves by about 30% between realisations) and a run holds three
    ops of each kind, so the signals use one fixed realisation, as the
    sweep's do, and the seed orders the ops within the round.
    """
    signals, inputs, truth = {}, {}, {}
    for i, case in enumerate(CASES):
        signals[case], truth[case] = _noisy(case, 4.0, 0.01, i)
        inputs[case] = workdir / f"{case}.csv"
        _write_ty(inputs[case], signals[case])
    out = workdir / "tune_out.json"

    def run(op: Op):
        _cli(["tune", str(inputs[op.case]), "--method", op.method, "--cutoff-hz", "3",
              "--out", str(out)])

    def check(op: Op, _) -> float:
        payload = json.loads(out.read_text())
        if not payload["evaluations"] > 0:
            raise CheckFailed(f"{op.kind}: tuner made no evaluations")
        signal = signals[op.case]
        for p in methods.get_method(op.method).build_params(signal):
            value = payload["phi"].get(p.name)
            if value is None or not p.lo <= value <= p.hi:
                raise CheckFailed(f"{op.kind}: tuned {p.name}={value} outside "
                                  f"[{p.lo:g}, {p.hi:g}]")
        derivative = methods.apply_method(op.method, signal, payload["phi"]).derivative
        return _check_derivative(op, derivative, truth[op.case], ceilings)

    return Workload(_shuffled(_paired(TUNE_METHODS), seed), run, check, 12.0)


def sweep_cells() -> list[Op]:
    """One Latin block of the criterion-10 dt sweep: 18 of its 54 cells.

    Every (method, case) pair appears once, every (case, dt) pair once, and
    every method meets each dt twice.
    """
    return [Op(m, case, SWEEP_DTS[(c + i) % len(SWEEP_DTS)])
            for i, m in enumerate(SWEEP_METHODS) for c, case in enumerate(CASES)]


def sweep(seed: int, workdir: Path, ceilings: dict) -> Workload:
    """Single-cell ``benchmark_sweep`` calls on the dt axis (serial)."""
    truth_std: dict[tuple, float] = {}

    def run(op: Op):
        return sims.benchmark_sweep([op.method], [op.case], "dt", [op.dt], seeds=1,
                                    starts=2, max_evals=16, workers=1)

    def check(op: Op, table) -> float:
        (cell,) = table
        if cell["n_fail"] or cell["n_ok"] != 1:
            raise CheckFailed(f"{op.kind}: sweep cell failed: {cell['failures']}")
        rmse = cell["rmse_mean"]
        if not math.isfinite(rmse):
            raise CheckFailed(f"{op.kind}: rmse is not finite")
        key = (op.case, op.dt)
        if key not in truth_std:
            _, xdot, _ = sims.simulate(sims.SimulationCase(op.case, T=4.0, dt=op.dt))
            truth_std[key] = float(np.std(xdot))
        value = rmse / truth_std[key]
        ceiling = ceilings.get(op.method)
        if ceiling is not None and not value <= ceiling:
            raise CheckFailed(f"{op.kind}: deriv_nrmse {value:.4g} above ceiling {ceiling:.4g}")
        return value

    return Workload(_shuffled(sweep_cells(), seed), run, check, 20.0)


WORKLOADS = {"diff_long": diff_long, "diff_irregular": diff_irregular,
             "tune": tune, "sweep": sweep}
