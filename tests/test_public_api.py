"""Snapshot of derivkit's public surface.

Removing or renaming a public name, a CLI option or a settings field, or changing
a registry method's parameter space, is then a deliberate edit of this file,
never a side effect of a refactor.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import derivkit
from derivkit import cli

PUBLIC_NAMES = [
    "ConditioningWarning", "ContinuousModel", "DerivativeResult", "Grid", "KalmanTrack",
    "KernelSpec", "LinearGaussianModel", "MethodConfig", "NoiseSpec", "NumericError",
    "RobustSpec", "Signal", "SimulationCase", "SplineSpec", "Stencil", "TuneSpec", "TvrSpec",
    "UnsupportedMethodError", "ValidationError", "add_noise", "add_outliers", "apply_method",
    "autotune", "benchmark_sweep", "butterdiff", "cheb_nodes", "chebyshev_derivative",
    "constant_derivative_continuous", "constant_derivative_model", "core",
    "cruise_control_matrices", "cumtrapz", "discretize", "error_correlation", "fd",
    "fd_derivative", "fourier_derivative", "fourier_extension_derivative", "fourier_lowpass",
    "gamma_heuristic", "get_method", "hill_profile", "irregular_coefficients", "iterated_fd",
    "kalman", "kalman_filter", "kalman_irregular", "kernel_smooth", "kerneldiff",
    "method_names", "methods", "polydiff", "power_spectrum", "proxy_loss", "rbfdiff", "rmse",
    "robust_map_smooth", "robust_proxy_loss", "robustdiff", "rts_smooth", "rtsdiff",
    "savgol_coefficients", "savgoldiff", "sims", "simulate", "smooth_accel_tvr", "smoothers",
    "spectral", "splinediff", "stencil_coefficients", "total_variation", "tune", "tvr",
    "tvrdiff", "validate",
]

#: Subcommand -> (option strings, positional arguments).
CLI_COMMANDS = {
    "diff": (["-h", "--help", "--method", "--param", "--nu", "--out"], ["input"]),
    "tune": (["-h", "--help", "--method", "--cutoff-hz", "--outliers", "--seed", "--starts",
              "--max-evals", "--out"], ["input"]),
    "simulate": (["-h", "--help", "--case", "--dt", "--t-span", "--noise", "--scale",
                  "--outliers", "--seed", "--out"], []),
    "bench": (["-h", "--help", "--config", "--out-dir", "--workers"], []),
    "spectrum": (["-h", "--help", "--out"], ["input"]),
}

#: Each registry method's parameters on one signal (N = 400, dt = 0.01), in declaration
#: order: (name, scale, tunable, lower bound, upper bound, resolved default).
METHOD_PARAMS = {
    "butter": [("order", "integer", False, 1, 8, 2),
               ("cutoff_hz", "log", True, 0.5012531328320802, 47.5, 3.0)],
    "fd": [("order", "integer", True, 2, 8, 2)],
    "fourier": [("keep_modes", "integer", True, 2, 199, 30),
                ("pad", "integer", False, 0, 200, 50)],
    "iterated_fd": [("iterations", "integer", True, 0, 200, 10),
                    ("order", "integer", False, 2, 6, 2)],
    "kernel": [("sigma", "log", True, 0.5, 49.75, 3.0)],
    "poly": [("window", "integer", True, 8, 160, 40), ("degree", "integer", True, 1, 8, 3)],
    "rbf": [("sigma", "log", True, 0.015, 0.49875, 0.08),
            ("damping", "log", True, 1e-08, 10.0, 0.1)],
    "robust": [("q", "log", True, 1e-10, 1e10, 100.0), ("r", "log", True, 1e-06, 1e6, 1.0),
               ("m", "log", False, 0.5, 20.0, 2.0), ("nu", "integer", False, 1, 3, 2)],
    "rts": [("q", "log", True, 1e-10, 1e10, 100.0), ("nu", "integer", False, 1, 3, 2)],
    "savgol": [("window", "integer", True, 5, 129, 21), ("degree", "integer", True, 1, 8, 3),
               ("post_smooth_sigma", "log", True, 0.05, 50.0, 1.0)],
    "smooth_accel_tvr": [("gamma", "log", True, 1e-4, 1e6, 10.0),
                         ("soften_sigma", "log", True, 0.5, 30.0, 4.0)],
    "spline": [("lam", "log", True, 1e-09, 1e9, 0.001), ("degree", "integer", False, 2, 5, 3),
               ("iterations", "integer", False, 1, 10, 1)],
    "tvr": [("gamma", "log", True, 1e-4, 1e6, 10.0), ("nu", "integer", False, 1, 3, 1)],
}

SETTINGS_FIELDS = {
    "TuneSpec": ["cutoff_hz", "outliers", "starts", "max_evals", "seed"],
    "TvrSpec": ["gamma", "nu", "tol", "max_iter", "soften_sigma"],
    "RobustSpec": ["process_loss", "measurement_loss", "huber_m_process",
                   "huber_m_measurement", "tol", "max_iter"],
    "KernelSpec": ["kind", "window", "sigma"],
    "SplineSpec": ["degree", "mode", "lam", "s", "iterations"],
    "NoiseSpec": ["family", "scale", "seed"],
    "SimulationCase": ["name", "T", "dt"],
}


def _split(actions):
    return ([s for a in actions for s in a.option_strings],
            [a.dest for a in actions if not a.option_strings])


def test_all_names():
    assert sorted(derivkit.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(derivkit, name), name


def test_cli_subcommands_and_options():
    parser = cli.build_parser()
    assert _split(parser._actions)[0] == ["-h", "--help", "--version"]
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _split(sub._actions) for name, sub in commands.choices.items()} == CLI_COMMANDS


def test_method_names():
    assert list(derivkit.method_names()) == sorted(METHOD_PARAMS)


@pytest.mark.parametrize("name", sorted(METHOD_PARAMS))
def test_method_parameters(name):
    signal = derivkit.Signal(derivkit.Grid.regular(400, 0.01), np.zeros(400))
    spec = derivkit.get_method(name)
    params = derivkit.methods._bounded_params(spec, signal)
    defaults = derivkit.methods.resolve(spec, params)
    assert [(p.name, p.scale, p.tunable, p.lo, p.hi, defaults[p.name])
            for p in params] == METHOD_PARAMS[name]


@pytest.mark.parametrize("name", sorted(SETTINGS_FIELDS))
def test_settings_fields(name):
    assert [f.name for f in dataclasses.fields(getattr(derivkit, name))] == SETTINGS_FIELDS[name]


def test_traced_names_exist(monkeypatch):
    # the traced benchmark run rebinds each of these; spans.py imports only the standard library
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look the module up
    spec.loader.exec_module(spans)
    assert len(spans.WRAPPED) > 0
    for module, attribute in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)


def test_import_loads_no_scipy_signal():
    # scipy.signal, with the scipy.stats it loads, took half of ``import derivkit.cli``
    script = ("import sys, derivkit, derivkit.cli; print(sorted(m for m in sys.modules "
              "if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'])))")
    src = str(Path(derivkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_integer_settings_are_checked_in_one_place():
    # every integer setting goes through core._require_int; a second whole-number test
    # elsewhere would let the rules drift apart again
    from derivkit import core
    pattern = re.compile(r"\.is_integer\(\)|!= int\(")
    src = Path(derivkit.__file__).resolve().parent
    hits = {path.name: len(pattern.findall(path.read_text())) for path in src.glob("*.py")}
    assert {name: count for name, count in hits.items() if count} == {"core.py": 1}
    assert pattern.search(inspect.getsource(core._require_int))
