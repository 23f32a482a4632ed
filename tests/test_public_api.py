"""Snapshot of derivkit's public surface.

Removing or renaming a public name, a CLI option or a settings field is then a
deliberate edit of this file, never a side effect of a refactor.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

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
