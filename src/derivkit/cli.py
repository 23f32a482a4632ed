"""Command-line front end.

Commands: ``diff`` (differentiate a CSV), ``tune`` (pick hyperparameters),
``simulate`` (generate benchmark data), ``bench`` (run a sweep), and
``spectrum`` (power spectrum diagnostic). Every output file is accompanied
by a JSON manifest recording the command, inputs, parameters, seed, tool
version, and timestamp; ``diff``'s also holds the method's scalar solver flags.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 numeric
failure, 5 partial benchmark failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .core import NumericError, Signal, ValidationError
from .methods import (_bounded_params, apply_method, describe, get_method, method_names,
                      resolve)
from .sims import (
    CASE_NAMES,
    NOISE_FAMILIES,
    NoiseSpec,
    SimulationCase,
    add_noise,
    add_outliers,
    benchmark_sweep,
    simulate,
)
from .spectral import power_spectrum
from .tune import TuneSpec, autotune

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_PARTIAL = 5


class UsageError(Exception):
    """Bad flags or unknown method/parameter names."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _read_csv(path: str, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
    try:
        with open(path) as fh:
            first = fh.readline()
            if not first:
                raise ValidationError(f"{path}: empty file")
            header = [h.strip() for h in first.split(",")]
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValidationError(
                    f"{path}: header must contain columns {','.join(columns)}; got {','.join(header)}"
                )
            try:
                with warnings.catch_warnings():  # a header-only file is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValidationError(f"{path}: non-numeric cell or ragged rows ({exc})") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        raise ValidationError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise ValidationError(f"{path}: ragged rows")
    return {name: data[:, i] for i, name in enumerate(header)}


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """The text ``np.savetxt`` writes with ``fmt="%.17g"``, formatted a block of rows at a time."""
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in (rows[lo : lo + 2**14] for lo in range(0, len(rows), 2**14)):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_manifest(out_path: str, payload: dict) -> None:
    manifest = dict(payload)
    manifest["tool_version"] = __version__
    manifest["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(str(out_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_signal(path: str) -> Signal:
    data = _read_csv(path, ("t", "y"))
    return Signal.from_arrays(data["t"], data["y"])


def _parse_params(pairs: list[str], method: str, signal: Signal) -> dict:
    """``--param name=value`` pairs resolved on ``signal`` by the method registry. A
    malformed pair, unknown name or out-of-bounds value is a usage error that prints the
    method's schema; a signal too short for the method's bounds is a validation error."""
    spec = get_method(method)
    params = _bounded_params(spec, signal)
    try:
        phi: dict[str, float] = {}
        for pair in pairs or []:
            name, sep, raw = pair.partition("=")
            if not sep:
                raise ValidationError(f"--param expects name=value, got {pair!r}")
            try:
                phi[name.strip()] = float(raw)
            except ValueError:
                raise ValidationError(
                    f"parameter {name!r} has non-numeric value {raw!r}") from None
        return resolve(spec, params, phi)
    except ValidationError as exc:
        raise UsageError(f"{exc}\n{describe(method, signal)}") from exc


def cmd_diff(args) -> int:
    signal = _load_signal(args.input)
    phi = _parse_params(args.param, args.method, signal)
    result = apply_method(args.method, signal, phi, nu=args.nu)
    _write_csv(args.out, ["t", "y", "x_hat", "dxdt"],
               [signal.t, signal.values, np.asarray(result.smoothed),
                np.asarray(result.derivative)])
    # a nested flag is output, not a diagnostic: spline's knots and coefficients, which phi
    # reproduces, would take ~25 ms of JSON at N = 1e4
    flags = {k: v for k, v in result.flags.items() if not isinstance(v, dict)}
    _write_manifest(args.out, {"command": "diff", "input": args.input,
                               "method": args.method, "phi": phi, "nu": args.nu,
                               "flags": flags, "seed": None})
    return EXIT_OK


def cmd_tune(args) -> int:
    signal = _load_signal(args.input)
    spec = TuneSpec(cutoff_hz=args.cutoff_hz, outliers=args.outliers, seed=args.seed,
                    starts=args.starts, max_evals=args.max_evals)
    config = autotune(args.method, signal, spec)
    payload = {
        "command": "tune",
        "input": args.input,
        "method": args.method,
        "phi": config.phi,
        "gamma": config.info["gamma"],
        "huber_m": config.info["m"],
        "loss": config.info["loss"],
        "evaluations": config.info["evaluations"],
        "distinct_evaluations": config.info["distinct_evaluations"],
        "failed_evaluations": config.info["failed_evaluations"],
        "failure_reasons": config.info["failure_reasons"],
        "search": config.info["search"],
        "seed": args.seed,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, payload)
    else:
        print(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    case = SimulationCase(args.case, T=args.t_span, dt=args.dt)
    x, xdot, grid = simulate(case)
    clean = Signal(grid, x)
    noisy = add_noise(clean, NoiseSpec(family=args.noise, scale=args.scale, seed=args.seed))
    if args.outliers:
        noisy = add_outliers(noisy, seed=args.seed)
    _write_csv(args.out, ["t", "x_true", "dxdt_true", "y"],
               [grid.points, x, xdot, noisy.values])
    _write_manifest(args.out, {"command": "simulate", "input": None,
                               "method": args.case,
                               "phi": {"dt": args.dt, "t_span": args.t_span,
                                       "noise": args.noise, "scale": args.scale,
                                       "outliers": args.outliers},
                               "seed": args.seed})
    return EXIT_OK


def _monotone_verdicts(table: list[dict], methods, cases, values) -> dict:
    verdicts: dict[str, dict[str, bool]] = {}
    for method in methods:
        verdicts[method] = {}
        for case in cases:
            means = []
            for value in values:
                cell = next((c for c in table if c["method"] == method
                             and c["case"] == case and c["value"] == value), None)
                means.append(cell.get("rmse_mean") if cell else None)
            ok = all(m is not None for m in means) and all(
                a < b for a, b in zip(means, means[1:]))
            verdicts[method][case] = bool(ok)
    return verdicts


def cmd_bench(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"bench config must be a JSON object, got {config!r}")
    for key in ("methods", "cases", "axis", "values", "seeds"):
        if key not in config:
            raise UsageError(f"bench config is missing key {key!r}")
    for key in ("methods", "cases", "values"):
        if not isinstance(config[key], list) or not config[key]:
            raise UsageError(f"bench config key {key!r} must be a non-empty list")
    optional = {key: config[key] for key in ("cutoff_hz", "T", "dt", "starts", "max_evals")
                if key in config}
    for key, value in {"seeds": config["seeds"], **optional}.items():
        integral = key in ("seeds", "starts", "max_evals")
        # json reads NaN and Infinity as floats; type() leaves out bools
        if not (type(value) is int or (not integral and type(value) is float
                                       and math.isfinite(value))):
            raise UsageError(f"bench config key {key!r} must be "
                             f"{'an integer' if integral else 'a finite number'}, got {value!r}")
    if config["seeds"] < 1:
        raise UsageError("bench config key 'seeds' must be an integer >= 1")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = benchmark_sweep(
        config["methods"], config["cases"], config["axis"], config["values"],
        seeds=config["seeds"], workers=args.workers, **optional)  # absent: its defaults

    csv_path = out_dir / "bench.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "case", "axis", "value",
                         "rmse_mean", "rmse_std", "ec_mean", "ec_std", "n_ok", "n_fail"])
        for cell in table:
            writer.writerow([
                cell["method"], cell["case"], cell["axis"], _fmt(cell["value"])
                if isinstance(cell["value"], (int, float)) and not isinstance(cell["value"], bool)
                else cell["value"],
                _fmt(cell.get("rmse_mean", float("nan"))),
                _fmt(cell.get("rmse_std", float("nan"))),
                _fmt(cell.get("ec_mean", float("nan"))),
                _fmt(cell.get("ec_std", float("nan"))),
                cell["n_ok"], cell["n_fail"],
            ])

    failures = [f for cell in table for f in cell["failures"]]
    summary = {
        "axis": config["axis"],
        "values": config["values"],
        "cells": len(table),
        "failed_replicates": len(failures),
        "failures": failures,
        "rmse_monotone_increasing": _monotone_verdicts(
            table, config["methods"], config["cases"], config["values"]),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(str(csv_path), {"command": "bench", "input": args.config,
                                    "method": ",".join(config["methods"]),
                                    "phi": {"axis": config["axis"]},
                                    "seed": config["seeds"]})
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_spectrum(args) -> int:
    signal = _load_signal(args.input)
    freqs, db = power_spectrum(signal)
    _write_csv(args.out, ["freq_hz", "power_db"], [freqs, db])
    _write_manifest(args.out, {"command": "spectrum", "input": args.input,
                               "method": "power_spectrum", "phi": {}, "seed": None})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivkit",
        description="Derivative estimation for sampled 1-D signals.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="differentiate a t,y CSV")
    p.add_argument("input")
    p.add_argument("--method", required=True, choices=method_names())
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="method hyperparameter; repeatable")
    p.add_argument("--nu", type=int, default=1, help="derivative order (default 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("tune", help="pick hyperparameters without ground truth")
    p.add_argument("input")
    p.add_argument("--method", required=True, choices=method_names())
    p.add_argument("--cutoff-hz", type=float, default=TuneSpec.cutoff_hz)
    p.add_argument("--outliers", action="store_true",
                   help="data contains outliers (Huber M becomes 2)")
    p.add_argument("--seed", type=int, default=TuneSpec.seed)
    p.add_argument("--starts", type=int, default=TuneSpec.starts)
    p.add_argument("--max-evals", type=int, default=TuneSpec.max_evals)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", help="generate benchmark data")
    p.add_argument("--case", required=True, choices=CASE_NAMES)
    p.add_argument("--dt", type=float, default=SimulationCase.dt)
    p.add_argument("--t-span", type=float, default=SimulationCase.T)
    p.add_argument("--noise", default=NoiseSpec.family, choices=NOISE_FAMILIES)
    p.add_argument("--scale", type=float, default=NoiseSpec.scale)
    p.add_argument("--outliers", action="store_true")
    p.add_argument("--seed", type=int, default=NoiseSpec.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("spectrum", help="power spectrum of a t,y CSV")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
