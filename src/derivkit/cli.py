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
from fractions import Fraction
from functools import cache
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
        with open(path, encoding="utf-8-sig") as fh:  # "-sig" drops a byte-order mark
            first = fh.readline()
            if not first:
                raise ValidationError(f"{path}: empty file")
            header = [h.strip() for h in first.split(",")]
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValidationError(
                    f"{path}: header must contain columns {','.join(columns)}; got {','.join(header)}"
                )
            repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
            if repeated is not None:
                raise ValidationError(f"{path}: header names column {repeated!r} twice")
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


_X_MIN, _X_MAX = -280, 290  # decimal exponents the fast path formats
_TIE_MARGIN = 1e-9
_WORD = np.dtype("<u8")  # 8 output bytes, first byte lowest, on any host


def _word(byte, k: int):
    """``byte`` (an ASCII code or array of them) shifted to byte ``k`` of a word."""
    return np.asarray(byte).astype(_WORD) << _WORD.type(8 * k)


@cache
def _format_tables():
    """Built on first use. For each k that ``_digits17`` reads, ``10**k = hi + lo + eta``
    with ``hi``, ``lo`` doubles and ``|eta| <= 2**-106 * hi``, and ``hi`` cut into 26-bit
    halves for Dekker's product; the four ASCII digits of 0..9999 as a word and their
    trailing zeros; masks of the low 0..8 bytes of a word; the ``0.`` to ``0.000``
    prefixes at bytes 1-5; and a ``.`` at byte d of the 16 digits after the first."""
    hi, hi_hi, hi_lo, lo = [], [], [], []
    for k in range(16 - _X_MAX, 17 - _X_MIN):
        exact = Fraction(10) ** k
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
        c = hi[-1] * 134217729.0  # 2**27 + 1
        hi_hi.append(c - (c - hi[-1]))
        hi_lo.append(hi[-1] - hi_hi[-1])
    g = np.arange(10_000)
    ascii4 = sum(_word(48 + g // 10 ** (3 - b) % 10, b) for b in range(4))
    zeros4 = sum((g % 10 ** (b + 1) == 0).astype(np.int64) for b in range(4))
    low = np.array([(1 << 8 * b) - 1 for b in range(9)], _WORD)
    prefix = np.array([int.from_bytes(b"\0" + b"0.000"[:1 + b], "little") if b else 0
                       for b in range(5)], _WORD)
    dot = np.array([[46 << 8 * (d - 8 * w) if 8 * w <= d < 8 * w + 8 else 0 for w in (0, 1)]
                    for d in range(18)], _WORD)
    return [np.array(t) for t in (hi, hi_hi, hi_lo, lo)], ascii4, zeros4, low, prefix, dot


def _digits17(a: np.ndarray):
    """``(D, X, certified)`` for ``a >= 0``: where certified, ``%.17g`` prints ``a`` with
    the 17 digits of ``D`` (``10**16 <= D < 10**17``) at decimal exponent ``X``; a zero is
    certified with ``D = X = 0``. ``_write_csv`` gives the proof."""
    (hi, hi_hi, hi_lo, lo), *_ = _format_tables()
    ok = (a >= 10.0 ** _X_MIN) & (a < 10.0 ** (_X_MAX + 1))
    zero = a == 0
    a = np.where(ok, a, 1.0)
    X = np.clip(np.floor(np.log10(a)).astype(np.int64), _X_MIN, _X_MAX)
    k = _X_MAX - X  # row of 10**(16 - X)
    hi, hi_hi, hi_lo, lo = hi[k], hi_hi[k], hi_lo[k], lo[k]
    p = a * hi
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    r = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    n = np.rint(r)
    D = p.astype(np.int64) + n.astype(np.int64)
    ok &= (np.abs(r - n) < 0.5 - _TIE_MARGIN) | (lo == 0)
    ok &= (D < 10**17) & ((D > 10**16) | ((D == 10**16) & (r >= n)))
    return np.where(ok, D, 0), np.where(ok, X, 0), ok | zero


def _format_words(v: np.ndarray) -> np.ndarray:
    """``%.17g`` of each of ``v`` as a row of four words, zero bytes padding it anywhere,
    and byte 6 of the last word left 0 for a separator."""
    _, ascii4, zeros4, low, prefix, dot = _format_tables()
    D, X, fast = _digits17(np.abs(v))
    first, rest = np.divmod(D, 10**16)
    g1, g2 = np.divmod(rest // 10**8, 10**4)
    g3, g4 = np.divmod(rest % 10**8, 10**4)
    ndig = 17 - (zeros4[g4] + (g4 == 0) * (zeros4[g3] + (g3 == 0) * (
        zeros4[g2] + (g2 == 0) * zeros4[g1])))
    fixed, small = (X >= 0) & (X <= 16), (X < 0) & (X >= -4)  # 1.5, 0.0015; else 1.5e+20
    point = np.where(fixed, X, np.where(small, -1, 0))  # digits 0..point come before "."
    kept = np.where(fixed, np.maximum(ndig, point + 1), ndig)  # digits 0..kept - 1 print
    digits1, digits2 = (ascii4[g1] | ascii4[g2] << _WORD.type(32),
                        ascii4[g3] | ascii4[g4] << _WORD.type(32))
    int1, int2 = low[np.clip(point, 0, 8)], low[np.clip(point - 8, 0, 8)]
    frac1 = digits1 & low[np.clip(kept - 1, 0, 8)] & ~int1
    frac2 = digits2 & low[np.clip(kept - 9, 0, 8)] & ~int2
    dots = dot[np.where((kept > point + 1) & (point >= 0), point, 17)]
    ax = np.abs(X)
    words = np.empty((len(v), 4), _WORD)
    words[:, 0] = _word(np.signbit(v) * 45, 0) | prefix[small * -X] | _word(48 + first, 7)
    # the digits after the point move up one byte, to make room for it
    words[:, 1] = digits1 & int1 | frac1 << _WORD.type(8) | dots[:, 0]
    words[:, 2] = (digits2 & int2 | frac2 << _WORD.type(8) | frac1 >> _WORD.type(56)
                   | dots[:, 1])
    words[:, 3] = frac2 >> _WORD.type(56) | np.where(
        fixed | small, 0, _word(101, 1) | _word(np.where(X < 0, 45, 43), 2)
        | (ascii4[ax] >> _WORD.type(8) << _WORD.type(24)) & ~_word((ax < 100) * 255, 3))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [b"%.17g" % x for x in v[slow].tolist()]  # at most 24 bytes
        words[slow, :3] = np.array(text, "S24").view(_WORD).reshape(-1, 3)
        words[slow, 3] = 0
    return words


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``header`` and ``columns`` as exactly the bytes that ``np.savetxt(path,
    np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(header),
    comments="")`` writes, formatting a block of rows at a time by array arithmetic.

    Where ``_digits17`` certifies a value ``v``, its text is laid out from the 17 digits
    of ``D`` and the exponent ``X``: the sign, a ``0.`` to ``0.000`` prefix for ``-4 <= X
    < 0``, the digits with the point after digit ``X`` (``0 <= X <= 16``) or else after the
    first, trailing zeros dropped, and ``e+XX`` or ``e-XXX`` outside ``-4 <= X <= 16``.
    Pad bytes are zero and are dropped. Every other value is written by ``b"%.17g" % v``.

    Why ``_digits17`` is exact. With ``X = floor(log10|v|)``, ``k = 16 - X`` and ``10**k =
    hi + lo + eta`` (``hi``, ``lo`` doubles, ``|eta| <= 2**-106 * hi``), ``y = |v| * 10**k``
    is formed as ``p + r``: ``p = fl(|v| * hi)``, and ``r`` sums that product's exact
    rounding error (Dekker's two-product) and ``fl(|v| * lo)``. The rounding of ``|v| *
    lo``, the rounding of the sum and the neglected ``|v| * eta`` are within ``2**-106 *
    y``, ``2**-105 * y`` and ``2**-106 * y``, so ``|p + r - y| <= 2**-104 * y < 1e-13``, as
    ``X`` is within one of the true exponent and ``y < 1e18``. Where ``D = p + rint(r) >=
    10**16``, ``p >= 2**53`` is an even integer, so ``D`` is ``y`` rounded to an integer,
    ties to even as ``%.17g`` rounds, when ``r`` lies more than ``_TIE_MARGIN`` from a
    half-integer or when ``lo == 0`` (``10**k`` is a double and ``r`` is exact). ``D`` is
    then the 17 digits ``%.17g`` prints at exponent ``X`` if ``10**16 <= D < 10**17``; at
    ``D == 10**16`` the check ``r >= rint(r)`` keeps ``y`` above ``10**16 - 1e-13``, which
    rounds to ``10**16`` at either exponent.

    The fallback therefore takes inf and nan, ``|v|`` outside ``[1e-280, 1e291)``,
    fractions within ``_TIE_MARGIN`` of 1/2, an ``X`` off by one next to a power of ten,
    and roundings that carry into the next decade. Zeros stay on the fast path."""
    rows = np.column_stack(columns).astype(float, copy=False)
    seps = _word([44] * (rows.shape[1] - 1) + [10], 6)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in (rows[lo : lo + 2**14] for lo in range(0, len(rows), 2**14)):
            words = _format_words(block.ravel())
            words.reshape(len(block), -1, 4)[:, :, 3] |= seps
            text = words.view(np.uint8)
            fh.write(text[text != 0].tobytes())


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
    malformed pair, repeated or unknown name or out-of-bounds value is a usage error that
    prints the method's schema; a signal too short for the method's bounds is a validation
    error."""
    spec = get_method(method)
    params = _bounded_params(spec, signal)
    try:
        phi: dict[str, float] = {}
        for pair in pairs or []:
            name, sep, raw = pair.partition("=")
            if not sep:
                raise ValidationError(f"--param expects name=value, got {pair!r}")
            name = name.strip()
            if name in phi:
                raise ValidationError(f"--param {name!r} given more than once")
            try:
                phi[name] = float(raw)
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
        # the budget that produced phi, as TuneSpec holds it
        "cutoff_hz": spec.cutoff_hz,
        "starts": spec.starts,
        "max_evals": spec.max_evals,
        "outliers": spec.outliers,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        # the worker count changes no bit of the JSON, so only the manifest records it
        _write_manifest(args.out, {**payload, "processes": config.info["processes"]})
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


@cache
def _parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
    """``build_parser()``, built once per process for each set of registered method
    ``names``, which its ``--method`` choices list."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(method_names()).parse_args(argv)
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
