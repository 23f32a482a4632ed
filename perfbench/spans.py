"""Span recorder that times derivkit's layers from outside the library.

Tracing rebinds public module attributes (for example
``derivkit.kalman.rts_smooth``) to timing wrappers, in every derivkit
module that holds a reference to the same function, and wraps each
registry entry's ``run`` so that tuner evaluations are seen too. Spans are
kept in memory and written once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous and single-threaded, so children never
overlap and the self times of all spans under one op add up to the op's
latency.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import time

#: Public functions wrapped when tracing, as (module, attribute). The span
#: name is "<layer>.<attribute>", where the layer is the module's short name.
WRAPPED = (
    ("derivkit.cli", "main"),
    ("derivkit.methods", "apply_method"),
    ("derivkit.core", "validate"),
    ("derivkit.fd", "fd_derivative"),
    ("derivkit.fd", "iterated_fd"),
    ("derivkit.spectral", "fourier_extension_derivative"),
    ("derivkit.smoothers", "kerneldiff"),
    ("derivkit.smoothers", "butterdiff"),
    ("derivkit.smoothers", "savgoldiff"),
    ("derivkit.smoothers", "polydiff"),
    ("derivkit.smoothers", "splinediff"),
    ("derivkit.smoothers", "rbfdiff"),
    ("derivkit.tvr", "tvrdiff"),
    ("derivkit.tvr", "smooth_accel_tvr"),
    ("derivkit.kalman", "rtsdiff"),
    ("derivkit.kalman", "robustdiff"),
    ("derivkit.kalman", "rts_smooth"),
    ("derivkit.kalman", "discretize"),
    ("derivkit.tune", "autotune"),
    ("derivkit.tune", "robust_proxy_loss"),
    ("derivkit.sims", "benchmark_sweep"),
    ("derivkit.sims", "simulate"),
    ("derivkit.sims", "add_noise"),
)

#: Span name of a registry entry's ``run`` (the "method child" of apply_method).
METHOD_RUN = "methods.run"
#: Root span of one timed op; its self time is the benchmark's own glue.
OP = "bench.op"
#: Root span of the set-up phase.
SETUP = "bench.setup"

LAYERS = ("bench", "cli", "methods", "core", "fd", "spectral", "smoothers",
          "tvr", "kalman", "tune", "sims")

_MODULES = ("derivkit", "derivkit.cli", "derivkit.core", "derivkit.fd", "derivkit.kalman",
            "derivkit.methods", "derivkit.sims", "derivkit.smoothers", "derivkit.spectral",
            "derivkit.tune", "derivkit.tvr")


@dataclasses.dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    error: bool = False
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans in memory while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.active = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: bool = False, info: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        span.info = info
        self._stack.pop()

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "error": s.error,
                                     "info": s.info}, default=str) + "\n")


def _result_info(name: str, args, result) -> dict | None:
    if name == METHOD_RUN:
        return {"phi": sorted(args[1].items())}
    flags = getattr(result, "flags", None)
    if name in ("tvr.tvrdiff", "kalman.robustdiff") and flags:
        return {"iterations": int(flags["iterations"]), "converged": bool(flags["converged"])}
    return None


def _timed(recorder: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index, error=True)
            raise
        recorder.close(index, info=_result_info(name, args, result))
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def install(recorder: Recorder):
    """Rebind the wrapped functions and registry runs; returns an undo callable."""
    from derivkit import methods

    modules = [importlib.import_module(m) for m in _MODULES]
    undo = []
    for module_name, attr in WRAPPED:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _timed(recorder, f"{module_name.split('.')[-1]}.{attr}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    specs = [methods.get_method(name) for name in methods.method_names()]
    for spec in specs:
        methods.register(dataclasses.replace(spec, run=_timed(recorder, METHOD_RUN, spec.run)))

    def uninstall():
        for module, key, original in reversed(undo):
            setattr(module, key, original)
        for spec in specs:
            methods.register(spec)
    return uninstall


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def distinct_evaluations(evaluations: list[list]) -> tuple[int, int]:
    """(distinct, total) evaluations, counting distinct keys within each tuner call."""
    distinct = sum(len({repr(key) for key in keys}) for keys in evaluations)
    return distinct, sum(len(keys) for keys in evaluations)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-op layer metrics over the spans under the ``bench.op`` roots.

    Times are seconds per op, scaled like their op's latency by the
    ``scale`` in the root span's info; counts are per op; ratios are pooled
    over the whole run (0 when the layer made no calls).
    """
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent >= 0:
            root[i] = root[s.parent]
    scale = [(spans[r].info or {}).get("scale", 1.0) for r in root]
    selfs = [t * f for t, f in zip(self_times(spans), scale)]
    in_op = [spans[r].name == OP for r in root]
    ops = sum(1 for s in spans if s.name == OP)
    if ops == 0:
        raise ValueError("no op spans recorded")

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    tvr_iter = tvr_conv = robust_iter = robust_conv = 0
    tuner_evals: dict[int, list] = {}
    tuner_method_s = 0.0
    tuner_failed = 0
    for i, s in enumerate(spans):
        if not in_op[i]:
            continue
        duration = s.duration * scale[i]
        total[s.name] = total.get(s.name, 0.0) + duration
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.name.split(".")[0]] += selfs[i]
        if s.name == "tvr.tvrdiff" and s.info:
            tvr_iter += s.info["iterations"]
            tvr_conv += s.info["converged"]
        if s.name == "kalman.robustdiff" and s.info:
            robust_iter += s.info["iterations"]
            robust_conv += s.info["converged"]
        under_tuner = s.parent >= 0 and spans[s.parent].name == "tune.autotune"
        if under_tuner and s.name == METHOD_RUN:
            tuner_evals.setdefault(s.parent, []).append(s.info["phi"] if s.info else None)
            tuner_method_s += duration
            tuner_failed += s.error
        elif under_tuner and s.name == "tune.robust_proxy_loss":
            tuner_failed += s.error

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    distinct, evaluations = distinct_evaluations(list(tuner_evals.values()))
    n_tvr = calls.get("tvr.tvrdiff", 0)
    n_robust = calls.get("kalman.robustdiff", 0)
    # core's only span is validate, so its self time is core.validate_s
    out = {f"{layer}.self_s": per_op(value) for layer, value in layer_self.items()
           if layer != "core"}
    out.update({
        "cli.calls": per_op(calls.get("cli.main", 0)),
        "methods.calls": per_op(calls.get("methods.apply_method", 0)),
        "core.validate_s": per_op(total.get("core.validate", 0.0)),
        "core.validate_calls": per_op(calls.get("core.validate", 0)),
        "fd.fd_derivative_s": per_op(total.get("fd.fd_derivative", 0.0)),
        "fd.iterated_fd_s": per_op(total.get("fd.iterated_fd", 0.0)),
        "spectral.fourier_s": per_op(total.get("spectral.fourier_extension_derivative", 0.0)),
        "tvr.tvrdiff_s": per_op(total.get("tvr.tvrdiff", 0.0)),
        "tvr.smooth_accel_tvr_s": per_op(total.get("tvr.smooth_accel_tvr", 0.0)),
        "tvr.calls": per_op(n_tvr),
        "tvr.admm_iterations": per_op(tvr_iter),
        "tvr.converged_ratio": ratio(tvr_conv, n_tvr),
        "kalman.rtsdiff_s": per_op(total.get("kalman.rtsdiff", 0.0)),
        "kalman.rts_smooth_s": per_op(total.get("kalman.rts_smooth", 0.0)),
        "kalman.robustdiff_s": per_op(total.get("kalman.robustdiff", 0.0)),
        "kalman.irls_iterations": per_op(robust_iter),
        "kalman.robust_converged_ratio": ratio(robust_conv, n_robust),
        "kalman.discretize_s": per_op(total.get("kalman.discretize", 0.0)),
        "kalman.discretize_calls": per_op(calls.get("kalman.discretize", 0)),
        "tune.autotune_s": per_op(total.get("tune.autotune", 0.0)),
        "tune.proxy_loss_s": per_op(total.get("tune.robust_proxy_loss", 0.0)),
        "tune.method_s": per_op(tuner_method_s),
        "tune.evaluations": per_op(evaluations),
        "tune.distinct_ratio": ratio(distinct, evaluations),
        "tune.failed_evaluations": per_op(tuner_failed),
        "sims.simulate_s": per_op(total.get("sims.simulate", 0.0)),
        "sims.simulate_calls": per_op(calls.get("sims.simulate", 0)),
        "sims.add_noise_s": per_op(total.get("sims.add_noise", 0.0)),
    })
    for name in ("kerneldiff", "butterdiff", "savgoldiff", "polydiff", "splinediff", "rbfdiff"):
        out[f"smoothers.{name}_s"] = per_op(total.get(f"smoothers.{name}", 0.0))
    out["trace.traced_op_s"] = per_op(total[OP])
    setup_sims = [s.duration * scale[i] for i, s in enumerate(spans)
                  if not in_op[i] and s.name.startswith("sims.")
                  and (s.parent < 0 or not spans[s.parent].name.startswith("sims."))]
    out["setup.sims_s"] = sum(setup_sims)
    return out
