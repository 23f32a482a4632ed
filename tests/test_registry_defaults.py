"""The method registry is the one home of every method default.

A library function or spec that a registry adapter fills from ``phi`` has no default for
that parameter: called with only the signal, and a default-constructed spec where it
takes one, it is refused by name, and called with the values its adapter passes it gives
``apply_method``'s bits.
"""

import dataclasses
import inspect
import pickle
import re

import numpy as np
import pytest

from derivkit import (Grid, KernelSpec, RobustSpec, Signal, SplineSpec, TvrSpec, ValidationError,
                      apply_method, butterdiff, fd_derivative, fourier_extension_derivative,
                      get_method, iterated_fd, kerneldiff, method_names, methods, polydiff,
                      rbfdiff, robustdiff, rtsdiff, savgoldiff, smooth_accel_tvr, splinediff,
                      tvrdiff)
from derivkit.smoothers import _gaussian_window

#: Each registry method's library call: (the call with only the signal, and a
#: default-constructed spec where it takes one; the call with the values its adapter
#: passes from phi; the (function or spec, parameter) pairs phi fills).
LIBRARY = {
    "fd": (lambda s: fd_derivative(s),
           lambda s, p: fd_derivative(s, order=p["order"]),
           [(fd_derivative, "order")]),
    "iterated_fd": (lambda s: iterated_fd(s),
                    lambda s, p: iterated_fd(s, order=p["order"], iterations=p["iterations"]),
                    [(iterated_fd, "order"), (iterated_fd, "iterations")]),
    "kernel": (lambda s: kerneldiff(s, KernelSpec()),
               lambda s, p: kerneldiff(s, KernelSpec(window=_gaussian_window(p["sigma"]),
                                                     sigma=p["sigma"])),
               [(KernelSpec, "window"), (KernelSpec, "sigma")]),
    "butter": (lambda s: butterdiff(s),
               lambda s, p: butterdiff(s, order=p["order"], cutoff_hz=p["cutoff_hz"]),
               [(butterdiff, "order"), (butterdiff, "cutoff_hz")]),
    "savgol": (lambda s: savgoldiff(s),
               lambda s, p: savgoldiff(s, p["window"], p["degree"], p["post_smooth_sigma"]),
               [(savgoldiff, "window"), (savgoldiff, "degree"),
                (savgoldiff, "post_smooth_sigma")]),
    "poly": (lambda s: polydiff(s),
             lambda s, p: polydiff(s, window=p["window"], degree=p["degree"]),
             [(polydiff, "window"), (polydiff, "degree")]),
    "spline": (lambda s: splinediff(s, SplineSpec()),
               lambda s, p: splinediff(s, SplineSpec(degree=p["degree"], lam=p["lam"],
                                                     iterations=p["iterations"])),
               [(SplineSpec, "degree"), (SplineSpec, "lam"), (SplineSpec, "iterations")]),
    "fourier": (lambda s: fourier_extension_derivative(s),
                lambda s, p: fourier_extension_derivative(s, pad=p["pad"],
                                                          keep_modes=p["keep_modes"]),
                [(fourier_extension_derivative, "pad"),
                 (fourier_extension_derivative, "keep_modes")]),
    "rbf": (lambda s: rbfdiff(s),
            lambda s, p: rbfdiff(s, sigma=p["sigma"],
                                 rho=methods.RBF_TRUNCATION_FACTOR * p["sigma"],
                                 damping=p["damping"]),
            [(rbfdiff, "sigma"), (rbfdiff, "rho"), (rbfdiff, "damping")]),
    "tvr": (lambda s: tvrdiff(s, TvrSpec()),
            lambda s, p: tvrdiff(s, TvrSpec(gamma=p["gamma"], nu=p["nu"])),
            [(TvrSpec, "gamma"), (TvrSpec, "nu")]),
    "smooth_accel_tvr": (lambda s: smooth_accel_tvr(s, TvrSpec()),
                         lambda s, p: smooth_accel_tvr(s, TvrSpec(
                             gamma=p["gamma"], nu=2, soften_sigma=p["soften_sigma"])),
                         [(TvrSpec, "gamma"), (TvrSpec, "nu"), (TvrSpec, "soften_sigma")]),
    "rts": (lambda s: rtsdiff(s),
            lambda s, p: rtsdiff(s, nu=p["nu"], q=p["q"], r=1.0),
            [(rtsdiff, "nu"), (rtsdiff, "q")]),
    "robust": (lambda s: robustdiff(s),
               lambda s, p: robustdiff(s, nu=p["nu"], q=p["q"], r=p["r"],
                                       spec=RobustSpec(huber_m_measurement=p["m"])),
               [(robustdiff, "nu"), (robustdiff, "q"), (robustdiff, "r")]),
}

#: Fields read by one mode or kind only: None by default, and refused by name where read,
#: here by a call that leaves them unset.
UNSET = {
    (KernelSpec, "sigma"): lambda s: KernelSpec(window=25),
    (SplineSpec, "lam"): lambda s: SplineSpec(degree=3, iterations=1),
    (TvrSpec, "soften_sigma"): lambda s: smooth_accel_tvr(s, TvrSpec(gamma=10.0, nu=2)),
}


def _signal(n: int = 400) -> Signal:
    t = 0.01 * np.arange(n)
    noise = 0.1 * np.random.default_rng(0).standard_normal(n)
    return Signal(Grid(t), np.sin(2 * np.pi * t) + noise)


def _default(owner, name):
    """The default of ``owner``'s parameter or field ``name``: ``inspect.Parameter.empty``
    or ``dataclasses.MISSING`` when it has none."""
    if dataclasses.is_dataclass(owner):
        (field,) = [f for f in dataclasses.fields(owner) if f.name == name]
        return field.default
    return inspect.signature(owner).parameters[name].default


def test_every_method_has_a_library_call():
    assert sorted(LIBRARY) == sorted(method_names())


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_the_signal_alone_is_refused_by_name(name):
    bare, _, filled = LIBRARY[name]
    with pytest.raises((TypeError, ValidationError)) as info:
        bare(_signal())
    names = "|".join(sorted({p for _, p in filled}))
    assert re.search(rf"\b({names})\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_the_adapters_values_give_apply_methods_bits(name):
    _, call, _ = LIBRARY[name]
    signal = _signal()
    spec = get_method(name)
    phi = methods.resolve(spec, methods._bounded_params(spec, signal))
    assert pickle.dumps(call(signal, phi)) == pickle.dumps(apply_method(name, signal))


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_no_registry_parameter_keeps_a_library_default(name):
    for owner, param in LIBRARY[name][2]:
        default = _default(owner, param)
        if default is None:
            assert (owner, param) in UNSET, (owner, param)
        else:
            assert default is inspect.Parameter.empty or default is dataclasses.MISSING, (
                owner, param, default)


@pytest.mark.parametrize("owner, param", sorted(UNSET, key=lambda k: (k[0].__name__, k[1])),
                         ids=lambda v: getattr(v, "__name__", v))
def test_a_field_one_mode_reads_is_refused_by_name_when_unset(owner, param):
    with pytest.raises(ValidationError, match=rf"\b{param}\b"):
        UNSET[owner, param](_signal())


def test_the_registry_reads_the_huber_radius_from_robust_spec():
    # the one registry default that lives in a spec: RobustSpec.huber_m_measurement also
    # configures robust_map_smooth, which the registry does not run
    (m,) = [p for p in get_method("robust").build_params(_signal()) if p.name == "m"]
    assert m.default == _default(RobustSpec, "huber_m_measurement") == 2.0
