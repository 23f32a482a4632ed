import dataclasses
import functools
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derivkit import methods
from derivkit import (
    DerivativeResult,
    Grid,
    KernelSpec,
    NoiseSpec,
    RobustSpec,
    Signal,
    SplineSpec,
    Stencil,
    TuneSpec,
    TvrSpec,
    UnsupportedMethodError,
    ValidationError,
    apply_method,
    autotune,
    benchmark_sweep,
    butterdiff,
    cheb_nodes,
    chebyshev_derivative,
    constant_derivative_continuous,
    constant_derivative_model,
    cumtrapz,
    fd_derivative,
    fourier_derivative,
    fourier_extension_derivative,
    fourier_lowpass,
    get_method,
    irregular_coefficients,
    iterated_fd,
    kalman_irregular,
    kernel_smooth,
    kerneldiff,
    method_names,
    polydiff,
    power_spectrum,
    proxy_loss,
    robust_proxy_loss,
    robustdiff,
    rtsdiff,
    savgol_coefficients,
    savgoldiff,
    splinediff,
    stencil_coefficients,
    total_variation,
    tvrdiff,
    validate,
)
from derivkit.core import _require_int
from derivkit.smoothers import butter_single_pass


@functools.cache
def _epoch_reference(irregular: bool):
    """200 samples from t = 0 at step 0.01 (jittered by up to 0.4 steps when irregular),
    and every registry method's default derivative there (None: needs a uniform grid)."""
    rng = np.random.default_rng(0)
    k = 0.01 * (np.arange(200) + (0.4 * rng.uniform(size=200) if irregular else 0.0))
    y = np.sin(2 * np.pi * k) + 0.05 * rng.standard_normal(200)
    refs = {}
    for method in method_names():
        try:
            refs[method] = apply_method(method, Signal(Grid(k), y)).derivative
        except UnsupportedMethodError:
            refs[method] = None
    return k, y, refs


class TestGrid:
    def test_uniform_detection(self):
        g = Grid.regular(10, 0.1)
        assert g.uniform
        assert g.dt == pytest.approx(0.1)

    def test_irregular_detection(self):
        g = Grid([0.0, 0.1, 0.3, 0.35])
        assert not g.uniform
        assert g.dt is None

    def test_near_uniform_within_tolerance(self):
        t = 0.1 * np.arange(50)
        t[10] += 1e-12  # far below the 1e-9 relative tolerance
        assert Grid(t).uniform

    @pytest.mark.parametrize("t0", [0.0, 1e6, 1.7e9])
    def test_epoch_offset_keeps_grid_uniform(self, t0):
        k = 0.01 * np.arange(1000)
        y = np.sin(np.pi * k) + 0.05 * np.random.default_rng(0).standard_normal(1000)
        g = Grid(t0 + k)
        assert g.uniform
        assert g.dt == pytest.approx(0.01, rel=1e-8)
        for method in ("rts", "fd", "savgol"):
            ref = apply_method(method, Signal(Grid(k), y)).derivative
            out = apply_method(method, Signal(g, y)).derivative
            assert np.max(np.abs(out - ref)) <= 1e-8 * np.max(np.abs(ref))
        jittered = t0 + k + 1e-4 * np.random.default_rng(1).uniform(size=1000)
        assert not Grid(jittered).uniform

    @pytest.mark.parametrize("method", method_names())
    def test_epoch_offset_every_method(self, method):
        k = 0.01 * np.arange(1000)
        y = np.sin(np.pi * k) + 0.05 * np.random.default_rng(0).standard_normal(1000)
        ref = apply_method(method, Signal(Grid(k), y)).derivative
        for t0 in (1e6, 1.7e9):
            out = apply_method(method, Signal(Grid(t0 + k), y)).derivative
            assert np.max(np.abs(out - ref)) <= 1e-5 * np.max(np.abs(ref))

    @pytest.mark.parametrize("irregular", [False, True], ids=["uniform", "irregular"])
    @settings(max_examples=20, deadline=None)
    @given(t0=st.floats(0.0, 1e10))
    @example(t0=1e10)
    @example(t0=1.7e9)
    def test_epoch_offset_property(self, irregular, t0):
        # shifting the timestamps by t0 rounds each by ulp(t0), a relative
        # step error of ulp(t0) / dt; nothing else may change
        k, y, refs = _epoch_reference(irregular)
        grid = Grid(t0 + k)
        assert grid.uniform == (not irregular)
        bound = 10 * np.spacing(t0) / 0.01 + 1e-12
        for method, ref in refs.items():
            if ref is None:
                with pytest.raises(UnsupportedMethodError):
                    apply_method(method, Signal(grid, y))
                continue
            out = apply_method(method, Signal(grid, y)).derivative
            assert np.max(np.abs(out - ref)) <= bound * np.max(np.abs(ref)), method

    def test_duplicate_timestamp_reports_index(self):
        with pytest.raises(ValidationError, match="index 3"):
            Grid([0.0, 1.0, 2.0, 2.0, 3.0])

    def test_decreasing_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            Grid([0.0, 1.0, 0.5])

    def test_too_short(self):
        with pytest.raises(ValidationError, match="at least 2"):
            Grid([1.0])

    def test_points_immutable(self):
        g = Grid.regular(5, 1.0)
        with pytest.raises(ValueError):
            g.points[0] = 99.0


class TestSignal:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            Signal(Grid.regular(5, 1.0), np.zeros(4))

    def test_nan_reports_index(self):
        values = np.ones(5)
        values[2] = np.nan
        with pytest.raises(ValidationError, match="index 2"):
            Signal(Grid.regular(5, 1.0), values)

    def test_validate_passes_for_good_signal(self):
        validate(Signal(Grid.regular(8, 0.5), np.arange(8.0)))

    def test_cannot_change_after_construction(self):
        s = Signal(Grid.regular(8, 0.5), np.arange(8.0))
        with pytest.raises(ValueError):
            s.values[0] = 99.0
        for obj, name in ((s, "values"), (s, "grid"), (s.grid, "dt"), (s.grid, "uniform")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        bad = np.arange(8.0)
        bad[3] = np.nan
        with pytest.raises(ValidationError, match="index 3"):
            dataclasses.replace(s, values=bad)  # a rebuilt signal is checked again


class TestCheckedWhenBuilt:
    def test_library_never_rechecks_a_signal(self, monkeypatch):
        from derivkit import core

        rng = np.random.default_rng(3)
        t = 0.01 * np.arange(400)
        y = np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal(400)
        uniform = Signal(Grid(t), y)
        irregular = Signal(Grid(t + 0.004 * rng.uniform(size=400)), y)
        assert uniform.grid.uniform and not irregular.grid.uniform
        calls = []
        monkeypatch.setattr(core, "_check_grid_points", lambda pts: calls.append(len(pts)))
        for method in method_names():
            apply_method(method, uniform)
        for method in ("fd", "poly", "spline", "rbf", "rts", "robust"):
            apply_method(method, irregular)
        autotune("fourier", uniform, TuneSpec(starts=2, max_evals=30))
        derivative = np.cos(2 * np.pi * t)
        proxy_loss(derivative, uniform, 0.1)
        robust_proxy_loss(derivative, uniform, 0.1)
        cumtrapz(irregular)
        kernel_smooth(uniform, KernelSpec(window=11, sigma=2.0))
        fourier_lowpass(uniform, 20)
        power_spectrum(uniform)
        kalman_irregular(constant_derivative_continuous(2, 100.0), [[1.0, 0.0, 0.0]],
                         [[0.05**2]], [y[0], 0.0, 0.0], np.eye(3), irregular)
        assert calls == []


class TestDerivativeResult:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            DerivativeResult(np.zeros(3), np.zeros(4), "x")

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="index 1"):
            DerivativeResult(np.zeros(3), np.array([0.0, np.inf, 0.0]), "x")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["smoothed", "derivative"])
    def test_nonfinite_message_names_array_and_first_index(self, name, bad):
        arrays = {"smoothed": np.zeros(6), "derivative": np.zeros(6)}
        arrays[name][[2, 4]] = bad
        with pytest.raises(ValidationError) as info:
            DerivativeResult(arrays["smoothed"], arrays["derivative"], "x")
        assert str(info.value) == f"{name} contains non-finite value at index 2"


class TestRegistry:
    @pytest.mark.parametrize("method", method_names())
    def test_defaults_run_or_length_is_rejected(self, method):
        rng = np.random.default_rng(3)
        for n in (5, 8, 16, 40, 64, 65, 200, 400):
            for dt in (1e-3, 0.01, 1.0):
                signal = Signal(Grid.regular(n, dt), rng.standard_normal(n))
                if any(p.lo > p.hi for p in get_method(method).build_params(signal)):
                    for call in (apply_method, autotune):
                        with pytest.raises(ValidationError,
                                           match=rf"'{method}' needs at least \d+ samples, got {n}"):
                            call(method, signal)
                else:
                    assert len(apply_method(method, signal).derivative) == n

    @pytest.mark.parametrize("method", method_names())
    def test_phi_and_flags_are_json_safe(self, method):
        t = 0.01 * np.arange(200)
        noise = 0.05 * np.random.default_rng(4).standard_normal(200)
        signal = Signal(Grid(t), np.sin(2 * np.pi * t) + noise)
        result = apply_method(method, signal)
        json.dumps({"phi": result.phi, "flags": result.flags})

    def test_rts_takes_no_r(self):
        # rtsdiff depends on q and r only through q / r
        signal = Signal(Grid.regular(50, 0.01), np.zeros(50))
        with pytest.raises(ValidationError, match="unknown parameter 'r'"):
            apply_method("rts", signal, {"r": 2.0})

    @staticmethod
    def _assert_resolved(spec, params, phi):
        """``phi`` is a fixed point of the resolver, with every integer-scale value an int."""
        assert methods.resolve(spec, params, phi) == phi
        for p in params:
            assert p.lo <= phi[p.name] <= p.hi
            assert type(phi[p.name]) is (int if p.scale == "integer" else float)

    @pytest.mark.parametrize("method, irregular", [(m, False) for m in method_names()] + [
        (m, True) for m in ("fd", "poly", "spline", "rbf", "rts", "robust")])
    def test_resolver_is_idempotent_and_integers_are_int(self, method, irregular):
        rng = np.random.default_rng(5)
        t = 0.01 * (np.arange(400) + (0.4 * rng.uniform(size=400) if irregular else 0.0))
        signal = Signal(Grid(t), rng.standard_normal(400))
        spec = get_method(method)
        params = methods._bounded_params(spec, signal)
        self._assert_resolved(spec, params, methods.resolve(spec, params, {}))
        for _ in range(20):  # raw points inside the bounds, integer ones off the integers
            raw = {p.name: float(rng.uniform(p.lo, p.hi)) for p in params}
            self._assert_resolved(spec, params, methods.resolve(spec, params, raw))

    @pytest.mark.parametrize("method", ["fd", "fourier", "iterated_fd", "kernel", "poly",
                                        "savgol"])
    def test_tuned_phi_is_resolved(self, method):
        t = 0.01 * np.arange(200)
        noise = 0.05 * np.random.default_rng(6).standard_normal(200)
        signal = Signal(Grid(t), np.sin(2 * np.pi * t) + noise)
        config = autotune(method, signal, TuneSpec(starts=2, max_evals=20, seed=0))
        spec = get_method(method)
        self._assert_resolved(spec, methods._bounded_params(spec, signal), config.phi)

    @pytest.mark.parametrize("method, order, runs", [
        ("fd", 2, 2), ("fd", 3, 4), ("fd", 5, 6), ("fd", 7, 8), ("iterated_fd", 3, 4),
        ("iterated_fd", 5, 6)])
    def test_fd_orders_name_the_order_that_runs(self, method, order, runs):
        # a centered stencil reaches only even orders: an odd one runs as the next even one
        signal = Signal(Grid.regular(100, 0.01), np.sin(0.1 * np.arange(100.0)))
        result = apply_method(method, signal, {"order": order})
        assert result.phi["order"] == runs
        want = apply_method(method, signal, {"order": runs})
        assert np.array_equal(result.derivative, want.derivative)
        if method == "fd":
            assert np.array_equal(result.derivative,
                                  fd_derivative(signal, order=order).derivative)


def _signal(n: int = 64) -> Signal:
    t = 0.05 * np.arange(n)
    noise = 0.05 * np.random.default_rng(9).standard_normal(n)
    return Signal(Grid(t), np.sin(t) + noise)


def _spec_run(spec, run):
    """For a setting held by a spec: the spec and the output ``run`` makes with it."""
    return lambda value: (made := spec(value), run(made))


#: Every integer setting, by its public function or spec: (the name its errors give, a whole
#: value k, the phi key or spec field that records it or None, and a call with that value).
#: A spec's call returns the spec and the output of the method that runs with it.
INTEGER_SETTINGS = {
    "Stencil.nu": ("derivative order", 2, "nu", _spec_run(
        lambda v: Stencil((-1, 0, 1), v), lambda st: stencil_coefficients(st, 0.1))),
    "irregular_coefficients.nu": ("derivative order", 2, None,
                                  lambda v: irregular_coefficients([-0.1, 0.0, 0.2], v)),
    "fd_derivative.nu": ("derivative order", 2, "nu",
                         lambda v: fd_derivative(_signal(), nu=v, order=2)),
    "fd_derivative.order": ("order", 4, "order", lambda v: fd_derivative(_signal(), order=v)),
    "iterated_fd.order": ("order", 4, "order",
                          lambda v: iterated_fd(_signal(), order=v, iterations=1)),
    "iterated_fd.iterations": ("iterations", 3, "iterations",
                               lambda v: iterated_fd(_signal(), order=2, iterations=v)),
    "fourier_derivative.nu": ("derivative order", 2, "nu",
                              lambda v: fourier_derivative(_signal(), nu=v)),
    "fourier_derivative.keep_modes": ("keep_modes", 10, "keep_modes",
                                      lambda v: fourier_derivative(_signal(), keep_modes=v)),
    "fourier_lowpass.keep_modes": ("keep_modes", 10, None,
                                   lambda v: fourier_lowpass(_signal(), v)),
    "Grid.regular.n": ("n", 16, None, lambda v: Grid.regular(v, 0.1)),
    "cheb_nodes.n": ("n", 16, None, cheb_nodes),
    "chebyshev_derivative.nu": ("derivative order", 2, "nu", lambda v: chebyshev_derivative(
        np.exp(cheb_nodes(16)), nu=v)),
    "fourier_extension_derivative.pad": (
        "pad", 8, "pad", lambda v: fourier_extension_derivative(_signal(), pad=v, keep_modes=None)),
    "fourier_extension_derivative.nu": (
        "derivative order", 2, "nu",
        lambda v: fourier_extension_derivative(_signal(), pad=0, keep_modes=None, nu=v)),
    "fourier_extension_derivative.keep_modes": (
        "keep_modes", 10, "keep_modes",
        lambda v: fourier_extension_derivative(_signal(), pad=0, keep_modes=v)),
    "constant_derivative_model.nu": ("nu", 2, None,
                                     lambda v: constant_derivative_model(v, 0.1, 1.0, 1.0)),
    "constant_derivative_continuous.nu": ("nu", 2, None,
                                          lambda v: constant_derivative_continuous(v, 1.0)),
    "rtsdiff.nu": ("nu", 3, "nu", lambda v: rtsdiff(_signal(), nu=v, q=1.0)),
    "robustdiff.nu": ("nu", 1, "nu", lambda v: robustdiff(_signal(), nu=v, q=1.0, r=1.0)),
    "RobustSpec.max_iter": ("max_iter", 3, "max_iter", _spec_run(
        lambda v: RobustSpec(max_iter=v),
        lambda sp: robustdiff(_signal(), nu=2, q=1.0, r=1.0, spec=sp))),
    "TvrSpec.nu": ("nu", 2, "nu", _spec_run(
        lambda v: TvrSpec(gamma=1.0, nu=v), lambda sp: tvrdiff(_signal(), sp))),
    "TvrSpec.max_iter": ("max_iter", 5, "max_iter", _spec_run(
        lambda v: TvrSpec(gamma=1.0, nu=1, max_iter=v), lambda sp: tvrdiff(_signal(), sp))),
    "KernelSpec.window": ("window", 11, "window", _spec_run(
        lambda v: KernelSpec(window=v, sigma=2.0), lambda sp: kerneldiff(_signal(), sp))),
    "butterdiff.order": ("order", 3, "order",
                         lambda v: butterdiff(_signal(), order=v, cutoff_hz=1.0)),
    "butter_single_pass.order": ("order", 3, None,
                                 lambda v: butter_single_pass(_signal(), v, 1.0)),
    "polydiff.window": ("window", 20, "window",
                        lambda v: polydiff(_signal(), window=v, degree=3)),
    "polydiff.degree": ("degree", 2, "degree", lambda v: polydiff(_signal(), 20, degree=v)),
    "polydiff.stride": ("stride", 5, "stride",
                        lambda v: polydiff(_signal(), 20, stride=v, degree=3)),
    "savgoldiff.window": ("window", 11, "window", lambda v: savgoldiff(_signal(), v, 3, None)),
    "savgoldiff.degree": ("degree", 4, "degree", lambda v: savgoldiff(_signal(), 11, v, None)),
    "savgol_coefficients.window": ("window", 11, None, lambda v: savgol_coefficients(v, 3)),
    "savgol_coefficients.degree": ("degree", 4, None, lambda v: savgol_coefficients(11, v)),
    "SplineSpec.degree": ("degree", 4, "degree", _spec_run(
        lambda v: SplineSpec(degree=v, lam=1e-3, iterations=1),
        lambda sp: splinediff(_signal(), sp))),
    "SplineSpec.iterations": ("iterations", 2, "iterations", _spec_run(
        lambda v: SplineSpec(degree=3, iterations=v, lam=1e-3),
        lambda sp: splinediff(_signal(), sp))),
    "TuneSpec.starts": ("starts", 2, "starts", _spec_run(
        lambda v: TuneSpec(starts=v, max_evals=10), lambda sp: autotune("poly", _signal(), sp))),
    "TuneSpec.max_evals": ("max_evals", 10, "max_evals", _spec_run(
        lambda v: TuneSpec(starts=2, max_evals=v), lambda sp: autotune("poly", _signal(), sp))),
    "benchmark_sweep.seeds": ("seeds", 2, None, lambda v: benchmark_sweep(
        ["fd"], ["sine_sum"], "noise_scale", [1.0], seeds=v, starts=1, max_evals=2,
        workers=1)),
    "benchmark_sweep.workers": ("workers", 1, None, lambda v: benchmark_sweep(
        ["fd"], ["sine_sum"], "noise_scale", [1.0], seeds=1, starts=1, max_evals=2,
        workers=v)),
}


class TestIntegerSettings:
    """One rule for every integer setting: a whole number of any numeric type runs as the
    int it equals; anything else is refused by the setting's name."""

    @pytest.mark.parametrize("bad", [2.5, True, np.nan, "3"], ids=repr)
    @pytest.mark.parametrize("setting", sorted(INTEGER_SETTINGS))
    def test_refused_by_name(self, setting, bad):
        name, _, _, call = INTEGER_SETTINGS[setting]
        with pytest.raises(ValidationError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be an integer, got {bad!r}"

    @pytest.mark.parametrize("setting", sorted(INTEGER_SETTINGS))
    def test_whole_float_runs_as_the_int(self, setting):
        _, k, key, call = INTEGER_SETTINGS[setting]
        got, want = call(float(k)), call(k)
        # pickles hold every output bit, and tell an int from a float anywhere inside
        assert pickle.dumps(got) == pickle.dumps(want)
        if key is not None:  # the spec, or the result's phi, records the int
            holder = got[0] if isinstance(got, tuple) else got
            recorded = holder.phi[key] if isinstance(holder, DerivativeResult) else getattr(
                holder, key)
            assert type(recorded) is int

    @pytest.mark.parametrize("value, hi, message", [
        (0, None, "must be >= 1, got 0"), (-2.0, None, "must be >= 1, got -2"),
        (np.int64(5), 4, "must lie in [1, 4], got 5"), (np.inf, None, "must be an integer, got inf"),
        (None, None, "must be an integer, got None"),
        (np.True_, None, "must be an integer, got np.True_")])
    def test_range_and_type_messages(self, value, hi, message):
        with pytest.raises(ValidationError, match=re.escape(f"setting {message}")):
            _require_int("setting", value, 1, hi)

    @pytest.mark.parametrize("bad", [True, 2.5, "1", np.nan], ids=repr)
    @pytest.mark.parametrize("method", ["savgol", "tvr", "fd", "fourier"])
    def test_apply_method_refuses_a_derivative_order_by_name(self, method, bad):
        # before, True ran as 1, and "1" and 2.5 got "only produces first derivatives"
        with pytest.raises(ValidationError) as info:
            apply_method(method, _signal(), nu=bad)
        assert str(info.value) == f"derivative order must be an integer, got {bad!r}"

    @pytest.mark.parametrize("one", [1.0, np.int64(1)], ids=repr)
    @pytest.mark.parametrize("method", ["savgol", "tvr", "fd", "fourier"])
    def test_apply_method_runs_a_whole_derivative_order_as_the_int(self, method, one):
        got, want = apply_method(method, _signal(), nu=one), apply_method(method, _signal())
        assert pickle.dumps(got) == pickle.dumps(want)


#: Real-valued settings, by their public function or spec: a call with the value.
REAL_SETTINGS = {
    "cutoff_hz": lambda v: TuneSpec(cutoff_hz=v),
    "tol": lambda v: RobustSpec(tol=v),
    "huber_m_process": lambda v: RobustSpec(huber_m_process=v),
    "gamma": lambda v: TvrSpec(gamma=v, nu=1),
    "sigma": lambda v: KernelSpec(window=11, sigma=v),
    "lam": lambda v: SplineSpec(degree=3, lam=v, iterations=1),
    "scale": lambda v: NoiseSpec(scale=v),
    "q": lambda v: constant_derivative_model(2, 0.1, v, 1.0),
    "dx": lambda v: stencil_coefficients(Stencil((-1, 0, 1), 1), v),
}


class TestRealSettings:
    """One rule for every real-valued setting, beside the integer one: a bool or a value
    that is not a real number is refused by the setting's name."""

    @pytest.mark.parametrize("bad", [True, np.True_, "3", 1j, [1.0]], ids=repr)
    @pytest.mark.parametrize("setting", sorted(REAL_SETTINGS))
    def test_refused_by_name(self, setting, bad):
        # before, True ran as 1.0 and "3" raised a bare TypeError
        with pytest.raises(ValidationError) as info:
            REAL_SETTINGS[setting](bad)
        assert str(info.value) == f"{setting} must be a real number, got {bad!r}"

    @pytest.mark.parametrize("value", [2, np.float32(0.5), np.int64(3)], ids=repr)
    def test_real_numbers_of_any_type_pass(self, value):
        assert TuneSpec(cutoff_hz=value).cutoff_hz == value


class TestCumtrapz:
    def test_constant_one(self):
        s = Signal(Grid.regular(5, 0.1), np.ones(5))
        np.testing.assert_allclose(cumtrapz(s), [0, 0.1, 0.2, 0.3, 0.4], atol=1e-15)

    def test_linear_exact(self):
        t = np.array([0.0, 1.0, 2.0])
        s = Signal(Grid(t), t)
        np.testing.assert_allclose(cumtrapz(s), [0.0, 0.5, 2.0], atol=1e-15)

    def test_irregular_hand_sums(self):
        # 0.5*(0 + 0.25)*0.5 = 0.0625, then + 0.5*(0.25 + 4)*1.5 = 3.25
        t = np.array([0.0, 0.5, 2.0])
        s = Signal(Grid(t), t**2)
        np.testing.assert_allclose(cumtrapz(s), [0.0, 0.0625, 3.25], rtol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 40), st.floats(-5, 5), st.floats(-5, 5))
    def test_linearity(self, n, a, b):
        rng = np.random.default_rng(n)
        grid = Grid(np.cumsum(rng.uniform(0.1, 1.0, n)))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = cumtrapz(Signal(grid, a * u + b * v))
        rhs = a * cumtrapz(Signal(grid, u)) + b * cumtrapz(Signal(grid, v))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 30), st.floats(-3, 3), st.floats(-3, 3))
    def test_degree_one_polynomial_exact(self, n, a, b):
        rng = np.random.default_rng(n + 1000)
        t = np.cumsum(rng.uniform(0.05, 1.0, n))
        grid = Grid(t)
        integral = cumtrapz(Signal(grid, a * t + b))
        exact = a / 2 * (t**2 - t[0] ** 2) + b * (t - t[0])
        np.testing.assert_allclose(integral, exact, rtol=1e-12, atol=1e-12)

    def test_epoch_offset_matches_same_step_at_zero(self):
        # 1.7e9 + t is stored to 2.4e-7; differences of such timestamps were
        # 6.5e-7 relative off. Compare with a t0 = 0 grid of the same step.
        v = np.sin(0.01 * np.arange(1000)) + 0.3
        shifted = Grid.regular(1000, 0.01, t0=1.7e9)
        same_step = Grid.regular(1000, shifted.dt)
        np.testing.assert_allclose(cumtrapz(Signal(shifted, v)), cumtrapz(Signal(same_step, v)),
                                   rtol=1e-12, atol=0)


class TestTotalVariation:
    def test_two_unit_steps(self):
        assert total_variation([1, 2, 3]) == pytest.approx(2 / 3)

    def test_constant(self):
        assert total_variation(np.full(7, 4.2)) == 0.0

    def test_alternating(self):
        assert total_variation([0, 1, 0, 1]) == pytest.approx(3 / 4)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            total_variation([1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40),
           st.floats(-10, 10))
    def test_reversal_and_scaling(self, values, c):
        tv = total_variation(values)
        assert total_variation(values[::-1]) == pytest.approx(tv, abs=1e-12)
        assert total_variation([c * v for v in values]) == pytest.approx(
            abs(c) * tv, rel=1e-12, abs=1e-9)
