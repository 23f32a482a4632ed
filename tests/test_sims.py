import os
import re

import numpy as np
import pytest
import sims_reference as ref

from derivkit import (
    Grid,
    NoiseSpec,
    Signal,
    SimulationCase,
    TuneSpec,
    ValidationError,
    add_noise,
    add_outliers,
    benchmark_sweep,
    cruise_control_matrices,
    fd_derivative,
    simulate,
)
from derivkit.sims import _worker_count

ALL_CASES = ("sine_sum", "triangles", "cruise_control", "lti_second_order",
             "lorenz_x", "logistic_growth")


class TestSimulate:
    def test_default_grid(self):
        x, xdot, grid = simulate(SimulationCase("sine_sum"))
        assert len(x) == len(xdot) == len(grid) == 400
        assert grid.uniform and grid.dt == pytest.approx(0.01)
        assert grid.points[0] == 0.0

    def test_triangles_derivative_piecewise_constant(self):
        x, xdot, grid = simulate(SimulationCase("triangles"))
        slope = 4 * 0.8 / 2.0
        assert set(np.round(np.unique(xdot), 12)) == {-slope, slope}

    def test_cruise_control_starts_at_rest(self):
        x, xdot, grid = simulate(SimulationCase("cruise_control"))
        assert x[0] == 0.0
        assert xdot[0] == 0.0
        assert np.all(np.isfinite(x))

    def test_cruise_control_matrices_structure(self):
        dt = 0.01
        A, B, C = cruise_control_matrices(dt)
        np.testing.assert_allclose(A[0], [1.0, dt, dt**2 / 2, 0.0])
        np.testing.assert_allclose(A[1], [0.0, 1.0, dt, 0.0])
        np.testing.assert_allclose(A[2], [0.0, -0.9 - 0.25 / dt, 0.0, 0.05 / dt**2])
        np.testing.assert_allclose(A[3], [0.0, -dt, 0.0, 1.0])
        np.testing.assert_allclose(B[2], [-10000.0, 0.25 / dt])
        np.testing.assert_allclose(B[3], [0.0, dt])
        np.testing.assert_allclose(C, [[1.0, 0.0, 0.0, 0.0]])

    def test_logistic_matches_closed_form(self):
        x, xdot, grid = simulate(SimulationCase("logistic_growth"))
        r, K, x0 = 2.0, 1.0, 0.05
        t = grid.points
        closed = K / (1 + (K - x0) / x0 * np.exp(-r * t))
        np.testing.assert_allclose(x, closed, atol=1e-8)
        np.testing.assert_allclose(xdot, r * x * (1 - x / K), atol=1e-12)

    def test_lti_matches_closed_form(self):
        x, xdot, grid = simulate(SimulationCase("lti_second_order"))
        zeta, wn = 0.2, 2 * np.pi
        wd = wn * np.sqrt(1 - zeta**2)
        t = grid.points
        closed = 1 - np.exp(-zeta * wn * t) * (
            np.cos(wd * t) + zeta / np.sqrt(1 - zeta**2) * np.sin(wd * t))
        np.testing.assert_allclose(x, closed, atol=1e-8)

    @pytest.mark.parametrize("name", ALL_CASES)
    def test_xdot_consistent_with_fd(self, name):
        x, xdot, grid = simulate(SimulationCase(name))
        fd = np.asarray(fd_derivative(Signal(grid, x), nu=1, order=4).derivative)
        err = np.abs(fd - xdot)[5:-5]
        if name == "triangles":
            # exclude samples within the FD stencil of a corner
            t = grid.points[5:-5]
            phase = (t / 2.0) % 0.5
            away = (phase > 0.05) & (phase < 0.45)
            err = err[away]
        scale = np.max(np.abs(xdot)) + 1e-12
        assert np.max(err) < 2e-2 * scale

    @pytest.mark.parametrize("name", ALL_CASES)
    def test_amplitudes_comparable(self, name):
        x, _, _ = simulate(SimulationCase(name))
        spread = np.max(x) - np.min(x)
        assert 0.5 < spread < 5.0

    def test_unknown_case(self):
        with pytest.raises(ValidationError):
            SimulationCase("nope")

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            SimulationCase("sine_sum", T=0.1, dt=0.01)

    @pytest.mark.parametrize("field", ["T", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_span_or_step(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            SimulationCase("sine_sum", **{field: value})


class TestSimulateAgainstArrays:
    """``simulate`` equals the array-based form of ``tests/sims_reference.py``
    bit for bit: the scalar RK4 loop must keep its operation order."""

    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.05])
    @pytest.mark.parametrize("name", ALL_CASES)
    def test_short_span(self, name, dt):
        self._check(SimulationCase(name, T=4.0, dt=dt))

    def test_cruise_control_long(self):
        self._check(SimulationCase("cruise_control", T=40.0, dt=0.005))

    def test_lorenz_past_divergence(self):
        # chaos turns any change in the last bits into a different trajectory
        self._check(SimulationCase("lorenz_x", T=100.0, dt=0.01))

    @staticmethod
    def _check(case):
        x, xdot, grid = simulate(case)
        x_ref, xdot_ref = ref.simulate(case)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(xdot, xdot_ref)
        assert np.array_equal(grid.points, case.dt * np.arange(len(x_ref)))


class TestAddNoise:
    def test_outliers_is_not_a_noise_setting(self):
        # outliers come from add_outliers, not from the noise spec
        with pytest.raises(TypeError):
            NoiseSpec(outliers=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scale(self, value):
        with pytest.raises(ValidationError, match="scale must be finite"):
            NoiseSpec(scale=value)

    def test_zero_scale_exact(self):
        x, _, grid = simulate(SimulationCase("sine_sum"))
        out = add_noise(Signal(grid, x), NoiseSpec(scale=0.0, seed=1))
        np.testing.assert_array_equal(out.values, x)

    def test_deterministic_per_seed(self):
        x, _, grid = simulate(SimulationCase("sine_sum"))
        a = add_noise(Signal(grid, x), NoiseSpec(seed=5))
        b = add_noise(Signal(grid, x), NoiseSpec(seed=5))
        c = add_noise(Signal(grid, x), NoiseSpec(seed=6))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.allclose(a.values, c.values)

    def test_normal_sigma(self):
        grid = Grid.regular(100_000, 0.01)
        clean = Signal(grid, np.zeros(len(grid)))
        out = add_noise(clean, NoiseSpec(family="normal", scale=1.0, seed=2))
        assert np.std(out.values) == pytest.approx(0.1, abs=0.002)

    def test_family_variances(self):
        # normal sigma=0.1 -> 0.01; laplace b=0.1 -> 0.02; uniform +-0.2 -> 0.0133
        grid = Grid.regular(100_000, 0.01)
        clean = Signal(grid, np.zeros(len(grid)))
        expected = {"normal": 0.01, "laplace": 0.02, "uniform": 0.2**2 / 3}
        for family, var in expected.items():
            out = add_noise(clean, NoiseSpec(family=family, scale=1.0, seed=3))
            assert np.var(out.values) == pytest.approx(var, rel=0.1)


    def test_whole_float_seed_draws_as_int(self):
        # before, the stream hashed the seed's repr, so seed=1.0 drew another sample than 1
        x, _, grid = simulate(SimulationCase("sine_sum"))
        clean = Signal(grid, x)
        assert NoiseSpec(seed=-2.0).seed == -2
        np.testing.assert_array_equal(add_noise(clean, NoiseSpec(seed=1.0)).values,
                                      add_noise(clean, NoiseSpec(seed=1)).values)
        np.testing.assert_array_equal(add_outliers(clean, seed=1.0).values,
                                      add_outliers(clean, seed=1).values)

    @pytest.mark.parametrize("value", [True, 2.5, "1", None])
    def test_seed_refused_unless_integer(self, value):
        clean = Signal(Grid.regular(400, 0.01), np.zeros(400))
        message = re.escape(f"seed must be an integer, got {value!r}")
        with pytest.raises(ValidationError, match=message):
            NoiseSpec(seed=value)
        with pytest.raises(ValidationError, match=message):
            add_outliers(clean, seed=value)


class TestAddOutliers:
    def test_count_is_one_percent(self):
        x, _, grid = simulate(SimulationCase("sine_sum"))  # N = 400
        y = add_noise(Signal(grid, x), NoiseSpec(seed=4))
        out = add_outliers(y, seed=4)
        assert np.sum(out.values != y.values) == 4

    def test_magnitudes_within_band(self):
        x, _, grid = simulate(SimulationCase("sine_sum"))
        y = add_noise(Signal(grid, x), NoiseSpec(seed=5))
        out = add_outliers(y, seed=5)
        spread = np.max(y.values) - np.min(y.values)
        deltas = np.abs(out.values - y.values)
        hit = deltas[deltas > 0]
        assert np.all(hit >= 0.5 * spread - 1e-12)
        assert np.all(hit <= 1.5 * spread + 1e-12)

    def test_deterministic(self):
        x, _, grid = simulate(SimulationCase("sine_sum"))
        y = add_noise(Signal(grid, x), NoiseSpec(seed=6))
        a = add_outliers(y, seed=7)
        b = add_outliers(y, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_minimum_length(self):
        s = Signal(Grid.regular(50, 0.1), np.zeros(50))
        with pytest.raises(ValidationError):
            add_outliers(s, seed=0)


class TestBenchmarkSweep:
    def test_degenerate_single_cell(self):
        table = benchmark_sweep(["savgol"], ["sine_sum"], "noise_scale", [1.0],
                                seeds=1, starts=2, max_evals=15, workers=1)
        assert len(table) == 1
        cell = table[0]
        assert cell["n_ok"] == 1 and cell["n_fail"] == 0
        assert np.isfinite(cell["rmse_mean"]) and np.isfinite(cell["rmse_std"])
        assert np.isfinite(cell["ec_mean"])

    def test_deterministic_across_runs_and_workers(self):
        kwargs = dict(methods=["savgol"], cases=["sine_sum"], axis="noise_scale",
                      values=[0.5, 2.0], seeds=2, starts=2, max_evals=12)
        serial = benchmark_sweep(workers=1, **kwargs)
        parallel = benchmark_sweep(workers=2, **kwargs)
        for a, b in zip(serial, parallel):
            assert a["rmse_mean"] == b["rmse_mean"]
            assert a["ec_mean"] == b["ec_mean"]

    @pytest.mark.parametrize("setting, message", [
        ({"starts": 0}, "starts must be >= 1, got 0"),
        ({"max_evals": 0}, "max_evals must be >= 1, got 0"),
        ({"cutoff_hz": -3.0}, "cutoff_hz must be positive"),
        ({"seeds": 0}, "seeds must be >= 1, got 0"),
        ({"workers": 0}, "workers must be >= 1, got 0"),
        ({"workers": -3}, "workers must be >= 1, got -3")])
    def test_bad_tuner_settings_refused_before_any_cell(self, monkeypatch, setting, message):
        from derivkit import sims

        def no_cell(task):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(sims, "_run_cell", no_cell)
        kwargs = {"seeds": 1, "workers": 1, **setting}
        with pytest.raises(ValidationError, match=message):
            benchmark_sweep(["savgol"], ["sine_sum"], "noise_scale", [1.0], **kwargs)

    @pytest.mark.parametrize("axis, value, message", [
        ("cutoff_f", -3.0, "cutoff_hz must be positive"),
        ("cutoff_f", float("nan"), "cutoff_hz must be finite, got nan"),
        ("noise_type", "bogus", "unknown noise family 'bogus'"),
        ("noise_scale", float("inf"), "scale must be finite, got inf"),
        ("noise_scale", -1.0, "scale must be >= 0"),
        ("dt", -0.01, "dt must be positive"),
        ("dt", "x", "must be real number, not str"),
        ("outliers", [1], "must be a number, string, boolean or None"),
        ("noise_scale", (1.0,), "must be a number, string, boolean or None"),
        ("noise_type", {"family": "normal"}, "must be a number, string, boolean or None"),
        ("outliers", "false", "outliers must be a boolean, 0 or 1"),
        ("outliers", 2, "outliers must be a boolean, 0 or 1"),
        ("outliers", 1.0, "outliers must be a boolean, 0 or 1"),
        ("outliers", None, "outliers must be a boolean, 0 or 1"),
        ("noise_scale", 1, "repeats the earlier value 1.0"),
        ("outliers", 0, "repeats the earlier value False"),
        ("noise_type", "normal", "repeats the earlier value 'normal'")])
    def test_bad_axis_value_refused_before_any_cell(self, monkeypatch, axis, value, message):
        # before, each failed every replicate of its own cell (dt raised mid-sweep)
        from derivkit import sims

        def no_cell(task):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(sims, "_run_cell", no_cell)
        good = {"cutoff_f": 3.0, "noise_type": "normal", "noise_scale": 1.0, "dt": 0.01,
                "outliers": False}[axis]
        with pytest.raises(ValidationError, match=re.escape(f"{axis} value {value!r}: {message}")):
            benchmark_sweep(["savgol"], ["sine_sum", "lorenz_x"], axis, [good, value], seeds=2,
                            workers=1)

    @pytest.mark.parametrize("value, expected", [
        (True, True), (False, False), (np.True_, True), (np.False_, False), (1, True),
        (0, False), (np.int64(1), True)])
    def test_outliers_axis_takes_booleans_and_0_or_1(self, value, expected):
        # before, any non-empty string (such as "false") turned outliers on
        from derivkit import sims

        task = {"case": "sine_sum", "T": 4.0, "dt": 0.01, "spec": TuneSpec(),
                "axis": "outliers", "value": value}
        assert sims._cell_settings(task)[2].outliers is expected

    def test_outliers_on_a_short_span_refused_before_any_cell(self, monkeypatch):
        # before, every replicate recorded the refusal of add_outliers and the sweep went on
        from derivkit import sims

        def no_cell(task):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(sims, "_run_cell", no_cell)
        message = "outliers value True: outlier injection needs at least 100 samples, got 50"
        with pytest.raises(ValidationError, match=re.escape(message)):
            benchmark_sweep(["savgol"], ["sine_sum"], "outliers", [False, True], seeds=1,
                            T=0.5, workers=1)

    def test_invalid_axis(self):
        with pytest.raises(ValidationError):
            benchmark_sweep(["savgol"], ["sine_sum"], "bogus", [1], seeds=1)

    @pytest.mark.parametrize("case", [SimulationCase("sine_sum", T=2.0, dt=0.02), "bogus"])
    def test_cases_must_be_names(self, case):
        with pytest.raises(ValidationError, match="cases must be names"):
            benchmark_sweep(["savgol"], [case], "noise_scale", [1.0], seeds=1, workers=1)

    @pytest.mark.parametrize("env", ["abc", "2.5", "1e3"])
    def test_worker_variable_must_be_an_integer(self, monkeypatch, env):
        monkeypatch.setenv("DERIVKIT_WORKERS", env)
        with pytest.raises(ValidationError, match=f"DERIVKIT_WORKERS must be an integer, "
                                                  f"got '{env}'"):
            benchmark_sweep(["savgol"], ["sine_sum"], "noise_scale", [1.0], seeds=1)

    def test_worker_variable_caps_the_request(self, monkeypatch):
        monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        assert _worker_count(4) == 1
        monkeypatch.setenv("DERIVKIT_WORKERS", "3")
        assert _worker_count(2) == 2 and _worker_count(None) == 3

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_worker_variable_below_one_refused(self, monkeypatch, env):
        monkeypatch.setenv("DERIVKIT_WORKERS", env)
        with pytest.raises(ValidationError, match=f"DERIVKIT_WORKERS must be >= 1, got '{env}'"):
            _worker_count(None)
        with pytest.raises(ValidationError, match="DERIVKIT_WORKERS must be >= 1"):
            benchmark_sweep(["savgol"], ["sine_sum"], "noise_scale", [1.0], seeds=1)

    def test_workers_default_to_the_usable_cpus(self, monkeypatch):
        # the affinity mask, not the machine's CPU count
        monkeypatch.delenv("DERIVKIT_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert _worker_count(None) == 2 and _worker_count(1) == 1

    def test_failures_recorded_not_raised(self):
        # chebyshev-style failure: fourier methods reject irregular grids, but
        # here we force failure by an impossible method parameterization via a
        # case too short for the default windows
        table = benchmark_sweep(["savgol"], ["sine_sum"], "dt", [0.2],
                                seeds=1, T=4.0, starts=2, max_evals=10, workers=1)
        cell = table[0]
        assert cell["n_ok"] + cell["n_fail"] == 1
