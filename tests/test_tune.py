import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from derivkit import (
    Grid,
    NoiseSpec,
    NumericError,
    Signal,
    SimulationCase,
    TuneSpec,
    ValidationError,
    autotune,
    cumtrapz,
    error_correlation,
    gamma_heuristic,
    get_method,
    proxy_loss,
    rmse,
    robust_proxy_loss,
    add_noise,
    simulate,
    total_variation,
    tune,
)
from derivkit.methods import _bounded_params, apply_method, method_names, resolve
from derivkit.tune import (
    GRID_POINTS,
    MAD_NORMALIZER,
    _robust_location,
    seeded_stream,
)
from tune_reference import median_robust_location, median_robust_proxy_loss, multi_start


def noisy_sine(n=400, dt=0.01, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    t = dt * np.arange(n)
    truth = np.sin(2 * np.pi * t)
    deriv = 2 * np.pi * np.cos(2 * np.pi * t)
    return Signal(Grid(t), truth + sigma * rng.standard_normal(n)), deriv


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert rmse(np.arange(5) + 1.0, np.arange(5.0)) == pytest.approx(1.0)

    def test_direct_formula(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(25 / 2))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            rmse([1.0], [1.0, 2.0])


class TestErrorCorrelation:
    def test_constant_offset_has_no_bias(self):
        truth = np.sin(np.linspace(0, 10, 200))
        assert error_correlation(truth + 2.0, truth) == 0.0

    def test_shrunken_estimate_fully_biased(self):
        truth = np.sin(np.linspace(0, 10, 200))
        assert error_correlation(0.5 * truth, truth) == pytest.approx(1.0)

    def test_independent_noise_uncorrelated(self):
        rng = np.random.default_rng(0)
        truth = np.sin(np.linspace(0, 20, 1000))
        est = truth + 0.3 * rng.standard_normal(1000)
        assert error_correlation(est, truth) < 0.1

    def test_zero_variance_truth_rejected(self):
        with pytest.raises(ValidationError):
            error_correlation([1.0, 2.0], [3.0, 3.0])


class TestGammaHeuristic:
    def test_unit_inputs(self):
        assert gamma_heuristic(1.0, 1.0) == pytest.approx(math.exp(-5.1), rel=1e-12)

    def test_central_benchmark_point(self):
        expected = math.exp(-1.6 * math.log(3) - 0.71 * math.log(0.01) - 5.1)
        value = gamma_heuristic(3.0, 0.01)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(2.77e-2, abs=1e-4)

    def test_dt_doubling_factor(self):
        ratio = gamma_heuristic(2.0, 0.02) / gamma_heuristic(2.0, 0.01)
        assert ratio == pytest.approx(2 ** (-0.71), rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["f_hz", "dt"])
    def test_non_finite_argument_refused(self, field, value):
        args = {"f_hz": 3.0, "dt": 0.01, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            gamma_heuristic(**args)

    def test_gamma_beyond_float64_refused_by_name(self):
        with pytest.raises(ValidationError, match=r"f_hz=1e-300 is too small at dt=0.01"):
            gamma_heuristic(1e-300, 0.01)

    @pytest.mark.parametrize("f_hz", [1e300, 1e200])
    def test_gamma_below_normal_range_refused_by_name(self, f_hz):
        # exp underflows to 0.0 at 1e300 and to a subnormal at 1e200: no TV penalty left
        message = re.escape(f"f_hz={f_hz:g} is too large at dt=0.01")
        with pytest.raises(ValidationError, match=message):
            gamma_heuristic(f_hz, 0.01)

    def test_smallest_normal_gamma_is_kept(self):
        # f_hz where gamma crosses float64's smallest normal number, from either side
        f_edge = math.exp((-0.71 * math.log(0.01) - 5.1 - math.log(sys.float_info.min)) / 1.6)
        assert gamma_heuristic(f_edge * (1 - 1e-9), 0.01) >= sys.float_info.min
        with pytest.raises(ValidationError, match="too large"):
            gamma_heuristic(f_edge * (1 + 1e-9), 0.01)


class TestProxyLoss:
    def test_exact_derivative_of_linear_truth(self):
        t = 0.01 * np.arange(200)
        s = Signal(Grid(t), 2.0 * t + 1.0)
        xdot = np.full(200, 2.0)
        loss = proxy_loss(xdot, s, gamma=0.5)
        assert loss == pytest.approx(0.5 * total_variation(xdot), abs=1e-6)

    def test_zero_derivative_on_zero_mean_data(self):
        rng = np.random.default_rng(1)
        t = 0.01 * np.arange(300)
        y = rng.standard_normal(300)
        y -= y.mean()
        s = Signal(Grid(t), y)
        loss = proxy_loss(np.zeros(300), s, gamma=0.3)
        assert loss == pytest.approx(np.sqrt(np.mean(y**2)), rel=1e-12)

    def test_gamma_zero_is_reconstruction_rmse(self):
        s, _ = noisy_sine(n=150)
        xdot = np.gradient(s.values, s.grid.points)
        integral = cumtrapz(Signal(s.grid, xdot))
        mu = np.mean(s.values - integral)
        assert proxy_loss(xdot, s, gamma=0.0) == pytest.approx(
            rmse(integral + mu, s.values), rel=1e-12)

    @pytest.mark.parametrize("loss", [proxy_loss, robust_proxy_loss])
    def test_epoch_offset_leaves_loss_unchanged(self, loss):
        # 1.7e9 + t is stored to 2.4e-7, so the shifted grid's step is
        # 0.01 * (1 + 1e-9): compare with a grid of that same step at t0 = 0
        s, _ = noisy_sine(n=1000)
        shifted = Signal(Grid(1.7e9 + s.grid.points), s.values)
        same_step = Signal(Grid.regular(1000, shifted.grid.dt), s.values)
        xdot = np.gradient(s.values, 0.01)
        assert loss(xdot, shifted, 0.1) == pytest.approx(loss(xdot, same_step, 0.1), rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("loss, field", [(proxy_loss, "gamma"), (robust_proxy_loss, "gamma"),
                                             (robust_proxy_loss, "m")])
    def test_non_finite_weight_refused(self, loss, field, value):
        s, deriv = noisy_sine(n=100)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            loss(deriv, s, **{"gamma": 0.1, field: value})


class TestRobustProxyLoss:
    def test_quadratic_branch_equals_proxy(self):
        s, deriv = noisy_sine(n=250, sigma=0.05, seed=2)
        huge = robust_proxy_loss(deriv, s, gamma=0.2, m=1e6)
        plain = proxy_loss(deriv, s, gamma=0.2)
        assert huge == pytest.approx(plain, abs=1e-9)

    def test_m_to_infinity_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(20, 120))
            t = np.cumsum(rng.uniform(0.005, 0.05, n))
            s = Signal(Grid(t), rng.standard_normal(n))
            xdot = rng.standard_normal(n)
            gamma = float(rng.uniform(0, 2))
            assert robust_proxy_loss(xdot, s, gamma, m=1e6) == pytest.approx(
                proxy_loss(xdot, s, gamma), abs=1e-9)

    def test_outlier_dampening(self):
        s, deriv = noisy_sine(n=300, seed=4)
        base_robust = robust_proxy_loss(deriv, s, gamma=0.0, m=2.0)
        base_proxy = proxy_loss(deriv, s, gamma=0.0)
        spiked = np.array(s.values)
        resid_scale = np.std(spiked - np.sin(2 * np.pi * s.grid.points))
        spiked[150] += 100 * resid_scale
        s2 = Signal(s.grid, spiked)
        d_robust = robust_proxy_loss(deriv, s2, gamma=0.0, m=2.0) - base_robust
        d_proxy = proxy_loss(deriv, s2, gamma=0.0) - base_proxy
        assert d_robust < 0.2 * d_proxy

    def test_constant_shift_invariance(self):
        s, deriv = noisy_sine(n=200, seed=5)
        shifted = Signal(s.grid, s.values + 123.0)
        a = robust_proxy_loss(deriv, s, gamma=0.7, m=2.0)
        b = robust_proxy_loss(deriv, shifted, gamma=0.7, m=2.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_losses_lipschitz_in_derivative(self):
        # perturbing the derivative by delta moves either loss by at most
        # |delta|_inf * (T + 2*gamma)
        rng = np.random.default_rng(20)
        s, deriv = noisy_sine(n=300, seed=20)
        span = s.grid.span
        gamma = 0.5
        for _ in range(20):
            delta = rng.uniform(-1, 1, 300) * rng.uniform(0, 0.5)
            bound = np.max(np.abs(delta)) * (span + 2 * gamma) + 1e-12
            d_plain = abs(proxy_loss(deriv + delta, s, gamma)
                          - proxy_loss(deriv, s, gamma))
            d_robust = abs(robust_proxy_loss(deriv + delta, s, gamma, 2.0)
                           - robust_proxy_loss(deriv, s, gamma, 2.0))
            assert d_plain <= bound
            assert d_robust <= bound

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e3, 1e6])
    def test_independent_of_data_units(self, scale):
        # the Huber location is solved exactly, not bisected to an absolute width
        s, deriv = noisy_sine(n=400, sigma=0.05, seed=8)
        rng = np.random.default_rng(8)
        y = np.array(s.values)
        y[rng.choice(400, 20, replace=False)] += 3 * rng.standard_normal(20)
        base = robust_proxy_loss(deriv, Signal(s.grid, y), gamma=0.5, m=2.0)
        scaled = robust_proxy_loss(scale * deriv, Signal(s.grid, scale * y), gamma=0.5, m=2.0)
        assert scaled / scale == pytest.approx(base, rel=1e-12)

    def test_robust_location_matches_brute_force(self):
        rng = np.random.default_rng(6)
        resid = rng.standard_normal(200)
        resid[:5] += 30.0
        radius = 2.0

        def objective(c):
            x = resid + c
            a = np.abs(x)
            return np.sum(np.where(a <= radius, 0.5 * x * x,
                                   radius * a - 0.5 * radius**2))

        c_star = _robust_location(np.sort(resid), radius)
        grid = np.linspace(c_star - 0.5, c_star + 0.5, 20001)
        brute = grid[np.argmin([objective(c) for c in grid])]
        assert c_star == pytest.approx(brute, abs=1e-4)
        assert objective(c_star) <= objective(brute) + 1e-12


def _loss_case(name):
    """(derivative, signal) pairs that reach every branch of the robust loss."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("n="):
        n = int(name[2:])
        t = 0.01 * np.arange(n)
        return rng.standard_normal(n), Signal(Grid(t), np.sin(t) + rng.standard_normal(n))
    n = 400
    t = 0.01 * np.arange(n)
    if name == "jittered":
        t = t + 0.004 * rng.uniform(size=n)
    elif name == "epoch":
        t = 1.7e9 + t
    y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
    d = 2 * np.pi * np.cos(2 * np.pi * t)
    if name == "quantized":  # residuals on a grid of 0.1: many ties, coinciding breakpoints
        d, y = np.zeros(n), np.round(rng.standard_normal(n), 1)
    elif name == "median_ties":  # 40% of the residuals sit on the median
        d, y = np.zeros(n), rng.standard_normal(n)
        y[rng.choice(n, 160, replace=False)] = np.median(y)
    elif name == "mad_zero":  # more than half equal the median: the MAD is 0
        d, y = np.zeros(n), np.zeros(n)
        y[rng.choice(n, 150, replace=False)] = rng.standard_normal(150)
    elif name == "outliers":
        y[rng.choice(n, 12, replace=False)] += 30 * rng.standard_normal(12)
    return d, Signal(Grid(t), y)


class TestRobustLossAgainstMedianOracle:
    """The loss from one sort keeps every bit of the loss from two ``np.median`` calls."""

    @pytest.mark.parametrize("case", ["n=2", "n=3", "n=4", "n=5", "n=400", "n=401",
                                      "jittered", "epoch", "quantized", "median_ties",
                                      "mad_zero", "outliers"])
    def test_bitwise_equal(self, case):
        derivative, s = _loss_case(case)
        for m in (0.5, 2.0, 6.0, 1e6):
            for gamma in (0.0, 0.5):
                got = robust_proxy_loss(derivative, s, gamma, m)
                assert got.hex() == median_robust_proxy_loss(derivative, s, gamma, m).hex()

    def test_zero_mad_falls_back_to_proxy_loss(self):
        derivative, s = _loss_case("mad_zero")
        assert robust_proxy_loss(derivative, s, 0.5, 2.0) == proxy_loss(derivative, s, 0.5)


def _location_cases():
    """(label, unsorted residuals, Huber radius) for the location search: N from 2 to 2000,
    radii at m = 6 and m = 2 MAD-sigmas, and small sets spanning 1 or 2 radii."""
    rng = np.random.default_rng(22)
    for n in (2, 3, 4, 7, 50, 400, 401, 2000):
        for kind in ("normal", "quantized", "offset", "wide", "outliers"):
            r = rng.standard_normal(n)
            if kind == "quantized":  # ties, coinciding breakpoints
                r = np.round(r, 1)
            elif kind == "offset":
                r = r + 1e8
            elif kind == "wide":  # heavy tails: spans far wider than 2 radii
                r = rng.standard_cauchy(n)
            elif kind == "outliers":
                r[rng.choice(n, max(n // 20, 1), replace=False)] += 30.0
            sigma = float(np.median(np.abs(r - np.median(r)))) / MAD_NORMALIZER
            for m in (6.0, 2.0):
                yield f"{kind} n={n} m={m}", r, m * sigma if sigma > 0 else m
    for r in ([0.0, 1.0, 2.0], [0.0, 0.0, 2.0], [0.0, 2.0, 2.0], [0.0, 0.5, 1.0],
              [2.0, 0.0, 1.0, 1.0]):
        yield f"span {r}", np.array(r), 1.0


class TestCertifiedLocation:
    """The two-breakpoint shortcut keeps every bit of the full breakpoint search."""

    def test_matches_the_full_search_bit_for_bit(self, monkeypatch):
        certified, taken = tune._certified_location, []

        def spy(r, csum, radius):
            root = certified(r, csum, radius)
            taken.append(root is not None)
            return root

        monkeypatch.setattr(tune, "_certified_location", spy)
        for label, resid, radius in _location_cases():
            got = _robust_location(np.sort(resid), radius)
            assert got.hex() == median_robust_location(resid, radius).hex(), label
        assert sum(taken) > 20 and len(taken) - sum(taken) > 20  # both paths ran

    @pytest.mark.parametrize("r, shortcut", [([0.0, 0.5, 1.0], True), ([0.0, 1.0, 2.0], False),
                                             ([0.0, 0.0, 3.0], False)])
    def test_shortcut_only_where_certified(self, r, shortcut):
        # [0, 1, 2] puts f = 0 exactly at c_lo = c_hi, and [0, 0, 3] spans beyond 2 radii
        r = np.array(r)
        csum = np.concatenate([[0.0], np.cumsum(r)])
        assert (tune._certified_location(r, csum, 1.0) is not None) == shortcut


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStageMemo:
    """Registry runs that share one memo give the bits of fresh ``apply_method`` calls."""

    def test_iterated_fd_continues_from_stored_iterates(self, monkeypatch):
        from derivkit import fd

        s, _ = noisy_sine(n=300, seed=3)
        spec, memo, passes = get_method("iterated_fd"), {}, []
        cumtrapz_ = fd._cumtrapz
        monkeypatch.setattr(fd, "_cumtrapz", lambda *a: passes.append(1) or cumtrapz_(*a))
        for iterations in (37, 5, 200, 0, 37, 16):
            phi = {"iterations": iterations, "order": 2}
            got = spec.run(s, phi, 1, memo)
            want = apply_method("iterated_fd", s, phi)
            assert _same_bits(got.derivative, want.derivative), iterations
            assert _same_bits(got.smoothed, want.smoothed), iterations
            assert sum(len(iterates) for iterates in memo.values()) <= 27
        assert sorted(memo[2]) == list(range(8, 201, 8))
        # fresh runs make 37 + 5 + 200 + 0 + 37 + 16 passes; the memo's runs make
        # 37, 5 (none stored below it), 163 past 37, 0, 5 past 32 and 0
        assert len(passes) == 295 + 210

    def test_savgol_reuses_window_degree_stages(self, monkeypatch):
        from derivkit import smoothers

        s, _ = noisy_sine(n=300, seed=4)
        spec, memo, passes = get_method("savgol"), {}, []
        params = _bounded_params(spec, s)
        correlate = smoothers._reflect_correlate
        for window, degree, sigma in ((21, 3, 1.0), (11, 2, 0.5), (21, 3, 4.0), (21, 3, 1.0),
                                      (11, 2, 2.0), (31, 4, 0.05), (21, 3, 1.0)):
            phi = resolve(spec, params, {"window": window, "degree": degree,
                                         "post_smooth_sigma": sigma})
            monkeypatch.setattr(smoothers, "_reflect_correlate",
                                lambda *a: passes.append(1) or correlate(*a))
            got = spec.run(s, phi, 1, memo)
            monkeypatch.setattr(smoothers, "_reflect_correlate", correlate)
            want = apply_method("savgol", s, phi)
            assert _same_bits(got.derivative, want.derivative), phi
            assert _same_bits(got.smoothed, want.smoothed), phi
        assert sorted(memo) == [(11, 2), (21, 3), (31, 4)]
        assert len(passes) == 3 * 2 + 7  # values and slope once per pair, one blur per run
        for window in range(33, 33 + 2 * smoothers.SAVGOL_STAGES, 2):
            spec.run(s, {"window": window, "degree": 2, "post_smooth_sigma": 1.0}, 1, memo)
        assert list(memo) == [(w, 2) for w in range(33, 33 + 2 * smoothers.SAVGOL_STAGES, 2)]

    def test_a_stage_that_raises_is_not_stored(self):
        s, _ = noisy_sine(n=15, seed=5)
        memo = {}
        phi = {"window": 21, "degree": 3, "post_smooth_sigma": 1.0}
        for _ in range(3):
            with pytest.raises(ValidationError, match="window 21 exceeds signal length 15"):
                get_method("savgol").run(s, phi, 1, memo)
        assert memo == {}


class TestNelderMead:
    """scipy's Nelder-Mead from points drawn in a box: the reference search that tracks
    its own best point, and ``tune._nelder_mead``, which only drives the objective."""

    def test_minimizes_quadratic(self):
        fn = lambda x: float((x[0] - 1.5) ** 2 + 2 * (x[1] + 0.5) ** 2)
        x, f, evals = multi_start(fn, np.full(2, -2.0), np.full(2, 2.0), 2, 500,
                                  np.random.default_rng(0))
        np.testing.assert_allclose(x, [1.5, -0.5], atol=5e-3)
        assert f == fn(x)
        assert evals <= 2 * 500

    def test_respects_budget(self):
        # every evaluation counts, the first simplex's included, and none passes max_evals
        rng = np.random.default_rng(0)
        for dim, max_evals, starts in itertools.product((1, 2, 3), range(1, 30), (1, 2)):
            calls = []
            fn = lambda x: (calls.append(1), float(rng.standard_normal()))[1]
            *_, evals = multi_start(fn, np.zeros(dim), np.ones(dim), starts, max_evals, rng)
            assert evals == len(calls) <= starts * max_evals

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overshoot_is_at_most_one_iteration(self, dim):
        # one start on a loss that never settles: scipy stops at maxfev itself, so the
        # overshoot a per-iteration budget check allowed (up to dim + 1) is now none
        rng = np.random.default_rng(dim)
        for max_evals in range(1, 30):
            calls = []
            fn = lambda x: (calls.append(1), float(rng.standard_normal()))[1]
            tune._nelder_mead(fn, rng.uniform(size=dim), np.full(dim, 0.15), max_evals)
            assert 1 <= len(calls) <= max_evals

    def test_ties_go_to_the_earlier_evaluation(self):
        x, f, _ = multi_start(lambda x: 1.0, np.zeros(2), np.ones(2), 2, 10,
                              np.random.default_rng(0))
        assert np.array_equal(x, np.random.default_rng(0).uniform(np.zeros(2), np.ones(2)))
        assert f == 1.0

    @pytest.mark.parametrize("method, name", [("savgol", "lorenz_x/4"),
                                              ("poly", "cruise_control/2")])
    def test_returns_the_best_point_evaluated(self, monkeypatch, method, name):
        # in both, a start's budget ran out right after a reflection that beat every vertex,
        # so scipy's result left it out: loss 0.096756 after 0.096433 was evaluated (savgol),
        # 0.12366 after 0.12003 (poly). One process, so every loss lands in the closure.
        monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        losses = []
        search = tune._nelder_mead
        monkeypatch.setattr(tune, "_nelder_mead", lambda fn, *args: search(
            lambda x: losses.append(fn(x)) or losses[-1], *args))
        config = autotune(method, _sim_signal(name), TuneSpec(starts=2, max_evals=16))
        assert config.info["loss"] == min(losses)
        assert robust_proxy_loss(apply_method(method, _sim_signal(name), config.phi).derivative,
                                 _sim_signal(name), config.info["gamma"]) == min(losses)


class TestSeededStream:
    def test_deterministic(self):
        a = seeded_stream(1, "x", 2.5).standard_normal(5)
        b = seeded_stream(1, "x", 2.5).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_key_sensitivity(self):
        a = seeded_stream(1, "x").standard_normal(5)
        b = seeded_stream(2, "x").standard_normal(5)
        assert not np.allclose(a, b)


class TestAutotune:
    def test_deterministic_for_fixed_seed(self):
        s, _ = noisy_sine(n=200, seed=7)
        spec = TuneSpec(starts=3, max_evals=30, seed=11)
        a = autotune("savgol", s, spec)
        b = autotune("savgol", s, spec)
        assert a.phi == b.phi
        assert a.info["loss"] == b.info["loss"]

    def test_respects_bounds_and_integrality(self):
        s, _ = noisy_sine(n=200, seed=8)
        config = autotune("savgol", s, TuneSpec(starts=4, max_evals=40, seed=3))
        params = {p.name: p for p in get_method("savgol").build_params(s)}
        for name, value in config.phi.items():
            assert params[name].lo <= value <= params[name].hi
            if params[name].scale == "integer":
                assert value == int(value)
                assert type(value) is int
        assert config.phi["window"] % 2 == 1

    def test_reports_failed_and_distinct_evaluations(self, monkeypatch):
        from dataclasses import replace

        from derivkit import NumericError, methods

        base = methods.get_method("savgol")

        def flaky(signal, phi, nu, memo):
            if phi["post_smooth_sigma"] > 5.0:
                raise NumericError(f"post_smooth_sigma={phi['post_smooth_sigma']:g} refused")
            return base.run(signal, phi, nu, memo)

        monkeypatch.setitem(methods._REGISTRY, "flaky_savgol",
                            replace(base, name="flaky_savgol", run=flaky))
        s, _ = noisy_sine(n=200, seed=5)
        config = autotune("flaky_savgol", s, TuneSpec(starts=4, max_evals=40, seed=1))
        info = config.info
        assert 0 < info["failed_evaluations"] < info["evaluations"]
        assert 0 < info["distinct_evaluations"] <= info["evaluations"]
        assert 1 <= len(info["failure_reasons"]) <= 3
        assert all("refused" in reason for reason in info["failure_reasons"])
        assert config.phi["post_smooth_sigma"] <= 5.0
        # the counts before repeats were served from the memo: a repeat still counts
        assert (info["evaluations"], info["distinct_evaluations"],
                info["failed_evaluations"]) == (160, 118, 89)
        assert info["failure_reasons"] == [
            f"{{'window': {w}, 'degree': {d}, 'post_smooth_sigma': 29.236385567705568}}: "
            "post_smooth_sigma=29.2364 refused" for w, d in ((13, 6), (31, 6), (13, 7))]

    def test_runs_the_method_once_per_distinct_phi(self, monkeypatch):
        from dataclasses import replace

        from derivkit import methods

        base, runs = methods.get_method("poly"), []

        def counted(signal, phi, nu, memo):
            runs.append(tuple(sorted(phi.items())))
            return base.run(signal, phi, nu, memo)

        monkeypatch.setitem(methods._REGISTRY, "poly", replace(base, run=counted))
        monkeypatch.setenv("DERIVKIT_WORKERS", "1")  # every run lands in this process's list
        s, _ = noisy_sine(n=200, seed=6)
        info = autotune("poly", s, TuneSpec(starts=2, max_evals=60, seed=0)).info
        assert len(runs) == len(set(runs)) == info["distinct_evaluations"]
        assert info["distinct_evaluations"] < info["evaluations"]

    # Tuned phi, loss bits and counts on one N = 400 noisy sine with starts=3,
    # max_evals=80, seed=0. fd was recorded before tuner evaluations were memoized, and its
    # evaluation count again when an odd order came to name the even order that runs;
    # butter and spline when their one continuous parameter moved to the grid and
    # Brent search; kernel when it dropped its window parameter for the blur's
    # 2 ceil(4 sigma) + 1; fourier, iterated_fd, poly and savgol when Nelder-Mead
    # moved to scipy's, which kept fourier's and iterated_fd's phi and loss bits; poly's
    # loss bits again when a uniform grid's windows came to share one fit (same phi, counts).
    GOLDEN = {
        "butter": ({"cutoff_hz": 6.399358731675087, "order": 2}, "0x1.970ef7e4c23e9p-4",
                   77, 77, 0),
        "fd": ({"order": 4}, "0x1.7474991d25e5fp-2", 96, 3, 0),
        "fourier": ({"keep_modes": 69, "pad": 50}, "0x1.9fe751253dbcdp-4", 137, 29, 0),
        "iterated_fd": ({"iterations": 14, "order": 2}, "0x1.9dde016b0d1d2p-4", 135, 27, 0),
        "kernel": ({"sigma": 2.6875556124205735}, "0x1.a0730d975a4b3p-4", 73, 73, 0),
        "poly": ({"degree": 5, "window": 77}, "0x1.b0bc405f9efb6p-4", 192, 60, 0),
        "savgol": ({"degree": 4, "post_smooth_sigma": 2.8062914821122704, "window": 5},
                   "0x1.9a48c9a0d3258p-4", 240, 237, 0),
        "spline": ({"degree": 3, "iterations": 1, "lam": 4.572874357092328e-05},
                   "0x1.96b0ec610ac90p-4", 88, 88, 0),
    }

    @pytest.mark.parametrize("method", sorted(GOLDEN))
    def test_golden_tuned_phi_and_counts(self, method):
        s, _ = noisy_sine()
        config = autotune(method, s, TuneSpec(starts=3, max_evals=80, seed=0))
        info = config.info
        got = (config.phi, info["loss"].hex(), info["evaluations"],
               info["distinct_evaluations"], info["failed_evaluations"])
        assert got == self.GOLDEN[method]

    # The same signal and budget with outliers=True, so the Huber radius is m = 2 MADs.
    # kernel was recorded when it dropped its window parameter, savgol when Nelder-Mead
    # moved to scipy's.
    GOLDEN_OUTLIERS = {
        "kernel": ({"sigma": 2.697164030015098}, "0x1.9c8fc70b0de0bp-4", 74, 74, 0),
        "savgol": ({"degree": 3, "post_smooth_sigma": 2.8220144952709343, "window": 7},
                   "0x1.966238f5407d9p-4", 240, 237, 0),
    }

    @pytest.mark.parametrize("method", sorted(GOLDEN_OUTLIERS))
    def test_golden_tuned_phi_and_counts_with_outliers(self, method):
        s, _ = noisy_sine()
        config = autotune(method, s, TuneSpec(outliers=True, starts=3, max_evals=80, seed=0))
        info = config.info
        assert info["m"] == 2.0
        got = (config.phi, info["loss"].hex(), info["evaluations"],
               info["distinct_evaluations"], info["failed_evaluations"])
        assert got == self.GOLDEN_OUTLIERS[method]

    def test_integer_parameters_repeat_evaluations(self):
        s, _ = noisy_sine(n=200, seed=6)
        info = autotune("poly", s, TuneSpec(starts=2, max_evals=60, seed=0)).info
        assert info["failed_evaluations"] == 0
        assert info["failure_reasons"] == []
        assert 0 < info["distinct_evaluations"] < info["evaluations"]

    def test_nelder_mead_evaluations_stay_within_stated_bound(self):
        s, _ = noisy_sine()
        # fd tunes one integer parameter, and each of both starts spends its whole budget
        assert autotune("fd", s, TuneSpec(starts=2, max_evals=15)).info["evaluations"] == 30
        for method, max_evals in itertools.product(("savgol", "poly"), (5, 15)):
            info = autotune(method, s, TuneSpec(starts=2, max_evals=max_evals)).info
            assert info["search"] == "nelder-mead"
            assert info["evaluations"] <= 2 * max_evals

    def test_every_evaluation_failing_raises_without_warnings(self, monkeypatch):
        # a simplex whose every vertex failed stops at DIAMETER_TOL like any other, and
        # scipy's loss test never takes inf - inf, which numpy would warn of
        from dataclasses import replace

        from derivkit import methods

        runs = []

        def broken(signal, phi, nu, memo):
            runs.append(phi)
            raise NumericError(f"window={phi['window']} refused")

        monkeypatch.setitem(methods._REGISTRY, "broken_savgol",
                            replace(methods.get_method("savgol"), name="broken_savgol",
                                    run=broken))
        s, _ = noisy_sine(n=200, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=r"autotune failed for 'broken_savgol': \{.*refused"):
                autotune("broken_savgol", s, TuneSpec(starts=2, max_evals=200))
        assert len(runs) < 200

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cutoff_refused(self, value):
        with pytest.raises(ValidationError, match="cutoff_hz must be finite"):
            TuneSpec(cutoff_hz=value)

    def test_huber_m_default_switches_with_outliers(self):
        assert TuneSpec().resolved_m == 6.0
        assert TuneSpec(outliers=True).resolved_m == 2.0

    @pytest.mark.parametrize("value", ["false", 2, 1.0, None])
    def test_outliers_refused_unless_boolean_0_or_1(self, value):
        # before, any truthy value, "false" and 2 included, set the Huber M to 2
        with pytest.raises(ValidationError, match="outliers must be a boolean, 0 or 1"):
            TuneSpec(outliers=value)

    @pytest.mark.parametrize("value, expected", [
        (True, True), (False, False), (np.True_, True), (1, True), (np.int64(0), False)])
    def test_outliers_stored_as_bool(self, value, expected):
        assert TuneSpec(outliers=value).outliers is expected

    @pytest.mark.parametrize("value", [True, 1.5, np.nan, "x", None])
    def test_seed_refused_unless_integer(self, value):
        # before, seeded_stream hashed the seed's repr, so any of these drew its own starts
        message = re.escape(f"seed must be an integer, got {value!r}")
        with pytest.raises(ValidationError, match=message):
            TuneSpec(seed=value)

    def test_whole_float_and_negative_seeds_run_as_ints(self):
        # before, seed=1.0 drew other start points than seed=1 and tuned savgol to another phi
        from dataclasses import replace

        s, _ = noisy_sine(n=200, seed=5)
        spec = TuneSpec(starts=3, max_evals=30, seed=1.0)
        assert type(spec.seed) is int and TuneSpec(seed=np.int64(-3)).seed == -3
        assert autotune("savgol", s, spec).phi == autotune("savgol", s, replace(spec, seed=1)).phi
        assert autotune("savgol", s, replace(spec, seed=-3)).info["seed"] == -3

    def test_unknown_method(self):
        s, _ = noisy_sine(n=100)
        with pytest.raises(ValidationError, match="unknown method"):
            autotune("nope", s)

    def test_tuned_beats_default_on_noisy_sine(self):
        s, deriv = noisy_sine(n=400, seed=9)
        config = autotune("savgol", s, TuneSpec(starts=4, max_evals=60, seed=0))
        from derivkit import apply_method

        tuned = apply_method("savgol", s, config.phi)
        default = apply_method("savgol", s, {})
        assert rmse(tuned.derivative, deriv) <= rmse(default.derivative, deriv) * 1.05


def _tune_report(config) -> tuple:
    """Everything ``autotune`` returns but the process count, with the loss as hex."""
    info = dict(config.info)
    del info["processes"]
    return config.phi, info.pop("loss").hex(), info


def _forking(monkeypatch, processes=3):
    """Split every Nelder-Mead search among up to ``processes`` processes, whatever the
    CPU count."""
    monkeypatch.delenv("DERIVKIT_WORKERS", raising=False)
    monkeypatch.setattr(tune, "_start_processes", lambda starts: min(starts, processes))


class TestParallelStarts:
    """Nelder-Mead starts split among forked processes give the serial search's result."""

    GOLDENS = [(method, False) for method in sorted(TestAutotune.GOLDEN)] + [
        (method, True) for method in sorted(TestAutotune.GOLDEN_OUTLIERS)]

    @pytest.mark.parametrize("workers", ["1", None])
    @pytest.mark.parametrize("method, outliers", GOLDENS)
    def test_goldens_hold_with_and_without_a_worker_cap(self, monkeypatch, method, outliers,
                                                        workers):
        if workers is None:
            monkeypatch.delenv("DERIVKIT_WORKERS", raising=False)
        else:
            monkeypatch.setenv("DERIVKIT_WORKERS", workers)
        config = autotune(method, noisy_sine()[0],
                          TuneSpec(outliers=outliers, starts=3, max_evals=80, seed=0))
        info = config.info
        golden = (TestAutotune.GOLDEN_OUTLIERS if outliers else TestAutotune.GOLDEN)[method]
        assert (config.phi, info["loss"].hex(), info["evaluations"],
                info["distinct_evaluations"], info["failed_evaluations"]) == golden
        processes = 1 if workers or info["search"] == "grid+brent" else min(
            3, len(os.sched_getaffinity(0)))
        assert info["processes"] == processes

    @pytest.mark.parametrize("method", ["fd", "fourier", "iterated_fd", "poly", "savgol",
                                        "rbf", "robust", "smooth_accel_tvr"])
    def test_every_nelder_mead_method_matches_one_process(self, monkeypatch, method):
        s, _ = noisy_sine(n=120, seed=3)
        spec = TuneSpec(starts=4, max_evals=12, seed=5)
        monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        serial = autotune(method, s, spec)
        _forking(monkeypatch)
        forked = autotune(method, s, spec)
        assert (serial.info["processes"], forked.info["processes"]) == (1, 3)
        assert _tune_report(forked) == _tune_report(serial)

    def test_failure_reasons_match_one_process(self, monkeypatch):
        from dataclasses import replace

        from derivkit import methods

        base = methods.get_method("savgol")

        def flaky(signal, phi, nu, memo):
            if phi["post_smooth_sigma"] > 5.0:
                raise NumericError(f"post_smooth_sigma={phi['post_smooth_sigma']:g} refused")
            return base.run(signal, phi, nu, memo)

        def broken(signal, phi, nu, memo):
            raise NumericError(f"window={phi['window']} refused")

        monkeypatch.setitem(methods._REGISTRY, "flaky_savgol", replace(base, run=flaky))
        monkeypatch.setitem(methods._REGISTRY, "broken_savgol", replace(base, run=broken))
        s, _ = noisy_sine(n=200, seed=5)
        spec = TuneSpec(starts=4, max_evals=40, seed=1)
        monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        serial = autotune("flaky_savgol", s, spec)
        with pytest.raises(NumericError) as serial_error:
            autotune("broken_savgol", s, spec)
        _forking(monkeypatch)
        assert _tune_report(autotune("flaky_savgol", s, spec)) == _tune_report(serial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as forked_error:
                autotune("broken_savgol", s, spec)
        assert str(forked_error.value) == str(serial_error.value)
        assert str(serial_error.value).count("refused") == 3

    def test_a_child_that_dies_before_reporting_changes_nothing(self, monkeypatch):
        s, _ = noisy_sine(n=200, seed=2)
        spec = TuneSpec(starts=5, max_evals=30, seed=4)
        monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        serial = autotune("savgol", s, spec)
        parent, search = os.getpid(), tune._nelder_mead

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return search(*args)

        _forking(monkeypatch)
        monkeypatch.setattr(tune, "_nelder_mead", dying)
        forked = autotune("savgol", s, spec)
        assert forked.info["processes"] == 3
        assert _tune_report(forked) == _tune_report(serial)

    def test_the_earliest_start_to_raise_raises(self, monkeypatch):
        # in two processes start 1 runs in the child and start 2 here, and as in a serial
        # search, start 1's exception is the one raised
        s, _ = noisy_sine(n=200, seed=2)
        spec = TuneSpec(starts=3, max_evals=10, seed=0)
        x0s, search = [], tune._nelder_mead
        monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        monkeypatch.setattr(tune, "_nelder_mead",
                            lambda fn, x0, *args: x0s.append(x0) or search(fn, x0, *args))
        autotune("savgol", s, spec)  # records the start points the search draws

        def raising(fn, x0, step, max_evals):
            i = next(k for k, x in enumerate(x0s) if np.array_equal(x, x0))
            if i:
                raise RuntimeError(f"start {i}")
            return search(fn, x0, step, max_evals)

        _forking(monkeypatch, 2)
        monkeypatch.setattr(tune, "_nelder_mead", raising)
        with pytest.raises(RuntimeError, match="start 1"):
            autotune("savgol", s, spec)

    @pytest.mark.parametrize("method, search, processes", [
        ("butter", "grid+brent", 1), ("savgol", "nelder-mead", 1), ("savgol", "nelder-mead", 2)],
        ids=["butter-grid+brent", "savgol-nelder-mead", "savgol-nelder-mead-2-processes"])
    def test_one_process_runs_a_raising_start_once(self, monkeypatch, method, search,
                                                   processes):
        from dataclasses import replace

        from derivkit import methods

        calls = []

        def raising(signal, phi, nu, memo):
            calls.append(os.getpid())
            raise RuntimeError("run refused")

        monkeypatch.setitem(methods._REGISTRY, f"raising_{method}",
                            replace(methods.get_method(method), run=raising))
        if processes == 1:
            monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        else:
            _forking(monkeypatch, processes)
        s, spec = noisy_sine()[0], TuneSpec(starts=3, max_evals=20)
        config = autotune(method, s, spec)
        assert (config.info["search"], config.info["processes"]) == (search, processes)
        with pytest.raises(RuntimeError, match="run refused"):
            autotune(f"raising_{method}", s, spec)
        # the serial loop's start 0 raises; no later start runs in this process
        assert calls.count(os.getpid()) == 1

    def test_no_child_outlives_autotune(self):
        # a fresh interpreter owns no other children, so any left over would be reaped here
        script = textwrap.dedent("""
            import os
            import numpy as np
            from derivkit import Grid, NumericError, Signal, TuneSpec, autotune, tune
            tune._start_processes = lambda starts: min(starts, 3)
            t = 0.01 * np.arange(200)
            s = Signal(Grid(t), np.sin(t) + 0.1 * np.random.default_rng(0).standard_normal(200))
            spec = TuneSpec(starts=4, max_evals=20)
            assert autotune("savgol", s, spec).info["processes"] == 3
            search, parent = tune._nelder_mead, os.getpid()
            def dying(*args):
                if os.getpid() != parent:
                    os._exit(1)
                return search(*args)
            tune._nelder_mead = dying
            autotune("poly", s, spec)
            def raising(*args):
                raise NumericError("refused")
            tune._nelder_mead = raising
            try:
                autotune("poly", s, spec)
            except NumericError:
                pass
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no children")
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "no children"

    def test_serial_inside_a_sweep_worker(self, monkeypatch):
        # each cell reports its search's process count as its failure
        from derivkit import sims

        real = sims.autotune

        def reporting(method, signal, spec):
            raise RuntimeError(f"processes={real(method, signal, spec).info['processes']}")

        monkeypatch.delenv("DERIVKIT_WORKERS", raising=False)
        monkeypatch.setattr(tune, "_worker_count", lambda requested: requested)
        monkeypatch.setattr(sims, "_worker_count", lambda requested: 2)
        monkeypatch.setattr(sims, "autotune", reporting)
        table = sims.benchmark_sweep(["savgol"], ["sine_sum"], "noise_scale", [1.0, 2.0],
                                     seeds=1, starts=3, max_evals=10)
        assert [f for cell in table for f in cell["failures"]] == [
            "RuntimeError: processes=1"] * 2


class TestResultFromTheLog:
    """``phi`` and every count are read from the evaluation log: the tuned ``phi`` scores
    the reported loss bit for bit, with every method, search and process count."""

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("outliers", [False, True])
    @pytest.mark.parametrize("method", method_names())
    def test_phi_reproduces_the_loss(self, monkeypatch, method, outliers, forked):
        if forked:
            _forking(monkeypatch)
        else:
            monkeypatch.setenv("DERIVKIT_WORKERS", "1")
        s = _sim_signal("triangles/3", T=2.0)
        spec = TuneSpec(outliers=outliers, starts=4, max_evals=30)
        config = autotune(method, s, spec)
        info = config.info
        loss = robust_proxy_loss(apply_method(method, s, config.phi).derivative, s,
                                 info["gamma"], info["m"])
        assert loss == info["loss"]
        assert info["distinct_evaluations"] <= info["evaluations"] <= 4 * 30
        assert info["processes"] == (3 if forked and info["search"] == "nelder-mead" else 1)


def _nelder_mead_search(method, spec):
    """The ten-start Nelder-Mead search that one continuous parameter had before the grid
    and Brent search, in ``_grid_brent``'s signature, for the same objective."""

    def search(fn, lo, hi, budget):
        return multi_start(fn, np.array([lo]), np.array([hi]), spec.starts, spec.max_evals,
                           seeded_stream(spec.seed, "autotune", method))

    return search


def _sim_signal(name, T=4.0):
    """``case/seed``: a simulated case at T (4 unless given), dt = 0.01 with normal noise
    at scale 1."""
    case, seed = name.split("/")
    x, _, grid = simulate(SimulationCase(case, T=T, dt=0.01))
    return add_noise(Signal(grid, x), NoiseSpec(family="normal", scale=1.0, seed=int(seed)))


class TestOneParameterSearch:
    """A method whose one tunable parameter is continuous is searched by a grid and
    bounded Brent searches, and does no worse than ten Nelder-Mead starts did."""

    # the first Brent search alone stopped in a shallower local minimum of the same bracket
    # on sine_sum/4 and lorenz_x/0 (tvr) and cruise_control/7 (rts); sine_sum/3 was butter's
    # closest call
    SIGNALS = ("sine_sum/3", "triangles/1", "cruise_control/7", "lorenz_x/4", "noisy_sine")
    CASES = ([*itertools.product(("kernel", "butter", "spline", "rts"), SIGNALS)]
             + [("tvr", "sine_sum/4"), ("tvr", "lorenz_x/0")])

    @pytest.mark.parametrize("method, name", CASES)
    def test_loss_no_worse_than_nelder_mead(self, method, name, monkeypatch):
        s = noisy_sine()[0] if name == "noisy_sine" else _sim_signal(name)
        spec = TuneSpec()
        info = autotune(method, s, spec).info
        assert info["search"] == "grid+brent"
        assert info["evaluations"] <= spec.starts * spec.max_evals
        monkeypatch.setattr(tune, "_grid_brent", _nelder_mead_search(method, spec))
        reference = autotune(method, s, spec).info
        assert reference["evaluations"] > info["evaluations"]
        assert info["loss"] <= reference["loss"] * (1 + 1e-8)

    def test_reference_is_the_earlier_search(self, monkeypatch):
        # butter under the Nelder-Mead search it had before the grid and Brent search, now
        # scipy's: phi, loss bits and counts
        spec = TuneSpec(starts=3, max_evals=80, seed=0)
        monkeypatch.setattr(tune, "_grid_brent", _nelder_mead_search("butter", spec))
        config = autotune("butter", noisy_sine()[0], spec)
        info = config.info
        assert (config.phi, info["loss"].hex(), info["evaluations"],
                info["distinct_evaluations"], info["failed_evaluations"]) == (
            {"order": 2, "cutoff_hz": 6.399510804536918}, "0x1.970ef7f1cba52p-4", 80, 67, 0)

    @pytest.mark.parametrize("starts, max_evals", [(1, 1), (1, 2), (1, 3), (1, 25), (1, 27),
                                                   (2, 16), (5, 5)])
    def test_budget_is_starts_times_max_evals(self, starts, max_evals):
        s, _ = noisy_sine(n=200, seed=4)
        budget = starts * max_evals
        info = autotune("spline", s, TuneSpec(starts=starts, max_evals=max_evals)).info
        assert min(GRID_POINTS, budget) <= info["evaluations"] <= budget

    def test_seed_plays_no_part(self):
        s, _ = noisy_sine(n=200, seed=4)
        runs = [autotune("butter", s, TuneSpec(starts=2, max_evals=40, seed=seed))
                for seed in (0, 1, 12345)]
        for config in runs[1:]:
            assert config.phi == runs[0].phi
            assert {k: v for k, v in config.info.items() if k != "seed"} == {
                k: v for k, v in runs[0].info.items() if k != "seed"}

    def test_failed_grid_points_do_not_abort_the_search(self, monkeypatch):
        from dataclasses import replace

        from derivkit import methods

        base = methods.get_method("butter")

        def flaky(signal, phi, nu, memo):
            if phi["cutoff_hz"] > 10.0:
                raise NumericError(f"cutoff_hz={phi['cutoff_hz']:g} refused")
            return base.run(signal, phi, nu, memo)

        monkeypatch.setitem(methods._REGISTRY, "flaky_butter",
                            replace(base, name="flaky_butter", run=flaky))
        s, _ = noisy_sine(n=200, seed=5)
        config = autotune("flaky_butter", s, TuneSpec(starts=2, max_evals=40))
        info = config.info
        assert info["search"] == "grid+brent"
        assert 0 < info["failed_evaluations"] < info["evaluations"] <= 80
        assert info["evaluations"] > GRID_POINTS
        assert all("refused" in reason for reason in info["failure_reasons"])
        assert config.phi["cutoff_hz"] <= 10.0
        assert math.isfinite(info["loss"])

    def test_every_evaluation_failing_raises(self, monkeypatch):
        from dataclasses import replace

        from derivkit import methods

        def broken(signal, phi, nu, memo):
            raise NumericError("refused")

        monkeypatch.setitem(methods._REGISTRY, "broken_butter",
                            replace(methods.get_method("butter"), name="broken_butter",
                                    run=broken))
        s, _ = noisy_sine(n=200, seed=5)
        with pytest.raises(NumericError, match="autotune failed for 'broken_butter'"):
            autotune("broken_butter", s, TuneSpec(starts=2, max_evals=40))

    def test_both_side_searches_split_at_one_point(self, monkeypatch):
        # here the search below the split finds a better point, and the search above must
        # still start from the split both were planned with
        bounds, scalar = [], tune.minimize_scalar
        monkeypatch.setattr(tune, "minimize_scalar", lambda f, **kwargs: bounds.append(
            kwargs["bounds"]) or scalar(f, **kwargs))
        autotune("spline", _sim_signal("triangles/0"), TuneSpec(outliers=True))
        (a, b), (a1, split), (split2, b2) = bounds
        assert (a1, b2) == (a, b) and split == split2 == -8.634694098727671

    @pytest.mark.parametrize("method", ["fd", "fourier", "iterated_fd"])
    def test_integer_or_several_parameters_keep_nelder_mead(self, method):
        s, _ = noisy_sine(n=200, seed=4)
        assert autotune(method, s, TuneSpec(starts=1, max_evals=10)).info["search"] == (
            "nelder-mead")
