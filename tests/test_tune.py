import itertools
import math

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
from derivkit.tune import GRID_POINTS, _nelder_mead, _robust_location, seeded_stream
from tune_reference import median_robust_proxy_loss


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

        c_star = _robust_location(resid, radius)
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


class TestNelderMead:
    def test_minimizes_quadratic(self):
        fn = lambda x: float((x[0] - 1.5) ** 2 + 2 * (x[1] + 0.5) ** 2)
        x, f, evals = _nelder_mead(fn, np.zeros(2), np.array([0.5, 0.5]), 500)
        np.testing.assert_allclose(x, [1.5, -0.5], atol=5e-3)
        assert evals <= 500

    def test_respects_budget(self):
        calls = []
        fn = lambda x: (calls.append(1), float(x @ x))[1]
        _nelder_mead(fn, np.ones(3), np.full(3, 0.3), 40)
        assert len(calls) <= 40

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overshoot_is_at_most_one_iteration(self, dim):
        # the budget is checked once per iteration, and an iteration that starts one
        # evaluation short can reflect, contract and shrink all dim vertices
        rng = np.random.default_rng(dim)
        for max_evals in range(1, 30):
            calls = []
            fn = lambda x: (calls.append(1), float(rng.standard_normal()))[1]
            *_, evals = _nelder_mead(fn, np.zeros(dim), np.full(dim, 0.3), max_evals)
            assert evals == len(calls) <= max_evals + dim + 1


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

        def flaky(signal, phi, nu):
            if phi["post_smooth_sigma"] > 5.0:
                raise NumericError(f"post_smooth_sigma={phi['post_smooth_sigma']:g} refused")
            return base.run(signal, phi, nu)

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
                info["failed_evaluations"]) == (169, 121, 97)
        assert info["failure_reasons"] == [
            f"{{'window': {w}, 'degree': {d}, 'post_smooth_sigma': 29.236385567705568}}: "
            "post_smooth_sigma=29.2364 refused" for w, d in ((13, 6), (31, 6), (13, 7))]

    def test_runs_the_method_once_per_distinct_phi(self, monkeypatch):
        from dataclasses import replace

        from derivkit import methods

        base, runs = methods.get_method("poly"), []

        def counted(signal, phi, nu):
            runs.append(tuple(sorted(phi.items())))
            return base.run(signal, phi, nu)

        monkeypatch.setitem(methods._REGISTRY, "poly", replace(base, run=counted))
        s, _ = noisy_sine(n=200, seed=6)
        info = autotune("poly", s, TuneSpec(starts=2, max_evals=60, seed=0)).info
        assert len(runs) == len(set(runs)) == info["distinct_evaluations"]
        assert info["distinct_evaluations"] < info["evaluations"]

    # Tuned phi, loss bits and counts on one N = 400 noisy sine with starts=3,
    # max_evals=80, seed=0. The Nelder-Mead methods were recorded before tuner
    # evaluations were memoized; butter and spline when their one continuous
    # parameter moved to the grid and Brent search; fourier when its low-pass
    # moved to integer bins, which stopped keeping mode keep_modes on some lengths.
    GOLDEN = {
        "butter": ({"cutoff_hz": 6.399358731675087, "order": 2}, "0x1.970ef7e4c23e9p-4",
                   77, 77, 0),
        "fd": ({"order": 4}, "0x1.7474991d25e5fp-2", 95, 3, 0),
        "fourier": ({"keep_modes": 69.0, "pad": 50}, "0x1.9fe751253dbcdp-4", 139, 29, 0),
        "iterated_fd": ({"iterations": 14.0, "order": 2}, "0x1.9dde016b0d1d2p-4", 141, 28, 0),
        "kernel": ({"sigma": 2.693323951882363, "window": 13}, "0x1.a01b4c495b98bp-4",
                   241, 222, 0),
        "poly": ({"degree": 4, "window": 73}, "0x1.b46f0c13ebc18p-4", 202, 61, 0),
        "savgol": ({"degree": 4, "post_smooth_sigma": 2.8065479472713477, "window": 5},
                   "0x1.9a48c99dd1021p-4", 241, 239, 0),
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

    # Recorded before the robust loss took its medians from one sort: the same
    # signal and budget with outliers=True, so the Huber radius is m = 2 MADs.
    GOLDEN_OUTLIERS = {
        "kernel": ({"sigma": 2.718238874902843, "window": 15}, "0x1.9c58658c5084fp-4",
                   242, 236, 0),
        "savgol": ({"degree": 4, "post_smooth_sigma": 2.774522985909495, "window": 5},
                   "0x1.95fde4fb31ac9p-4", 241, 240, 0),
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
        # fd tunes one integer parameter, and each of both starts overshoots by dim + 1 = 2
        assert autotune("fd", s, TuneSpec(starts=2, max_evals=15)).info["evaluations"] == 34
        for method, max_evals in itertools.product(("kernel", "savgol", "poly"), (5, 15)):
            dim = sum(p.tunable for p in get_method(method).build_params(s))
            info = autotune(method, s, TuneSpec(starts=2, max_evals=max_evals)).info
            assert info["search"] == "nelder-mead"
            assert info["evaluations"] <= 2 * (max_evals + dim + 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cutoff_refused(self, value):
        with pytest.raises(ValidationError, match="cutoff_hz must be finite"):
            TuneSpec(cutoff_hz=value)

    def test_huber_m_default_switches_with_outliers(self):
        assert TuneSpec().resolved_m == 6.0
        assert TuneSpec(outliers=True).resolved_m == 2.0

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


def _nelder_mead_search(method, spec):
    """The ten-start Nelder-Mead search that one continuous parameter had before the grid
    and Brent search, in ``_grid_brent``'s signature, for the same objective."""

    def search(fn, lo, hi, budget):
        return tune._multi_start(fn, np.array([lo]), np.array([hi]), spec.starts,
                                 spec.max_evals, seeded_stream(spec.seed, "autotune", method))

    return search


def _sim_signal(name):
    """``case/seed``: a simulated case at T = 4, dt = 0.01 with normal noise at scale 1."""
    case, seed = name.split("/")
    x, _, grid = simulate(SimulationCase(case, T=4.0, dt=0.01))
    return add_noise(Signal(grid, x), NoiseSpec(family="normal", scale=1.0, seed=int(seed)))


class TestOneParameterSearch:
    """A method whose one tunable parameter is continuous is searched by a grid and
    bounded Brent searches, and does no worse than ten Nelder-Mead starts did."""

    # the first Brent search alone stopped in a shallower local minimum of the same bracket
    # on sine_sum/4 and lorenz_x/0 (tvr) and cruise_control/7 (rts); sine_sum/3 was butter's
    # closest call
    SIGNALS = ("sine_sum/3", "triangles/1", "cruise_control/7", "lorenz_x/4", "noisy_sine")
    CASES = ([*itertools.product(("butter", "spline", "rts"), SIGNALS)]
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
        # butter's golden before the grid and Brent search: phi, loss bits and counts
        spec = TuneSpec(starts=3, max_evals=80, seed=0)
        monkeypatch.setattr(tune, "_grid_brent", _nelder_mead_search("butter", spec))
        config = autotune("butter", noisy_sine()[0], spec)
        info = config.info
        assert (config.phi, info["loss"].hex(), info["evaluations"],
                info["distinct_evaluations"], info["failed_evaluations"]) == (
            {"order": 2, "cutoff_hz": 6.399510804536913}, "0x1.970ef7f1cba51p-4", 78, 66, 0)

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

        def flaky(signal, phi, nu):
            if phi["cutoff_hz"] > 10.0:
                raise NumericError(f"cutoff_hz={phi['cutoff_hz']:g} refused")
            return base.run(signal, phi, nu)

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

        def broken(signal, phi, nu):
            raise NumericError("refused")

        monkeypatch.setitem(methods._REGISTRY, "broken_butter",
                            replace(methods.get_method("butter"), name="broken_butter",
                                    run=broken))
        s, _ = noisy_sine(n=200, seed=5)
        with pytest.raises(NumericError, match="autotune failed for 'broken_butter'"):
            autotune("broken_butter", s, TuneSpec(starts=2, max_evals=40))

    @pytest.mark.parametrize("method", ["fd", "fourier", "iterated_fd", "kernel"])
    def test_integer_or_several_parameters_keep_nelder_mead(self, method):
        s, _ = noisy_sine(n=200, seed=4)
        assert autotune(method, s, TuneSpec(starts=1, max_evals=10)).info["search"] == (
            "nelder-mead")
