"""Acceptance suite: every criterion at its stated tolerance.

Each test is tagged with its criterion number; the terminal summary prints
one pass/fail line per criterion. The benchmark-trend criterion runs two
desk-scale sweeps and dominates the module's runtime.
"""

import time

import numpy as np
import pytest
from scipy.optimize import lsq_linear
from scipy.stats import spearmanr

from derivkit import (
    Grid,
    LinearGaussianModel,
    RobustSpec,
    Signal,
    TuneSpec,
    TvrSpec,
    apply_method,
    autotune,
    benchmark_sweep,
    chebyshev_derivative,
    cheb_nodes,
    constant_derivative_continuous,
    constant_derivative_model,
    discretize,
    fd_derivative,
    fourier_derivative,
    gamma_heuristic,
    kalman_filter,
    proxy_loss,
    rmse,
    robust_map_smooth,
    robust_proxy_loss,
    robustdiff,
    rts_smooth,
    rtsdiff,
    savgoldiff,
    tvrdiff,
)
from derivkit.smoothers import butter_single_pass, butterdiff
from derivkit.tvr import _difference_operator

from test_kalman import cruise_data, fig11_model, random_stable_model, simulate_model
from test_tvr import noisy_triangle, plateau_clusters


@pytest.mark.criterion(1, "FD order of accuracy on sin, N=100 -> 200")
def test_c01_fd_order_of_accuracy():
    start = time.perf_counter()
    errors = {}
    for n in (100, 200):
        t = np.linspace(0, 2 * np.pi, n)
        r = fd_derivative(Signal(Grid(t), np.sin(t)), nu=1, order=2)
        errors[n] = np.max(np.abs(np.asarray(r.derivative) - np.cos(t))[2:-2])
    elapsed = time.perf_counter() - start
    ratio = errors[100] / errors[200]
    assert 3.0 <= ratio <= 5.0
    assert elapsed < 1.0


@pytest.mark.criterion(2, "spectral exactness: Fourier and Chebyshev")
def test_c02_fourier_exactness():
    n = 64
    theta = 2 * np.pi / n * np.arange(n)
    r = fourier_derivative(Signal(Grid(theta), np.sin(3 * theta)), nu=1)
    assert np.max(np.abs(np.asarray(r.derivative) - 3 * np.cos(3 * theta))) < 1e-8


@pytest.mark.criterion(2, "spectral exactness: Fourier and Chebyshev")
def test_c02_chebyshev_exactness():
    x = cheb_nodes(100)
    r = chebyshev_derivative(np.exp(x) * np.sin(5 * x), -1.0, 1.0)
    truth = np.exp(x) * (np.sin(5 * x) + 5 * np.cos(5 * x))
    rel = np.max(np.abs(np.asarray(r.derivative) - truth)) / np.max(np.abs(truth))
    assert rel < 1e-6


def _sine_amplitude(t, y, f_hz):
    w = 2 * np.pi * f_hz
    basis = np.column_stack([np.sin(w * t), np.cos(w * t)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(np.hypot(*coef))


@pytest.mark.criterion(3, "Butterworth half-power point and zero-phase pass")
def test_c03_butterworth_gains():
    dt, f_c, n = 0.001, 5.0, 20000
    t = dt * np.arange(n)
    s = Signal(Grid(t), np.sin(2 * np.pi * f_c * t))
    single = butter_single_pass(s, order=2, cutoff_hz=f_c)
    amp_single = _sine_amplitude(t[n // 2:], single[n // 2:], f_c)
    assert abs(amp_single - 1 / np.sqrt(2)) < 1e-3
    both = butterdiff(s, order=2, cutoff_hz=f_c)
    mid = slice(n // 4, 3 * n // 4)
    amp_both = _sine_amplitude(t[mid], np.asarray(both.smoothed)[mid], f_c)
    assert abs(amp_both - 0.5) <= 0.02 * 0.5


@pytest.mark.criterion(4, "Savitzky-Golay equals explicit least squares")
def test_c04_savgol_oracle_equivalence():
    rng = np.random.default_rng(42)
    g = Grid.regular(160, 0.02)
    y = np.cos(3 * g.points) + 0.1 * rng.standard_normal(160)
    s = Signal(g, y)
    for _ in range(20):
        window = int(rng.choice(np.arange(5, 32, 2)))
        degree = int(rng.integers(1, min(window - 1, 8)))
        r = savgoldiff(s, window=window, degree=degree)
        half = window // 2
        for n in rng.integers(half, 160 - half, 5):
            sl = slice(n - half, n + half + 1)
            fit = np.polynomial.Polynomial.fit(g.points[sl], y[sl], degree)
            assert np.asarray(r.smoothed)[n] == pytest.approx(
                fit(g.points[n]), abs=1e-10)
            assert np.asarray(r.derivative)[n] == pytest.approx(
                fit.deriv()(g.points[n]), abs=1e-10 * max(1.0, 1 / g.dt))


@pytest.mark.criterion(5, "Kalman suite: MAP=RTS, covariance order, cruise seeds")
def test_c05a_quadratic_map_matches_rts():
    rng = np.random.default_rng(100)
    for _ in range(5):
        model = random_stable_model(rng)
        n = int(rng.integers(30, 201))
        _, ys = simulate_model(model, n, rng)
        xr, _ = rts_smooth(kalman_filter(model, ys))
        out = robust_map_smooth(model, ys, spec=RobustSpec(
            process_loss="quadratic", measurement_loss="quadratic"))
        assert np.max(np.abs(out.states - xr)) <= 1e-6 * max(np.max(np.abs(xr)), 1.0)


@pytest.mark.criterion(5, "Kalman suite: MAP=RTS, covariance order, cruise seeds")
def test_c05b_rts_covariance_below_filter():
    A, B, C, t, us, states, ys = cruise_data(seed=1)
    model = fig11_model(A, B, C, 0.01, ys[0])
    track = kalman_filter(model, ys, us)
    _, Pr = rts_smooth(track)
    for n in range(len(ys)):
        assert np.trace(Pr[n]) <= np.trace(track.covariances[n]) + 1e-10


@pytest.mark.criterion(5, "Kalman suite: MAP=RTS, covariance order, cruise seeds")
def test_c05c_cruise_smoother_beats_filter_18_of_20():
    wins = 0
    for seed in range(20):
        A, B, C, t, us, states, ys = cruise_data(seed=seed)
        model = fig11_model(A, B, C, 0.01, ys[0])
        track = kalman_filter(model, ys, us)
        xr, _ = rts_smooth(track)
        rmse_f = np.sqrt(np.mean((track.states[:, 0] - states[:, 0]) ** 2))
        rmse_s = np.sqrt(np.mean((xr[:, 0] - states[:, 0]) ** 2))
        wins += rmse_s < rmse_f
    assert wins >= 18


@pytest.mark.criterion(6, "irregular-step discretization: closed form + semigroup")
def test_c06_discretization():
    q, dt = 3.0, 0.07
    for nu in (1, 2, 3):
        cm = constant_derivative_continuous(nu, q)
        A, _, Q = discretize(cm, dt)
        ref = constant_derivative_model(nu, dt, q, 1.0)
        np.testing.assert_allclose(A, ref.A, atol=1e-10)
        np.testing.assert_allclose(Q, ref.Q, atol=1e-10)
        A1, _, Q1 = discretize(cm, dt)
        A2, _, Q2 = discretize(cm, 2 * dt)
        np.testing.assert_allclose(Q2, A1 @ Q1 @ A1.T + Q1, atol=1e-9)
        np.testing.assert_allclose(A2, A1 @ A1, atol=1e-9)


@pytest.mark.criterion(7, "robust smoothers beat quadratic ones under outliers")
def test_c07a_map_smoother_vs_rts_with_outliers():
    wins = 0
    for seed in range(20):
        A, B, C, t, us, states, ys = cruise_data(seed=seed)
        rng = np.random.default_rng(5000 + seed)
        idx = rng.choice(len(ys), 4, replace=False)
        spread = ys.max() - ys.min()
        ys_out = ys.copy()
        ys_out[idx] += rng.choice([-1, 1], 4) * rng.uniform(0.5, 1.5, 4) * spread
        base = fig11_model(A, B, C, 0.01, ys_out[0])
        inflated = LinearGaussianModel(A=A, B=B, C=C, Q=1e5 * base.Q, R=base.R,
                                       x0=base.x0, P0=base.P0)
        xr, _ = rts_smooth(kalman_filter(inflated, ys_out, us))
        rmse_rts = np.sqrt(np.mean((xr[:, 0] - states[:, 0]) ** 2))
        robust = robust_map_smooth(inflated, ys_out, us, RobustSpec(
            process_loss="l1", measurement_loss="huber",
            huber_m_measurement=2.0, max_iter=60, tol=1e-6))
        rmse_rob = np.sqrt(np.mean((robust.states[:, 0] - states[:, 0]) ** 2))
        wins += rmse_rob < rmse_rts
    assert wins >= 18


@pytest.mark.criterion(7, "robust smoothers beat quadratic ones under outliers")
def test_c07b_robustdiff_vs_rtsdiff_with_outliers():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        t = 0.01 * np.arange(400)
        truth = np.sin(2 * np.pi * t) + 0.3 * np.sin(4.4 * np.pi * t)
        deriv = (2 * np.pi * np.cos(2 * np.pi * t)
                 + 1.32 * np.pi * np.cos(4.4 * np.pi * t))
        y = truth + 0.1 * rng.standard_normal(400)
        idx = rng.choice(400, 4, replace=False)
        y[idx] += rng.choice([-1, 1], 4) * rng.uniform(0.5, 1.5, 4) * (y.max() - y.min())
        s = Signal(Grid(t), y)
        q, r = 1e4, 0.01
        plain = rtsdiff(s, nu=2, q=q, r=r)
        robust = robustdiff(s, nu=2, q=q, r=r, spec=RobustSpec(
            process_loss="quadratic", measurement_loss="huber",
            huber_m_measurement=2.0))
        wins += (rmse(robust.derivative, deriv) < rmse(plain.derivative, deriv))
    assert wins >= 16


@pytest.mark.criterion(8, "TVR: plateau character and convex-solver agreement")
def test_c08a_tvr_triangle_plateaus():
    signal, x, xdot = noisy_triangle(n=400, sigma=0.1, seed=0)
    r = tvrdiff(signal, TvrSpec(gamma=200.0, nu=1))
    sizes = plateau_clusters(r.derivative, tol=0.05 * 2 * 1.6)
    assert len(sizes) >= 1
    assert sum(sizes[:4]) >= 0.95 * len(signal)


@pytest.mark.criterion(8, "TVR: plateau character and convex-solver agreement")
def test_c08b_tvr_matches_convex_oracle():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(11)
    for nu in (1, 2):
        n = 40
        dt = 0.05
        t = dt * np.arange(n)
        y = np.sin(2 * t) + 0.1 * rng.standard_normal(n)
        gamma = 5.0
        E = _difference_operator(n, dt, nu).toarray()
        xv = cp.Variable(n)
        problem = cp.Problem(cp.Minimize(
            cp.sum_squares(y - xv) + gamma / n * cp.norm1(E @ xv)))
        problem.solve()
        r = tvrdiff(Signal(Grid(t), y), TvrSpec(gamma=gamma, nu=nu, tol=1e-9))
        assert r.flags["objective"] == pytest.approx(problem.value, rel=1e-5)


def _tvr_instances():
    """The instances of test_c08b and of the small-instance cvxpy test in test_tvr."""
    rng = np.random.default_rng(11)
    t = 0.05 * np.arange(40)
    for nu in (1, 2):
        yield nu, t, np.sin(2 * t) + 0.1 * rng.standard_normal(40), 5.0
    rng = np.random.default_rng(3)
    for nu in (1, 2):
        for _ in range(3):
            n = int(rng.integers(20, 41))
            t = 0.05 * np.arange(n)
            y = np.sin(t * 2) + 0.1 * rng.standard_normal(n)
            yield nu, t, y, float(rng.uniform(0.5, 20.0))


@pytest.mark.criterion(8, "TVR: plateau character and convex-solver agreement")
def test_c08c_tvr_matches_dual_oracle():
    # Dual of min ||y - x||^2 + w ||E x||_1 (w = gamma/n): min_{|z| <= w} ||E^T z/2 - y||^2,
    # with x = y - E^T z/2 at the optimum; solved by bounded least squares, so
    # criterion 8 has an oracle that needs no convex-modelling package.
    for nu, t, y, gamma in _tvr_instances():
        n = len(y)
        E = _difference_operator(n, t[1] - t[0], nu).toarray()
        w = gamma / n
        z = lsq_linear(E.T / 2, y, bounds=(-w, w), method="trf", tol=1e-14).x
        x = y - E.T @ z / 2
        primal = np.sum((y - x) ** 2) + w * np.sum(np.abs(E @ x))
        dual = np.sum(y ** 2) - np.sum((E.T @ z / 2 - y) ** 2)
        assert primal - dual <= 1e-8 * primal
        r = tvrdiff(Signal(Grid(t), y), TvrSpec(gamma=gamma, nu=nu, tol=1e-9))
        assert r.flags["objective"] == pytest.approx(primal, rel=1e-5)


@pytest.mark.criterion(9, "tuner: gamma heuristic, grid oracle, Pareto proxy")
def test_c09a_gamma_heuristic_value():
    assert gamma_heuristic(3.0, 0.01) == pytest.approx(2.77e-2, abs=1e-4)


def _noisy_sine_case(seed=0):
    rng = np.random.default_rng(seed)
    t = 0.01 * np.arange(400)
    truth_deriv = 2 * np.pi * np.cos(2 * np.pi * t)
    y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(400)
    return Signal(Grid(t), y), truth_deriv


@pytest.mark.criterion(9, "tuner: gamma heuristic, grid oracle, Pareto proxy")
def test_c09b_autotune_within_grid_best():
    signal, truth_deriv = _noisy_sine_case(seed=21)
    windows = np.arange(5, 82, 4)  # 20 odd windows
    sigmas = np.geomspace(0.1, 20, 20)
    best = np.inf
    for w in windows:
        for sg in sigmas:
            est = savgoldiff(signal, window=int(w), degree=3, post_smooth_sigma=sg)
            best = min(best, rmse(est.derivative, truth_deriv))
    # the sine's bandlimit is 1 Hz, which sets the smoothness weight
    config = autotune("savgol", signal, TuneSpec(cutoff_hz=1.0, seed=2))
    tuned = apply_method("savgol", signal, config.phi)
    assert rmse(tuned.derivative, truth_deriv) <= 1.5 * best


@pytest.mark.criterion(9, "tuner: gamma heuristic, grid oracle, Pareto proxy")
def test_c09c_proxy_loss_tracks_true_rmse():
    signal, truth_deriv = _noisy_sine_case(seed=3)
    gamma = gamma_heuristic(3.0, 0.01)
    losses, errors = [], []
    for w in np.arange(7, 87, 8):  # 10 windows x 5 degrees = 50-point grid
        for degree in range(1, 6):
            est = savgoldiff(signal, window=int(w), degree=degree)
            losses.append(proxy_loss(est.derivative, signal, gamma))
            errors.append(rmse(est.derivative, truth_deriv))
    rho = spearmanr(losses, errors).statistic
    assert rho > 0.5


@pytest.mark.criterion(10, "desk-scale trend reproduction over noise scale and dt")
def test_c10_benchmark_trends():
    start = time.perf_counter()
    methods = ["savgol", "tvr", "rts"]
    cases = ["sine_sum", "triangles", "cruise_control", "lti_second_order",
             "lorenz_x", "logistic_growth"]
    common = dict(methods=methods, cases=cases, seeds=5, starts=2, max_evals=16)
    by_axis = {
        "noise_scale": benchmark_sweep(axis="noise_scale",
                                       values=[0.25, 1.0, 4.0], **common),
        "dt": benchmark_sweep(axis="dt", values=[0.005, 0.01, 0.05], **common),
    }
    elapsed = time.perf_counter() - start
    failures = []
    for axis, table in by_axis.items():
        values = sorted({cell["value"] for cell in table})
        for method in methods:
            for case in cases:
                means = []
                for value in values:
                    cell = next(c for c in table if c["method"] == method
                                and c["case"] == case and c["value"] == value)
                    assert cell["n_fail"] == 0, cell["failures"]
                    means.append(cell["rmse_mean"])
                if not all(a < b for a, b in zip(means, means[1:])):
                    failures.append((axis, method, case, means))
    assert not failures, failures
    assert elapsed < 600.0


@pytest.mark.criterion(11, "robust loss reduces to plain loss as M grows")
def test_c11_loss_reduction():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(20, 150))
        t = np.cumsum(rng.uniform(0.005, 0.05, n))
        s = Signal(Grid(t), rng.standard_normal(n))
        xdot = rng.standard_normal(n)
        gamma = float(rng.uniform(0, 2))
        assert robust_proxy_loss(xdot, s, gamma, m=1e6) == pytest.approx(
            proxy_loss(xdot, s, gamma), abs=1e-9)
