from unittest import mock

import kalman_reference as ref
import numpy as np
import pytest
from grid_reference import oracle_grids

from derivkit import (
    ContinuousModel,
    Grid,
    LinearGaussianModel,
    NumericError,
    RobustSpec,
    Signal,
    ValidationError,
    apply_method,
    constant_derivative_continuous,
    constant_derivative_model,
    cruise_control_matrices,
    discretize,
    hill_profile,
    kalman_filter,
    kalman_irregular,
    robust_map_smooth,
    robustdiff,
    rts_smooth,
    rtsdiff,
)
from derivkit import kalman


def random_stable_model(rng, d=None, p=None):
    d = d or rng.integers(1, 5)
    p = p or rng.integers(1, 3)
    A = rng.standard_normal((d, d))
    A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-9)
    C = rng.standard_normal((p, d))
    Lq = rng.standard_normal((d, d)) * 0.3
    Q = Lq @ Lq.T + 0.01 * np.eye(d)
    Lr = rng.standard_normal((p, p)) * 0.3
    R = Lr @ Lr.T + 0.05 * np.eye(p)
    x0 = rng.standard_normal(d)
    P0 = np.eye(d)
    return LinearGaussianModel(A=A, B=np.zeros((d, 0)), C=C, Q=Q, R=R, x0=x0, P0=P0)


def simulate_model(model, n, rng):
    d = model.state_dim
    p = model.measurement_dim
    Lq = np.linalg.cholesky(model.Q)
    Lr = np.linalg.cholesky(model.R)
    x = model.x0.copy()
    xs, ys = [], []
    for _ in range(n):
        x = model.A @ x + Lq @ rng.standard_normal(d)
        xs.append(x.copy())
        ys.append(model.C @ x + Lr @ rng.standard_normal(p))
    return np.array(xs), np.array(ys)


def cruise_data(dt=0.01, n=400, sigma=0.1, seed=0):
    A, B, C = cruise_control_matrices(dt)
    t = dt * np.arange(n)
    us = np.column_stack([hill_profile(t - dt), np.full(n, 0.5)])
    x = np.zeros(4)
    states = [x]
    for i in range(1, n):
        x = A @ x + B @ us[i]
        states.append(x)
    states = np.array(states)
    rng = np.random.default_rng(seed)
    ys = states[:, 0] + sigma * rng.standard_normal(n)
    return A, B, C, t, us, states, ys


def fig11_model(A, B, C, dt, y0):
    Q = 1000.0 * dt * np.diag([(0.5 * dt**2) ** 2, dt**2, 1.0, (0.5 * dt**2) ** 2])
    R = np.array([[0.1]])
    x0 = np.array([y0, 0.0, 0.0, 0.0])
    return LinearGaussianModel(A=A, B=B, C=C, Q=Q, R=R, x0=x0, P0=10.0 * np.eye(4))


class TestKalmanFilter:
    def test_scalar_gain_half(self):
        # A = C = 1, Q = 0, P0 = R: prior variance equals R, so K = 1/2
        model = LinearGaussianModel(A=[[1.0]], B=np.zeros((1, 0)), C=[[1.0]],
                                    Q=[[0.0]], R=[[1.0]], x0=[0.0], P0=[[1.0]])
        track = kalman_filter(model, np.array([2.0]))
        gain = (track.states[0, 0] - track.apriori_states[0, 0]) / (
            2.0 - track.apriori_states[0, 0])
        assert gain == pytest.approx(0.5, abs=1e-12)

    def test_noiseless_linear_tracking(self):
        # position-velocity model, no noise: estimates lock onto the ramp
        dt = 0.1
        model = LinearGaussianModel(
            A=[[1.0, dt], [0.0, 1.0]], B=np.zeros((2, 0)), C=[[1.0, 0.0]],
            Q=np.zeros((2, 2)), R=[[1e-12]], x0=[0.0, 0.0], P0=np.eye(2))
        t = dt * np.arange(100)
        truth = 1.0 + 2.0 * t
        track = kalman_filter(model, truth)
        assert np.max(np.abs(track.states[20:, 0] - truth[20:])) < 1e-8
        assert np.max(np.abs(track.states[20:, 1] - 2.0)) < 1e-6

    def test_cruise_control_smoother_beats_filter(self):
        A, B, C, t, us, states, ys = cruise_data(seed=3)
        model = fig11_model(A, B, C, 0.01, ys[0])
        track = kalman_filter(model, ys, us)
        xr, _ = rts_smooth(track)
        rmse_f = np.sqrt(np.mean((track.states[:, 0] - states[:, 0]) ** 2))
        rmse_s = np.sqrt(np.mean((xr[:, 0] - states[:, 0]) ** 2))
        assert np.isfinite(rmse_f)
        assert rmse_s < rmse_f

    def test_covariance_symmetry(self):
        rng = np.random.default_rng(1)
        model = random_stable_model(rng, d=3, p=2)
        _, ys = simulate_model(model, 100, rng)
        track = kalman_filter(model, ys)
        for P in track.covariances:
            assert np.max(np.abs(P - P.T)) <= 1e-9 * max(np.max(np.abs(P)), 1e-30)

    def test_gain_optimality_spot_check(self):
        rng = np.random.default_rng(4)
        model = random_stable_model(rng, d=3, p=1)
        _, ys = simulate_model(model, 40, rng)
        track = kalman_filter(model, ys)
        C, R = model.C, model.R
        for n in rng.choice(40, 10, replace=False):
            Pp = track.apriori_covariances[n]
            S = C @ Pp @ C.T + R
            K_opt = Pp @ C.T @ np.linalg.inv(S)

            def trace_p(K):
                IKC = np.eye(3) - K @ C
                return np.trace(IKC @ Pp @ IKC.T + K @ R @ K.T)

            base = trace_p(K_opt)
            for _ in range(5):
                direction = rng.standard_normal(K_opt.shape)
                assert trace_p(K_opt + 1e-4 * direction) >= base - 1e-12

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            LinearGaussianModel(A=np.eye(2), B=np.zeros((2, 0)), C=[[1.0]],
                                Q=np.eye(2), R=[[1.0]], x0=[0.0], P0=np.eye(2))

    def test_psd_validation(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            LinearGaussianModel(A=np.eye(1), B=np.zeros((1, 0)), C=np.eye(1),
                                Q=[[-1.0]], R=[[1.0]], x0=[0.0], P0=np.eye(1))


class TestRtsSmooth:
    def test_last_step_equals_filter(self):
        rng = np.random.default_rng(2)
        model = random_stable_model(rng, d=2, p=1)
        _, ys = simulate_model(model, 50, rng)
        track = kalman_filter(model, ys)
        xr, Pr = rts_smooth(track)
        np.testing.assert_array_equal(xr[-1], track.states[-1])
        np.testing.assert_array_equal(Pr[-1], track.covariances[-1])

    def test_trace_never_increases(self):
        A, B, C, t, us, states, ys = cruise_data(seed=7)
        model = fig11_model(A, B, C, 0.01, ys[0])
        track = kalman_filter(model, ys, us)
        _, Pr = rts_smooth(track)
        for n in range(len(ys)):
            assert np.trace(Pr[n]) <= np.trace(track.covariances[n]) + 1e-10

    def test_smoother_beats_filter_across_seeds(self):
        wins = 0
        for seed in range(20):
            A, B, C, t, us, states, ys = cruise_data(seed=seed, n=200)
            model = fig11_model(A, B, C, 0.01, ys[0])
            track = kalman_filter(model, ys, us)
            xr, _ = rts_smooth(track)
            rmse_f = np.sqrt(np.mean((track.states[:, 0] - states[:, 0]) ** 2))
            rmse_s = np.sqrt(np.mean((xr[:, 0] - states[:, 0]) ** 2))
            wins += rmse_s < rmse_f
        assert wins >= 18


class TestConstantDerivativeModel:
    def test_nu2_q_matrix(self):
        dt, q = 0.1, 2.0
        model = constant_derivative_model(2, dt, q, 1.0)
        expected = q * np.array([
            [dt**5 / 20, dt**4 / 8, dt**3 / 6],
            [dt**4 / 8, dt**3 / 3, dt**2 / 2],
            [dt**3 / 6, dt**2 / 2, dt],
        ])
        np.testing.assert_allclose(model.Q, expected, rtol=1e-14)

    def test_nu2_a_matrix(self):
        dt = 0.25
        model = constant_derivative_model(2, dt, 1.0, 1.0)
        expected = np.array([[1, dt, dt**2 / 2], [0, 1, dt], [0, 0, 1.0]])
        np.testing.assert_allclose(model.A, expected, rtol=1e-15)

    def test_q_vanishes_with_dt(self):
        for nu in (1, 2, 3):
            small = constant_derivative_model(nu, 1e-8, 1.0, 1.0)
            assert np.max(np.abs(small.Q)) < 1e-7

    def test_invalid_nu(self):
        with pytest.raises(ValidationError):
            constant_derivative_model(4, 0.1, 1.0, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["dt", "q", "r"])
    def test_non_finite_setting_refused(self, field, value):
        args = {"dt": 0.1, "q": 1.0, "r": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            constant_derivative_model(2, **args)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_continuous_q_refused(self, value):
        with pytest.raises(ValidationError, match="q must be finite"):
            constant_derivative_continuous(2, value)

    def test_seed_and_measurement(self):
        model = constant_derivative_model(1, 0.1, 1.0, 2.0, y0=3.5)
        np.testing.assert_allclose(model.x0, [3.5, 0.0])
        np.testing.assert_allclose(model.C, [[1.0, 0.0]])
        np.testing.assert_allclose(model.P0, 10.0 * np.eye(2))
        assert model.R[0, 0] == 2.0


class TestDiscretize:
    def test_scalar_integrator(self):
        cm = ContinuousModel(Ac=[[0.0]], Bc=np.zeros((1, 0)), Qc=[[3.0]])
        A, B, Q = discretize(cm, 0.5)
        assert A[0, 0] == pytest.approx(1.0)
        assert Q[0, 0] == pytest.approx(3.0 * 0.5)

    def test_matches_constant_derivative_closed_form(self):
        q, dt = 1.7, 0.08
        for nu in (1, 2, 3):
            cm = constant_derivative_continuous(nu, q)
            A, _, Q = discretize(cm, dt)
            ref = constant_derivative_model(nu, dt, q, 1.0)
            np.testing.assert_allclose(A, ref.A, atol=1e-10)
            np.testing.assert_allclose(Q, ref.Q, atol=1e-10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_step_refused(self, value):
        cm = constant_derivative_continuous(2, 1.0)
        for dt in (value, [0.1, value]):
            with pytest.raises(ValidationError, match="dt must be finite and positive"):
                discretize(cm, dt)

    def test_control_matrix(self):
        # dx/dt = -x + u: exact B = (1 - e^{-dt})
        cm = ContinuousModel(Ac=[[-1.0]], Bc=[[1.0]], Qc=[[0.0]])
        A, B, _ = discretize(cm, 0.3)
        assert A[0, 0] == pytest.approx(np.exp(-0.3), rel=1e-12)
        assert B[0, 0] == pytest.approx(1 - np.exp(-0.3), rel=1e-12)

    def test_q_psd_on_random_stable_systems(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = rng.integers(1, 5)
            Ac = rng.standard_normal((d, d)) - 2.0 * np.eye(d)
            L = rng.standard_normal((d, d)) * 0.5
            cm = ContinuousModel(Ac=Ac, Bc=np.zeros((d, 0)), Qc=L @ L.T)
            _, _, Q = discretize(cm, rng.uniform(0.01, 1.0))
            eigs = np.linalg.eigvalsh(Q)
            assert eigs.min() >= -1e-8

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        Ac = rng.standard_normal((3, 3)) * 0.5
        L = rng.standard_normal((3, 3)) * 0.4
        cm = ContinuousModel(Ac=Ac, Bc=np.zeros((3, 0)), Qc=L @ L.T)
        dt = 0.2
        A1, _, Q1 = discretize(cm, dt)
        A2, _, Q2 = discretize(cm, 2 * dt)
        np.testing.assert_allclose(A2, A1 @ A1, atol=1e-9)
        np.testing.assert_allclose(Q2, A1 @ Q1 @ A1.T + Q1, atol=1e-9)

    def test_split_step_composition(self):
        rng = np.random.default_rng(9)
        Ac = rng.standard_normal((2, 2)) * 0.7
        cm = ContinuousModel(Ac=Ac, Bc=np.zeros((2, 0)), Qc=np.diag([0.0, 1.3]))
        a, b = 0.11, 0.35
        Aa, _, Qa = discretize(cm, a)
        Ab, _, Qb = discretize(cm, b)
        Aab, _, Qab = discretize(cm, a + b)
        np.testing.assert_allclose(Aab, Ab @ Aa, atol=1e-10)
        np.testing.assert_allclose(Qab, Ab @ Qa @ Ab.T + Qb, atol=1e-10)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_integrator_chain_matches_discretize(self, nu):
        steps = np.random.default_rng(40 + nu).uniform(0.005, 0.02, 160)
        for q in (1e-2, 1.0, 1e2):
            A, Q = kalman._integrator_chain(nu, steps, q)
            A_ref, _, Q_ref = discretize(constant_derivative_continuous(nu, q), steps)
            for new, old in ((A, A_ref), (Q, Q_ref)):
                scale = np.max(np.abs(old), axis=(1, 2))
                assert np.max(np.max(np.abs(new - old), axis=(1, 2)) / scale) <= 1e-12


class TestKalmanIrregular:
    @pytest.mark.parametrize("name, value, match", [
        ("R", np.eye(2), "R must have shape 1 x 1"),
        ("x0", np.zeros(2), "x0 must have shape 3"),
        ("C", [[1.0, 0.0]], "C must have shape any x 3"),
        ("R", [[-1.0]], "R is not positive semidefinite"),
        ("P0", -np.eye(3), "P0 is not positive semidefinite"),
    ])
    def test_bad_matrices_are_named(self, name, value, match):
        t = np.cumsum(np.random.default_rng(11).uniform(0.01, 0.03, 40))
        args = {"C": [[1.0, 0.0, 0.0]], "R": [[1.0]], "x0": np.zeros(3), "P0": np.eye(3)}
        args[name] = value
        with pytest.raises(ValidationError, match=match):
            kalman_irregular(constant_derivative_continuous(2, 1.0), args["C"], args["R"],
                             args["x0"], args["P0"], Signal(Grid(t), np.sin(t)))

    @pytest.mark.parametrize("Qc, match", [
        (-np.eye(2), "Qc is not positive semidefinite"),
        ([[1.0, 0.5], [0.0, 1.0]], "Qc must be symmetric"),
        (np.eye(3), "Qc must have shape 2 x 2"),
    ])
    def test_continuous_model_checks_qc(self, Qc, match):
        with pytest.raises(ValidationError, match=match):
            ContinuousModel(Ac=np.eye(2), Bc=np.zeros((2, 0)), Qc=Qc)

    def test_uniform_steps_match_uniform_pipeline(self):
        rng = np.random.default_rng(10)
        n, dt, q, r = 120, 0.02, 5.0, 0.3
        t = dt * np.arange(n)
        y = np.sin(t * 3) + 0.1 * rng.standard_normal(n)
        signal = Signal(Grid(t), y)

        model = constant_derivative_model(2, dt, q, r, y0=y[0])
        track_u = kalman_filter(model, y)
        xr_u, Pr_u = rts_smooth(track_u)

        cm = constant_derivative_continuous(2, q)
        track_i, xr_i, Pr_i = kalman_irregular(cm, model.C, model.R, model.x0,
                                               model.P0, signal)
        np.testing.assert_allclose(track_i.states, track_u.states, atol=1e-10)
        np.testing.assert_allclose(xr_i, xr_u, atol=1e-10)
        np.testing.assert_allclose(Pr_i, Pr_u, atol=1e-10)

    def test_deleted_sample_stays_continuous(self):
        rng = np.random.default_rng(11)
        n, dt = 300, 0.01
        t = dt * np.arange(n)
        truth = np.sin(2 * np.pi * t)
        y = truth + 0.05 * rng.standard_normal(n)
        keep = np.ones(n, dtype=bool)
        keep[n // 2] = False
        signal = Signal(Grid(t[keep]), y[keep])
        cm = constant_derivative_continuous(2, 100.0)
        C = np.array([[1.0, 0.0, 0.0]])
        _, xr, _ = kalman_irregular(cm, C, [[0.05**2]],
                                    [y[0], 0.0, 0.0], np.eye(3), signal)
        resid = xr[:, 0] - truth[keep]
        local = np.abs(np.diff(xr[:, 0]))
        gap_idx = n // 2 - 1
        assert np.abs(resid[gap_idx]) < 5 * np.std(resid)
        assert local[gap_idx] < 5 * np.median(local) + 5 * np.std(local)


class TestRobustSpec:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["huber_m_process", "huber_m_measurement", "tol"])
    def test_non_finite_setting_refused(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            RobustSpec(**{field: value})


class TestRobustMapSmooth:
    def test_quadratic_matches_rts_random_models(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            model = random_stable_model(rng)
            n = int(rng.integers(20, 201))
            _, ys = simulate_model(model, n, rng)
            track = kalman_filter(model, ys)
            xr, _ = rts_smooth(track)
            spec = RobustSpec(process_loss="quadratic", measurement_loss="quadratic")
            out = robust_map_smooth(model, ys, spec=spec)
            scale = max(np.max(np.abs(xr)), 1.0)
            assert np.max(np.abs(out.states - xr)) <= 1e-6 * scale
            assert out.converged

    def test_huge_huber_radius_matches_rts(self):
        rng = np.random.default_rng(13)
        model = random_stable_model(rng, d=2, p=1)
        _, ys = simulate_model(model, 80, rng)
        xr, _ = rts_smooth(kalman_filter(model, ys))
        spec = RobustSpec(process_loss="huber", measurement_loss="huber",
                          huber_m_process=1e6, huber_m_measurement=1e6)
        out = robust_map_smooth(model, ys, spec=spec)
        assert np.max(np.abs(out.states - xr)) <= 1e-6 * max(np.max(np.abs(xr)), 1.0)

    def test_outliers_inflated_q_huber_beats_rts(self):
        wins_huber, wins_l1 = 0, 0
        for seed in range(20):
            A, B, C, t, us, states, ys = cruise_data(seed=seed, n=400)
            rng = np.random.default_rng(1000 + seed)
            corrupt = rng.choice(400, 4, replace=False)
            spread = ys.max() - ys.min()
            ys_out = ys.copy()
            ys_out[corrupt] += rng.choice([-1, 1], 4) * rng.uniform(0.5, 1.5, 4) * spread
            model = fig11_model(A, B, C, 0.01, ys_out[0])
            model_bad = LinearGaussianModel(A=A, B=B, C=C, Q=1e5 * model.Q, R=model.R,
                                            x0=model.x0, P0=model.P0)
            xr, _ = rts_smooth(kalman_filter(model_bad, ys_out, us))
            rmse_rts = np.sqrt(np.mean((xr[:, 0] - states[:, 0]) ** 2))
            huber = robust_map_smooth(model_bad, ys_out, us, RobustSpec(
                process_loss="l1", measurement_loss="huber",
                huber_m_measurement=2.0, max_iter=60, tol=1e-6))
            rmse_huber = np.sqrt(np.mean((huber.states[:, 0] - states[:, 0]) ** 2))
            wins_huber += rmse_huber < rmse_rts
        assert wins_huber >= 18


class TestRtsdiff:
    def test_constant_signal(self):
        s = Signal(Grid.regular(200, 0.01), np.full(200, 1.8))
        r = rtsdiff(s, nu=2, q=10.0, r=0.01)
        assert np.max(np.abs(r.derivative[20:])) < 1e-3 * 1.8 + 1e-9
        np.testing.assert_allclose(r.smoothed, 1.8, atol=1e-6)

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(14)
        t = 0.01 * np.arange(300)
        s = Signal(Grid(t), np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(300))
        a = rtsdiff(s, nu=2, q=3.0, r=0.2)
        b = rtsdiff(s, nu=2, q=30.0, r=2.0)
        np.testing.assert_allclose(a.derivative, b.derivative, atol=1e-9)
        np.testing.assert_allclose(a.smoothed, b.smoothed, atol=1e-9)

    def test_noiseless_ramp_slope(self):
        t = 0.01 * np.arange(400)
        slope = -2.5
        s = Signal(Grid(t), slope * t + 1.0)
        r = rtsdiff(s, nu=1, q=100.0, r=1e-4)
        interior = slice(50, 350)
        assert np.max(np.abs(r.derivative[interior] - slope)) < 1e-3 * abs(slope)

    def test_irregular_grid(self):
        rng = np.random.default_rng(15)
        t = np.cumsum(rng.uniform(0.005, 0.02, 300))
        truth = np.sin(2 * np.pi * t)
        s = Signal(Grid(t), truth + 0.05 * rng.standard_normal(300))
        r = rtsdiff(s, nu=2, q=50.0, r=0.05**2)
        deriv_truth = 2 * np.pi * np.cos(2 * np.pi * t)
        err = np.sqrt(np.mean((r.derivative[20:-5] - deriv_truth[20:-5]) ** 2))
        assert err < 0.2 * np.sqrt(np.mean(deriv_truth**2))

    @pytest.mark.parametrize("method", [rtsdiff, robustdiff])
    @pytest.mark.parametrize("q, r", [(1e300, 1e-300), (1e300, 1e-100), (1e-300, 1e300),
                                      (1.0, 1e-320), (1.0, float("nan")), (float("inf"), 1.0)])
    def test_ratio_outside_float64_refused(self, method, q, r):
        # q / r overflowing or rounding to zero once returned a wrong
        # derivative (max |d| ~ 40 on this sine) instead of failing
        s = Signal(Grid.regular(50, 0.1), np.sin(0.1 * np.arange(50)))
        with pytest.raises(ValidationError, match=r"q / r .*q=.*r="):
            method(s, nu=2, q=q, r=r)

    @pytest.mark.parametrize("q, r", [(1e10, 1e-6), (1e-10, 1e6), (1e100, 1e-100)])
    def test_extreme_ratio_inside_float64_works(self, q, r):
        s = Signal(Grid.regular(50, 0.1), np.sin(0.1 * np.arange(50)))
        d = rtsdiff(s, nu=2, q=q, r=r).derivative
        assert np.all(np.isfinite(d)) and np.max(np.abs(d)) < 2.0


class TestRobustdiff:
    def test_huge_radius_matches_rtsdiff(self):
        rng = np.random.default_rng(16)
        t = 0.01 * np.arange(250)
        s = Signal(Grid(t), np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(250))
        base = rtsdiff(s, nu=2, q=100.0, r=1.0)
        spec = RobustSpec(process_loss="quadratic", measurement_loss="huber",
                          huber_m_measurement=1e6)
        robust = robustdiff(s, nu=2, q=100.0, r=1.0, spec=spec)
        scale = max(np.max(np.abs(base.derivative)), 1.0)
        assert np.max(np.abs(robust.derivative - base.derivative)) < 1e-6 * scale

    def test_outliers_paired_benchmark(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            t = 0.01 * np.arange(400)
            truth = np.sin(2 * np.pi * t) + 0.3 * np.sin(4.4 * np.pi * t)
            deriv = (2 * np.pi * np.cos(2 * np.pi * t)
                     + 0.3 * 4.4 * np.pi * np.cos(4.4 * np.pi * t))
            y = truth + 0.1 * rng.standard_normal(400)
            idx = rng.choice(400, 4, replace=False)
            y[idx] += rng.choice([-1, 1], 4) * rng.uniform(0.5, 1.5, 4) * (y.max() - y.min())
            s = Signal(Grid(t), y)
            q, r = 1e4, 0.01  # r matches the 0.1-sigma noise so Huber sees outliers
            plain = rtsdiff(s, nu=2, q=q, r=r)
            spec = RobustSpec(process_loss="quadratic", measurement_loss="huber",
                              huber_m_measurement=2.0)
            robust = robustdiff(s, nu=2, q=q, r=r, spec=spec)
            rmse_plain = np.sqrt(np.mean((plain.derivative - deriv) ** 2))
            rmse_rob = np.sqrt(np.mean((robust.derivative - deriv) ** 2))
            wins += rmse_rob < rmse_plain
        assert wins >= 16

    def test_single_outlier_absorbed(self):
        rng = np.random.default_rng(17)
        t = 0.01 * np.arange(300)
        y = np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal(300)
        y[150] += 5.0
        s = Signal(Grid(t), y)
        spec = RobustSpec(process_loss="quadratic", measurement_loss="huber",
                          huber_m_measurement=2.0)
        r = robustdiff(s, nu=2, q=1e3, r=0.05**2, spec=spec)
        neighbors = 0.5 * (r.smoothed[149] + r.smoothed[151])
        local_resid = np.std(np.diff(r.smoothed[100:200]))
        assert abs(r.smoothed[150] - neighbors) < 3 * max(local_resid, 0.01)

    @pytest.mark.parametrize("q", [1e-2, 1e-6, 1e-10])
    def test_nu3_runs_on_irregular_grid(self, q):
        # the expm round-trip of discretize gave per-step Q matrices that
        # Cholesky rejected here; the closed-form chain keeps them definite
        rng = np.random.default_rng(33)
        t = np.cumsum(rng.uniform(0.005, 0.02, 160))
        s = Signal(Grid(t), np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(160))
        r = robustdiff(s, nu=3, q=q, r=1.0)
        assert r.flags["converged"]
        assert np.all(np.isfinite(r.derivative))


class TestDistinctSteps:
    """On an irregular grid the chain is built and ``Q`` factored once per distinct step,
    then gathered per sample, whether the steps repeat (samples dropped from a uniform
    grid) or all differ (a jittered grid). Every output bit and flag stays that of the
    per-sample stacks."""

    @staticmethod
    def _grids():
        rng = np.random.default_rng(34)
        t = 0.01 * np.arange(600)
        y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(600)
        y[rng.choice(600, 6, replace=False)] += 3.0
        keep = np.sort(rng.choice(600, 300, replace=False))
        jitter = t + 0.003 * rng.uniform(-1, 1, 600)
        return {"dropped": Signal(Grid(t[keep]), y[keep]), "jittered": Signal(Grid(jitter), y)}

    @pytest.mark.parametrize("grid", ["dropped", "jittered"])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_bitwise_equal_to_per_step_stacks(self, grid, nu):
        s = self._grids()[grid]
        distinct = len(np.unique(np.diff(s.grid.points)))
        assert 2 * distinct < len(s) if grid == "dropped" else distinct == len(s) - 1
        specs = [RobustSpec(), RobustSpec(process_loss="l1", measurement_loss="l1", max_iter=5),
                 RobustSpec(process_loss="huber", measurement_loss="quadratic")]
        for q, r in ((1e2, 1e-2), (1.0, 1.0), (1e-6, 1e2)):
            xr = ref.rtsdiff_per_step(s, nu, q, r)
            out = rtsdiff(s, nu=nu, q=q, r=r)
            assert np.array_equal(out.smoothed, xr[:, 0])
            assert np.array_equal(out.derivative, xr[:, 1])
            for spec in specs:
                want = ref.robustdiff_per_step(s, nu, q, r, spec)
                got = robustdiff(s, nu=nu, q=q, r=r, spec=spec)
                assert np.array_equal(got.smoothed, want.states[:, 0])
                assert np.array_equal(got.derivative, want.states[:, 1])
                assert got.flags == {"converged": want.converged,
                                     "iterations": want.iterations,
                                     "objective": want.objective,
                                     "kkt_solves": want.kkt_solves}


def _robust_signal(grid, outliers, n=400, seed=41):
    """A noisy sine on one of ``oracle_grids``; with ``outliers``, six samples are 3 off."""
    rng = np.random.default_rng(seed)
    t = oracle_grids(n, rng)[grid]
    y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
    if outliers:
        y[rng.choice(n, 6, replace=False)] += 3.0
    return Signal(Grid(t), y)


class TestRobustAgainstEverySolve:
    """Reweighting that stops ahead of a system it has already solved, against the loop
    that solves on every iteration: every bit of the states and flags is the oracle's."""

    SPECS = {"defaults": RobustSpec(), "m=0.5": RobustSpec(huber_m_measurement=0.5),
             "quadratic": RobustSpec(measurement_loss="quadratic"),
             "huber process": RobustSpec(process_loss="huber"),
             "l1/l1": RobustSpec(process_loss="l1", measurement_loss="l1", max_iter=8)}

    @pytest.mark.parametrize("spec", list(SPECS))
    @pytest.mark.parametrize("outliers", [False, True])
    @pytest.mark.parametrize("grid", ["uniform", "dropped", "jittered"])
    def test_robustdiff_bitwise(self, grid, outliers, spec):
        s, spec = _robust_signal(grid, outliers), self.SPECS[spec]
        q, r = 1e2, 1.0  # the registry's defaults
        model, index = kalman._naive_stacks(s, 2, q, r)
        want = ref.robust_map_every_solve(*model, s.values[:, None], spec, index)
        got = robustdiff(s, nu=2, q=q, r=r, spec=spec)
        assert np.array_equal(got.smoothed, want.states[:, 0])
        assert np.array_equal(got.derivative, want.states[:, 1])
        assert (got.flags["converged"], got.flags["iterations"], got.flags["objective"]) == (
            want.converged, want.iterations, want.objective)
        assert got.flags["kkt_solves"] == want.kkt_solves
        if outliers and spec == RobustSpec():
            assert want.iterations >= 2

    def test_robust_map_smooth_two_dimensional_measurements(self):
        # with R a matrix, Rw = TR^T diag(1) TR need not round as Rinv = TR^T TR does;
        # either way the states and flags are the oracle's
        rng = np.random.default_rng(47)
        specs = (RobustSpec(huber_m_measurement=1e6),
                 RobustSpec(process_loss="huber", huber_m_process=1e6, huber_m_measurement=1e6))
        for _ in range(4):
            model = random_stable_model(rng, d=3, p=2)
            ys = simulate_model(model, 200, rng)[1]
            for spec in specs:
                got = robust_map_smooth(model, ys, spec=spec)
                want = ref.robust_map_every_solve(*kalman._model_stacks(model, ys, None), spec)
                assert np.array_equal(got.states, want.states)
                assert got[1:] == want[1:]

    @pytest.mark.parametrize("pinned", [np.nextafter(1.0, 0.0), 0.5])
    def test_one_pinned_weight_is_solved_once(self, monkeypatch, pinned):
        # every weight 1 but one, pinned below 1: one unit in the last place is a new
        # system to solve, and the second iteration, with the first one's weights, is not
        weights = kalman._loss_weights

        def nudged(kind, m, r):
            w = weights(kind, m, r)
            w.flat[7] = pinned
            return w

        s = _robust_signal("dropped", False)
        monkeypatch.setattr(kalman, "_loss_weights", nudged)
        monkeypatch.setattr(ref, "_loss_weights", nudged)
        model, index = kalman._naive_stacks(s, 2, 1e2, 1.0)
        want = ref.robust_map_every_solve(*model, s.values[:, None], RobustSpec(), index)
        with mock.patch.object(kalman, "_map_means", wraps=kalman._map_means) as solve:
            got = robustdiff(s, nu=2, q=1e2, r=1.0)
        assert np.array_equal(got.smoothed, want.states[:, 0])
        assert np.array_equal(got.derivative, want.states[:, 1])
        assert (got.flags["converged"], got.flags["iterations"], got.flags["objective"]) == (
            want.converged, want.iterations, want.objective)
        assert solve.call_count == 2 == got.flags["kkt_solves"] == want.kkt_solves


class TestRobustSolveCount:
    """``robust`` solves a KKT system only when its weights change: once at the registry
    defaults on a signal with no residual beyond the Huber radius."""

    @pytest.mark.parametrize("grid", ["uniform", "dropped", "jittered"])
    def test_noise_only_signal_solves_once(self, grid):
        s = _robust_signal(grid, False, n=2000, seed=43)
        with mock.patch.object(kalman, "_map_means", wraps=kalman._map_means) as solve:
            out = apply_method("robust", s)
        assert solve.call_count == 1 == out.flags["kkt_solves"]
        assert out.flags["converged"] and out.flags["iterations"] == 1

    @pytest.mark.parametrize("grid", ["uniform", "dropped", "jittered"])
    def test_outlier_signal_solves_once_per_reweighting(self, grid):
        s = _robust_signal(grid, True, n=2000, seed=43)
        spec = RobustSpec()
        model, index = kalman._naive_stacks(s, 2, 1e2, 1.0)
        with mock.patch.object(ref, "map_means_strided", wraps=ref.map_means_strided) as solve:
            want = ref.robust_map_every_solve(*model, s.values[:, None], spec, index)
        weights = [call.args[4] for call in solve.call_args_list]
        reweighted = sum(not np.array_equal(*np.broadcast_arrays(now, before))
                         for before, now in zip(weights, weights[1:]))
        assert want.iterations >= 2 and reweighted >= 1
        with mock.patch.object(kalman, "_map_means", wraps=kalman._map_means) as solve:
            got = robustdiff(s, nu=2, q=1e2, r=1.0, spec=spec)
        assert solve.call_count == 1 + reweighted == got.flags["kkt_solves"]
        assert got.flags["iterations"] == want.iterations


class TestMapMeansAgainstStrided:
    """The band written straight into LAPACK's workspace, one template per distinct step,
    against the strided assembly over per-sample stacks, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 600])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_naive_models_bitwise(self, n, nu):
        rng = np.random.default_rng(70 + 10 * nu + n)
        for name, t in oracle_grids(n, rng).items():
            signal = Signal(Grid(t), np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(n))
            ys = signal.values[:, None]
            for q, r in ((1e2, 1e-2), (1.0, 1.0), (1e-6, 1e2)):
                (A, c, C, Q, R, x0, P0), index = kalman._naive_stacks(signal, nu, q, r)
                weights = (np.linalg.inv(R), rng.uniform(0.1, 10.0, (n, 1, 1)))
                for Rinv in weights:  # time-invariant, then per-sample measurement weights
                    got = kalman._map_means(A, c, C, Q, Rinv, x0, P0, ys, index)
                    want = ref.map_means_strided(*ref.naive_model(signal, nu, q, r)[:4], Rinv,
                                                 x0, P0, ys)
                    assert np.array_equal(got, want), (name, q, r)

    @pytest.mark.parametrize("n", [2, 3, 150])
    def test_per_sample_general_models_bitwise(self, monkeypatch, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(4):
            base = random_stable_model(rng, p=int(rng.integers(1, 3)))
            d = base.state_dim
            L = 0.3 * rng.standard_normal((n, d, d))
            Q = L @ np.swapaxes(L, -1, -2) + 0.01 * np.eye(d)
            A = base.A + 0.05 * rng.standard_normal((n, d, d))
            c = rng.standard_normal((n, d))
            ys = simulate_model(base, n, rng)[1]
            Rinv = np.linalg.inv(base.R)[None]
            for A_ in (A, base.A[None]):  # per-sample A, then one A beside per-sample Q
                got = kalman._map_means(A_, c, base.C, Q, Rinv, base.x0, base.P0, ys)
                want = ref.map_means_strided(A_, c, base.C, Q, Rinv, base.x0, base.P0, ys)
                assert np.array_equal(got, want)
            # one entry per step, in shuffled order, gathered by index
            order = rng.permutation(n - 1)
            index = np.concatenate([order[:1], order])
            stacks = np.empty_like(A[1:]), np.empty_like(Q[1:])
            stacks[0][order], stacks[1][order] = A[1:], Q[1:]
            A[0], Q[0] = A[1], Q[1]  # step 0 takes step 1's entry, as index[0] says
            got = kalman._map_means(stacks[0], c, base.C, stacks[1], Rinv, base.x0, base.P0, ys,
                                    index)
            assert np.array_equal(got, ref.map_means_strided(A, c, base.C, Q, Rinv, base.x0,
                                                             base.P0, ys))
            # robust_map_smooth with a robust process loss solves per-sample Q stacks
            spec = RobustSpec(process_loss="huber", measurement_loss="l1", max_iter=6)
            got = robust_map_smooth(base, ys, spec=spec)
            with monkeypatch.context() as patch:
                patch.setattr(kalman, "_map_means", ref.map_means_strided)
                want = robust_map_smooth(base, ys, spec=spec)
            assert np.array_equal(got.states, want.states)
            assert got[1:] == want[1:]


def _rel(new, old):
    return np.max(np.abs(new - old)) / max(np.max(np.abs(old)), 1e-300)


def _objective_floor(f, states, rng):
    """Largest objective change seen when each state moves by one unit in the last place."""
    base = f(states)
    eps = np.finfo(float).eps
    return max(abs(f(states * (1 + eps * rng.choice([-1.0, 1.0], states.shape))) - base)
               for _ in range(8))


def _assert_scan_matches_loop(A, c, C, Q, R, x0, P0, ys, rng):
    track = kalman._filter(A, c, C, Q, R, x0, P0, ys)
    xr, Pr = rts_smooth(track)
    track0 = ref.filter_seq(A, c, C, Q, R, x0, P0, ys)
    xr0, Pr0 = ref.rts_smooth(track0)
    for new, old in zip((*track[:4], xr, Pr), (*track0[:4], xr0, Pr0)):
        assert _rel(new, old) <= 1e-9
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return  # Q singular to working precision: the MAP objective does not exist

    def objective(states):
        return ref.map_objective(states, A, c, C, Q, R, x0, P0, ys)

    # When Q is tiny, whitening by Q^(-1/2) magnifies one-ulp state changes
    # until the objective's roundoff floor exceeds 1e-6 of it (0.5% at
    # q/r = 1e-16): no float64 track resolves the objective more finely.
    obj, obj0 = objective(xr), objective(xr0)
    assert obj - obj0 <= 1e-6 * abs(obj0) + 2 * _objective_floor(objective, xr0, rng)


class TestScanAgainstLoop:
    """The scan filter and smoother against the sequential recursion."""

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_constant_derivative_models(self, uniform, nu):
        rng = np.random.default_rng(30 + nu)
        n = 160
        t = 0.01 * np.arange(n) if uniform else np.cumsum(rng.uniform(0.005, 0.02, n))
        y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
        signal = Signal(Grid(t), y)
        for q in (1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e6, 1e10):
            for r in (1e-6, 1.0, 1e6):
                stacks = ref.naive_model(signal, nu, q, r)
                assert len(stacks[0]) == (1 if uniform else n)
                _assert_scan_matches_loop(*stacks, y[:, None], rng)

    def test_random_models_with_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            base = random_stable_model(rng, p=int(rng.integers(1, 4)))
            d, m = base.state_dim, int(rng.integers(0, 3))
            model = LinearGaussianModel(A=base.A, B=rng.standard_normal((d, m)), C=base.C,
                                        Q=base.Q, R=base.R, x0=base.x0, P0=base.P0)
            n = int(rng.integers(1, 150))
            us = rng.standard_normal((n, m))
            ys = simulate_model(base, n, rng)[1]
            _assert_scan_matches_loop(model.A[None], us @ model.B.T, model.C, model.Q[None],
                                      model.R[None], model.x0, model.P0, ys, rng)
            track = kalman_filter(model, ys, us)
            assert track.transitions.shape == (n, d, d)
            assert track.transitions.strides[0] == 0  # a view, not N copies of A


def _assert_map_means_match_loop(A, c, C, Q, R, x0, P0, ys, rng):
    x = kalman._map_means(A, c, C, Q, np.linalg.inv(R), x0, P0, ys)
    x_loop = ref.rts_smooth(ref.filter_seq(A, c, C, Q, R, x0, P0, ys))[0]
    if _rel(x, x_loop) <= 1e-9:
        return

    def objective(states):
        return ref.map_objective(states, A, c, C, Q, R, x0, P0, ys)

    # below float64 resolution of the objective the loop's track is no better
    assert objective(x) <= objective(x_loop) + 2 * _objective_floor(objective, x_loop, rng)


class TestMapMeansAgainstLoop:
    """The banded KKT solve for the MAP states against the sequential recursion."""

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_constant_derivative_models(self, uniform, nu):
        rng = np.random.default_rng(40 + nu)
        n = 160
        t = 0.01 * np.arange(n) if uniform else np.cumsum(rng.uniform(0.005, 0.02, n))
        y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
        signal = Signal(Grid(t), y)
        for q in (1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e6, 1e10):
            for r in (1e-6, 1.0, 1e6):
                _assert_map_means_match_loop(*ref.naive_model(signal, nu, q, r), y[:, None], rng)

    def test_random_models_with_inputs(self):
        rng = np.random.default_rng(41)
        for n in [1, 2] + [int(v) for v in rng.integers(3, 150, 8)]:
            base = random_stable_model(rng, p=int(rng.integers(1, 4)))
            d, m = base.state_dim, int(rng.integers(0, 3))
            us = rng.standard_normal((n, m))
            ys = simulate_model(base, n, rng)[1]
            _assert_map_means_match_loop(base.A[None], us @ rng.standard_normal((m, d)), base.C,
                                         base.Q[None], base.R[None], base.x0, base.P0, ys, rng)


class TestNumericErrors:
    @staticmethod
    def _outcome(fn):
        try:
            fn()
        except NumericError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("d", [1, 2])
    def test_degenerate_noise_names_the_same_step_as_the_loop(self, d):
        A = np.array([[1.0]]) if d == 1 else np.array([[1.0, 0.1], [0.0, 1.0]])
        ys = np.arange(6.0)[:, None]
        raised = 0
        for r_, q_, p0 in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)):
            model = LinearGaussianModel(A=A, B=np.zeros((d, 0)), C=np.eye(1, d),
                                        Q=q_ * np.eye(d), R=[[r_]], x0=np.zeros(d),
                                        P0=p0 * np.eye(d))
            stacks = (model.A[None], np.zeros((6, d)), model.C, model.Q[None],
                      model.R[None], model.x0, model.P0, ys)
            old_filter = self._outcome(lambda: ref.filter_seq(*stacks))
            new_filter = self._outcome(lambda: kalman_filter(model, ys))
            if old_filter is not None:
                assert new_filter == old_filter
                raised += 1
                continue
            old = self._outcome(lambda: ref.rts_smooth(ref.filter_seq(*stacks)))
            new = self._outcome(lambda: rts_smooth(kalman_filter(model, ys)))
            if new_filter is None:
                assert new == old
            else:
                # R = Q = 0 with an unmeasured state: the scan cannot form the
                # step's element, the loop fails later in the smoother
                assert new_filter.startswith("singular innovation covariance") and old
            raised += old is not None
        assert raised >= 3

    @pytest.mark.parametrize("combine", ["_filter_combine", "_smooth_combine"])
    def test_non_finite_scan_output_raises(self, monkeypatch, combine):
        original = getattr(kalman, combine)

        def poisoned(first, second):
            out = original(first, second)
            out[1][-1] = np.nan
            return out

        monkeypatch.setattr(kalman, combine, poisoned)
        model = constant_derivative_model(2, 0.01, 1.0, 1.0)
        with pytest.raises(NumericError, match="non-finite"):
            rts_smooth(kalman_filter(model, np.sin(np.arange(50.0))))

    def test_non_finite_kkt_solve_raises(self, monkeypatch):
        s = Signal(Grid.regular(50, 0.01), np.sin(np.arange(50.0)))
        match = "singular KKT system.*non-finite solution"
        with pytest.raises(NumericError, match=match):
            # the measurement weight 1 / r overflows; q keeps q / r finite
            rtsdiff(s, nu=2, q=1e-20, r=1e-320)
        chain = kalman._integrator_chain
        monkeypatch.setattr(kalman, "_integrator_chain",
                            lambda nu, steps, q: (chain(nu, steps, q)[0],
                                                  np.full((1, nu + 1, nu + 1), np.nan)))
        with pytest.raises(NumericError, match=match):
            rtsdiff(s, nu=2, q=1.0)


def test_robustdiff_small_q_converges_at_once():
    # Roundoff in a block-tridiagonal solve once moved the iterate by more
    # than tol on every IRLS iteration here, even with every Huber weight 1.
    rng = np.random.default_rng(3)
    t = 0.01 * np.arange(2000)
    y = (np.sin(2 * np.pi * 0.3 * t) + 0.5 * np.sin(2 * np.pi * 1.1 * t)
         + 0.1 * rng.standard_normal(2000))
    spec = RobustSpec(process_loss="quadratic", measurement_loss="huber", tol=1e-6, max_iter=50)
    out = robustdiff(Signal(Grid(t), y), nu=2, q=1e-4, r=1.0, spec=spec)
    assert out.flags["converged"]
    assert out.flags["iterations"] == 1
