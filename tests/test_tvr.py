import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs
from scipy.optimize import lsq_linear
from tvr_reference import admm_tvr, difference_table

from derivkit import (
    Grid,
    NoiseSpec,
    NumericError,
    Signal,
    SimulationCase,
    TvrSpec,
    UnsupportedMethodError,
    ValidationError,
    add_noise,
    apply_method,
    simulate,
    smooth_accel_tvr,
    total_variation,
    tvrdiff,
)
from derivkit import core, tvr
from derivkit.sims import CASE_NAMES
from derivkit.tvr import _difference_operator, _kkt_band, _schur_band


def noisy_triangle(n=400, dt=0.01, sigma=0.1, seed=0, amp=0.8, period=2.0):
    rng = np.random.default_rng(seed)
    t = dt * np.arange(n)
    phase = (t / period) % 1.0
    x = np.where(phase < 0.5, amp * (4 * phase - 1), amp * (3 - 4 * phase))
    slope = 4 * amp / period
    xdot = np.where(phase < 0.5, slope, -slope)
    return Signal(Grid(t), x + sigma * rng.standard_normal(n)), x, xdot


def plateau_clusters(values, tol):
    """Greedy 1-D clustering of sorted values with gap tolerance ``tol``."""
    v = np.sort(np.asarray(values))
    sizes = []
    current = 1
    for a, b in zip(v[:-1], v[1:]):
        if b - a <= tol:
            current += 1
        else:
            sizes.append(current)
            current = 1
    sizes.append(current)
    return sorted(sizes, reverse=True)


class TestTvrSpec:
    def test_gamma_positive(self):
        with pytest.raises(ValidationError):
            TvrSpec(gamma=0.0)

    def test_nu_range(self):
        with pytest.raises(ValidationError):
            TvrSpec(gamma=1.0, nu=4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["gamma", "tol", "soften_sigma"])
    def test_non_finite_setting_refused(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            TvrSpec(**{"gamma": 1.0, field: value})


class TestTvrdiff:
    def test_tiny_gamma_returns_data(self):
        rng = np.random.default_rng(1)
        t = 0.01 * np.arange(100)
        y = np.sin(t * 4) + 0.05 * rng.standard_normal(100)
        s = Signal(Grid(t), y)
        r = tvrdiff(s, TvrSpec(gamma=1e-12))
        np.testing.assert_allclose(r.smoothed, y, atol=1e-6)

    def test_huge_gamma_flattens_derivative(self):
        signal, x, xdot = noisy_triangle(n=200, seed=2)
        r = tvrdiff(signal, TvrSpec(gamma=1e7, nu=1, max_iter=40000))
        span = signal.grid.span
        deriv = np.asarray(r.derivative)
        interior = deriv[2:-2]
        assert interior.max() - interior.min() < 1e-3 * (
            np.ptp(signal.values) / span) + 1e-6

    def test_triangle_plateaus(self):
        signal, x, xdot = noisy_triangle(seed=0)
        r = tvrdiff(signal, TvrSpec(gamma=200.0, nu=1))
        slope = 1.6
        sizes = plateau_clusters(r.derivative, tol=0.05 * 2 * slope)
        assert sum(sizes[:4]) >= 0.95 * len(signal)

    def test_three_samples_higher_order_returns_data(self):
        # the difference operator vanishes on three samples for nu >= 2
        y = np.array([0.3, -1.2, 0.7])
        for nu in (2, 3):
            r = tvrdiff(Signal(Grid.regular(3, 0.1), y), TvrSpec(gamma=1.0, nu=nu))
            np.testing.assert_array_equal(r.smoothed, y)
            assert r.flags["converged"] is True

    def test_two_samples_rejected(self):
        # the order-2 difference matrix needs three samples
        with pytest.raises(ValidationError, match="need at least 3 samples"):
            tvrdiff(Signal(Grid.regular(2, 0.1), np.array([0.0, 1.0])), TvrSpec(gamma=1.0))

    def test_irregular_grid_rejected(self):
        g = Grid([0.0, 0.1, 0.3, 0.4, 0.41, 0.6])
        with pytest.raises(UnsupportedMethodError):
            tvrdiff(Signal(g, np.zeros(6)), TvrSpec(gamma=1.0))

    def test_objective_matches_cvxpy_small_instances(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(3)
        for nu in (1, 2):
            for trial in range(3):
                n = int(rng.integers(20, 41))
                dt = 0.05
                t = dt * np.arange(n)
                y = np.sin(t * 2) + 0.1 * rng.standard_normal(n)
                gamma = float(rng.uniform(0.5, 20.0))
                E = difference_table(n, dt, nu).toarray()
                xv = cp.Variable(n)
                problem = cp.Problem(cp.Minimize(
                    cp.sum_squares(y - xv) + gamma / n * cp.norm1(E @ xv)))
                problem.solve()
                r = tvrdiff(Signal(Grid(t), y), TvrSpec(gamma=gamma, nu=nu, tol=1e-9))
                ours = r.flags["objective"]
                assert ours == pytest.approx(problem.value, rel=1e-5, abs=1e-7)

    def test_monotone_tv_in_gamma(self):
        signal, _, _ = noisy_triangle(n=150, seed=4)
        tvs = []
        for gamma in [0.1, 1.0, 10.0, 100.0, 1000.0]:
            r = tvrdiff(signal, TvrSpec(gamma=gamma, nu=1))
            tvs.append(total_variation(r.derivative))
        for a, b in zip(tvs[:-1], tvs[1:]):
            assert b <= a + 1e-8

    def test_translation_equivariance(self):
        signal, _, _ = noisy_triangle(n=120, seed=5)
        shifted = Signal(signal.grid, signal.values + 7.5)
        a = tvrdiff(signal, TvrSpec(gamma=5.0, tol=1e-8))
        b = tvrdiff(shifted, TvrSpec(gamma=5.0, tol=1e-8))
        np.testing.assert_allclose(np.asarray(b.smoothed) - np.asarray(a.smoothed),
                                   7.5, atol=1e-4)
        np.testing.assert_allclose(b.derivative, a.derivative, atol=1e-3)

    def test_nonconvergence_flagged(self):
        signal, _, _ = noisy_triangle(n=200, seed=6)
        r = tvrdiff(signal, TvrSpec(gamma=100.0, tol=1e-12, max_iter=5))
        assert r.flags["converged"] is False
        assert r.flags["iterations"] == 5

    def test_failed_newton_solve_reports_condition_estimate(self, monkeypatch):
        signal, _, _ = noisy_triangle(n=120, seed=9)

        def lapack_with_failing_solve(names, arrays):
            if names == ("pbsv",):  # the Cholesky breaks down, so every step takes the LU
                pbsv, = get_lapack_funcs(names, arrays)

                def pbsv_breakdown(*args, **kwargs):
                    c, x, _ = pbsv(*args, **kwargs)
                    return c, x, 1

                return (pbsv_breakdown,)
            gbsv, gbcon = get_lapack_funcs(names, arrays)

            def gbsv_nan(*args, **kwargs):
                lu, piv, x, info = gbsv(*args, **kwargs)
                return lu, piv, np.full_like(x, np.nan), info

            return gbsv_nan, gbcon

        monkeypatch.setattr(core, "get_lapack_funcs", lapack_with_failing_solve)
        with pytest.raises(NumericError, match="Newton system in tvrdiff.*condition estimate"):
            tvrdiff(signal, TvrSpec(gamma=1.0))


class TestSmoothAccelTvr:
    def test_zero_softening_identical(self):
        signal, _, _ = noisy_triangle(n=150, seed=7)
        base = tvrdiff(signal, TvrSpec(gamma=10.0, nu=2))
        soft = smooth_accel_tvr(signal, TvrSpec(gamma=10.0, nu=2, soften_sigma=0.0))
        np.testing.assert_allclose(soft.derivative, base.derivative, atol=0)

    def test_softening_reduces_corner_curvature(self):
        signal, _, _ = noisy_triangle(seed=8)
        hard = tvrdiff(signal, TvrSpec(gamma=50.0, nu=2))
        soft = smooth_accel_tvr(signal, TvrSpec(gamma=50.0, nu=2, soften_sigma=4.0))

        def max_curvature(deriv):
            return np.max(np.abs(np.diff(np.diff(deriv))))

        assert max_curvature(soft.derivative) < max_curvature(hard.derivative)

    def test_other_nu_is_refused(self):
        signal, _, _ = noisy_triangle(n=150, seed=7)
        for nu in (1, 3):
            with pytest.raises(ValidationError, match="nu = 2"):
                smooth_accel_tvr(signal, TvrSpec(gamma=10.0, nu=nu, soften_sigma=2.0))

    def test_is_softened_tvrdiff(self):
        signal, _, _ = noisy_triangle(n=150, seed=7)
        spec = TvrSpec(gamma=10.0, nu=2, soften_sigma=3.0)
        soft, tvr = smooth_accel_tvr(signal, spec), tvrdiff(signal, spec)
        assert soft.method == "smooth_accel_tvr" and tvr.method == "tvr"
        assert soft.phi == tvr.phi == {"nu": 2, "gamma": 10.0, "soften_sigma": 3.0}
        assert soft.derivative.tobytes() == tvr.derivative.tobytes()
        hard = tvrdiff(signal, TvrSpec(gamma=10.0, nu=2))
        assert hard.phi == {"nu": 2, "gamma": 10.0}
        assert np.max(np.abs(tvr.derivative - hard.derivative)) > 0

    def test_irregular_grid_refusal_names_smooth_accel_tvr(self):
        s = Signal(Grid([0.0, 0.1, 0.3, 0.4, 0.41, 0.6]), np.zeros(6))
        match = "smooth_accel_tvr requires a uniform grid"
        with pytest.raises(UnsupportedMethodError, match=match):
            smooth_accel_tvr(s, TvrSpec(gamma=1.0, nu=2))
        with pytest.raises(UnsupportedMethodError, match=match):
            apply_method("smooth_accel_tvr", s)

    def test_constant_signal_zero_derivative(self):
        s = Signal(Grid.regular(120, 0.01), np.full(120, 3.0))
        for gamma in (0.1, 100.0):
            r = smooth_accel_tvr(s, TvrSpec(gamma=gamma, nu=2, soften_sigma=2.0))
            np.testing.assert_allclose(r.derivative, 0.0, atol=1e-6)


def square_sine(n, dt=0.01, seed=0):
    """A sine plus a square wave plus noise: kinks for nu = 1, smooth stretches for nu = 3."""
    rng = np.random.default_rng(seed)
    t = dt * np.arange(n)
    return t, np.sin(2 * t) + 0.3 * np.sign(np.sin(5 * t)) + 0.1 * rng.standard_normal(n)


GATE_CELLS = [(nu, gamma, n) for nu in (1, 2, 3)
              for gamma in (1e-4, 1e-2, 1.0, 10.0, 1e3, 1e6) for n in (60, 400)]
GATE_CELLS += [(2, 1e6, 2000), (3, 1e6, 2000)]
#: At N = 2000, nu = 3, gamma = 1e6 the box is inactive on long stretches and
#: E E^T has condition ~1e20; the solver stops at max_iter with this gap.
STALLED_CELLS = {(3, 1e6, 2000): 1e-5}


class TestAgainstAdmm:
    """Objective gates against the ADMM oracle and the bounded-least-squares dual."""

    @pytest.mark.parametrize("dt", [0.01, 0.001, 0.005, 1 / 3])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_operator_equals_oracle_table(self, dt, nu):
        # the oracles build E from the hand-typed D, sharing no code with the solver
        for n in (5, 60, 400, 2000):
            got, want = _difference_operator(n, dt, nu), difference_table(n, dt, nu)
            assert got.shape == want.shape == (n - 1, n)
            assert (got != want).nnz == 0

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_operator_last_rows_within_four_ulps_of_oracle_table(self, nu):
        # at dt = 0.37 D's one-sided last row differs from the typed one in the last
        # bit (see test_fd), and the powers of D carry that into the last nu rows of E
        dt = 0.37
        for n in (5, 60, 400, 2000):
            got, want = _difference_operator(n, dt, nu), difference_table(n, dt, nu)
            diff = abs(got - want).tocsr()
            rows = np.unique(diff.tocoo().row)
            assert len(rows) > 0 and rows.min() >= n - 1 - nu
            row_max = abs(want).max(axis=1).toarray().ravel()
            assert np.all(diff.max(axis=1).toarray().ravel() <= 4 * np.spacing(row_max))

    @pytest.mark.parametrize("nu,gamma,n", GATE_CELLS)
    def test_objective_not_above_admm(self, nu, gamma, n):
        t, y = square_sine(n)
        r = tvrdiff(Signal(Grid(t), y), TvrSpec(gamma=gamma, nu=nu))
        _, ref, _, _ = admm_tvr(y, t[1] - t[0], gamma, nu)
        obj = r.flags["objective"]
        assert obj <= ref * (1 + 1e-6)
        # the certified lower bound holds for ADMM's iterate too
        assert ref >= obj * (1 - r.flags["duality_gap"]) * (1 - 1e-12)
        if (nu, gamma, n) in STALLED_CELLS:
            assert r.flags["converged"] is False
            assert r.flags["duality_gap"] <= STALLED_CELLS[(nu, gamma, n)]
        else:
            assert r.flags["converged"] is True
            assert r.flags["iterations"] <= 60

    @pytest.mark.parametrize("nu,gamma,n", [c for c in GATE_CELLS if c[2] <= 400])
    def test_objective_matches_certified_dual_oracle(self, nu, gamma, n):
        # Dual of min ||y - x||^2 + w ||E x||_1 by bounded least squares, as in
        # test_c08c; compared only where the oracle certifies its own gap.
        t, y = square_sine(n)
        E = difference_table(n, t[1] - t[0], nu).toarray()
        w = gamma / n
        z = lsq_linear(E.T / 2, y, bounds=(-w, w), method="trf", tol=1e-14).x
        x = y - E.T @ z / 2
        primal = np.sum((y - x) ** 2) + w * np.sum(np.abs(E @ x))
        dual = np.sum(y ** 2) - np.sum((E.T @ z / 2 - y) ** 2)
        r = tvrdiff(Signal(Grid(t), y), TvrSpec(gamma=gamma, nu=nu))
        assert r.flags["objective"] <= primal * (1 + 1e-6)
        if primal - dual <= 1e-8 * primal:
            assert r.flags["objective"] == pytest.approx(primal, rel=1e-6)


class TestIterationCount:
    """Newton iterations on the long-signal benchmark instances: N = 1e4, registry defaults."""

    INSTANCES = [("tvr", "logistic_growth"), ("smooth_accel_tvr", "lti_second_order")]

    @staticmethod
    def instance(case):
        x, _, grid = simulate(SimulationCase(case, T=100.0, dt=0.01))
        noise = NoiseSpec(family="normal", scale=1.0, seed=CASE_NAMES.index(case))
        return add_noise(Signal(grid, x), noise)

    @pytest.mark.parametrize("method,case", INSTANCES)
    def test_converges_within_60_iterations(self, method, case):
        r = apply_method(method, self.instance(case))
        assert len(r.smoothed) == 10_000
        assert r.flags["converged"] is True
        assert r.flags["iterations"] <= 60
        assert r.flags["duality_gap"] <= 1e-8

    @pytest.mark.parametrize("method,case", INSTANCES)
    def test_cholesky_steps_match_the_lu_steps(self, monkeypatch, method, case):
        # every step of the default run takes the Schur Cholesky; forcing its breakdown
        # makes every step solve the interleaved KKT system by LU instead
        signal = self.instance(case)
        r = apply_method(method, signal)
        monkeypatch.setattr(tvr, "_solve_spd_banded", lambda ab, rhs: None)
        lu = apply_method(method, signal)
        assert r.flags["lu_steps"] == 0
        assert lu.flags["lu_steps"] == lu.flags["iterations"]
        assert r.flags["iterations"] == lu.flags["iterations"]
        assert r.flags["objective"] == pytest.approx(lu.flags["objective"], rel=1e-12)


class TestNewtonStep:
    """One Newton step of ``_interior_point``: the Schur Cholesky against dense and LU solves."""

    def test_cholesky_breakdown_falls_back_to_lu(self):
        # nu = 3 at large gamma: E E^T is numerically singular where the box is inactive
        t, y = square_sine(400)
        r = tvrdiff(Signal(Grid(t), y), TvrSpec(gamma=1e3, nu=3))
        assert r.flags["converged"] is True
        assert 0 < r.flags["lu_steps"] < r.flags["iterations"]

    def test_accepted_step_solves_the_kkt_system(self):
        # [[I, E^T], [E, -diag(b)]] [dx; dz] = [-r_p; r_z], with the barrier b spanning
        # 1e-8 to 1e8 across entries or across instances
        rng = np.random.default_rng(0)
        accepted = 0
        for trial in range(120):
            n, nu = int(rng.integers(4, 201)), int(rng.integers(1, 4))
            E = _difference_operator(n, float(rng.choice([0.001, 0.01, 1 / 3])), nu)
            E = (E / np.sqrt(E.multiply(E).sum(axis=1).max())).tocsr()
            m = E.shape[0]
            b = (10.0 ** rng.uniform(-8, 8, m) if trial % 2
                 else 10.0 ** rng.uniform(-8, 8) * 10.0 ** rng.uniform(0, 1, m))
            r_p, r_z = rng.standard_normal(n), rng.standard_normal(m)
            dense = np.block([[np.eye(n), E.T.toarray()], [E.toarray(), -np.diag(b)]])
            rhs = np.concatenate([-r_p, r_z])
            want = np.linalg.solve(dense, rhs)

            ab = _schur_band(E, E.T.tocsr())
            ab[0] += b
            dz = core._solve_spd_banded(ab, -(E @ r_p) - r_z)
            k, kkt = _kkt_band(E)
            kkt[k, 1::2] = -b
            interleaved = np.empty(n + m)
            interleaved[0::2], interleaved[1::2] = -r_p, r_z
            lu = core._solve_banded(k, kkt, interleaved, "KKT system")
            lu = np.concatenate([lu[0::2], lu[1::2]])
            if dz is None:
                continue
            accepted += 1
            step = np.concatenate([-r_p - E.T @ dz, dz])
            floor = np.finfo(float).eps * np.linalg.norm(rhs)
            residual = np.linalg.norm(dense @ step - rhs)
            assert residual <= 10 * max(np.linalg.norm(dense @ lu - rhs), floor), (n, nu)
            assert np.linalg.norm(step - want) <= 1e-8 * np.linalg.norm(want), (n, nu)
        assert accepted >= 100
