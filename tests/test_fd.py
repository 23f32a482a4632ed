import re
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from derivkit import (
    ConditioningWarning,
    Grid,
    Signal,
    Stencil,
    UnsupportedMethodError,
    ValidationError,
    apply_method,
    fd_derivative,
    irregular_coefficients,
    iterated_fd,
    stencil_coefficients,
)
from fd_reference import exact_coefficients, first_diff_table, safe_first_derivative

from derivkit import fd
from derivkit.fd import (
    _bjorck_pereyra,
    _centered_halfwidth,
    _edge_plan,
    _fd_plan,
    _first_diff_matrix,
    _iterated_plans,
    _smoothing_plan,
    _uniform_plan,
    _warn_if_ill_conditioned,
)


def brute_vandermonde(distances, nu):
    """Independent dense solve of the stencil system, in variable units."""
    import math

    d = np.asarray(distances, dtype=float)
    V = np.array([d**i for i in range(len(d))])
    rhs = np.zeros(len(d))
    rhs[nu] = math.factorial(nu)
    return np.linalg.solve(V, rhs)


class TestStencilCoefficients:
    def test_centered_first_derivative(self):
        c = stencil_coefficients(Stencil((-1, 0, 1), 1), 0.5)
        np.testing.assert_allclose(c, [-1, 0, 1] / (2 * np.full(3, 0.5)), atol=1e-12)

    def test_forward_first_derivative(self):
        dx = 0.2
        c = stencil_coefficients(Stencil((0, 1, 2), 1), dx)
        np.testing.assert_allclose(c, np.array([-3, 4, -1]) / (2 * dx), atol=1e-12)

    def test_centered_second_derivative(self):
        dx = 0.1
        c = stencil_coefficients(Stencil((-1, 0, 1), 2), dx)
        np.testing.assert_allclose(c, np.array([1, -2, 1]) / dx**2, atol=1e-9)

    def test_short_stencil_rejected(self):
        with pytest.raises(ValidationError):
            Stencil((0, 1), 2)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValidationError):
            Stencil((0, 1, 1), 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_or_dx_refused(self, value):
        with pytest.raises(ValidationError, match="offsets must be finite"):
            stencil_coefficients(Stencil((-1, value, 1), 1), 0.1)
        with pytest.raises(ValidationError, match="dx must be finite"):
            stencil_coefficients(Stencil((-1, 0, 1), 1), value)

    @pytest.mark.parametrize("dx", [1e300, 1e-200])
    def test_dx_whose_power_leaves_float64_refused(self, dx):
        # 1e300**-2 underflows to 0 (coefficients [0, 0, 0]); 1e-200**-2 overflows
        with pytest.raises(ValidationError, match=r"dx=1e[-+]\d+ puts dx\*\*-2 outside"):
            stencil_coefficients(Stencil((-1, 0, 1), 2), dx)

    def test_conditioning_warning(self):
        with pytest.warns(ConditioningWarning):
            irregular_coefficients([0.0, 1e-9, 1.0, 2.0, 3.0, 4.0, 5.0], 1)

    def test_nan_condition_number_warns(self):
        with pytest.warns(ConditioningWarning, match="condition number nan"):
            _warn_if_ill_conditioned(float("nan"), 1)

    @pytest.mark.parametrize("order", [4, 8])
    def test_condition_number_does_not_depend_on_the_unit(self, order):
        # in raw distances this grid's order-4 plan read 1.5e20 in ks and its order-8 plan
        # warned in s, ms and ks; in units of each window's width it reads ~2e2 and ~2e4
        rng = np.random.default_rng(1)
        t = 0.01 * (np.arange(400) + rng.uniform(-0.3, 0.3, 400))
        h = _centered_halfwidth(1, order)
        conds = []
        for unit in (1.0, 1e3, 1e-3):
            tt = t * unit
            conds.append(_bjorck_pereyra(sliding_window_view(tt, 2 * h + 1).T - tt[h:-h], 1)[1])
            with warnings.catch_warnings():
                warnings.simplefilter("error", ConditioningWarning)
                fd_derivative(Signal(Grid(tt), np.sin(t)), nu=1, order=order)
        np.testing.assert_allclose(conds, conds[0], rtol=1e-12)
        assert conds[0] < (1e3 if order == 4 else 1e5)

    @pytest.mark.parametrize("unit", [1e-3, 1.0, 1e3])
    def test_close_samples_warn_in_every_unit(self, unit):
        t = unit * np.concatenate([[0.0, 1e-12], np.arange(1.0, 30.0)])
        with pytest.warns(ConditioningWarning):
            fd_derivative(Signal(Grid(t), np.sin(t)), nu=1, order=6)

    def test_conditioning_warning_points_at_fd_derivative_caller(self):
        t = np.concatenate([[0.0, 1e-12], np.arange(1.0, 30.0)])
        with pytest.warns(ConditioningWarning) as record:
            fd_derivative(Signal(Grid(t), np.sin(t)), nu=1, order=6)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("offsets", [range(-4, 5), range(9), range(-8, 9), (-3, -1, 0, 2, 5)])
    def test_uniform_and_irregular_stencils_read_one_condition_number(self, offsets, monkeypatch):
        conds = []
        monkeypatch.setattr(fd, "_warn_if_ill_conditioned", lambda cond, _: conds.append(cond))
        stencil_coefficients(Stencil(tuple(offsets), 1), 0.37)
        irregular_coefficients(0.37 * np.array(offsets, float), 1)
        np.testing.assert_allclose(conds[0], conds[1], rtol=1e-10)

    def test_wide_exact_stencil_does_not_warn(self):
        # unscaled, |V|_1 |V^-1|_1 of these offsets is 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            c = stencil_coefficients(Stencil((-1e100, 0.0, 1e100), 1), 1.0)
        np.testing.assert_allclose(c, [-5e-101, 0.0, 5e-101], rtol=1e-15)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_offsets_whose_powers_overflow_warn(self):
        with pytest.warns(ConditioningWarning, match="condition number nan"):
            stencil_coefficients(Stencil((-1e200, 0.0, 1e200), 1), 1.0)


class TestIrregularCoefficients:
    def test_symmetric_reduces_to_uniform(self):
        h = 0.3
        c = irregular_coefficients([-h, 0.0, h], 1)
        np.testing.assert_allclose(c, [-1 / (2 * h), 0.0, 1 / (2 * h)], atol=1e-12)

    def test_lopsided_against_dense_oracle(self):
        c = irregular_coefficients([-1.0, 0.0, 2.0], 1)
        np.testing.assert_allclose(c, brute_vandermonde([-1.0, 0.0, 2.0], 1), rtol=1e-13)
        np.testing.assert_allclose(c, [-2 / 3, 1 / 2, 1 / 6], rtol=1e-13)

    def test_lopsided_exact_on_quadratic(self):
        t = np.array([-1.0, 0.0, 2.0])
        c = irregular_coefficients(t, 1)
        assert c @ t**2 == pytest.approx(0.0, abs=1e-13)  # d(t^2)/dt at t=0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_distance_refused(self, value):
        with pytest.raises(ValidationError, match="distances must be finite"):
            irregular_coefficients([-1.0, 0.0, value], 1)

    @pytest.mark.filterwarnings("ignore::derivkit.ConditioningWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_coefficients_beyond_float64_refused(self):
        # the nu=2 coefficients of steps ~1e-200 are ~1e400
        with pytest.raises(ValidationError, match=r"nu=2 stencil coefficients outside float64"):
            irregular_coefficients([-1.3e-200, 0.0, 0.9e-200], 2)

    def test_matches_uniform_solution(self):
        dx = 0.37
        offsets = (-2, -1, 0, 1, 2)
        uniform = stencil_coefficients(Stencil(offsets, 2), dx)
        irregular = irregular_coefficients(np.array(offsets) * dx, 2)
        np.testing.assert_allclose(irregular, uniform, rtol=1e-12)


class TestFdDerivative:
    def test_linear_any_grid(self):
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.uniform(0.05, 0.4, 60))
        s = Signal(Grid(t), 3.0 * t + 1.0)
        r = fd_derivative(s, nu=1, order=2)
        np.testing.assert_allclose(r.derivative, 3.0, atol=1e-10)
        np.testing.assert_allclose(r.smoothed, s.values, atol=0)

    def test_quadratic_exact_including_edges(self):
        g = Grid.regular(40, 0.1)
        s = Signal(g, g.points**2)
        r = fd_derivative(s, nu=1, order=2)
        np.testing.assert_allclose(r.derivative, 2 * g.points, rtol=1e-9, atol=1e-10)

    def test_order_of_accuracy_halving(self):
        errors = {}
        for n in (100, 200):
            t = np.linspace(0, 2 * np.pi, n)
            r = fd_derivative(Signal(Grid(t), np.sin(t)), nu=1, order=2)
            errors[n] = np.max(np.abs(r.derivative - np.cos(t))[2:-2])
        ratio = errors[100] / errors[200]
        assert 3.0 <= ratio <= 5.0

    def test_second_derivative(self):
        g = Grid.regular(50, 0.05)
        s = Signal(g, g.points**3)
        r = fd_derivative(s, nu=2, order=2)
        np.testing.assert_allclose(r.derivative[1:-1], 6 * g.points[1:-1], rtol=1e-7)

    def test_higher_order_interior(self):
        t = np.linspace(0, 2 * np.pi, 64)
        r = fd_derivative(Signal(Grid(t), np.sin(t)), nu=1, order=4)
        h = 2  # 5-point stencil half width
        err = np.max(np.abs(r.derivative - np.cos(t))[h:-h])
        assert err < 5e-6

    def test_polynomial_exactness_matches_stencil_length(self):
        # order-4 scheme for nu=1 uses 5 points: exact on degree <= 4
        g = Grid.regular(30, 0.2)
        t = g.points
        coeffs = [0.3, -1.2, 0.5, 0.7, -0.1]
        y = sum(c * t**k for k, c in enumerate(coeffs))
        dy = sum(k * c * t ** (k - 1) for k, c in enumerate(coeffs) if k >= 1)
        r = fd_derivative(Signal(g, y), nu=1, order=4)
        np.testing.assert_allclose(r.derivative[2:-2], dy[2:-2], rtol=1e-9)

    @pytest.mark.parametrize("dt", [1e200, 1e-200])
    def test_step_whose_power_leaves_float64_refused(self, dt):
        # at nu = 2 the plan's dt**-2 underflows to 0 (a zero derivative) or overflows
        s = Signal(Grid.regular(50, dt), np.sin(np.arange(50.0)))
        fd_derivative(s, nu=1, order=2)
        with pytest.raises(ValidationError, match=r"dt=1e[-+]200 puts dt\*\*-2 outside"):
            fd_derivative(s, nu=2, order=2)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            fd_derivative(Signal(Grid.regular(2, 1.0), np.zeros(2)), nu=1, order=2)

    @pytest.mark.parametrize("nu, message", [
        (0, "derivative order must be >= 1, got 0"),
        (-1, "derivative order must be >= 1, got -1"),
        (2.5, "derivative order must be an integer, got 2.5"),
        (np.nan, "derivative order must be an integer, got nan")])
    def test_order_below_one_or_fractional_refused(self, nu, message):
        # nu = 0 returned the input as its derivative, -1 died in math.factorial, and 2.5
        # raised a TypeError
        s = Signal(Grid.regular(50, 0.1), np.sin(0.1 * np.arange(50)))
        for run in (lambda: fd_derivative(s, nu=nu, order=2), lambda: apply_method("fd", s, nu=nu),
                    lambda: Stencil((-1, 0, 1), nu)):
            with pytest.raises(ValidationError, match=re.escape(message)):
                run()

    def test_whole_orders_given_as_other_types_are_ints(self):
        s = Signal(Grid.regular(50, 0.1), np.sin(0.1 * np.arange(50)))
        want = fd_derivative(s, nu=2, order=2).derivative
        for nu in (2.0, np.int64(2)):
            r = fd_derivative(s, nu=nu, order=2)
            assert type(r.phi["nu"]) is int and np.array_equal(r.derivative, want)
        # a bool is refused: True used to index the Vandermonde right-hand side as a mask
        with pytest.raises(ValidationError, match="derivative order must be an integer, got True"):
            fd_derivative(s, nu=True, order=2)

    def test_irregular_matches_uniform_when_equispaced(self):
        # same values presented as an irregular grid must agree exactly
        t = 0.1 * np.arange(30)
        y = np.sin(t)
        uniform = fd_derivative(Signal(Grid(t), y), order=2)
        jittered = t.copy()
        jittered[13] += 2e-9  # big enough to flag the grid irregular
        irregular = fd_derivative(Signal(Grid(jittered), y), order=2)
        np.testing.assert_allclose(uniform.derivative, irregular.derivative,
                                   rtol=1e-5, atol=1e-7)


def _windows(n_points, nu, order):
    """Per-point ``(lo, size)`` windows: the edge plan plus the implicit interior."""
    h, edges = _edge_plan(n_points, nu, order)
    plan = [(n - h, 2 * h + 1) for n in range(n_points)]
    for n, lo, size in edges:
        plan[n] = (lo, size)
    return plan, h, [n for n, _, _ in edges]


class TestWindowPlan:
    def test_order2_edges_are_one_sided_table_rows(self):
        plan, h, edge_points = _windows(10, 1, 2)
        assert h == 1
        assert edge_points == [0, 9]
        assert plan[0] == (0, 3)
        assert plan[-1] == (7, 3)
        assert plan[4] == (3, 3)

    def test_higher_order_shrinks_toward_edges(self):
        plan, h, edge_points = _windows(20, 1, 4)
        assert h == 2
        assert edge_points == [0, 1, 18, 19]
        assert plan[0] == (0, 3)    # one-sided, second order
        assert plan[1] == (0, 3)    # shrunk centered
        assert plan[2] == (0, 5)    # full centered


    @pytest.mark.parametrize("nu, order", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 4)])
    def test_batched_irregular_solve_matches_per_point_loop(self, nu, order):
        rng = np.random.default_rng(20 + order)
        t = np.cumsum(rng.uniform(0.005, 0.015, 300))
        y = np.sin(7 * t) + 0.1 * rng.standard_normal(300)
        plan, _, _ = _windows(300, nu, order)
        ref = np.array([irregular_coefficients(t[lo : lo + size] - t[n], nu) @ y[lo : lo + size]
                        for n, (lo, size) in enumerate(plan)])
        out = fd_derivative(Signal(Grid(t), y), nu=nu, order=order).derivative
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("error::derivkit.ConditioningWarning")
class TestIrregularPlanAgainstExact:
    """Every stencil of the irregular plan against the exact rational solution of the same
    float window. A LAPACK solve of these windows lost 1.6e-13 to 4.9e-13 at order 8. The
    windows are well conditioned in units of their own width, so none warns."""

    @pytest.mark.parametrize("t0", [0.0, 1.7e9])
    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_coefficients_within_1e_13(self, order, nu, t0):
        rng = np.random.default_rng(order + 10 * nu)
        n = 30
        t = t0 + 0.01 * (np.arange(n) + rng.uniform(-0.3, 0.3, n))
        plan = _fd_plan(n, nu, order, None, t)
        stencils = [(n_, slice(n_ - plan.h, n_ + plan.h + 1), c)
                    for n_, c in enumerate(plan.interior, start=plan.h)]
        for n_, window, c in stencils + list(plan.edges):
            exact = exact_coefficients(t[window] - t[n_], nu)
            assert np.max(np.abs(c - exact)) <= 1e-13 * np.max(np.abs(exact)), n_

    def test_irregular_coefficients_within_1e_13(self):
        rng = np.random.default_rng(3)
        d = 0.01 * (np.arange(-4, 5) + rng.uniform(-0.3, 0.3, 9))
        for nu in (1, 2):
            exact = exact_coefficients(d, nu)
            c = irregular_coefficients(d, nu)
            assert np.max(np.abs(c - exact)) <= 1e-13 * np.max(np.abs(exact))


class TestIteratedFd:
    def test_zero_iterations_identical_to_fd(self):
        g = Grid.regular(64, 0.1)
        s = Signal(g, np.sin(g.points) + 0.01 * np.cos(7 * g.points))
        a = iterated_fd(s, order=2, iterations=0)
        b = fd_derivative(s, nu=1, order=2)
        np.testing.assert_allclose(a.derivative, b.derivative, atol=0)
        np.testing.assert_allclose(a.smoothed, s.values, atol=0)

    def test_constant_signal(self):
        s = Signal(Grid.regular(32, 0.5), np.full(32, 2.5))
        r = iterated_fd(s, order=2, iterations=5)
        np.testing.assert_allclose(r.derivative, 0.0, atol=1e-12)
        np.testing.assert_allclose(r.smoothed, 2.5, atol=1e-12)

    def test_one_round_matches_iir_recursion(self):
        # interior: x[n] = x[n-1] + (y[n+1] + y[n] - y[n-1] - y[n-2]) / 4
        rng = np.random.default_rng(3)
        g = Grid.regular(50, 0.01)
        y = np.sin(g.points * 2) + 0.05 * rng.standard_normal(50)
        smoothed = iterated_fd(Signal(g, y), order=2, iterations=1).smoothed
        steps = np.array([(y[n + 1] + y[n] - y[n - 1] - y[n - 2]) / 4
                          for n in range(2, 49)])
        diffs = np.array([smoothed[n] - smoothed[n - 1] for n in range(2, 49)])
        np.testing.assert_allclose(diffs, steps, atol=1e-12)

    def test_irregular_grid_unsupported(self):
        g = Grid([0.0, 0.1, 0.3, 0.7, 0.8, 1.0])
        with pytest.raises(UnsupportedMethodError):
            iterated_fd(Signal(g, np.zeros(6)), order=2, iterations=1)

    def test_smoothing_pass_edge_coefficients_bounded(self):
        # every scheme used by the smoothing pass satisfies |c * dt| <= 1
        dt = 0.05
        for order in (2, 4):
            smoothing = _smoothing_plan(_fd_plan(24, 1, order, dt), 24, dt)
            rows = []
            for i in range(24):
                e = np.zeros(24)
                e[i] = 1.0
                rows.append(smoothing.apply(e))
            coeffs = np.array(rows).T  # row n = coefficients applied at point n
            assert np.max(np.abs(coeffs) * dt) <= 1.0 + 1e-12

    def test_smoothing_reduces_noise_energy(self):
        rng = np.random.default_rng(11)
        g = Grid.regular(200, 0.01)
        clean = np.sin(2 * np.pi * g.points)
        noisy = clean + 0.1 * rng.standard_normal(200)
        out = iterated_fd(Signal(g, noisy), order=2, iterations=20).smoothed
        assert np.mean((out - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)


class TestPlanAgainstHandWrittenStencils:
    """The one finite-difference plan against the stencils it replaced."""

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_smoothing_pass_matches_per_pass_stencils(self, order):
        rng = np.random.default_rng(order)
        dt = 0.01
        first = max(2 * (order // 2) + 1, 5)
        for n in range(first, 401):
            y = rng.standard_normal(n)
            smoothing = _smoothing_plan(_fd_plan(n, 1, order, dt), n, dt)
            np.testing.assert_array_equal(smoothing.apply(y), safe_first_derivative(y, dt, order))

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_iterated_fd_matches_per_pass_loop(self, order):
        rng = np.random.default_rng(30 + order)
        g = Grid.regular(120, 0.01)
        y = np.sin(4 * g.points) + 0.1 * rng.standard_normal(120)
        z = y.copy()
        for _ in range(7):
            d = safe_first_derivative(z, 0.01, order)
            integ = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * 0.01)])
            z = integ + (np.mean(z) - np.mean(integ))
        out = iterated_fd(Signal(g, y), order=order, iterations=7)
        np.testing.assert_array_equal(out.smoothed, z)
        np.testing.assert_array_equal(out.derivative,
                                      fd_derivative(Signal(g, z), nu=1, order=order).derivative)

    def test_too_short_for_smoothing_pass(self):
        s = Signal(Grid.regular(4, 0.1), np.arange(4.0))
        with pytest.raises(ValidationError, match="iterated_fd needs at least 5 samples"):
            iterated_fd(s, order=2, iterations=1)
        iterated_fd(s, order=2, iterations=0)  # the plain read-out needs only 3

    @pytest.mark.parametrize("dt", [0.01, 0.001, 0.005, 1 / 3])
    def test_first_diff_matrix_equals_hand_typed_table(self, dt):
        got, want = _first_diff_matrix(50, dt), first_diff_table(50, dt)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)

    def test_first_diff_matrix_one_sided_rows_within_one_ulp(self):
        # at dt = 0.37 the solved -1.5 * (1/dt) and the typed -3 / (2 dt) differ in the last bit
        dt = 0.37
        diff = abs(_first_diff_matrix(50, dt) - first_diff_table(50, dt)).toarray()
        assert 0 < diff.max() <= np.spacing(4 / (2 * dt))
        assert not diff[1:-1].any()


class TestPlanCache:
    """Uniform plans are built once per (N, nu, order, dt) and shared read-only."""

    @pytest.mark.parametrize("plan", [_fd_plan(40, 1, 4, 0.01), _fd_plan(40, 2, 2, 0.1),
                                      *_iterated_plans(40, 2, 0.01)])
    def test_cached_arrays_are_read_only(self, plan):
        for c in (plan.interior, *(c for _, _, c in plan.edges)):
            with pytest.raises(ValueError, match="read-only"):
                c[0] = 1.0

    def test_repeat_is_served_from_the_cache(self):
        assert _fd_plan(41, 1, 2, 0.01) is _fd_plan(41, 1, 2, 0.01)
        assert _iterated_plans(41, 2, 0.01)[0] is _fd_plan(41, 1, 2, 0.01)

    def test_same_length_other_step_is_another_plan(self):
        a, b = _fd_plan(40, 1, 2, 0.01), _fd_plan(40, 1, 2, 0.02)
        assert a is not b
        np.testing.assert_array_equal(b.interior, a.interior / 2)
        assert _iterated_plans(40, 2, 0.01) is not _iterated_plans(40, 2, 0.02)

    def test_cached_plan_equals_a_fresh_build(self):
        for n, nu, order, dt in ((40, 1, 2, 0.01), (40, 2, 4, 0.3), (200, 1, 8, 1 / 3)):
            cached, built = _fd_plan(n, nu, order, dt), _uniform_plan.__wrapped__(n, nu, order, dt)
            np.testing.assert_array_equal(cached.interior, built.interior)
            for (n1, w1, c1), (n2, w2, c2) in zip(cached.edges, built.edges, strict=True):
                assert (n1, w1) == (n2, w2)
                np.testing.assert_array_equal(c1, c2)

    def test_irregular_plans_are_not_cached(self):
        t = np.cumsum(np.random.default_rng(0).uniform(0.5, 1.5, 30))
        a, b = _fd_plan(30, 1, 2, None, t), _fd_plan(30, 1, 2, None, t)
        assert a is not b and a.interior.flags.writeable
