import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import butter_reference
import numpy as np
import pytest
from grid_reference import oracle_grids
from poly_reference import loop_polydiff
from rbf_reference import dense_rbf, extended_rbf
from scipy.interpolate import BSpline
from scipy.linalg import get_lapack_funcs
from spline_reference import _curvature_factor as sparse_curvature_factor
from spline_reference import _solve_spline as superlu_solve_spline
from spline_reference import solve_spline_bincount as bincount_solve_spline

import derivkit
from derivkit import (
    Grid,
    KernelSpec,
    NumericError,
    Signal,
    SplineSpec,
    UnsupportedMethodError,
    ValidationError,
    butterdiff,
    fd_derivative,
    kernel_smooth,
    kerneldiff,
    polydiff,
    rbfdiff,
    savgol_coefficients,
    savgoldiff,
    splinediff,
)
from derivkit import core, methods, smoothers
from derivkit.fd import _fd_plan
from derivkit.methods import RBF_TRUNCATION_FACTOR, get_method
from derivkit.smoothers import (
    _butter_sos,
    _kernel_weights,
    _sosfilt,
    _sosfiltfilt,
    butter_single_pass,
)


def fit_amplitude(t, y, f_hz):
    """Least-squares amplitude of a sinusoid at a known frequency."""
    w = 2 * np.pi * f_hz
    basis = np.column_stack([np.sin(w * t), np.cos(w * t)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(np.hypot(*coef))


class TestKernelSmooth:
    def test_weights_sum_to_one(self):
        for kind in ("mean", "gaussian", "friedrichs"):
            w = _kernel_weights(kind, 11, 2.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_unchanged(self):
        s = Signal(Grid.regular(50, 0.1), np.full(50, 2.0))
        for kind in ("mean", "gaussian", "friedrichs", "median"):
            out = kernel_smooth(s, KernelSpec(kind=kind, window=7, sigma=1.5))
            np.testing.assert_allclose(out.values, 2.0, atol=1e-12)

    def test_impulse_mean_kernel(self):
        y = np.zeros(21)
        y[10] = 1.0
        out = kernel_smooth(Signal(Grid.regular(21, 1.0), y),
                            KernelSpec(kind="mean", window=5))
        np.testing.assert_allclose(out.values[8:13], 0.2, atol=1e-12)
        np.testing.assert_allclose(out.values[:8], 0.0, atol=1e-12)

    def test_median_removes_spike(self):
        t = Grid.regular(60, 0.1)
        y = np.sin(0.3 * t.points)
        y_spiked = y.copy()
        y_spiked[30] += 100.0
        out = kernel_smooth(Signal(t, y_spiked), KernelSpec(kind="median", window=5))
        assert abs(out.values[30] - y[30]) < 0.05
        np.testing.assert_allclose(out.values[:27], y[:27], atol=0.05)

    def test_window_too_large(self):
        with pytest.raises(ValidationError):
            kernel_smooth(Signal(Grid.regular(5, 1.0), np.zeros(5)),
                          KernelSpec(kind="mean", window=7))

    def test_even_window_rejected(self):
        with pytest.raises(ValidationError):
            KernelSpec(kind="mean", window=6)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["gaussian", "mean"])
    def test_non_finite_sigma_refused(self, kind, value):
        with pytest.raises(ValidationError, match="sigma must be finite"):
            KernelSpec(kind=kind, window=11, sigma=value)

    @pytest.mark.parametrize("window, message", [
        (7.5, "window must be an integer"), (np.nan, "window must be an integer"),
        (np.inf, "window must be an integer"), (-np.inf, "window must be an integer")])
    def test_non_finite_or_non_integral_window_refused(self, window, message):
        with pytest.raises(ValidationError, match=message):
            KernelSpec(window=window)

    @pytest.mark.parametrize("kind", ["mean", "gaussian", "friedrichs", "median"])
    def test_integral_float_window_runs_at_the_signal_length(self, kind):
        s = Signal(Grid.regular(100, 0.01), np.sin(0.1 * np.arange(100)))
        spec = KernelSpec(kind=kind, window=11.0, sigma=2.0)
        assert spec.window == 11 and type(spec.window) is int
        assert len(kernel_smooth(s, spec).values) == 100
        r = kerneldiff(s, spec)
        assert len(r.smoothed) == len(r.derivative) == 100


class TestReflectPad:
    @pytest.mark.parametrize("n", [2, 3, 5, 400])
    def test_equals_numpy_reflect_pad(self, n):
        values = np.random.default_rng(n).standard_normal(n)
        for h in sorted({0, 1, n - 2, n - 1, n, 2 * n + 3}):
            padded = core._reflect_pad(values, h)
            assert padded.flags.c_contiguous
            assert padded.tobytes() == np.pad(values, h, mode="reflect").tobytes()

    def test_consumers_keep_the_bits_of_numpy_pad(self, monkeypatch):
        from derivkit import spectral, tvr

        def outputs():
            out = []
            for n in (12, 400):
                rng = np.random.default_rng(n)
                s = Signal(Grid.regular(n, 0.01), np.sin(np.arange(n)) + rng.standard_normal(n))
                for kind in ("mean", "gaussian", "friedrichs", "median"):
                    for window in (3, 11):
                        spec = KernelSpec(kind=kind, window=window, sigma=1.7)
                        out.append(kernel_smooth(s, spec).values)
                        out.append(kerneldiff(s, spec).derivative)
                for sigma in (None, 0.5, 3.0, 12.0, 50.0):  # radius 200 > N = 12: repeated mirrors
                    r = savgoldiff(s, 5, 2, post_smooth_sigma=sigma)
                    out += [r.smoothed, r.derivative]
                for sigma in (1.0, 5.0):
                    spec = tvr.TvrSpec(gamma=0.05, nu=2, soften_sigma=sigma)
                    out.append(tvr.smooth_accel_tvr(s, spec).derivative)
                for pad in (1, 5, 8, 20):
                    r = spectral.fourier_extension_derivative(s, pad=pad, keep_modes=4)
                    out += [r.smoothed, r.derivative]
            return [np.asarray(a).tobytes() for a in out]

        fast = outputs()
        numpy_pad = lambda values, h: np.pad(values, h, mode="reflect")  # noqa: E731
        monkeypatch.setattr(smoothers, "_reflect_pad", numpy_pad)
        monkeypatch.setattr(spectral, "_reflect_pad", numpy_pad)
        assert fast == outputs()


class TestKerneldiff:
    def test_constant(self):
        s = Signal(Grid.regular(30, 0.1), np.full(30, 5.0))
        r = kerneldiff(s, KernelSpec(kind="gaussian", window=5, sigma=1.0))
        np.testing.assert_allclose(r.derivative, 0.0, atol=1e-9)

    def test_linear_interior_exact(self):
        g = Grid.regular(60, 0.1)
        s = Signal(g, 2.0 * g.points + 1.0)
        r = kerneldiff(s, KernelSpec(kind="mean", window=7))
        h = 4  # half window plus one FD neighbor
        np.testing.assert_allclose(r.derivative[h:-h], 2.0, atol=1e-10)

    def test_beats_plain_fd_on_noise(self):
        rng = np.random.default_rng(0)
        g = Grid.regular(400, 0.01)
        truth_deriv = 2 * np.pi * np.cos(2 * np.pi * g.points)
        y = np.sin(2 * np.pi * g.points) + 0.1 * rng.standard_normal(400)
        s = Signal(g, y)
        smooth = kerneldiff(s, KernelSpec(kind="gaussian", window=25, sigma=3.0))
        plain = fd_derivative(s, order=2)
        sl = slice(15, -15)
        err_smooth = np.max(np.abs(np.asarray(smooth.derivative)[sl] - truth_deriv[sl]))
        err_plain = np.max(np.abs(np.asarray(plain.derivative)[sl] - truth_deriv[sl]))
        assert err_smooth < err_plain


class TestRegistryKernel:
    """The registry's ``kernel`` tunes sigma alone; its window is the Gaussian blur's."""

    @pytest.mark.parametrize("n", [400, 401])
    @pytest.mark.parametrize("sigma", [0.5, 1.3, 3.0, 12.4, None])  # None: the upper bound
    def test_is_the_gaussian_blur_then_second_order_differences(self, n, sigma):
        s = Signal(Grid.regular(n, 0.01), np.random.default_rng(n).standard_normal(n))
        (param,) = methods._bounded_params(get_method("kernel"), s)
        assert param.hi == {400: 49.75, 401: 50.0}[n]
        sigma = param.hi if sigma is None else sigma
        r = methods.apply_method("kernel", s, {"sigma": sigma})
        smoothed = smoothers._gaussian_blur(s.values, sigma)
        assert np.array_equal(r.smoothed, smoothed)
        assert np.array_equal(r.derivative, _fd_plan(n, 1, 2, 0.01).apply(smoothed))

    def test_needs_five_samples(self):
        with pytest.raises(ValidationError, match="needs at least 5 samples, got 4"):
            methods.apply_method("kernel", Signal(Grid.regular(4, 0.1), np.arange(4.0)))
        r = methods.apply_method("kernel", Signal(Grid.regular(5, 0.1), np.arange(5.0)))
        assert r.phi == {"kind": "gaussian", "window": 5, "sigma": 0.5}
        assert len(r.derivative) == 5


class TestButterdiff:
    def test_single_pass_gain_at_cutoff(self):
        dt, f_c = 0.001, 5.0
        n = 20000
        t = dt * np.arange(n)
        s = Signal(Grid(t), np.sin(2 * np.pi * f_c * t))
        filtered = butter_single_pass(s, order=2, cutoff_hz=f_c)
        tail = slice(n // 2, None)
        amp = fit_amplitude(t[tail], filtered[tail], f_c)
        assert amp == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_dc_gain_unity(self):
        s = Signal(Grid.regular(200, 0.01), np.full(200, 4.0))
        r = butterdiff(s, order=3, cutoff_hz=2.0)
        np.testing.assert_allclose(r.smoothed, 4.0, atol=1e-9)
        np.testing.assert_allclose(r.derivative, 0.0, atol=1e-7)

    def test_forward_backward_halves_power(self):
        dt, f_c = 0.001, 5.0
        n = 20000
        t = dt * np.arange(n)
        s = Signal(Grid(t), np.sin(2 * np.pi * f_c * t))
        r = butterdiff(s, order=2, cutoff_hz=f_c)
        mid = slice(n // 4, 3 * n // 4)
        amp = fit_amplitude(t[mid], np.asarray(r.smoothed)[mid], f_c)
        assert amp == pytest.approx(0.5, rel=0.02)

    def test_zero_phase(self):
        dt = 0.01
        t = dt * np.arange(1000)
        y = np.sin(2 * np.pi * 1.0 * t)
        r = butterdiff(Signal(Grid(t), y), order=4, cutoff_hz=3.0)
        xc = np.correlate(np.asarray(r.smoothed)[100:-100], y[100:-100], mode="full")
        lag = np.argmax(xc) - (len(y[100:-100]) - 1)
        assert lag == 0

    def test_cutoff_validation(self):
        s = Signal(Grid.regular(100, 0.01), np.zeros(100))
        with pytest.raises(ValidationError):
            butterdiff(s, order=2, cutoff_hz=50.0)
        with pytest.raises(ValidationError):
            butterdiff(s, order=2, cutoff_hz=0.0)

    def test_single_pass_checks_as_butterdiff_does(self):
        s = Signal(Grid.regular(100, 0.01), np.zeros(100))
        with pytest.raises(ValidationError, match="cutoff must lie in"):
            butter_single_pass(s, order=2, cutoff_hz=50.0)
        with pytest.raises(ValidationError, match="order must be >= 1"):
            butter_single_pass(s, order=0, cutoff_hz=5.0)
        irregular = Signal(Grid(np.cumsum(np.linspace(0.005, 0.015, 100))), np.zeros(100))
        with pytest.raises(UnsupportedMethodError, match="butter_single_pass requires a uniform grid"):
            butter_single_pass(irregular, order=2, cutoff_hz=5.0)

    @pytest.mark.parametrize("order", [2.5, np.float64(1.5)])
    def test_fractional_order_refused(self, order):
        s = Signal(Grid.regular(100, 0.01), np.zeros(100))
        with pytest.raises(ValidationError, match="order must be an integer"):
            butterdiff(s, order=order, cutoff_hz=5.0)

    def test_integral_float_order_is_that_order(self):
        s = Signal(Grid.regular(100, 0.01), np.sin(np.arange(100.0)))
        assert np.array_equal(butterdiff(s, order=3.0, cutoff_hz=5.0).smoothed,
                              butterdiff(s, order=3, cutoff_hz=5.0).smoothed)


class TestButterAgainstScipy:
    """The Butterworth sections and filters equal ``scipy.signal``'s bit for bit, and
    ``butterdiff`` and ``butter_single_pass`` equal ``tests/butter_reference.py``."""

    @pytest.mark.parametrize("order", range(1, 13))
    def test_sections(self, order):
        from scipy.signal import butter

        for fs in (100.0, 200.0, 1 / 0.37, 3.0):
            for cutoff in np.geomspace(1e-4, 0.95, 40) * (fs / 2):
                expected = butter(order, cutoff, fs=fs, output="sos")
                got = _butter_sos(order, cutoff, fs)
                assert np.array_equal(got, expected), (fs, cutoff)
                assert np.array_equal(np.signbit(got), np.signbit(expected)), (fs, cutoff)

    @pytest.mark.parametrize("n", [2, 3, 13, 400, 10_000, 20_000])
    def test_filters(self, n):
        from scipy.signal import butter, sosfilt, sosfiltfilt

        x = np.random.default_rng(n).standard_normal(n).cumsum()
        for order in range(1, 9):
            for cutoff in (0.01, 3.0, 47.0) if n <= 400 else (3.0,):
                sos = butter(order, cutoff, fs=100.0, output="sos")
                for padlen in sorted({p for p in (0, 1, 24, n - 2) if 0 <= p <= n - 2}):
                    got = _sosfiltfilt(sos, x, padlen)
                    assert np.array_equal(got, sosfiltfilt(sos, x, padlen=padlen)), (order, padlen)
                    assert got.flags.c_contiguous
                got = _sosfilt(sos, x.tolist(), [(0.0, 0.0)] * len(sos))
                assert np.array_equal(got, sosfilt(sos, x)), order

    @staticmethod
    def _same(signal, **phi):
        got, expected = butterdiff(signal, **phi), butter_reference.butterdiff(signal, **phi)
        assert np.array_equal(got.smoothed, expected.smoothed)
        assert np.array_equal(got.derivative, expected.derivative)
        assert np.array_equal(butter_single_pass(signal, **phi),
                              butter_reference.butter_single_pass(signal, **phi))

    def test_butterdiff_signals(self):
        t = 0.001 * np.arange(20_000)
        self._same(Signal(Grid(t), np.sin(2 * np.pi * 5.0 * t)), order=2, cutoff_hz=5.0)
        self._same(Signal(Grid.regular(200, 0.01), np.full(200, 4.0)), order=3, cutoff_hz=2.0)
        t = 0.01 * np.arange(1000)
        self._same(Signal(Grid(t), np.sin(2 * np.pi * 1.0 * t)), order=4, cutoff_hz=3.0)

    @pytest.mark.parametrize("n", [400, 10_000])
    def test_registry_defaults(self, n):
        rng = np.random.default_rng(n)
        s = Signal(Grid.regular(n, 0.01), np.sin(0.05 * np.arange(n)) + 0.1 * rng.standard_normal(n))
        spec = get_method("butter")
        phi = methods.resolve(spec, methods._bounded_params(spec, s))
        self._same(s, **phi)
        assert np.array_equal(methods.apply_method("butter", s).derivative,
                              butter_reference.butterdiff(s, **phi).derivative)


class TestPolydiff:
    def test_quadratic_truth_recovered(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0, 5, 80))
        y = 1.5 * t**2 - 2 * t + 0.5
        dy = 3.0 * t - 2
        r = polydiff(Signal(Grid(t), y), window=20, stride=10, degree=2)
        np.testing.assert_allclose(r.smoothed, y, atol=1e-8)
        np.testing.assert_allclose(r.derivative, dy, atol=1e-8)

    def test_partition_when_stride_equals_window(self):
        rng = np.random.default_rng(2)
        g = Grid.regular(80, 0.05)
        y = np.sin(g.points) + 0.02 * rng.standard_normal(80)
        r = polydiff(Signal(g, y), window=20, stride=20, degree=3)
        # each sample comes from exactly one fit: outputs equal per-window polyfits
        for lo in range(0, 80, 20):
            sl = slice(lo, lo + 20)
            fit = np.polynomial.Polynomial.fit(g.points[sl], y[sl], 3)
            np.testing.assert_allclose(np.asarray(r.smoothed)[sl], fit(g.points[sl]),
                                       atol=1e-10)

    def test_overlapping_fits_smoke(self):
        rng = np.random.default_rng(3)
        g = Grid.regular(400, 0.01)
        y = np.sin(2 * np.pi * g.points) + 0.1 * rng.standard_normal(400)
        r = polydiff(Signal(g, y), window=40, stride=20, degree=3)
        truth = 2 * np.pi * np.cos(2 * np.pi * g.points)
        err = np.sqrt(np.mean((np.asarray(r.derivative)[20:-20] - truth[20:-20]) ** 2))
        assert err < 0.35 * np.sqrt(np.mean(truth**2))

    def test_weight_kernel_changes_combination(self):
        rng = np.random.default_rng(4)
        g = Grid.regular(100, 0.1)
        y = np.sin(g.points) + 0.05 * rng.standard_normal(100)
        uniform = polydiff(Signal(g, y), window=30, stride=10, degree=2)
        weighted = polydiff(Signal(g, y), window=30, stride=10, degree=2,
                            weight_kernel=KernelSpec(kind="gaussian", window=3, sigma=5.0))
        assert not np.allclose(uniform.smoothed, weighted.smoothed)

    @pytest.mark.parametrize("irregular", [False, True], ids=["uniform", "irregular"])
    def test_epoch_offset_changes_no_bit(self, irregular):
        # Dyadic timestamps: 1.7e9 + t is exact and the fitted step is 2**-7 at both
        # offsets, so only mapping windows in absolute time could move a bit. It did:
        # by 2.9e-6 (uniform) and 7.0e-7 (irregular) relative in the derivative.
        rng = np.random.default_rng(7)
        n = 1000
        k = 2.0**-7 * (np.sort(rng.choice(2 * n, n, replace=False)) if irregular
                       else np.arange(n))
        y = np.sin(2 * k) + 0.1 * rng.standard_normal(n)
        ref = methods.apply_method("poly", Signal(Grid(k), y))
        out = methods.apply_method("poly", Signal(Grid(1.7e9 + k), y))
        assert Grid(1.7e9 + k).uniform is not irregular
        assert np.array_equal(out.smoothed, ref.smoothed)
        assert np.array_equal(out.derivative, ref.derivative)

    def test_window_validation(self):
        s = Signal(Grid.regular(50, 0.1), np.zeros(50))
        with pytest.raises(ValidationError):
            polydiff(s, window=60, degree=2)
        with pytest.raises(ValidationError):
            polydiff(s, window=3, degree=3)


class TestPolydiffAgainstLoop:
    """The batched fit against the per-window ``Polynomial.fit`` loop it replaced."""

    GRIDS = {
        "uniform": lambda n, rng: Grid.regular(n, 0.01),
        # half of 2n uniform samples dropped: gaps of 1 to ~10 steps
        "irregular": lambda n, rng: Grid(0.01 * np.sort(rng.choice(2 * n, n, replace=False))),
        "epoch": lambda n, rng: Grid.regular(n, 0.01, t0=1.7e9),
    }

    @staticmethod
    def _run(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", np.exceptions.RankWarning)
            out = fn()
        return out, any(w.category is np.exceptions.RankWarning for w in caught)

    @pytest.mark.parametrize("degree", range(9))
    @pytest.mark.parametrize("kind", sorted(GRIDS))
    def test_matches_loop(self, kind, degree):
        n = 120
        rng = np.random.default_rng(degree)
        g = self.GRIDS[kind](n, rng)
        s = Signal(g, np.sin(3 * (g.points - g.points[0])) + 0.1 * rng.standard_normal(n))
        kernel = KernelSpec(kind="gaussian", window=3, sigma=5.0)
        # Polynomial.fit on raw epoch timestamps loses their digits; polydiff fits a
        # uniform grid in the offsets i * dt, so the loop runs on those
        t = g.dt * np.arange(n) if kind == "epoch" else g.points
        for window in sorted({degree + 1, 2 * (degree + 1), 25, n}):
            # square and nearly square systems carry the loop's own rounding
            tol = 1e-12 if window >= 2 * (degree + 1) else 1e-9
            for stride in sorted({1, max(window // 2, 1), window}):
                for wk in (None, kernel):
                    weights = None if wk is None else _kernel_weights("gaussian", window, 5.0)
                    got, warned = self._run(lambda: polydiff(s, window, stride, degree=degree,
                                                             weight_kernel=wk))
                    ref, ref_warned = self._run(
                        lambda: loop_polydiff(t, s.values, window, stride, degree, weights))
                    assert warned == ref_warned
                    for a, b in zip((got.smoothed, got.derivative), ref):
                        np.testing.assert_allclose(a, b, rtol=0, atol=tol * np.max(np.abs(b)),
                                                   err_msg=f"window={window} stride={stride}")

    def test_rank_deficient_window_warns(self):
        # three samples one ulp apart: the mapped Vandermonde matrix loses rank
        u = np.spacing(1.0)
        t = np.array([0.0, 0.5, 1.0, 1.0 + u, 1.0 + 2 * u, 1.5, 2.0, 2.5])
        s = Signal(Grid(t), np.cos(t))
        got, warned = self._run(lambda: polydiff(s, window=4, stride=1, degree=3))
        ref, ref_warned = self._run(lambda: loop_polydiff(t, s.values, 4, 1, 3))
        assert warned and ref_warned
        for a, b in zip((got.smoothed, got.derivative), ref):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.max(np.abs(b)))

    def test_stride_one_memory_stays_per_block(self):
        # One stack of all 2e4 windows would hold ~0.9 GB; a block holds about N samples.
        script = textwrap.dedent("""
            import re
            from pathlib import Path
            import numpy as np
            from derivkit import Grid, Signal, polydiff
            def peak_kb():
                return int(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text())[1])
            rng = np.random.default_rng(0)
            s = Signal(Grid.regular(20_000, 0.01), rng.standard_normal(20_000))
            polydiff(Signal(Grid.regular(400, 0.01), s.values[:400]), 160, stride=1, degree=8)
            before = peak_kb()
            out = polydiff(s, window=160, stride=1, degree=8)
            print(bool(np.all(np.isfinite(out.derivative))), peak_kb() - before)
        """)
        src = str(Path(derivkit.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=300, check=True)
        finite, grown_kb = proc.stdout.split()
        assert finite == "True"
        assert int(grown_kb) < 32 * 1024


class TestSavgol:
    def test_degree_one_is_moving_average(self):
        c_value, _ = savgol_coefficients(9, 1)
        np.testing.assert_allclose(c_value, np.full(9, 1 / 9), atol=1e-12)

    def test_matches_per_window_least_squares(self):
        rng = np.random.default_rng(5)
        g = Grid.regular(120, 0.02)
        y = np.cos(3 * g.points) + 0.1 * rng.standard_normal(120)
        window, degree = 11, 4
        r = savgoldiff(Signal(g, y), window=window, degree=degree, post_smooth_sigma=None)
        half = window // 2
        for n in rng.integers(half, 120 - half, 15):
            sl = slice(n - half, n + half + 1)
            fit = np.polynomial.Polynomial.fit(g.points[sl], y[sl], degree)
            assert np.asarray(r.smoothed)[n] == pytest.approx(fit(g.points[n]), abs=1e-10)
            assert np.asarray(r.derivative)[n] == pytest.approx(
                fit.deriv()(g.points[n]), abs=1e-8)

    def test_polynomial_exactness(self):
        g = Grid.regular(60, 0.1)
        t = g.points
        y = 0.5 * t**3 - t**2 + 2
        dy = 1.5 * t**2 - 2 * t
        r = savgoldiff(Signal(g, y), window=11, degree=3, post_smooth_sigma=None)
        h = 5
        np.testing.assert_allclose(r.derivative[h:-h], dy[h:-h], atol=1e-8)

    def test_post_smoothing_reduces_jitter(self):
        rng = np.random.default_rng(6)
        g = Grid.regular(300, 0.01)
        y = np.sin(2 * np.pi * g.points) + 0.1 * rng.standard_normal(300)
        rough = savgoldiff(Signal(g, y), window=9, degree=3, post_smooth_sigma=None)
        smooth = savgoldiff(Signal(g, y), window=9, degree=3, post_smooth_sigma=4.0)
        tv = lambda v: np.sum(np.abs(np.diff(v)))
        assert tv(smooth.derivative) < tv(rough.derivative)

    def test_degree_at_least_window_rejected(self):
        with pytest.raises(ValidationError):
            savgol_coefficients(5, 5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_post_smooth_sigma_refused(self, value):
        s = Signal(Grid.regular(50, 0.01), np.zeros(50))
        with pytest.raises(ValidationError, match="post_smooth_sigma must be finite"):
            savgoldiff(s, window=9, degree=3, post_smooth_sigma=value)

    def test_negative_post_smooth_sigma_refused(self):
        s = Signal(Grid.regular(50, 0.01), np.zeros(50))
        with pytest.raises(ValidationError, match="post_smooth_sigma must be >= 0"):
            savgoldiff(s, window=9, degree=3, post_smooth_sigma=-1.0)

    def test_cached_rows_are_read_only(self):
        for row in smoothers._savgol_rows(9, 3):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0

    def test_row_cache_holds_every_registry_pair(self):
        # a savgol search meets 131-188 pairs on N = 400; at 128 entries half of a
        # search's lookups missed and recomputed a pseudoinverse
        s = Signal(Grid.regular(1000, 0.01), np.zeros(1000))
        params = {p.name: p for p in get_method("savgol").build_params(s)}
        windows = range(params["window"].lo, params["window"].hi + 1, 2)
        degrees = range(params["degree"].lo, params["degree"].hi + 1)
        assert len(windows) * len(degrees) <= smoothers._savgol_rows.cache_info().maxsize

    def test_caller_owns_the_coefficients(self):
        rng = np.random.default_rng(7)
        s = Signal(Grid.regular(100, 0.01), rng.standard_normal(100))
        before = savgoldiff(s, window=11, degree=3, post_smooth_sigma=None)
        c_value, c_slope = savgol_coefficients(11, 3)
        c_value[:] = 0.0
        c_slope[:] = 0.0
        after = savgoldiff(s, window=11, degree=3, post_smooth_sigma=None)
        np.testing.assert_array_equal(after.smoothed, before.smoothed)
        np.testing.assert_array_equal(after.derivative, before.derivative)
        assert savgol_coefficients(11, 3)[0].any()


class TestSplinediff:
    def test_interpolation_at_zero_lambda(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(0, 3, 40))
        y = np.sin(2 * t) + 0.1 * rng.standard_normal(40)
        r = splinediff(Signal(Grid(t), y), SplineSpec(degree=3, mode="lambda", lam=0.0,
                                                     iterations=1))
        np.testing.assert_allclose(r.smoothed, y, atol=1e-8)

    def test_huge_lambda_matches_linear_regression(self):
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(0, 4, 120))
        y = 0.7 * t - 1.0 + 0.2 * rng.standard_normal(120)
        r = splinediff(Signal(Grid(t), y), SplineSpec(degree=3, mode="lambda", lam=1e12,
                                                     iterations=1))
        design = np.column_stack([t, np.ones_like(t)])
        slope, intercept = np.linalg.lstsq(design, y, rcond=None)[0]
        line = slope * t + intercept
        scale = np.max(np.abs(line))
        assert np.max(np.abs(np.asarray(r.smoothed) - line)) < 1e-4 * scale
        np.testing.assert_allclose(r.derivative, slope, rtol=1e-3)

    def test_partition_of_unity(self):
        from scipy.interpolate import BSpline

        rng = np.random.default_rng(9)
        t = np.sort(rng.uniform(0, 1, 30))
        knots = np.concatenate([[t[0]] * 4, t[2:-2], [t[-1]] * 4])
        B = BSpline.design_matrix(t, knots, 3)
        np.testing.assert_allclose(np.asarray(B.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_output_is_c_degree_minus_one(self):
        # degree-3 fit: the second derivative has no jumps across knots
        rng = np.random.default_rng(10)
        t = np.linspace(0, 2, 60)
        y = np.sin(3 * t) + 0.05 * rng.standard_normal(60)
        r = splinediff(Signal(Grid(t), y), SplineSpec(degree=3, mode="lambda", lam=1e-4,
                                                             iterations=1))
        fit = BSpline(np.array(r.flags["spline"]["knots"]),
                      np.array(r.flags["spline"]["coefficients"]), 3)
        interior = np.unique(fit.t)[1:-1]
        eps = 1e-9
        scale = np.max(np.abs(fit(t, nu=2))) + 1e-12
        jumps = np.abs(fit(interior + eps, nu=2) - fit(interior - eps, nu=2))
        assert np.max(jumps) < 1e-6 * scale

    def test_bound_mode_meets_residual_target(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, 4, 150)
        y = np.sin(2 * np.pi * 0.8 * t) + 0.1 * rng.standard_normal(150)
        bound = 150 * 0.1**2 * 1.5
        r = splinediff(Signal(Grid(t), y), SplineSpec(degree=3, mode="bound", s=bound,
                                                             iterations=1))
        assert r.flags["bound_met"]
        resid = np.sum((np.asarray(r.smoothed) - y) ** 2)
        assert resid <= bound

    def test_bound_mode_infeasible_flag(self):
        # bound_met is False exactly when s is below the interpolant's residual sum of squares
        for k in (2, 3, 4, 5):
            for n in (12, 60, 400):
                rng = np.random.default_rng(10 * n + k)
                for name, t in _spline_grids(n, rng).items():
                    y = np.sin(2 * (t - t[0])) + 0.1 * rng.standard_normal(n)
                    interpolant = smoothers._solve_spline(t, y, k, 0.0)
                    floor = np.sum((y - interpolant(t)) ** 2)
                    for s in (0.0, 0.5 * floor, floor):
                        r = splinediff(Signal(Grid(t), y),
                                       SplineSpec(degree=k, mode="bound", s=s, iterations=1))
                        assert r.flags["bound_met"] == (s >= floor), (k, n, name, s, floor)
                        if not r.flags["bound_met"]:
                            assert r.flags["lam"] == 0.0
                            np.testing.assert_array_equal(r.smoothed, interpolant(t))

    def test_iterations_smooth_more(self):
        rng = np.random.default_rng(13)
        t = np.linspace(0, 4, 200)
        y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(200)
        one = splinediff(Signal(Grid(t), y), SplineSpec(degree=3, mode="lambda", lam=1e-5,
                                                       iterations=1))
        many = splinediff(Signal(Grid(t), y),
                          SplineSpec(degree=3, mode="lambda", lam=1e-5, iterations=4))
        tv = lambda v: np.sum(np.abs(np.diff(v)))
        assert tv(many.derivative) < tv(one.derivative)


def _spline_grids(n, rng):
    """Uniform, jittered (steps within 0.4-1.6 dt) and epoch-stamped grids on [0, 3]."""
    base = np.linspace(0.0, 3.0, n)
    jitter = rng.uniform(-0.3, 0.3, n) * base[1]
    jitter[[0, -1]] = 0.0
    return {"uniform": base, "jittered": base + jitter, "epoch": 1.7e9 + base}


def _dense(first, rows, m):
    out = np.zeros((len(first), m))
    for i, (f, r) in enumerate(zip(first, rows)):
        out[i, f : f + len(r)] = r
    return out


def _full_knots(t, k, interior):
    return np.concatenate([np.full(k + 1, t[0]), interior, np.full(k + 1, t[-1])])


def _dense_lstsq(t, y, knots, k, lam):
    """Coefficients of ``[B; sqrt(lam) K] alpha ~ [y; 0]`` by dense SVD least squares."""
    A, rhs = BSpline.design_matrix(t, knots, k).toarray(), y
    if lam > 0:
        K = sparse_curvature_factor(knots, k, len(knots) - k - 1).toarray()
        A, rhs = np.vstack([A, np.sqrt(lam) * K]), np.concatenate([y, np.zeros(len(K))])
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


def _bound_signal(n, seed):
    t = np.linspace(0.0, 4.0, n)
    return t, np.sin(2 * np.pi * 0.8 * t) + 0.1 * np.random.default_rng(seed).standard_normal(n)


_LAMS = (0.0, 1e-9, 1e-3, 1.0, 1e3, 1e9)


class TestSplineAgainstSparse:
    """The banded augmented least-squares solve against the SuperLU solve it replaced."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_lambda_mode_matches_superlu(self, k):
        for n in (12, 60, 400):
            rng = np.random.default_rng(10 * n + k)
            for name, t in _spline_grids(n, rng).items():
                y = np.sin(2 * (t - t[0])) + 0.1 * rng.standard_normal(n)
                for lam in _LAMS:
                    got = smoothers._solve_spline(t, y, k, lam)
                    ref = superlu_solve_spline(t, y, k, lam)
                    for nu in (0, 1):
                        scale = np.max(np.abs(ref(t, nu=nu)))
                        err = np.max(np.abs(got(t, nu=nu) - ref(t, nu=nu)))
                        assert err <= 1e-10 * scale, (name, n, lam, nu, err / scale)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_no_farther_than_superlu_from_dense_least_squares(self, k):
        # includes sorted uniform draws, whose near-coincident samples make
        # degree-5 interpolation ill-conditioned enough to separate the solves
        for n in (12, 60, 400):
            rng = np.random.default_rng(10 * n + k)
            grids = _spline_grids(n, rng)
            grids["random"] = np.sort(rng.uniform(0.0, 3.0, n))
            for name, t in grids.items():
                y = np.sin(2 * (t - t[0])) + 0.1 * rng.standard_normal(n)
                for lam in _LAMS:
                    got = smoothers._solve_spline(t, y, k, lam)
                    ref = superlu_solve_spline(t, y, k, lam)
                    best = _dense_lstsq(t, y, got.t, k, lam)
                    scale = np.max(np.abs(best))
                    ours = np.max(np.abs(got.c - best)) / scale
                    theirs = np.max(np.abs(ref.c - best)) / scale
                    assert ours <= 2 * theirs + 1e-13, (name, n, lam, ours, theirs)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_curvature_rows_match_sparse_factor(self, k):
        for n in (12, 60, 400):
            rng = np.random.default_rng(10 * n + k)
            grids = _spline_grids(n, rng)
            grids["random"] = np.sort(rng.uniform(0.0, 3.0, n))
            for name, t in grids.items():
                knot_sets = (smoothers._site_knots(t, k),
                             _full_knots(t, k, np.sort(rng.choice(t[1:-1], max(1, n // 5),
                                                                   replace=False))))
                for knots in knot_sets:
                    m = len(knots) - k - 1
                    ref = sparse_curvature_factor(knots, k, m).toarray()
                    got = _dense(*smoothers._curvature_rows(knots, k), m)
                    assert got.shape == ref.shape
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())



class TestSplineSystemCache:
    """``_solve_spline`` assembles its system once per grid, degree and lam > 0."""

    def test_epoch_shift_is_another_system_equal_to_a_fresh_build(self):
        n, k = 200, 3
        y = np.sin(np.linspace(0.0, 3.0, n))
        for t0 in (0.0, 1.7e9):
            t = t0 + np.linspace(0.0, 3.0, n)
            smoothers._spline_system.cache_clear()
            fresh = smoothers._solve_spline(t, y, k, 1e-3)
            again = smoothers._solve_spline(t, y, k, 1e-3)
            info = smoothers._spline_system.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            np.testing.assert_array_equal(again.c, fresh.c)
            np.testing.assert_array_equal(again.t, fresh.t)
            cached = smoothers._spline_system(t.tobytes(), k, True)
            built = smoothers._spline_system.__wrapped__(t.tobytes(), k, True)
            for a, b in zip(cached, built, strict=True):
                np.testing.assert_array_equal(a, b)
        # the two grids differ only past 1e9: the shifted one missed the cache
        smoothers._spline_system.cache_clear()
        smoothers._solve_spline(np.linspace(0.0, 3.0, n), y, k, 1e-3)
        smoothers._solve_spline(1.7e9 + np.linspace(0.0, 3.0, n), y, k, 1e-3)
        assert smoothers._spline_system.cache_info().misses == 2

    def test_holds_at_most_one_system(self):
        y = np.sin(np.linspace(0.0, 3.0, 100))
        for t in (np.linspace(0.0, 3.0, 100), np.linspace(1.0, 4.0, 100)):
            for lam in (0.0, 1e-3):
                smoothers._solve_spline(t, y, 3, lam)
                assert smoothers._spline_system.cache_info().currsize <= 1

    def test_cached_arrays_are_read_only(self):
        t = np.linspace(0.0, 3.0, 50)
        fit = smoothers._solve_spline(t, np.cos(t), 3, 1e-2)
        system = smoothers._spline_system(t.tobytes(), 3, True)
        for part in (system.knots, system.where, system.index, system.b_vals, system.k_vals):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0
        assert fit(t).shape == t.shape

    def test_lam_only_scales_the_curvature_rows(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 3.0, 80))
        y = np.sin(t) + 0.1 * rng.standard_normal(80)
        for lam in (1e-6, 1e-2, 1e3):
            smoothers._spline_system.cache_clear()
            fresh = smoothers._solve_spline(t, y, 4, lam)
            smoothers._solve_spline(t, y, 4, 7.0)  # warm, at another lam
            np.testing.assert_array_equal(smoothers._solve_spline(t, y, 4, lam).c, fresh.c)


class TestSplineAgainstBincount:
    """The entries scattered straight into the LU workspace against the band that
    ``np.bincount`` summed and ``core._solve_banded`` copied, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_lambda_mode_bitwise(self, k):
        rng = np.random.default_rng(50 + k)
        for n in (k + 2, k + 3, 600):
            for name, t in oracle_grids(n, rng).items():
                y = np.sin(2 * np.pi * (t - t[0])) + 0.1 * rng.standard_normal(n)
                y[0] = -0.0
                for lam in (0.0, 1e-9, 1e-3, 1e9):
                    got = smoothers._solve_spline(t, y, k, lam)
                    want = bincount_solve_spline(t, y, k, lam)
                    np.testing.assert_array_equal(got.t, want.t)
                    assert np.array_equal(got.c, want.c), (name, n, lam)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_bound_mode_bitwise(self, monkeypatch, k):
        rng = np.random.default_rng(60 + k)
        for name, t in oracle_grids(600, rng).items():
            y = np.sin(2 * np.pi * (t - t[0])) + 0.1 * rng.standard_normal(600)
            spec = SplineSpec(degree=k, mode="bound", s=600 * 0.1**2, iterations=1)
            got = splinediff(Signal(Grid(t), y), spec)
            with monkeypatch.context() as patch:
                patch.setattr(smoothers, "_solve_spline", bincount_solve_spline)
                want = splinediff(Signal(Grid(t), y), spec)
            assert np.array_equal(got.smoothed, want.smoothed), name
            assert np.array_equal(got.derivative, want.derivative), name
            assert got.flags == want.flags

    def test_singular_system_names_itself(self, monkeypatch):
        # with every basis value zero the coefficients are unconstrained
        t = np.linspace(0.0, 3.0, 40)
        system = smoothers._spline_system.__wrapped__(t.tobytes(), 3, False)
        monkeypatch.setattr(smoothers, "_spline_system",
                            lambda *_: system._replace(b_vals=np.zeros_like(system.b_vals)))
        with pytest.raises(NumericError, match=r"^singular spline system \(zero pivot\)$"):
            smoothers._solve_spline(t, np.sin(t), 3, 0.0)


def _line_rss(t, y):
    """Residual sum of squares and slope of the least-squares line."""
    x = t - t.mean()
    slope = (x @ y) / (x @ x)
    return np.sum((y - y.mean() - slope * x) ** 2), slope


class TestBoundMode:
    """Bound mode is Reinsch's spline: the lambda-mode fit at the lam where RSS(lam) = s."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_meets_the_bound_as_the_lambda_fit_at_its_lam(self, monkeypatch, k):
        banded, solves = smoothers._solve_spline, []
        monkeypatch.setattr(smoothers, "_solve_spline",
                            lambda *args: solves.append(args) or banded(*args))
        for n in (12, 60, 400):
            rng = np.random.default_rng(10 * n + k)
            for name, t in _spline_grids(n, rng).items():
                y = np.sin(2 * (t - t[0])) + 0.1 * rng.standard_normal(n)
                line, _ = _line_rss(t, y)
                for s in (1e-4 * line, 0.01 * n, 0.5 * line, 0.9 * line):
                    solves.clear()
                    r = splinediff(Signal(Grid(t), y),
                                   SplineSpec(degree=k, mode="bound", s=s, iterations=1))
                    rss = np.sum((r.smoothed - y) ** 2)
                    case = (name, n, s, rss / s, len(solves))
                    assert r.flags["bound_met"] and r.flags["lam"] > 0, case
                    assert (1 - 1e-6) * s <= rss <= s, case
                    assert len(solves) <= 20, case
                    fit = banded(t, y, k, r.flags["lam"])
                    np.testing.assert_array_equal(fit.c, r.flags["spline"]["coefficients"])
                    np.testing.assert_array_equal(fit(t), r.smoothed)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_the_line_when_it_meets_the_bound(self, k):
        for n in (12, 60, 400):
            rng = np.random.default_rng(10 * n + k)
            for name, t in _spline_grids(n, rng).items():
                y = np.sin(2 * (t - t[0])) + 0.1 * rng.standard_normal(n)
                line, slope = _line_rss(t, y)
                for s in ((1 + 1e-9) * line, 10 * line):
                    r = splinediff(Signal(Grid(t), y),
                                   SplineSpec(degree=k, mode="bound", s=s, iterations=1))
                    assert r.flags["lam"] is None and r.flags["bound_met"], (name, n)
                    assert len(r.flags["spline"]["knots"]) == 2 * (k + 1)
                    assert np.sum((r.smoothed - y) ** 2) <= s
                    np.testing.assert_allclose(r.derivative, slope, rtol=1e-9)
                    fitted = y.mean() + slope * (t - t.mean())
                    np.testing.assert_allclose(r.smoothed, fitted, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_bound_mode_matches_the_superlu_oracle(self, monkeypatch, k):
        for n, irregular in ((60, False), (60, True), (150, False), (150, True)):
            t, y = _bound_signal(2 * n if irregular else n, k)
            if irregular:  # a random half of a grid twice as fine
                keep = np.sort(np.random.default_rng(n).choice(2 * n, n, replace=False))
                t, y = t[keep], y[keep]
            for bound in (0.015 * n, 0.008 * n):
                got = splinediff(Signal(Grid(t), y),
                                 SplineSpec(degree=k, mode="bound", s=bound, iterations=1))
                with monkeypatch.context() as patch:
                    patch.setattr(smoothers, "_solve_spline", superlu_solve_spline)
                    ref = splinediff(Signal(Grid(t), y),
                                     SplineSpec(degree=k, mode="bound", s=bound, iterations=1))
                assert got.flags["lam"] == pytest.approx(ref.flags["lam"], rel=1e-5)
                for field in ("smoothed", "derivative"):
                    want = getattr(ref, field)
                    np.testing.assert_allclose(getattr(got, field), want, rtol=0,
                                               atol=1e-6 * np.max(np.abs(want)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_ends_early_where_rss_is_flat(self, monkeypatch, k):
        # s within 1e-9 of the line's RSS, where RSS(lam) is flat to rounding at large lam
        banded, solves = smoothers._solve_spline, []
        monkeypatch.setattr(smoothers, "_solve_spline",
                            lambda *args: solves.append(args) or banded(*args))
        for n in (12, 60, 400):
            rng = np.random.default_rng(10 * n + k)
            for name, t in _spline_grids(n, rng).items():
                y = np.sin(2 * (t - t[0])) + 0.1 * rng.standard_normal(n)
                line, _ = _line_rss(t, y)
                for s in ((1 - 1e-9) * line, (1 - 1e-13) * line):
                    solves.clear()
                    r = splinediff(Signal(Grid(t), y),
                                   SplineSpec(degree=k, mode="bound", s=s, iterations=1))
                    rss = np.sum((r.smoothed - y) ** 2)
                    case = (name, n, s, rss / s, len(solves))
                    assert r.flags["bound_met"], case
                    assert rss <= s * (1 + 1e-6), case
                    assert len(solves) <= 16, case

    def test_degree_one_has_no_curvature_penalty(self):
        with pytest.raises(ValidationError, match="curvature penalty needs degree >= 2"):
            SplineSpec(degree=1, mode="bound", s=1.0, iterations=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_lam_refused(self, value):
        with pytest.raises(ValidationError, match="lam must be finite"):
            SplineSpec(degree=3, lam=value, iterations=1)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_bound_refused(self, value):
        with pytest.raises(ValidationError, match="s must be finite"):
            SplineSpec(degree=3, mode="bound", s=value, iterations=1)

    def test_infinite_bound_is_the_line(self):
        rng = np.random.default_rng(3)
        t = 0.01 * np.arange(60)
        y = np.sin(2 * t) + 0.1 * rng.standard_normal(60)
        r = splinediff(Signal(Grid(t), y), SplineSpec(degree=3, mode="bound", s=np.inf,
                                                     iterations=1))
        assert r.flags["lam"] is None and r.flags["bound_met"]
        np.testing.assert_allclose(r.derivative, _line_rss(t, y)[1], rtol=1e-9)

    def test_long_noisy_quintic(self):
        # degree 5 on a long noisy record of sin(t), dt = 0.01
        n = 4000
        t = 0.01 * np.arange(n)
        y = np.sin(t) + 0.1 * np.random.default_rng(1).standard_normal(n)
        r = splinediff(Signal(Grid.regular(n, 0.01), y), SplineSpec(degree=5, mode="bound",
                                                                      s=0.012 * n, iterations=1))
        assert np.sqrt(np.mean((r.derivative - np.cos(t)) ** 2)) <= 0.1


class TestRbfdiff:
    def test_eigenvalue_shift_identity(self):
        rng = np.random.default_rng(14)
        M = rng.standard_normal((50, 50))
        A = 0.5 * (M + M.T)
        lam = 0.7
        shifted = np.linalg.eigvalsh(A + lam * np.eye(50))
        np.testing.assert_allclose(shifted, np.linalg.eigvalsh(A) + lam, atol=1e-8)

    def test_constant_signal_interior(self):
        g = Grid.regular(100, 0.01)
        s = Signal(g, np.full(100, 2.0))
        r = rbfdiff(s, sigma=0.05, rho=0.25, damping=0.1)
        interior = slice(15, -15)
        np.testing.assert_allclose(np.asarray(r.smoothed)[interior], 2.0, rtol=0.01)

    def test_damping_reduces_condition_number(self):
        n, dt = 100, 0.01
        t = dt * np.arange(n)
        sigma = 5 * dt
        rho = sigma * np.sqrt(2 * np.log(1e4))  # kernel truncated below 1e-4
        gaps = np.abs(t[:, None] - t[None, :])
        A = np.where(gaps < rho, np.exp(-0.5 * (gaps / sigma) ** 2), 0.0)
        cond_raw = np.linalg.cond(A)
        cond_damped = np.linalg.cond(A + 0.1 * np.eye(n))
        assert cond_raw / cond_damped >= 1e4

    def test_smooths_noise(self):
        rng = np.random.default_rng(15)
        g = Grid.regular(300, 0.01)
        truth_deriv = 2 * np.pi * np.cos(2 * np.pi * g.points)
        y = np.sin(2 * np.pi * g.points) + 0.1 * rng.standard_normal(300)
        r = rbfdiff(Signal(g, y), sigma=0.08, rho=0.35, damping=0.1)
        sl = slice(30, -30)
        err = np.sqrt(np.mean((np.asarray(r.derivative)[sl] - truth_deriv[sl]) ** 2))
        assert err < 0.35 * np.sqrt(np.mean(truth_deriv**2))

    def test_rho_must_exceed_sigma(self):
        s = Signal(Grid.regular(50, 0.1), np.zeros(50))
        with pytest.raises(ValidationError):
            rbfdiff(s, sigma=0.5, rho=0.3, damping=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["sigma", "rho", "damping"])
    def test_non_finite_setting_refused(self, field, value):
        s = Signal(Grid.regular(50, 0.1), np.zeros(50))
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            rbfdiff(s, **{"sigma": 0.3, "rho": 1.0, "damping": 0.0, field: value})

    def test_irregular_grid(self):
        rng = np.random.default_rng(16)
        t = np.cumsum(rng.uniform(0.005, 0.02, 200))
        truth = np.sin(2 * t)
        s = Signal(Grid(t), truth + 0.05 * rng.standard_normal(200))
        r = rbfdiff(s, sigma=0.1, rho=0.45, damping=0.05)
        sl = slice(20, -20)
        err = np.sqrt(np.mean((np.asarray(r.derivative)[sl] - 2 * np.cos(2 * t)[sl]) ** 2))
        assert err < 0.4 * np.sqrt(np.mean(4 * np.cos(2 * t) ** 2))


_RBF_GRIDS = {
    "uniform": Grid.regular(400, 0.01),
    # half of 6000 samples at dt = 0.005 dropped at random
    "irregular": Grid(0.005 * np.sort(np.random.default_rng(40).choice(6000, 3000, replace=False))),
}


def _rbf_signal(kind):
    g = _RBF_GRIDS[kind]
    noise = 0.1 * np.random.default_rng(41).standard_normal(len(g))
    return Signal(g, np.sin(3 * g.points) + noise)


class TestRbfAgainstDense:
    """The banded assembly against the dense N x N oracle."""

    @pytest.mark.parametrize("damping", [1e-8, 0.1, 10.0])
    @pytest.mark.parametrize("width", ["1.5dt", "8dt", "span/8"])
    @pytest.mark.parametrize("kind", ["uniform", "irregular"])
    def test_matches_dense_oracle(self, kind, width, damping):
        s = _rbf_signal(kind)
        span = s.grid.span
        dt = span / (len(s) - 1)
        sigma = {"1.5dt": 1.5 * dt, "8dt": 8 * dt, "span/8": span / 8}[width]
        rho = RBF_TRUNCATION_FACTOR * sigma
        ref = dense_rbf(s.grid.points, s.values, sigma, rho, damping)
        out = rbfdiff(s, sigma=sigma, rho=rho, damping=damping)
        if width == "8dt":
            # the truncated kernel matrix is indefinite: at damping 1e-8 its banded
            # Cholesky breaks down and the pivoting LU solves it instead
            assert out.flags["lu_steps"] == (damping < 0.1)
        for got, want, weights in ((out.smoothed, ref.smoothed, ref.A),
                                   (out.derivative, ref.derivative, ref.Adot)):
            err = np.max(np.abs(got - want))
            if damping >= 0.1:
                assert err <= 1e-12 * np.max(np.abs(want))
            else:
                # cond(M) reaches 1e8-1e13 here, so the coefficients are large
                # and both products cancel: they are fixed only to the rounding
                # of a sum, a few eps * (|W| |coef|), whatever its order.
                bound = np.max(np.abs(weights) @ np.abs(ref.coef))
                assert err <= 4 * np.finfo(float).eps * bound

    def test_matches_extended_precision_reference(self):
        # the case nearest its oracle bound above: cond(M) ~ 1e4 on 3000 irregular samples.
        # Measured relative errors: smoothed 2.0e-13 as y - damping c (5.3e-13 as the
        # product A c, 6.7e-13 for the dense oracle), derivative 2.0e-13 (oracle 9.8e-14).
        s = _rbf_signal("irregular")
        sigma = s.grid.span / 8
        rho = RBF_TRUNCATION_FACTOR * sigma
        smoothed, derivative = extended_rbf(s.grid.points, s.values, sigma, rho, 0.1)
        out = rbfdiff(s, sigma=sigma, rho=rho, damping=0.1)
        assert out.flags["lu_steps"] == 0
        for got, want in ((out.smoothed, smoothed), (out.derivative, derivative)):
            assert np.max(np.abs(got - want)) <= 5e-13 * np.max(np.abs(want))

    def test_radius_below_smallest_gap_is_diagonal(self):
        s = _rbf_signal("uniform")
        ref = dense_rbf(s.grid.points, s.values, 0.002, 0.004, 0.1)
        assert ref.half_bw == 0
        out = rbfdiff(s, sigma=0.002, rho=0.004, damping=0.1)
        np.testing.assert_allclose(out.smoothed, ref.smoothed, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(out.derivative, 0.0)

    def test_failed_solve_reports_band_condition_estimate(self, monkeypatch):
        # damping 1e-8 breaks the Cholesky down, so the LU fallback runs and fails here
        s = _rbf_signal("uniform")

        def lapack_with_failing_solve(names, arrays):
            funcs = get_lapack_funcs(names, arrays)
            if names != ("gbsv", "gbcon"):
                return funcs
            gbsv, gbcon = funcs

            def gbsv_nan(*args, **kwargs):
                lu, piv, x, info = gbsv(*args, **kwargs)
                return lu, piv, np.full_like(x, np.nan), info

            return gbsv_nan, gbcon

        monkeypatch.setattr(core, "get_lapack_funcs", lapack_with_failing_solve)
        with pytest.raises(NumericError, match="banded radial-basis solve failed") as exc:
            rbfdiff(s, sigma=0.05, rho=0.25, damping=1e-8)
        estimate = float(re.search(r"condition estimate ([^)]+)\)", str(exc.value)).group(1))
        cond1 = np.linalg.cond(dense_rbf(s.grid.points, s.values, 0.05, 0.25, 1e-8).M, 1)
        # LAPACK's 1-norm estimate is a lower bound, printed to three digits
        assert cond1 / 10 <= estimate <= 1.01 * cond1

    def test_singular_system_raises(self):
        # sigma far above the span rounds every kernel entry to 1: A is all ones
        s = Signal(Grid.regular(20, 0.01), np.arange(20.0))
        with pytest.raises(NumericError, match="condition estimate inf"):
            rbfdiff(s, sigma=1e9, rho=2e9, damping=0.0)

    def test_1e5_irregular_samples_in_bounded_memory(self):
        # The dense assembly needed 80 GB per N x N matrix here.
        finite, peak_kb = _rbf_in_child("""
            rng = np.random.default_rng(0)
            t = 0.005 * np.sort(rng.choice(200_000, 100_000, replace=False))
            y = np.sin(t) + 0.1 * rng.standard_normal(len(t))
            out = apply_method("rbf", Signal(Grid(t), y))
        """)
        assert finite
        assert peak_kb < 500 * 1024

    def test_1e6_uniform_samples_in_bounded_memory(self):
        # The LU beside the full band and the gaps, 7b + 3 rows of N in all, peaked at ~2 GB.
        finite, peak_kb = _rbf_in_child("""
            t = 0.01 * np.arange(1_000_000)
            y = np.sin(t) + 0.1 * np.random.default_rng(0).standard_normal(len(t))
            out = apply_method("rbf", Signal(Grid(t), y))
        """)
        assert finite
        assert peak_kb <= 800 * 1024


def _rbf_in_child(body: str) -> tuple[bool, int]:
    """Run ``body``, which sets ``out`` to an ``rbf`` result, in a fresh interpreter.
    Returns whether ``out`` is finite and the child's peak resident memory in kB, its
    VmHWM: ru_maxrss keeps the high-water mark of the test process that started it,
    which the oracle cases above push past 600 MB."""
    script = textwrap.dedent("""
        import re
        from pathlib import Path
        import numpy as np
        from derivkit import Grid, Signal, apply_method, get_method
    """) + textwrap.dedent(body) + textwrap.dedent("""
        finite = np.all(np.isfinite(out.smoothed)) and np.all(np.isfinite(out.derivative))
        peak_kb = re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text())[1]
        print(bool(finite), peak_kb)
    """)
    src = str(Path(derivkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300, check=True)
    finite, peak_kb = proc.stdout.split()
    return finite == "True", int(peak_kb)


class TestRbfSigmaBound:
    """The registry's sigma range: span/8, capped at 64 steps."""

    @pytest.mark.parametrize("n", [16, 256, 400, 513])
    def test_unchanged_up_to_513_samples(self, n):
        g = Grid.regular(n, 0.01)
        sigma = {p.name: p for p in get_method("rbf").build_params(Signal(g, np.zeros(n)))}["sigma"]
        dt = g.span / (n - 1)
        assert (sigma.lo, sigma.hi, sigma.default) == (1.5 * dt, g.span / 8, 8 * dt)

    def test_capped_at_64_steps(self):
        g = Grid.regular(10_000, 0.01)
        sigma = {p.name: p for p in get_method("rbf").build_params(Signal(g, np.zeros(10_000)))}
        dt = g.span / 9999
        assert (sigma["sigma"].hi, sigma["sigma"].default) == (64 * dt, 8 * dt)

    def test_upper_bound_on_1e4_irregular_samples_in_bounded_memory(self):
        # at span/8 the half-bandwidth here would be ~5000 samples: a band wider than the matrix
        finite, peak_kb = _rbf_in_child("""
            rng = np.random.default_rng(1)
            t = 0.005 * np.sort(rng.choice(20_000, 10_000, replace=False))
            s = Signal(Grid(t), np.sin(t) + 0.1 * rng.standard_normal(len(t)))
            hi = {p.name: p for p in get_method("rbf").build_params(s)}["sigma"].hi
            out = apply_method("rbf", s, {"sigma": hi})
        """)
        assert finite
        assert peak_kb < 500 * 1024


class TestConstantsMapToConstants:
    """Unit-DC-gain smoothers leave a constant signal alone (derivative ~ 0).

    The damped radial basis fit is excluded: damping deliberately trades DC
    fidelity for conditioning, so constants survive only to ~1% on the
    interior (covered in TestRbfdiff).
    """

    @pytest.mark.parametrize("runner", [
        lambda s: kerneldiff(s, KernelSpec(kind="friedrichs", window=9, sigma=2.0)),
        lambda s: butterdiff(s, order=3, cutoff_hz=2.0),
        lambda s: polydiff(s, window=25, stride=10, degree=4),
        lambda s: savgoldiff(s, window=13, degree=4, post_smooth_sigma=2.0),
        lambda s: splinediff(s, SplineSpec(degree=3, mode="lambda", lam=1e-2, iterations=1)),
    ], ids=["kernel", "butter", "poly", "savgol", "spline"])
    def test_constant(self, runner):
        s = Signal(Grid.regular(120, 0.01), np.full(120, 3.7))
        r = runner(s)
        np.testing.assert_allclose(r.derivative, 0.0, atol=1e-9 * 3.7 / 0.01)
        np.testing.assert_allclose(r.smoothed, 3.7, rtol=1e-6)


class TestLinearTrendEquivariance:
    """Adding a*t + b shifts every method's derivative by exactly a (interior)."""

    a, b = 1.7, -0.9

    def _check(self, runner, margin):
        rng = np.random.default_rng(17)
        g = Grid.regular(240, 0.01)
        y = np.sin(2 * np.pi * g.points) + 0.05 * rng.standard_normal(240)
        base = np.asarray(runner(Signal(g, y)).derivative)
        trended = np.asarray(runner(Signal(g, y + self.a * g.points + self.b)).derivative)
        sl = slice(margin, -margin) if margin else slice(None)
        np.testing.assert_allclose(trended[sl] - base[sl], self.a, atol=1e-6)

    def test_kernel(self):
        self._check(lambda s: kerneldiff(s, KernelSpec(kind="gaussian", window=11,
                                                       sigma=2.0)), margin=12)

    def test_butter(self):
        self._check(lambda s: butterdiff(s, order=2, cutoff_hz=3.0), margin=20)

    def test_savgol(self):
        self._check(lambda s: savgoldiff(s, window=15, degree=3, post_smooth_sigma=None),
                    margin=16)

    def test_poly(self):
        self._check(lambda s: polydiff(s, window=40, stride=20, degree=3), margin=0)

    def test_spline(self):
        self._check(lambda s: splinediff(s, SplineSpec(degree=3, mode="lambda", lam=1e-5,
                                                       iterations=1)),
                    margin=0)
