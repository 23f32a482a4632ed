import itertools

import numpy as np
import pytest

from derivkit import (
    Grid,
    Signal,
    UnsupportedMethodError,
    ValidationError,
    cheb_nodes,
    chebyshev_derivative,
    fourier_derivative,
    fourier_extension_derivative,
    fourier_lowpass,
    power_spectrum,
)
from derivkit.core import _reflect_pad
from derivkit.spectral import _fourier_pass
from spectral_reference import extended, fourier_pass


def periodic_signal(fn, n=64, span=2 * np.pi):
    theta = span / n * np.arange(n)
    return Signal(Grid(theta), fn(theta)), theta


class TestFourierDerivative:
    def test_sine_first_derivative(self):
        s, theta = periodic_signal(np.sin, n=32)
        r = fourier_derivative(s, nu=1)
        assert np.max(np.abs(r.derivative - np.cos(theta))) < 1e-10

    def test_constant_any_order(self):
        s = Signal(Grid.regular(16, 0.25), np.full(16, 3.3))
        for nu in (1, 2, 3):
            r = fourier_derivative(s, nu=nu)
            np.testing.assert_allclose(r.derivative, 0.0, atol=1e-12)

    def test_sine_second_derivative(self):
        s, theta = periodic_signal(np.sin, n=32)
        r = fourier_derivative(s, nu=2)
        assert np.max(np.abs(r.derivative + np.sin(theta))) < 1e-10

    def test_rescaling_other_interval(self):
        # y = sin(2*pi*f*t) on [0, 1) sampled at 64 points
        t = np.arange(64) / 64
        s = Signal(Grid(t), np.sin(2 * np.pi * 3 * t))
        r = fourier_derivative(s, nu=1)
        np.testing.assert_allclose(r.derivative, 6 * np.pi * np.cos(2 * np.pi * 3 * t),
                                   atol=1e-8)

    def test_retained_modes_analytic(self):
        for k in (1, 2, 5, 10):
            s, theta = periodic_signal(lambda th: np.sin(k * th), n=64)
            r = fourier_derivative(s, nu=1)
            np.testing.assert_allclose(r.derivative, k * np.cos(k * theta), atol=1e-9)

    def test_nyquist_bin_zero_for_odd_order(self):
        n = 16
        s, theta = periodic_signal(lambda th: np.cos(8 * th), n=n)  # pure Nyquist mode
        r = fourier_derivative(s, nu=1)
        np.testing.assert_allclose(r.derivative, 0.0, atol=1e-10)

    def test_nyquist_bin_kept_for_even_order(self):
        n = 16
        s, theta = periodic_signal(lambda th: np.cos(8 * th), n=n)
        r = fourier_derivative(s, nu=2)
        np.testing.assert_allclose(r.derivative, -64 * np.cos(8 * theta), atol=1e-9)

    def test_irregular_rejected(self):
        g = Grid([0.0, 0.1, 0.25, 0.5, 0.6, 0.9])
        with pytest.raises(UnsupportedMethodError):
            fourier_derivative(Signal(g, np.zeros(6)))

    def test_parseval(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(128)
        coef = np.fft.fft(y)
        assert np.sum(y**2) == pytest.approx(np.sum(np.abs(coef) ** 2) / 128, rel=1e-10)

    def test_transform_round_trip(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(97)
        np.testing.assert_allclose(np.fft.ifft(np.fft.fft(y)).real, y, atol=1e-12)


class TestFourierLowpass:
    def test_retained_mode_unchanged(self):
        s, theta = periodic_signal(lambda th: np.sin(2 * th), n=64)
        out = fourier_lowpass(s, keep_modes=5)
        np.testing.assert_allclose(out.values, s.values, atol=1e-12)

    def test_removed_mode_zeroed(self):
        s, theta = periodic_signal(lambda th: np.sin(10 * th), n=64)
        out = fourier_lowpass(s, keep_modes=5)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_linearity_splits_modes(self):
        s, theta = periodic_signal(lambda th: np.sin(2 * th) + np.sin(10 * th), n=64)
        out = fourier_lowpass(s, keep_modes=5)
        np.testing.assert_allclose(out.values, np.sin(2 * theta), atol=1e-12)

    def test_keep_modes_bounds(self):
        s, _ = periodic_signal(np.sin, n=16)
        with pytest.raises(ValidationError):
            fourier_lowpass(s, keep_modes=0)
        with pytest.raises(ValidationError):
            fourier_lowpass(s, keep_modes=9)


class TestAgainstComplexReference:
    """The real-FFT pass against the complex-FFT oracle with exact integer wavenumbers."""

    DTS = (0.01, 0.37)
    NUS = (None, 1, 2, 3)

    @staticmethod
    def keep_modes_values(m):
        return [None] + sorted({km for km in (1, 2, m // 4, m // 2, 25, 69) if 1 <= km <= m / 2})

    @staticmethod
    def assert_close(got, want, m, y, dt, nu):
        tol = 4 * np.finfo(float).eps * m * np.max(np.abs(y)) * (np.pi / dt) ** (nu or 0)
        assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 64, 101, 107, 400, 998, 1000])
    def test_periodic_pass_matches_reference(self, n):
        y = np.random.default_rng(n).standard_normal(n)
        for dt, nu in itertools.product(self.DTS, self.NUS):
            s = Signal(Grid.regular(n, dt), y)
            for keep_modes in self.keep_modes_values(n):
                smoothed, deriv = fourier_pass(y, dt, nu, keep_modes)
                if nu is None:
                    if keep_modes is not None:
                        got = fourier_lowpass(s, keep_modes).values
                        self.assert_close(got, smoothed, n, y, dt, None)
                    continue
                r = fourier_derivative(s, nu=nu, keep_modes=keep_modes)
                self.assert_close(r.derivative, deriv, n, y, dt, nu)
                if keep_modes is not None:
                    self.assert_close(r.smoothed, smoothed, n, y, dt, None)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 64, 101, 107, 400, 998, 1000])
    def test_extension_matches_reference(self, n):
        y = np.random.default_rng(n).standard_normal(n)
        for dt, nu, (extension, pad) in itertools.product(
                self.DTS, self.NUS[1:], (("even", n // 8), ("even", 0), ("none", 0))):
            s = Signal(Grid.regular(n, dt), y)
            ext = extended(y, pad, extension)
            m = len(ext)
            if m < 4:
                continue
            for keep_modes in self.keep_modes_values(m):
                smoothed, deriv = fourier_pass(ext, dt, nu, keep_modes)
                r = fourier_extension_derivative(s, pad=pad, extension=extension,
                                                 keep_modes=keep_modes, nu=nu)
                self.assert_close(r.derivative, deriv[pad : pad + n], m, ext, dt, nu)
                self.assert_close(r.smoothed, smoothed[pad : pad + n], m, ext, dt, None)

    def test_mode_at_keep_modes_is_removed(self):
        # 107 samples: fftfreq(107) * 107 holds 25 as 24.999999999999996, so a float
        # wavenumber table kept mode 25 through a low-pass at keep_modes = 25
        n = 107
        s = Signal(Grid.regular(n, 0.01), np.cos(2 * np.pi * 25 * np.arange(n) / n))
        assert np.max(np.abs(fourier_lowpass(s, 25).values)) < 1e-12
        assert np.max(np.abs(fourier_derivative(s, keep_modes=25).derivative)) < 1e-10


class TestChebNodes:
    def test_three_nodes(self):
        np.testing.assert_allclose(cheb_nodes(3), [1.0, 0.0, -1.0], atol=1e-15)

    def test_two_nodes(self):
        np.testing.assert_allclose(cheb_nodes(2), [1.0, -1.0], atol=1e-15)

    def test_endpoints_exact(self):
        for n in (2, 5, 17, 100):
            nodes = cheb_nodes(n)
            assert nodes[0] == 1.0
            assert nodes[-1] == -1.0


class TestChebyshevDerivative:
    def test_identity_function(self):
        x = cheb_nodes(16)
        r = chebyshev_derivative(x, -1.0, 1.0)
        np.testing.assert_allclose(r.derivative, 1.0, atol=1e-12)

    def test_t2_gives_4x(self):
        # y = 2x^2 - 1 is the second Chebyshev polynomial; dy/dx = 4x
        x = cheb_nodes(16)
        r = chebyshev_derivative(2 * x**2 - 1, -1.0, 1.0)
        np.testing.assert_allclose(r.derivative, 4 * x, atol=1e-12)

    def test_exp_sin_noiseless(self):
        x = cheb_nodes(100)
        y = np.exp(x) * np.sin(5 * x)
        r = chebyshev_derivative(y, -1.0, 1.0)
        truth = np.exp(x) * (np.sin(5 * x) + 5 * np.cos(5 * x))
        rel = np.max(np.abs(r.derivative - truth)) / np.max(np.abs(truth))
        assert rel < 1e-6

    def test_affine_interval(self):
        a, b = 1.5, 4.0
        x = (a + b) / 2 + (b - a) / 2 * cheb_nodes(64)
        r = chebyshev_derivative(np.sin(x), a, b, points=x)
        np.testing.assert_allclose(r.derivative, np.cos(x), atol=1e-10)

    def test_second_derivative(self):
        x = cheb_nodes(64)
        r = chebyshev_derivative(np.sin(3 * x), nu=2)
        np.testing.assert_allclose(r.derivative, -9 * np.sin(3 * x), atol=1e-8)

    def test_ascending_points_accepted(self):
        x_desc = cheb_nodes(32)
        x_asc = x_desc[::-1]
        y_asc = np.exp(x_asc)
        r = chebyshev_derivative(y_asc, -1.0, 1.0, points=x_asc)
        np.testing.assert_allclose(r.derivative, np.exp(x_asc), atol=1e-10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["a", "b"])
    def test_non_finite_interval_refused(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            chebyshev_derivative(np.sin(cheb_nodes(16)), **{field: value})

    def test_wrong_layout_rejected(self):
        x = np.linspace(-1, 1, 32)
        with pytest.raises(ValidationError, match="Lobatto"):
            chebyshev_derivative(np.sin(x), -1.0, 1.0, points=x)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        lhs = chebyshev_derivative(2 * u + 3 * v).derivative
        rhs = (2 * np.asarray(chebyshev_derivative(u).derivative)
               + 3 * np.asarray(chebyshev_derivative(v).derivative))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestFourierExtension:
    def test_reduces_to_plain_fourier_when_periodic(self):
        s, theta = periodic_signal(lambda th: np.sin(3 * th), n=64)
        plain = fourier_derivative(s, nu=1)
        ext = fourier_extension_derivative(s, pad=0, extension="none",
                                           keep_modes=32, nu=1)
        np.testing.assert_allclose(ext.derivative, plain.derivative, atol=1e-10)

    def test_even_symmetric_input(self):
        # half period of a cosine: its even extension is exactly periodic
        n = 65
        t = np.arange(n) / (n - 1) * np.pi
        s = Signal(Grid(t), np.cos(t))
        r = fourier_extension_derivative(s, pad=0, extension="even", keep_modes=None,
                                         nu=1)
        np.testing.assert_allclose(r.derivative[3:-3], -np.sin(t)[3:-3], atol=1e-6)

    def test_sigmoid_low_error(self):
        n = 500
        t = -5 + 10 * np.arange(n) / n  # [-5, 5)
        sig = 1.0 / (1.0 + np.exp(-t))
        truth = sig * (1 - sig)
        s = Signal(Grid(t), sig)
        r = fourier_extension_derivative(s, pad=0, extension="even",
                                         keep_modes=70, nu=1)
        err = np.max(np.abs(r.derivative[10:-10] - truth[10:-10]))
        assert err < 0.05 * (truth.max() - truth.min())

    def test_padding_improves_aperiodic_edge(self):
        rng = np.random.default_rng(9)
        n = 200
        t = 0.01 * np.arange(n)
        y = np.sin(2 * np.pi * t) + 0.5 * t  # aperiodic ramp
        s = Signal(Grid(t), y)
        truth = 2 * np.pi * np.cos(2 * np.pi * t) + 0.5
        bare = fourier_extension_derivative(s, pad=0, extension="none",
                                            keep_modes=20, nu=1)
        padded = fourier_extension_derivative(s, pad=50, extension="even",
                                              keep_modes=20, nu=1)
        err_bare = np.mean((bare.derivative - truth) ** 2)
        err_padded = np.mean((padded.derivative - truth) ** 2)
        assert err_padded < err_bare

    def test_negative_pad_rejected(self):
        s, _ = periodic_signal(np.sin, n=16)
        with pytest.raises(ValidationError):
            fourier_extension_derivative(s, pad=-1, keep_modes=None)

    @staticmethod
    def _full_blend_reference(s, pad, keep_modes, nu):
        """The extension derivative with the pads blended by one moving average over the
        whole padded sequence, the original samples restored afterwards."""
        y, n = s.values, len(s)
        z = np.concatenate([np.full(pad, y[0]), y, np.full(pad, y[-1])])
        w = int(np.ceil(pad / 4))
        if w > 1:
            z = np.convolve(_reflect_pad(z, w), np.full(w, 1.0 / w), mode="same")[w:-w]
        z[pad : pad + n] = y
        smoothed, deriv = _fourier_pass(np.concatenate([z, z[-2:0:-1]]), s.grid.dt, nu,
                                        keep_modes)
        return smoothed[pad : pad + n], deriv[pad : pad + n]

    @pytest.mark.parametrize("n", [5, 64, 401, 3000])
    def test_pad_blend_matches_full_convolution(self, n):
        rng = np.random.default_rng(n)
        t = 0.01 * np.arange(n)
        s = Signal(Grid(t), np.sin(2 * np.pi * t) + 0.5 * t + 0.1 * rng.standard_normal(n))
        for pad in sorted({0, 1, 4, 5, 9, n // 8, n, n + 3, 2 * n}):
            for keep_modes, nu in ((None, 1), (n // 4 + 2, 2)):
                got = fourier_extension_derivative(s, pad=pad, extension="even",
                                                   keep_modes=keep_modes, nu=nu)
                smoothed, deriv = self._full_blend_reference(s, pad, keep_modes, nu)
                assert np.array_equal(got.smoothed, smoothed), pad
                assert np.array_equal(got.derivative, deriv), pad


class TestPowerSpectrum:
    def test_pure_tone_peak(self):
        t = 0.01 * np.arange(400)
        s = Signal(Grid(t), np.sin(2 * np.pi * 3.0 * t))
        freqs, db = power_spectrum(s)
        assert freqs[np.argmax(db)] == pytest.approx(3.0, abs=freqs[1])

    def test_nyquist_limit(self):
        t = 0.01 * np.arange(256)
        freqs, _ = power_spectrum(Signal(Grid(t), np.sin(t)))
        assert freqs[-1] == pytest.approx(50.0)

    def test_white_noise_roughly_flat(self):
        # average over 20 seeds and compare band medians
        levels = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            t = 0.01 * np.arange(512)
            _, db = power_spectrum(Signal(Grid(t), rng.standard_normal(512)))
            levels.append(db[1:])
        mean_db = np.mean(levels, axis=0)
        assert mean_db.max() - mean_db.min() < 20.0  # within a +-10 dB band

    def test_irregular_rejected(self):
        g = Grid([0.0, 0.1, 0.15, 0.5])
        with pytest.raises(ValidationError):
            power_spectrum(Signal(g, np.zeros(4)))
