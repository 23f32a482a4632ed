"""derivkit: derivative estimation for sampled 1-D signals.

Model-free differentiators (finite differences, spectral, kernel/Butterworth
prefilters, polynomial and spline fits, total-variation regularization),
model-based Kalman/RTS/robust-MAP smoothing with naive constant-derivative
models, a ground-truth-free hyperparameter tuner, and a benchmark harness.
"""

__version__ = "0.1.0"

from .core import (
    ConditioningWarning,
    DerivativeResult,
    Grid,
    MethodConfig,
    NumericError,
    Signal,
    UnsupportedMethodError,
    ValidationError,
    cumtrapz,
    total_variation,
    validate,
)
from .fd import Stencil, fd_derivative, irregular_coefficients, iterated_fd, stencil_coefficients
from .kalman import (
    ContinuousModel,
    KalmanTrack,
    LinearGaussianModel,
    RobustSpec,
    constant_derivative_continuous,
    constant_derivative_model,
    discretize,
    kalman_filter,
    kalman_irregular,
    robust_map_smooth,
    robustdiff,
    rts_smooth,
    rtsdiff,
)
from .methods import apply_method, get_method, method_names
from .sims import (
    NoiseSpec,
    SimulationCase,
    add_noise,
    add_outliers,
    benchmark_sweep,
    cruise_control_matrices,
    hill_profile,
    simulate,
)
from .smoothers import (
    KernelSpec,
    SplineSpec,
    butterdiff,
    kernel_smooth,
    kerneldiff,
    polydiff,
    rbfdiff,
    savgol_coefficients,
    savgoldiff,
    splinediff,
)
from .spectral import (
    cheb_nodes,
    chebyshev_derivative,
    fourier_derivative,
    fourier_extension_derivative,
    fourier_lowpass,
    power_spectrum,
)
from .tune import (
    TuneSpec,
    autotune,
    error_correlation,
    gamma_heuristic,
    proxy_loss,
    rmse,
    robust_proxy_loss,
)
from .tvr import TvrSpec, smooth_accel_tvr, tvrdiff

__all__ = [name for name in dir() if not name.startswith("_")]
