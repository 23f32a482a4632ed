"""Linear-Gaussian state estimation and model-free differentiation on top of it.

Provides the Kalman filter, the Rauch-Tung-Striebel smoother, a robust
joint-MAP smoother with pluggable losses, naive constant-derivative models,
and continuous-to-discrete conversion via a block matrix exponential.

Two primitives share the model stacks. Models may vary per step (``A_n``,
``Q_n``, ``R_n``, known drift ``B_n u_n``); a time-invariant one is a
broadcast stack of length 1, so uniform and irregular grids share all code.
On an irregular grid the model's matrices depend only on the step, so they
are built, and ``Q`` factored, once per distinct step; the MAP solves below
write their band from the distinct steps, and the rest gathers them per
sample. That saves work where the steps repeat, as on a uniform grid with
samples dropped (a few dozen distinct steps in thousands).

- The public filter and smoother return covariances, and run in covariance
  form as associative scans (Särkkä & García-Fernández, "Temporal
  parallelization of Bayesian smoothers", IEEE TAC 2021): O(N) batched
  ``(N, d, d)`` matrix operations in O(log N) levels, with no Python loop
  over samples.
- Where only the smoothed means are needed, they are the MAP states, read
  from one banded solve of the quasi-definite KKT system
  ``[[H, G^T], [G, -Q]]``, which never inverts ``Q`` (Paige & Saunders 1977;
  Aravkin et al., "Generalized Kalman smoothing", Automatica 2017). ``rtsdiff``
  makes one such solve; the robust smoother makes one for its first iterate
  and one per iteration of its reweighted least squares whose loss weights,
  which scale the measurement and process blocks, differ from the last
  solve's. With a quadratic process loss and every Huber weight 1, that is the
  first solve alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .core import (DerivativeResult, NumericError, Signal, ValidationError,
                   _require_finite_settings, _require_int, _solve_banded)

_PSD_SLACK = 1e-10


def _checked(M, name: str, shape: tuple, psd: bool = False) -> np.ndarray:
    """``M`` as a float array of ``shape`` (``None`` matches any length); a covariance
    (``psd``) must also be symmetric positive semidefinite. Every failure is a
    ValidationError that names ``M``."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim != len(shape) or any(w not in (None, g) for g, w in zip(arr.shape, shape)):
        want = " x ".join("any" if s is None else str(s) for s in shape)
        raise ValidationError(f"{name} must have shape {want}, got {arr.shape}")
    if psd:
        if not np.allclose(arr, arr.T, rtol=0, atol=1e-12 * max(1.0, np.abs(arr).max())):
            raise ValidationError(f"{name} must be symmetric")
        eigs = np.linalg.eigvalsh(arr)
        if eigs.size and eigs[0] < -_PSD_SLACK * max(eigs[-1], 1.0):
            raise ValidationError(
                f"{name} is not positive semidefinite (min eig {eigs[0]:.3e})")
    return arr


def _measurement_model(d: int, C, R, x0, P0) -> tuple[np.ndarray, ...]:
    """``(C, R, x0, P0)`` of a model with ``d`` states, checked by :func:`_checked`: ``C``
    has ``d`` columns, ``R`` matches its rows, ``x0`` (flattened) has ``d`` entries and
    ``R`` and ``P0`` are covariances."""
    C = _checked(C, "C", (None, d))
    return (C, _checked(R, "R", (len(C), len(C)), psd=True),
            _checked(np.asarray(x0, dtype=float).reshape(-1), "x0", (d,)),
            _checked(P0, "P0", (d, d), psd=True))


@dataclass(frozen=True)
class LinearGaussianModel:
    """Discrete-time model x_n = A x_{n-1} + B u_n + w,  y_n = C x_n + v."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        d = len(_checked(self.A, "A", (None, None)))
        A = _checked(self.A, "A", (d, d))
        B = _checked(self.B, "B", (d, None))
        Q = _checked(self.Q, "Q", (d, d), psd=True)
        C, R, x0, P0 = _measurement_model(d, self.C, self.R, self.x0, self.P0)
        for name, val in (("A", A), ("B", B), ("C", C), ("Q", Q), ("R", R), ("x0", x0), ("P0", P0)):
            object.__setattr__(self, name, val)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    @property
    def measurement_dim(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class ContinuousModel:
    """Continuous-time model dx/dt = Ac x + Bc u + w, with spectral density Qc."""

    Ac: np.ndarray
    Bc: np.ndarray
    Qc: np.ndarray

    def __post_init__(self):
        d = len(_checked(self.Ac, "Ac", (None, None)))
        Ac = _checked(self.Ac, "Ac", (d, d))
        Bc = _checked(self.Bc, "Bc", (d, None))
        Qc = _checked(self.Qc, "Qc", (d, d), psd=True)
        for name, val in (("Ac", Ac), ("Bc", Bc), ("Qc", Qc)):
            object.__setattr__(self, name, val)


_LOSSES = ("quadratic", "l1", "huber")
_L1_SCALE = math.sqrt(2.0)  # statistically-correct weight for an l1 penalty
_L1_EPS = 1e-8


@dataclass(frozen=True)
class RobustSpec:
    """Loss choices for the joint MAP smoother.

    ``huber_m_*`` give the quadratic-to-linear radius in units of the noise-normalized
    residual; other losses ignore them. Reweighting stops once no state moves by more
    than ``tol * (1 + max |state|)`` in an iteration, once an iteration's weights equal
    those of the solve that gave the current states (its solve would return them again;
    with a quadratic process loss only), or after ``max_iter`` iterations.
    """

    process_loss: str = "quadratic"
    measurement_loss: str = "huber"
    huber_m_process: float = 2.0
    huber_m_measurement: float = 2.0
    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        for name, loss in (("process_loss", self.process_loss),
                           ("measurement_loss", self.measurement_loss)):
            if loss not in _LOSSES:
                raise ValidationError(f"{name} must be one of {_LOSSES}, got {loss!r}")
        _require_finite_settings(huber_m_process=self.huber_m_process,
                                 huber_m_measurement=self.huber_m_measurement, tol=self.tol)
        if self.huber_m_process <= 0 or self.huber_m_measurement <= 0:
            raise ValidationError("Huber radii must be positive")
        if self.tol <= 0:
            raise ValidationError(f"tol must be > 0, got {self.tol}")
        object.__setattr__(self, "max_iter", _require_int("max_iter", self.max_iter, 1))


class KalmanTrack(NamedTuple):
    """Complete filter history, enough to run any smoother afterwards."""

    states: np.ndarray                 # a posteriori means, (N, d)
    covariances: np.ndarray            # a posteriori covariances, (N, d, d)
    apriori_states: np.ndarray         # predicted means, (N, d)
    apriori_covariances: np.ndarray    # predicted covariances, (N, d, d)
    transitions: np.ndarray            # A used to predict into each step, (N, d, d)


class RobustSmoothResult(NamedTuple):
    states: np.ndarray
    converged: bool
    iterations: int
    objective: float
    kkt_solves: int  # banded KKT solves that ran, the first iterate's included


def _shape_measurements(ys, p: int) -> np.ndarray:
    arr = np.asarray(ys, dtype=float)
    if arr.ndim == 1 and p == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != p:
        raise ValidationError(f"measurements must have shape (N, {p})")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("measurements must be finite")
    return arr


def _shape_inputs(us, n: int, m: int) -> np.ndarray:
    if us is None:
        return np.zeros((n, m))
    arr = np.asarray(us, dtype=float)
    if arr.ndim == 1 and m == 1:
        arr = arr[:, None]
    if arr.shape != (n, m):
        raise ValidationError(f"inputs must have shape ({n}, {m})")
    return arr


def _T(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _T(M))


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products, ``(..., i, j) x (..., j) -> (..., i)``."""
    return (M @ v[..., None])[..., 0]


def _not_pd(M: np.ndarray) -> np.ndarray:
    """Flag each matrix of a stack that is non-finite or not positive definite."""
    bad = ~np.isfinite(M).all(axis=(-2, -1))
    if not bad.any():
        try:
            np.linalg.cholesky(M)
            return bad
        except np.linalg.LinAlgError:
            pass
    ok = ~bad
    bad[ok] = ~(np.linalg.eigvalsh(M[ok])[:, 0] > 0)
    return bad


def _require_finite(xs: np.ndarray, Ps: np.ndarray, what: str) -> None:
    finite = np.isfinite(xs).all(axis=1) & np.isfinite(Ps).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite {what} estimate at step {int(np.argmin(finite))}")


def _scan(combine, elems: list[np.ndarray]) -> list[np.ndarray]:
    """Inclusive prefixes ``e_0, e_0*e_1, ..., e_0*...*e_{N-1}`` of stacked elements.

    ``combine(first, second)`` composes two batches of elements, ``first``
    coming before ``second``. Work-efficient odd-even recursion: compose
    neighbouring pairs, recurse on the N/2 pair products (the prefixes
    ending at odd indices), then extend each of those by the next even
    element. That is O(N) compositions in O(log N) batched levels.
    """
    n = len(elems[0])
    if n < 2:
        return elems
    odd = _scan(combine, combine([e[0:n - 1:2] for e in elems], [e[1::2] for e in elems]))
    even = combine([o[:(n - 1) // 2] for o in odd], [e[2::2] for e in elems])
    out = []
    for e, o, v in zip(elems, odd, even):
        full = np.empty((n,) + e.shape[1:])
        full[0], full[1::2], full[2::2] = e[0], o, v
        out.append(full)
    return out


def _filter_combine(first, second):
    """Compose filtering elements (Särkkä & García-Fernández 2021, Lemma 8).

    An element ``(A, b, C, eta, J)`` holds the law ``N(A x + b, C)`` of the
    later state given the earlier state ``x``, conditioned on the
    measurements in between, whose likelihood as a function of ``x`` is
    ``exp(-x^T J x / 2 + eta^T x)``.
    """
    A1, b1, C1, e1, J1 = first
    A2, b2, C2, e2, J2 = second
    M = np.linalg.inv(np.eye(A1.shape[-1]) + C1 @ J2)
    A2M = A2 @ M
    MA1 = M @ A1    # (A1^T (I + J2 C1)^-1)^T
    return (A2M @ A1,
            _mv(A2M, b1 + _mv(C1, e2)) + b2,
            _sym(A2M @ C1 @ _T(A2)) + C2,
            _mv(_T(MA1), e2 - _mv(J2, b1)) + e1,
            _sym(_T(MA1) @ J2 @ A1) + J1)


def _smooth_combine(later, earlier):
    """Compose backward elements ``x_n = E x_{n+1} + g + N(0, L)``, later one first."""
    E2, g2, L2 = later
    E1, g1, L1 = earlier
    return E1 @ E2, _mv(E1, g2) + g1, _sym(E1 @ L2 @ _T(E1)) + L1


@np.errstate(over="ignore", invalid="ignore")  # non-finite results are checked
def _filter(A, c, C, Q, R, x0, P0, ys) -> KalmanTrack:
    """Covariance-form Kalman filter over all steps as one associative scan.

    ``A``, ``Q`` and ``R`` are stacks whose leading axis is 1 (time-invariant,
    broadcast) or N; ``c`` is the known drift ``B_n u_n``, shape (N, d). The
    seed ``(x0, P0)`` is the estimate one step before the first measurement.
    The scan needs each step's ``C Q_n C^T + R_n`` to be positive definite
    (at step 0, with the seed's predicted covariance in place of ``Q_0``).
    """
    n, d = len(ys), len(x0)
    A = np.broadcast_to(A, (n, d, d))
    Q = np.broadcast_to(Q, (n, d, d))
    xp0 = A[0] @ x0 + c[0]
    Pp0 = A[0] @ P0 @ A[0].T + Q[0]
    # Step 0 has no predecessor: its element has a zero transition and the
    # seed's prediction in place of the drift and the process noise.
    Ael, cel, Qel = A.copy(), c.copy(), Q.copy()
    Ael[0], cel[0], Qel[0] = 0.0, xp0, Pp0
    S = C @ Qel @ C.T + R
    bad = _not_pd(S)
    if bad.any():
        raise NumericError(f"singular innovation covariance at step {int(np.argmax(bad))}")
    Si = np.linalg.inv(S)
    CA, CQ = C @ Ael, C @ Qel
    K = _T(Si @ CQ)
    v = ys - _mv(C, cel)
    CASi = _T(CA) @ Si
    elems = [Ael - K @ CA,
             cel + _mv(K, v),
             _sym(Qel - K @ CQ),
             _mv(CASi, v),
             _sym(CASi @ CA)]
    del Ael, cel, Qel, S, Si, CA, CQ, K, v, CASi
    _, xs, Ps, _, _ = _scan(_filter_combine, elems)
    _require_finite(xs, Ps, "filter")
    xps = np.concatenate([xp0[None], _mv(A[1:], xs[:-1]) + c[1:]])
    Pps = np.concatenate([Pp0[None], A[1:] @ Ps[:-1] @ _T(A[1:]) + Q[1:]])
    return KalmanTrack(xs, Ps, xps, Pps, A)


def _model_stacks(model: LinearGaussianModel, measurements, inputs) -> tuple:
    """``(A, c, C, Q, R, x0, P0, ys)`` of a time-invariant model, as :func:`_filter` takes them."""
    ys = _shape_measurements(measurements, model.measurement_dim)
    us = _shape_inputs(inputs, len(ys), model.input_dim)
    return (model.A[None], us @ model.B.T, model.C, model.Q[None], model.R[None],
            model.x0, model.P0, ys)


def kalman_filter(model: LinearGaussianModel, measurements, inputs=None) -> KalmanTrack:
    """Run the forward Kalman recursion.

    The seed ``(x0, P0)`` is treated as the estimate one step before the
    first measurement, so step 0 is predicted like any other step.
    Returns both a posteriori and a priori tracks for later smoothing; the
    ``transitions`` field is a read-only broadcast of ``model.A``.
    """
    return _filter(*_model_stacks(model, measurements, inputs))


@np.errstate(over="ignore", invalid="ignore")  # non-finite results are checked
def rts_smooth(track: KalmanTrack) -> tuple[np.ndarray, np.ndarray]:
    """Rauch-Tung-Striebel smoothing of a complete filter history.

    The final smoothed state equals the final filtered state; earlier steps
    blend in information from the future through the gain
    ``L_n = P_n A^T P_{n+1|n}^{-1}``. Runs as a backward associative scan of
    the affine maps ``x_n = x_{n|n} + L_n (x_{n+1} - x_{n+1|n})``.
    """
    xs, Ps, xps, Pps, As = track
    bad = np.flatnonzero(_not_pd(Pps[1:]))
    if bad.size:  # name the step a backward recursion meets first
        raise NumericError(f"singular a priori covariance at step {bad[-1] + 1}")
    AP = As[1:] @ Ps[:-1]
    E = _T(np.linalg.solve(Pps[1:], AP))
    g = xs[:-1] - _mv(E, xps[1:])
    L = _sym(Ps[:-1] - E @ AP)
    del AP
    # the last step is its own smoothed estimate: a zero map plus the filter
    elems = [np.concatenate([E, np.zeros((1,) + E.shape[1:])])[::-1],
             np.concatenate([g, xs[-1:]])[::-1],
             np.concatenate([L, Ps[-1:]])[::-1]]
    del E, g, L
    _, xr, Pr = _scan(_smooth_combine, elems)
    xr, Pr = xr[::-1].copy(), Pr[::-1].copy()
    _require_finite(xr, Pr, "smoothed")
    return xr, Pr


def constant_derivative_model(nu: int, dt: float, q: float, r: float,
                              y0: float = 0.0) -> LinearGaussianModel:
    """Naive model holding the nu-th derivative constant between steps.

    The state is ``[signal, derivative, ..., nu-th derivative]``; A performs
    Taylor integration, process noise of intensity ``q`` forces only the last
    state, and its integrated covariance couples the rest. Only the ratio
    q/r changes the steady-state smoothing behavior.
    """
    _require_finite_settings(dt=dt, q=q, r=r)
    if dt <= 0 or q <= 0 or r <= 0:
        raise ValidationError("dt, q, and r must be positive")
    nu = _check_chain(nu, q)
    d = nu + 1
    A, Q = _integrator_chain(nu, [dt], q)
    C = np.zeros((1, d))
    C[0, 0] = 1.0
    x0 = np.zeros(d)
    x0[0] = y0
    return LinearGaussianModel(A=A[0], B=np.zeros((d, 0)), C=C, Q=Q[0],
                               R=np.array([[r]]), x0=x0, P0=10.0 * np.eye(d))


def _check_chain(nu, q: float) -> int:
    if q <= 0:
        raise ValidationError("q must be positive")
    return _require_int("nu", nu, 1, 3)


def _integrator_chain(nu: int, steps, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(A, Q)`` stacks of the nu-fold integrator chain, one per step.

    ``A[i, j] = h^(j-i) / (j-i)!`` on and above the diagonal, and
    ``Q[i, j] = q h^p / ((nu-i)! (nu-j)! p)`` with ``p = 2 nu + 1 - i - j``.
    """
    h = np.asarray(steps, dtype=float)[:, None, None]
    i, j = np.indices((nu + 1, nu + 1))
    fact = np.array([math.factorial(k) for k in range(nu + 1)], dtype=float)
    lag = np.maximum(j - i, 0)
    A = np.where(j >= i, h ** lag / fact[lag], 0.0)
    power = 2 * nu + 1 - i - j
    Q = q * h ** power / (fact[nu - i] * fact[nu - j] * power)
    return A, Q


def constant_derivative_continuous(nu: int, q: float) -> ContinuousModel:
    """Continuous counterpart of the constant-derivative model (integrator chain)."""
    _require_finite_settings(q=q)
    nu = _check_chain(nu, q)
    d = nu + 1
    Ac = np.diag(np.ones(d - 1), k=1)
    Qc = np.zeros((d, d))
    Qc[-1, -1] = q
    return ContinuousModel(Ac=Ac, Bc=np.zeros((d, 0)), Qc=Qc)


def discretize(cm: ContinuousModel, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization by one block matrix exponential.

    Exponentiating ``[[Ac, Qc, Bc], [0, -Ac^T, 0], [0, 0, 0]] * dt`` (Van Loan
    1978) yields ``A`` in the upper left, ``Q A^{-T}`` in the next block, so
    ``Q`` is recovered as that block times ``A^T``, and ``B`` in the last block
    column. ``dt`` may be a 1-D array of steps; the matrices then gain a
    leading axis, one entry per step.
    """
    h = np.asarray(dt, dtype=float)
    if h.ndim > 1 or not np.all(np.isfinite(h) & (h > 0)):
        raise ValidationError(f"dt must be finite and positive, got {dt}")
    h = h[..., None, None]
    d = cm.Ac.shape[0]
    blk = np.zeros((2 * d + cm.Bc.shape[1],) * 2)
    blk[:d, :d] = cm.Ac
    blk[:d, d : 2 * d] = cm.Qc
    blk[:d, 2 * d :] = cm.Bc
    blk[d : 2 * d, d : 2 * d] = -cm.Ac.T
    try:
        F = sla.expm(blk * h)
    except Exception as exc:  # scipy raises assorted LinAlg errors
        raise NumericError("matrix exponential failed") from exc
    A = F[..., :d, :d]
    Q = _sym(F[..., :d, d : 2 * d] @ _T(A))
    B = F[..., :d, 2 * d :]
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(Q)) and np.all(np.isfinite(B))):
        raise NumericError("matrix exponential produced non-finite entries")
    return A, B, Q


def _steps(signal: Signal) -> np.ndarray:
    """One step per sample, the gap before it; the seed predicts over the first gap."""
    gaps = np.diff(signal.grid.points)
    return np.concatenate([gaps[:1], gaps])


def kalman_irregular(cm: ContinuousModel, C, R, x0, P0, signal: Signal, inputs=None
                     ) -> tuple[KalmanTrack, np.ndarray, np.ndarray]:
    """Filter + RTS smoother on an irregular grid via per-step discretization.

    Each step converts the continuous model over its own time gap; the first
    prediction (from the seed into the first sample) spans the first gap.
    Returns the filter track and the smoothed states and covariances.
    """
    C, R, x0, P0 = _measurement_model(cm.Ac.shape[0], C, R, x0, P0)
    ys = _shape_measurements(signal.values, C.shape[0])
    unique, index = np.unique(_steps(signal), return_inverse=True)
    A, B, Q = (M[index] for M in discretize(cm, unique))
    us = _shape_inputs(inputs, len(ys), cm.Bc.shape[1])
    track = _filter(A, _mv(B, us), C, Q, R[None], x0, P0, ys)
    xr, Pr = rts_smooth(track)
    return track, xr, Pr


def _prior(A0, c0, Q0, x0, P0) -> tuple[np.ndarray, np.ndarray]:
    """Mean and information matrix of the first state's prior: the seed ``(x0, P0)``
    predicted over the first step by ``(A0, c0, Q0)``, as :func:`_filter` predicts it."""
    return A0 @ x0 + c0, _sym(np.linalg.inv(A0 @ P0 @ A0.T + Q0))


def _blocks(ab: np.ndarray, d: int, offset: int, first: int, count: int) -> np.ndarray:
    """Writable ``(count, d, d)`` view of every other ``d x d`` block along one block
    diagonal of the Fortran-ordered band storage ``ab[2k + i - j, j] = M[i, j]``
    (``k = 2d - 1``): view ``j`` is ``M``'s block in block column ``first + 2j`` and block
    row ``first + 2j + offset``, with ``offset`` in (-1, 0, 1)."""
    s_row, s_col = ab.strides
    corner = ab[2 * (2 * d - 1) + offset * d:, first * d:]
    return np.lib.stride_tricks.as_strided(corner, (count, d, d),
                                           (2 * d * s_col, s_row, s_col - s_row))


def _later(M: np.ndarray) -> np.ndarray:
    """The entries of a model stack for steps 1 .. N-1 (a length-1 stack is broadcast)."""
    return M if len(M) == 1 else M[1:]


def _equilibrate(H, Q, A) -> tuple[np.ndarray, np.ndarray]:
    """Scales ``(sx, sl)`` of the state and multiplier components of :func:`_map_means`'s
    KKT system, from three Ruiz sweeps (Ruiz 2001) on the entrywise largest ``H``, ``Q``
    and ``A`` blocks over all steps, rounded to powers of two so that scaling is exact:
    each scaled row's largest entry is then near 1. Unscaled, the derivative kept only six
    digits at nu = 1, q/r = 1e16, where ``Q``'s entries reach 1e8 beside unit ``I`` blocks."""
    aH, aQ, aA = (np.abs(M).max(axis=0) for M in (H, Q, A))
    sx = sl = np.ones(len(aH))
    for _ in range(3):
        SAS = aA * np.outer(sl, sx)
        rx = np.maximum.reduce([(aH * np.outer(sx, sx)).max(axis=1), sl * sx, SAS.max(axis=0)])
        rl = np.maximum.reduce([(aQ * np.outer(sl, sl)).max(axis=1), sl * sx, SAS.max(axis=1)])
        sx, sl = sx / np.sqrt(rx), sl / np.sqrt(rl)
    return np.exp2(np.round(np.log2(sx))), np.exp2(np.round(np.log2(sl)))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite solution is checked
def _map_means(A, c, C, Q, Rinv, x0, P0, ys, index=None) -> np.ndarray:
    """MAP states, ``(N, d)``, of the model stacks :func:`_filter` takes, or, given
    ``index``, of ``A`` and ``Q`` with one matrix per distinct step, sample ``n`` taking
    entry ``index[n]`` (as :func:`_naive_stacks` returns them); the measurement weights
    ``Rinv`` (inverse noise covariances) stand in place of ``R``.

    They minimize the prior term, ``1/2 |y_n - C x_n|^2`` weighted by ``Rinv_n``, and
    ``1/2 |x_n - A_n x_{n-1} - c_n|^2`` weighted by ``Q_n^-1``. With the multipliers
    ``lam_n = Q_n^-1 (x_n - A_n x_{n-1} - c_n)`` the optimality conditions are the
    quasi-definite KKT system ``[[H, G^T], [G, -Q]]``: ``H_n = C^T Rinv_n C`` (plus the
    prior's information at step 0), and row ``n`` of ``G`` holds ``I`` and ``-A_n``. ``Q``
    is never inverted, so it may be singular. Ordered ``x_0, lam_1, x_1, lam_2, ...``,
    the unknowns give half-bandwidth ``2d - 1``, and the columns of ``x_{n-1}`` and
    ``lam_n`` hold ``H_{n-1}`` and, equilibrated by :func:`_equilibrate`, blocks that
    depend only on step ``n``'s ``(A_n, Q_n)``. So the band is written straight into the
    LU workspace that :func:`core._solve_banded` factors in place: one column-pair
    template per entry of the stack, through strided block views, then one gather of the
    templates into place, then ``H`` and the two ends. A per-sample stack has nothing to
    gather, so its templates are written in place.
    """
    n, d = len(ys), len(x0)
    if index is None:  # the entries of steps 1 .. N-1; a length-1 stack is broadcast
        (An, Qn), first = np.broadcast_arrays(_later(A), _later(Q)), 0
    else:
        An, Qn, first = A, Q, index[0]
    mu0, H0 = _prior(A[first], c[0], Q[first], x0, P0)
    CtRinv = _T(C) @ Rinv
    H = CtRinv @ C
    sx, sl = _equilibrate(np.concatenate([H, (H[0] + H0)[None]]), Qn, An)
    k = 2 * d - 1
    rows, count = 3 * k + 1, len(An)
    in_place = index is None and count == n - 1
    ab = (np.zeros if in_place else np.empty)((rows, (2 * n - 1) * d), order="F")
    tmpl = ab if in_place else np.zeros((rows, 2 * d * count), order="F")
    SAS = An * np.outer(sl, sx)
    _blocks(tmpl, d, 1, 0, count)[:] = -SAS             # lam_n's row, x_{n-1}'s column
    _blocks(tmpl, d, -1, 1, count)[:] = -_T(SAS)
    _blocks(tmpl, d, 0, 1, count)[:] = Qn * -np.outer(sl, sl)
    for offset, block in ((-1, 0), (1, 1)):  # the I blocks of G and G^T: diagonals only
        np.einsum("nii->ni", _blocks(tmpl, d, offset, block, count))[:] = sl * sx
    if not in_place:
        # each pair's columns are contiguous in the workspace: one row of `pairs` each
        pairs = ab.T[: 2 * d * (n - 1)].reshape(n - 1, 2 * d * rows)
        templates = tmpl.T.reshape(count, 2 * d * rows)
        if index is None:
            pairs[:] = templates
        else:  # mode="raise" would buffer the output
            np.take(templates, index[1:], axis=0, out=pairs, mode="clip")
        ab[:, 2 * d * (n - 1) :] = 0.0
    np.einsum("ii->i", _blocks(ab, d, -1, 0, 1)[0])[:] = 0.0  # no lam_0 row: outside M
    if n > 1:  # x_{N-1}'s column closes the band
        np.einsum("ii->i", _blocks(ab, d, -1, 2 * n - 2, 1)[0])[:] = sl * sx
    _blocks(ab, d, 0, 0, n)[:] = H * np.outer(sx, sx)
    _blocks(ab, d, 0, 0, 1)[0] += H0 * np.outer(sx, sx)
    b = _mv(CtRinv, ys)
    b[0] += H0 @ mu0
    rhs = np.empty(ab.shape[1])
    rhs[:d] = sx * b[0]
    rhs_pairs = rhs[d:].reshape(n - 1, 2, d)
    rhs_pairs[:, 0], rhs_pairs[:, 1] = sl * c[1:], sx * b[1:]
    sol = _solve_banded(k, ab, rhs, "singular KKT system for the MAP states")
    return sx * np.concatenate([sol[None, :d], sol[d:].reshape(n - 1, 2, d)[:, 1]])


def _loss_value(kind: str, m: float, r: np.ndarray) -> float:
    if kind == "quadratic":
        return 0.5 * float(r @ r)
    if kind == "huber":
        a = np.abs(r)
        quad = a <= m
        return float(np.sum(0.5 * r[quad] ** 2) + np.sum(m * a[~quad] - 0.5 * m * m))
    return _L1_SCALE * float(np.sum(np.abs(r)))


def _loss_weights(kind: str, m: float, r: np.ndarray) -> np.ndarray:
    if kind == "quadratic":
        return np.ones_like(r)
    if kind == "huber":
        return np.minimum(1.0, m / np.maximum(np.abs(r), 1e-300))
    return _L1_SCALE / np.sqrt(r * r + _L1_EPS ** 2)


def _cholesky(M: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{name} is not positive definite") from exc


def _robust_map_core(A, c, C, Q, R, x0, P0, ys, spec: RobustSpec,
                     index: np.ndarray | None = None) -> RobustSmoothResult:
    """IRLS on the joint MAP objective; model stacks as in :func:`_filter`, or, given
    ``index``, ``A`` and ``Q`` with one matrix per distinct step, sample ``n`` taking
    entry ``index[n]``, as :func:`_map_means` takes them.
    ``Q``'s Cholesky factor and its inverse are then taken once per distinct step, and
    while the process loss is quadratic every solve takes the distinct stacks.

    The first iterate is the quadratic model's MAP estimate (the RTS means), and each
    iteration is one more :func:`_map_means` solve whose blocks carry the current loss
    weights: measurement weights ``TR^T diag(w) TR`` and process blocks
    ``LQ diag(1/w) LQ^T``, where ``TR`` is the inverse of ``R``'s Cholesky factor and
    ``Q = LQ LQ^T``. The weighted least-squares problem of an iteration is that solve's
    MAP estimate. While the process loss is quadratic, an iteration whose measurement
    weights equal the last solve's, entry for entry, would solve that system again and
    return the current iterate, a zero step: it stops there, converged, without the
    solve. A robust process loss always solves, since its rebuilt ``Q`` does not round
    like ``Q``.
    """
    n, d = len(ys), len(x0)
    TR = np.linalg.inv(_cholesky(R, "R"))
    # process residuals exist from step 1 on; step 0's Q is step 1's on a distinct stack
    LQ = _cholesky(_later(Q) if index is None else Q, "Q")
    TQ = np.linalg.inv(LQ)
    A_steps, Q_steps = A, Q  # as the quadratic-process solves take them, with index
    Q0 = Q[0 if index is None else index[0]]
    if index is not None:  # np.take gathers about twice as fast as fancy indexing
        A = np.take(A, index, axis=0)
        LQ, TQ = np.take(LQ, index[1:], axis=0), np.take(TQ, index[1:], axis=0)
    A = np.broadcast_to(A, (n, d, d))
    TRC = TR @ C
    TRy = _mv(TR, ys)
    Rinv = _T(TR) @ TR
    mu0, H_prior = _prior(A[0], c[0], Q0, x0, P0)

    def objective(states: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The objective at ``states``, with the whitened measurement and process
        residuals it sums, which weight the next iteration."""
        e = TRy - _mv(TRC, states)
        g = _mv(TQ, states[1:] - _mv(A[1:], states[:-1]) - c[1:])
        dx0 = states[0] - mu0
        return (_loss_value(spec.measurement_loss, spec.huber_m_measurement, e.ravel())
                + _loss_value(spec.process_loss, spec.huber_m_process, g.ravel())
                + 0.5 * float(dx0 @ H_prior @ dx0)), e, g

    x = _map_means(A_steps, c, C, Q_steps, Rinv, x0, P0, ys, index)
    solved_Rw, solves = Rinv, 1  # the measurement weights that gave x
    best_x = x
    best_obj, e, g = objective(x)
    converged = False
    iterations = 0
    for it in range(spec.max_iter):
        iterations = it + 1
        Rw = Rinv
        if spec.measurement_loss != "quadratic":
            We = _loss_weights(spec.measurement_loss, spec.huber_m_measurement, e)
            Rw = _T(TR) @ (We[..., None] * TR)
        if spec.process_loss == "quadratic":
            if np.all(Rw == solved_Rw):  # x's own system: its solve would return x again
                converged = True
                break
            x_new = _map_means(A_steps, c, C, Q_steps, Rw, x0, P0, ys, index)
            solved_Rw = Rw
        else:
            Wg = _loss_weights(spec.process_loss, spec.huber_m_process, g)
            Qw = np.concatenate([Q0[None], _sym((LQ / Wg[..., None, :]) @ _T(LQ))])
            x_new = _map_means(A, c, C, Qw, Rw, x0, P0, ys)
        solves += 1
        obj, e, g = objective(x_new)
        if obj < best_obj:
            best_obj, best_x = obj, x_new
        step = np.max(np.abs(x_new - x))
        x = x_new
        if step <= spec.tol * (1.0 + np.max(np.abs(best_x))):
            converged = True
            break
    return RobustSmoothResult(best_x, converged, iterations, best_obj, solves)


def robust_map_smooth(model: LinearGaussianModel, measurements, inputs=None,
                      spec: RobustSpec | None = None) -> RobustSmoothResult:
    """Jointly estimate all states under configurable residual losses.

    With quadratic losses on both terms this reproduces the RTS solution;
    Huber or l1 losses trade closed-form optimality for outlier robustness.
    Non-convergence returns the best iterate found, flagged via ``converged``.
    """
    return _robust_map_core(*_model_stacks(model, measurements, inputs), spec or RobustSpec())


def _naive_stacks(signal: Signal, nu: int, q: float, r: float):
    """Constant-derivative model ``(A, c, C, Q, R, x0, P0)`` on any grid, and ``index``.

    On an irregular grid ``A`` and ``Q`` hold one matrix per distinct step and sample
    ``n`` takes entry ``index[n]``. On a uniform grid ``index`` is None and they hold
    one matrix, broadcast.
    """
    if r <= 0:
        raise ValidationError("r must be positive")
    if signal.grid.uniform:
        steps, index = [signal.grid.dt], None
    else:
        steps, index = np.unique(_steps(signal), return_inverse=True)
    A, Q = _integrator_chain(nu, steps, q)
    # Beyond float64's range of q / r, _equilibrate's scaling cannot settle
    # and the KKT solve returns a wrong derivative without failing.
    ratio = float(q) / float(r)
    if not math.isfinite(ratio) or ratio == 0:
        raise ValidationError(f"q / r must be finite and nonzero in float64, got q={q}, r={r}")
    d = nu + 1
    C = np.zeros((1, d))
    C[0, 0] = 1.0
    x0 = np.zeros(d)
    x0[0] = signal.values[0]
    # Seeding P0 proportionally to r makes the output depend on q and r only
    # through their ratio, exactly.
    P0 = 10.0 * r * np.eye(d)
    return (A, np.zeros((len(signal), d)), C, Q, np.array([[[r]]]), x0, P0), index


def rtsdiff(signal: Signal, nu: int = 2, q: float = 1.0, r: float = 1.0) -> DerivativeResult:
    """Constant-derivative-model RTS smoothing; derivative read from the state.

    Works on uniform and irregular grids: the integrator chain's closed-form
    transition and noise matrices are evaluated once per distinct step
    (:func:`_naive_stacks`). The smoothed
    means are the model's MAP states, taken from one banded KKT solve
    (:func:`_map_means`); the covariance-form scans behind :func:`kalman_filter`
    and :func:`rts_smooth` are not run, as no covariance is returned.
    """
    nu = _check_chain(nu, q)
    (A, c, C, Q, R, x0, P0), index = _naive_stacks(signal, nu, q, r)
    xr = _map_means(A, c, C, Q, np.linalg.inv(R), x0, P0, signal.values[:, None], index)
    return DerivativeResult(
        smoothed=xr[:, 0],
        derivative=xr[:, 1],
        method="rts",
        phi={"nu": nu, "q": q, "r": r},
    )


def robustdiff(signal: Signal, nu: int = 2, q: float = 1.0, r: float = 1.0,
               spec: RobustSpec | None = None) -> DerivativeResult:
    """Constant-derivative model plus robust MAP smoothing.

    Unlike :func:`rtsdiff`, the absolute scales of ``q`` and ``r`` matter
    here: they interact with the Huber radii through the normalized residuals.
    The first iterate and each reweighting iteration whose weights changed are
    one banded KKT solve each (:func:`_robust_map_core`); ``flags`` report
    ``converged``, ``iterations``, the ``objective`` of the returned states and
    ``kkt_solves``, the solves that ran. With the default quadratic process
    loss and no residual beyond the Huber radius, that is one solve, ``rtsdiff``'s.
    """
    spec, nu = spec or RobustSpec(), _check_chain(nu, q)
    model, index = _naive_stacks(signal, nu, q, r)
    result = _robust_map_core(*model, signal.values[:, None], spec, index)
    return DerivativeResult(
        smoothed=result.states[:, 0],
        derivative=result.states[:, 1],
        method="robust",
        phi={"nu": nu, "q": q, "r": r,
             "process_loss": spec.process_loss,
             "measurement_loss": spec.measurement_loss},
        flags={"converged": result.converged, "iterations": result.iterations,
               "objective": result.objective, "kkt_solves": result.kkt_solves},
    )
