"""Sequential Kalman filter and RTS smoother, kept as the test oracle.

This is the textbook per-step recursion that ``derivkit.kalman`` replaced
with an associative scan. It is slow (a Python loop over samples) and
exists only so tests can compare the scan against it. Model stacks follow
the library's convention: ``As``, ``Qs`` and ``Rs`` have a leading axis of
length 1 (time-invariant) or N, and ``cs`` is the known drift ``B_n u_n``.

``map_means_strided`` is the MAP solve as the library assembled it before it
wrote the band straight into LAPACK's workspace: a zeroed workspace, one
strided write per block type over every sample, and the equilibration scales
reduced over per-sample stacks. ``naive_model`` is ``rtsdiff``'s model
gathered per sample. ``rtsdiff_per_step`` and ``robustdiff_per_step`` build
the constant-derivative model with the integrator chain evaluated at every
sample's step, factor and invert every ``Q`` of the stack, as the library did
before it took each distinct step once, and solve with ``map_means_strided``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import scipy.linalg as sla

from derivkit import kalman
from derivkit.core import NumericError, _solve_banded
from derivkit.kalman import (KalmanTrack, _blocks, _equilibrate, _integrator_chain, _later, _mv,
                             _naive_stacks, _robust_map_core, _steps, _sym, _T)


def _at(stack, n):
    return stack[0] if len(stack) == 1 else stack[n]


def filter_seq(As, cs, C, Qs, Rs, x0, P0, ys) -> KalmanTrack:
    n_steps = len(ys)
    d = len(x0)
    xs = np.empty((n_steps, d))
    Ps = np.empty((n_steps, d, d))
    xps = np.empty((n_steps, d))
    Pps = np.empty((n_steps, d, d))
    Ct = C.T
    x, P = x0, P0
    for n in range(n_steps):
        A, R = _at(As, n), _at(Rs, n)
        xp = A @ x + cs[n]
        Pp = A @ P @ A.T + _at(Qs, n)
        PCt = Pp @ Ct
        if C.shape[0] == 1:
            s = float((C @ PCt)[0, 0]) + float(R[0, 0])
            if s <= 0 or not np.isfinite(s):
                raise NumericError(f"singular innovation covariance at step {n}")
            K = PCt / s
        else:
            try:
                cf = sla.cho_factor(C @ PCt + R, lower=True)
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"singular innovation covariance at step {n}") from exc
            K = sla.cho_solve(cf, PCt.T).T
        x = xp + K @ (ys[n] - C @ xp)
        P = Pp - K @ (C @ Pp)
        P = 0.5 * (P + P.T)
        xs[n], Ps[n], xps[n], Pps[n] = x, P, xp, Pp
    return KalmanTrack(xs, Ps, xps, Pps, np.broadcast_to(As, (n_steps, d, d)))


def rts_smooth(track: KalmanTrack) -> tuple[np.ndarray, np.ndarray]:
    xs, Ps, xps, Pps, As = track
    xr = xs.copy()
    Pr = Ps.copy()
    for n in range(len(xs) - 2, -1, -1):
        try:
            cf = sla.cho_factor(Pps[n + 1], lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular a priori covariance at step {n + 1}") from exc
        L = sla.cho_solve(cf, As[n + 1] @ Ps[n]).T
        xr[n] = xs[n] + L @ (xr[n + 1] - xps[n + 1])
        Pn = Ps[n] + L @ (Pr[n + 1] - Pps[n + 1]) @ L.T
        Pr[n] = 0.5 * (Pn + Pn.T)
    return xr, Pr


def _whiten(M, r):
    return sla.solve_triangular(np.linalg.cholesky(M), r, lower=True)


def map_objective(states, As, cs, C, Qs, Rs, x0, P0, ys) -> float:
    """Negative log posterior (up to a constant) of a state track, step by step.

    Residuals are whitened by inverse Cholesky factors, as the robust
    smoother's objective does.
    """
    A0 = _at(As, 0)
    dx0 = states[0] - (A0 @ x0 + cs[0])
    total = 0.5 * float(dx0 @ np.linalg.solve(A0 @ P0 @ A0.T + _at(Qs, 0), dx0))
    for n in range(len(ys)):
        e = _whiten(_at(Rs, n), ys[n] - C @ states[n])
        total += 0.5 * float(e @ e)
        if n:
            g = _whiten(_at(Qs, n), states[n] - _at(As, n) @ states[n - 1] - cs[n])
            total += 0.5 * float(g @ g)
    return total


@np.errstate(over="ignore", invalid="ignore")
def map_means_strided(A, c, C, Q, Rinv, x0, P0, ys, index=None) -> np.ndarray:
    """``kalman._map_means``, stacks gathered per sample and the band written into a
    zeroed workspace one strided view per block type."""
    if index is not None:
        A, Q = A[index], Q[index]
    n, d = len(ys), len(x0)
    mu0 = A[0] @ x0 + c[0]
    H0 = _sym(np.linalg.inv(A[0] @ P0 @ A[0].T + Q[0]))
    CtRinv = _T(C) @ Rinv
    H = CtRinv @ C
    Qn, An = _later(Q), _later(A)
    sx, sl = _equilibrate(np.concatenate([H, (H[0] + H0)[None]]), Qn, An)
    SAS = An * np.outer(sl, sx)
    k = 2 * d - 1
    ab = np.zeros((3 * k + 1, (2 * n - 1) * d), order="F")
    _blocks(ab, d, 0, 0, n)[:] = H * np.outer(sx, sx)
    _blocks(ab, d, 0, 0, 1)[0] += H0 * np.outer(sx, sx)
    _blocks(ab, d, 0, 1, n - 1)[:] = Qn * -np.outer(sl, sl)
    for offset, first in ((-1, 2), (1, 1)):
        np.einsum("nii->ni", _blocks(ab, d, offset, first, n - 1))[:] = sl * sx
    _blocks(ab, d, 1, 0, n - 1)[:] = -SAS
    _blocks(ab, d, -1, 1, n - 1)[:] = -_T(SAS)
    b = _mv(CtRinv, ys)
    b[0] += H0 @ mu0
    rhs = np.empty(ab.shape[1])
    rhs[:d] = sx * b[0]
    pairs = rhs[d:].reshape(n - 1, 2, d)
    pairs[:, 0], pairs[:, 1] = sl * c[1:], sx * b[1:]
    sol = _solve_banded(k, ab, rhs, "singular KKT system for the MAP states")
    return sx * np.concatenate([sol[None, :d], sol[d:].reshape(n - 1, 2, d)[:, 1]])


def naive_model(signal, nu, q, r):
    """``kalman._naive_stacks``'s model with ``A`` and ``Q`` gathered per sample where an
    index is returned: the stacks ``kalman._filter`` takes."""
    (A, c, C, Q, R, x0, P0), index = _naive_stacks(signal, nu, q, r)
    if index is not None:
        A, Q = A[index], Q[index]
    return A, c, C, Q, R, x0, P0


def naive_model_per_step(signal, nu, q, r):
    """The constant-derivative model ``(A, c, C, Q, R, x0, P0)`` of an irregular grid,
    with one integrator chain per sample."""
    A, Q = _integrator_chain(nu, _steps(signal), q)
    d = nu + 1
    C = np.zeros((1, d))
    C[0, 0] = 1.0
    x0 = np.zeros(d)
    x0[0] = signal.values[0]
    return A, np.zeros((len(signal), d)), C, Q, np.array([[[r]]]), x0, 10.0 * r * np.eye(d)


def rtsdiff_per_step(signal, nu, q, r) -> np.ndarray:
    """The MAP states ``rtsdiff`` reads its outputs from."""
    A, c, C, Q, R, x0, P0 = naive_model_per_step(signal, nu, q, r)
    return map_means_strided(A, c, C, Q, np.linalg.inv(R), x0, P0, signal.values[:, None])


def robustdiff_per_step(signal, nu, q, r, spec):
    """The ``RobustSmoothResult`` behind ``robustdiff``: ``Q``'s Cholesky factor and its
    inverse are taken over the full per-sample stack, and every solve is
    ``map_means_strided``."""
    with mock.patch.object(kalman, "_map_means", map_means_strided):
        return _robust_map_core(*naive_model_per_step(signal, nu, q, r),
                                signal.values[:, None], spec)
