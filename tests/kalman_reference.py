"""Sequential Kalman filter and RTS smoother, kept as the test oracle.

This is the textbook per-step recursion that ``derivkit.kalman`` replaced
with an associative scan. It is slow (a Python loop over samples) and
exists only so tests can compare the scan against it. Model stacks follow
the library's convention: ``As``, ``Qs`` and ``Rs`` have a leading axis of
length 1 (time-invariant) or N, and ``cs`` is the known drift ``B_n u_n``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from derivkit.core import NumericError
from derivkit.kalman import KalmanTrack


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
