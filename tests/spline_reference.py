"""The smoothing spline's sparse SuperLU solve, kept as the test oracle.

This is how ``derivkit.smoothers`` used to fit its splines: the curvature
factor ``K`` built from two sparse derivative transforms, the normal matrix
``B^T B`` formed explicitly, and the system ``[[B^T B, sqrt(lam) K^T],
[sqrt(lam) K, -I]]`` (or ``B^T B`` alone when ``lam = 0``) factored by
SuperLU. Tests compare the banded augmented least-squares solve against it.

``solve_spline_bincount`` is the banded solve as the library assembled it
before it scattered the entries straight into LAPACK's workspace: the band
summed by ``np.bincount`` in C order, then copied into a fresh LU workspace by
``core._solve_banded``. Tests compare the two bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import BSpline
from scipy.sparse.linalg import spsolve

from derivkit.core import NumericError, _solve_banded
from derivkit.smoothers import _basis_rows, _curvature_rows, _site_knots


def _derivative_transform(knots: np.ndarray, k: int, m: int) -> sp.csr_matrix:
    """Sparse map from spline coefficients to their derivative's coefficients."""
    denom = knots[k + 1 : k + m] - knots[1:m]
    rows = np.repeat(np.arange(m - 1), 2)
    cols = np.ravel(np.column_stack([np.arange(m - 1), np.arange(1, m)]))
    with np.errstate(divide="ignore"):
        scale = np.where(denom > 0, k / denom, 0.0)
    vals = np.ravel(np.column_stack([-scale, scale]))
    return sp.csr_matrix((vals, (rows, cols)), shape=(m - 1, m))


def _curvature_factor(knots: np.ndarray, k: int, m: int) -> sp.csr_matrix:
    """Sparse K with K^T K = the curvature penalty (integral of squared S'').

    Rows are second-derivative basis values at Gauss points scaled by the
    square-rooted quadrature weights. Keeping the penalty in factored form
    lets huge smoothing weights be applied without squaring their scale.
    """
    L1 = _derivative_transform(knots, k, m)
    L2 = _derivative_transform(knots[1:-1], k - 1, m - 1)
    L = (L2 @ L1).tocsr()
    inner = knots[2:-2]
    k2 = k - 2
    spans = np.unique(inner)
    npts = k2 + 1  # integrand is piecewise degree 2*k2; exact for Gauss order k2+1
    nodes, wts = np.polynomial.legendre.leggauss(npts)
    half = 0.5 * np.diff(spans)[:, None]
    pts = (0.5 * (spans[:-1] + spans[1:])[:, None] + half * nodes).ravel()
    weights = (half * wts).ravel()
    Bq = BSpline.design_matrix(pts, inner, k2)
    return (Bq.multiply(np.sqrt(weights)[:, None]) @ L).tocsr()


def _spsolve_checked(M: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error", sp.linalg.MatrixRankWarning)
        try:
            out = spsolve(M.tocsc(), rhs)
        except (RuntimeError, sp.linalg.MatrixRankWarning) as exc:
            raise NumericError("singular spline system") from exc
    if not np.all(np.isfinite(out)):
        raise NumericError("singular spline system")
    return out


def _solve_spline(t, y, k, lam):
    knots = _site_knots(t, k)
    m = len(knots) - k - 1
    B = BSpline.design_matrix(t, knots, k)
    rhs = B.T @ y
    if lam > 0:
        # Augmented quasi-definite system: equivalent to the normal equations
        # (B^T B + lam K^T K) alpha = B^T y, but the penalty enters through
        # sqrt(lam) * K, so extreme lam does not wash out the data term.
        K = _curvature_factor(knots, k, m)
        root = np.sqrt(lam)
        M = sp.bmat([[B.T @ B, root * K.T],
                     [root * K, -sp.eye(K.shape[0])]], format="csc")
        full = _spsolve_checked(M, np.concatenate([rhs, np.zeros(K.shape[0])]))
        alpha = full[:m]
    else:
        alpha = _spsolve_checked((B.T @ B).tocsc(), rhs)
    return BSpline(knots, alpha, k)


def solve_spline_bincount(t, y, k, lam):
    """``smoothers._solve_spline`` with the band summed by ``np.bincount``."""
    knots = _site_knots(t, k)
    m = len(knots) - k - 1
    first, rows = _basis_rows(t, knots, k)
    k_vals = np.empty(0)
    if lam > 0:
        k_first, k_rows = _curvature_rows(knots, k)
        first, k_vals = np.concatenate([first, k_first]), k_rows.ravel()
    where = np.argsort(np.argsort(np.concatenate([np.arange(m), first + k / 2]), kind="stable"))
    cols = where[first[:, None] + np.arange(k + 1)].ravel()
    at = np.repeat(where[m:], k + 1)
    i, j = np.concatenate([where[m:], at, cols]), np.concatenate([where[m:], cols, at])
    size = len(where)
    half = int(np.max(np.abs(i - j)))
    vals = np.concatenate([rows.ravel(), np.sqrt(lam) * k_vals])
    band = np.bincount((half + i - j) * size + j, np.concatenate([np.ones(size - m), vals, vals]),
                       (2 * half + 1) * size).reshape(2 * half + 1, size)
    rhs = np.bincount(where[m : m + len(y)], y, size)
    return BSpline(knots, _solve_banded(half, band, rhs, "singular spline system")[where[:m]], k)
