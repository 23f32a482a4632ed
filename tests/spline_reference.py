"""The smoothing spline's sparse SuperLU solve, kept as the test oracle.

This is how ``derivkit.smoothers`` used to fit its splines: the curvature
factor ``K`` built from two sparse derivative transforms, the normal matrix
``B^T B`` formed explicitly, and the system ``[[B^T B, sqrt(lam) K^T],
[sqrt(lam) K, -I]]`` (or ``B^T B`` alone when ``lam = 0``) factored by
SuperLU. Tests compare the banded augmented least-squares solve against it.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import BSpline
from scipy.sparse.linalg import spsolve

from derivkit.core import NumericError
from derivkit.smoothers import _site_knots


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
