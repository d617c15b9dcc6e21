"""Standard normal CDF, PDF, and quantile.

The quantile uses a rational minimax approximation (central region plus two
tail regions, absolute error below 1.2e-9) refined by a single Newton step
against the erfc-based CDF, which brings the error to a few ulp across
(1e-15, 1 - 1e-15).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from .errors import DomainError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Rational approximation coefficients (Acklam's fit).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def norm_cdf(x):
    """CDF of the standard normal distribution."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def norm_pdf(x):
    """Density of the standard normal distribution."""
    x = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def _rational_central(q):
    r = q * q
    num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
    den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    return q * num / den


def _rational_tail(q):
    num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
    return num / den


def norm_ppf(p):
    """Quantile of the standard normal distribution for p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    # min/max comparisons are False on NaN, so NaN is rejected too
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise DomainError("norm_ppf requires p strictly inside (0, 1)")
    scalar = arr.ndim == 0
    q = np.atleast_1d(arr)

    # Work in the lower half only: 1 - q is exact for q >= 0.5, and the
    # Newton residual norm_cdf(x) - q keeps full relative accuracy there,
    # which it would lose to cancellation near q = 1.  Both rational branches
    # run on every element and np.where picks one, which costs less than
    # boolean indexing and leaves each element's arithmetic unchanged.
    upper = q > 0.5
    q = np.where(upper, 1.0 - q, q)
    x = np.where(q < _P_LOW, _rational_tail(np.sqrt(-2.0 * np.log(q))), _rational_central(q - 0.5))

    # One Newton step against the erfc-backed CDF. The pdf never underflows
    # on the supported range (|x| stays below ~8.3 for p >= 1e-15).
    pdf = norm_pdf(x)
    err = norm_cdf(x) - q
    step = np.where(pdf > 0.0, err / np.where(pdf > 0.0, pdf, 1.0), 0.0)
    x = x - step
    x = np.where(upper, -x, x)  # negating after the step keeps the sign of zero

    return float(x[0]) if scalar else x.reshape(arr.shape)
