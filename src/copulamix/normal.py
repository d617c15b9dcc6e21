"""Standard normal CDF, PDF, and quantile.

The quantile uses a rational minimax approximation (central region plus two
tail regions, absolute error below 1.2e-9) refined by a single Newton step
against the erfc-based CDF, which brings the error to a few ulp across
(1e-15, 1 - 1e-15).  The quantile is elementwise and its fixed cost per call
(a dozen array passes and their checks) outweighs its cost per element below
a few thousand elements, so callers pass whole blocks of rows at once.
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

# Values per quantile call that block callers aim for: large enough that the
# fixed cost per call fades, small enough that the temporaries stay in cache.
BLOCK_ELEMS = 2 ** 15


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


def _horner(coefs, x):
    """coefs[0] x^k + ... + coefs[k], as (((c0 x + c1) x + c2) ...) in place."""
    out = coefs[0] * x
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _rational_central(q):
    r = q * q
    num = _horner(_A, r)
    num *= q
    num /= _horner(_B + (1.0,), r)
    return num


def _rational_tail(q):
    num = _horner(_C, q)
    num /= _horner(_D + (1.0,), q)
    return num


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
    # which it would lose to cancellation near q = 1.  1 - q < 0.5 < q
    # exactly when q > 0.5, so the minimum is the fold.  The central branch
    # runs on every element and the tail branch only where q < _P_LOW (about
    # 5% of a uniform sample); each element's arithmetic is the same either way.
    upper = q > 0.5
    q = np.minimum(q, 1.0 - q)
    x = _rational_central(q - 0.5)
    low = q < _P_LOW
    if low.any():
        x[low] = _rational_tail(np.sqrt(-2.0 * np.log(q[low])))

    # One Newton step against the erfc-backed CDF. The pdf stays positive
    # down to the smallest subnormal p (x = -38.47 there, pdf 1.9e-322), so
    # the division needs no guard against a zero pdf.
    pdf = norm_pdf(x)
    step = norm_cdf(x)
    step -= q
    step /= pdf
    x -= step
    np.negative(x, out=x, where=upper)  # negating after the step keeps the sign of zero

    return float(x[0]) if scalar else x.reshape(arr.shape)
