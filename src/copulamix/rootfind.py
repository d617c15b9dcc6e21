"""Elementwise inversion of increasing functions on [0, 1].

Used to invert conditional copula CDFs that have no closed-form inverse:
plain bisection on numpy arrays, with a hard bracket around every component.
A call that leaves components unconverged says so with a ConvergenceWarning.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .errors import ConvergenceWarning

DEFAULT_TOL = 1e-12
MAX_ITER = 100


def invert_increasing(f: Callable[[np.ndarray], np.ndarray], target) -> np.ndarray:
    """Solve f(v) = target elementwise for v in [0, 1].

    ``f`` must be nondecreasing in each component with f(0) <= target <= f(1).
    Components stop once |f(v) - target| <= DEFAULT_TOL; the rest stop after
    MAX_ITER bisection steps, and one ConvergenceWarning gives their count and
    worst residual.
    """
    w = np.asarray(target, dtype=float)
    lo = np.zeros_like(w)
    hi = np.ones_like(w)
    v = np.clip(w, 0.0, 1.0)
    for _ in range(MAX_ITER):
        resid = f(v) - w
        done = np.abs(resid) <= DEFAULT_TOL
        if bool(np.all(done)):
            return v
        hi = np.where(resid > 0.0, np.minimum(hi, v), hi)
        lo = np.where(resid < 0.0, np.maximum(lo, v), lo)
        v = np.where(done, v, 0.5 * (lo + hi))
    resid = np.abs(f(v) - w)
    left = ~(resid <= DEFAULT_TOL)
    if left.any():
        warnings.warn(
            f"invert_increasing: {int(np.count_nonzero(left))} of {left.size} components "
            f"unconverged after {MAX_ITER} steps, worst residual {float(np.max(resid[left])):.3g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return v
