"""Composite Gauss-Legendre quadrature on [0, 1].

The rule is built from 32-point panels laid over a graded partition that
clusters panels toward both interval endpoints, where copula conditionals
composed with normal quantiles lose smoothness.  Fold integrands are smooth
inside (0, 1): a fold with a singular factor has a closed form instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GAUSS_ORDER = 32

# Relative offsets of panel boundaries within the left half of a segment;
# mirrored onto the right half.
_LADDER = (1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.3, 0.5)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _graded_offsets() -> np.ndarray:
    left = np.array((0.0,) + _LADDER)
    right = 1.0 - left[-2::-1]
    return np.concatenate([left, right])


_OFFSETS = _graded_offsets()


def _panel_rule(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * (b - a)
    return a + half * (_GL_NODES + 1.0), half * _GL_WEIGHTS


@lru_cache(maxsize=None)
def unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating over (0, 1): a graded stack of 32-point
    Gauss-Legendre panels, every node strictly inside the interval."""
    nodes, weights = zip(*(_panel_rule(lo, hi) for lo, hi in zip(_OFFSETS[:-1], _OFFSETS[1:])))
    return np.concatenate(nodes), np.concatenate(weights)
