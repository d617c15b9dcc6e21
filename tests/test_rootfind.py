"""Bisection inversion: solutions, and the report of components it leaves."""

import warnings

import numpy as np
import pytest

from copulamix.errors import ConvergenceWarning
from copulamix.rootfind import DEFAULT_TOL, MAX_ITER, invert_increasing


def test_reachable_targets_are_solved_without_a_warning():
    target = np.array([0.0, 0.2, 0.7, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = invert_increasing(lambda v: v * v, target)
    assert np.max(np.abs(v * v - target)) <= DEFAULT_TOL


def test_unreachable_targets_warn_once_with_count_and_worst_residual():
    # f never exceeds 0.5 on [0, 1], so the two targets above it stay unsolved;
    # bisection drives both to v = 1, leaving residuals 0.2 and 0.4
    f = lambda v: 0.5 * v  # noqa: E731
    target = np.array([0.25, 0.7, 0.9])
    with pytest.warns(ConvergenceWarning) as record:
        v = invert_increasing(f, target)
    assert len(record) == 1
    message = str(record[0].message)
    assert f"2 of 3 components unconverged after {MAX_ITER} steps" in message
    assert "worst residual 0.4" in message
    assert abs(f(v[0]) - 0.25) <= DEFAULT_TOL
    # the signature stays f, target -> ndarray: callers may re-evaluate f there
    assert np.abs(f(v) - target)[1:] == pytest.approx([0.2, 0.4], abs=1e-12)
