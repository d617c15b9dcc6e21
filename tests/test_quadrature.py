"""The composite unit-interval quadrature rule."""

import numpy as np
import pytest

from copulamix.quadrature import GAUSS_ORDER, unit_rule


def test_rule_lives_strictly_inside_the_interval():
    t, w = unit_rule()
    assert t.min() > 0.0 and t.max() < 1.0
    assert (w > 0.0).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_polynomials_integrate_exactly():
    t, w = unit_rule()
    for k in range(0, 2 * GAUSS_ORDER - 1):
        assert w @ t**k == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_endpoint_singularities_are_graded_away():
    t, w = unit_rule()
    assert w @ np.log(t) == pytest.approx(-1.0, abs=1e-12)
    assert w @ (1.0 / np.sqrt(t)) == pytest.approx(2.0, rel=1e-5)


def test_rule_is_cached():
    assert unit_rule() is unit_rule()
