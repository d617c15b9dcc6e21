"""Normal quantile, CDF, and density against scipy and frozen values."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from copulamix.chains import Normal
from copulamix.errors import DomainError
from copulamix.normal import _P_LOW, _rational_central, _rational_tail, norm_cdf, norm_pdf, norm_ppf


def masked_ppf(p):
    """The quantile computed branch by branch through boolean indexing.

    norm_ppf selects with np.where instead; each element goes through the
    same operations either way, so the two must agree bit for bit.
    """
    q = np.array(p, dtype=float)
    upper = q > 0.5
    q[upper] = 1.0 - q[upper]
    x = np.empty_like(q)
    low = q < _P_LOW
    x[~low] = _rational_central(q[~low] - 0.5)
    x[low] = _rational_tail(np.sqrt(-2.0 * np.log(q[low])))
    pdf = norm_pdf(x)
    err = norm_cdf(x) - q
    x = x - np.where(pdf > 0.0, err / np.where(pdf > 0.0, pdf, 1.0), 0.0)
    x[upper] = -x[upper]
    return x


def test_ppf_matches_scipy_across_the_open_interval():
    p = np.concatenate([
        np.linspace(1e-12, 1e-3, 50),
        np.linspace(1e-3, 1 - 1e-3, 200),
        np.linspace(1 - 1e-3, 1 - 1e-12, 50),
    ])
    err = np.abs(norm_ppf(p) - scipy.stats.norm.ppf(p))
    assert err.max() < 1e-12


def test_ppf_equals_the_branchwise_reference_bit_for_bit():
    tail = np.geomspace(1e-15, 0.5, 20_001)
    p = np.concatenate([
        np.random.default_rng(7).random(1_000_000),
        tail,
        1.0 - tail[:-1],
        [_P_LOW, np.nextafter(_P_LOW, 0.0), 1.0 - _P_LOW, np.nextafter(0.5, 1.0)],
    ])
    assert norm_ppf(p).tobytes() == masked_ppf(p).tobytes()
    for s in (1e-15, 0.3, 0.5, 0.975, 1.0 - 1e-15):
        assert norm_ppf(s) == masked_ppf([s])[0]


def test_ppf_frozen_value():
    # z for a two-sided 95% interval
    assert norm_ppf(0.975) == pytest.approx(1.9599639845400538, abs=1e-14)


def test_cdf_and_pdf_match_scipy():
    x = np.linspace(-8.0, 8.0, 321)
    assert np.abs(norm_cdf(x) - scipy.stats.norm.cdf(x)).max() < 1e-14
    assert np.abs(norm_pdf(x) - scipy.stats.norm.pdf(x)).max() < 1e-14


def test_ppf_rejects_endpoints_and_outside():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            norm_ppf(p)


def test_ppf_rejects_nan_and_keeps_empty_input():
    with pytest.raises(DomainError):
        norm_ppf(float("nan"))
    with pytest.raises(DomainError):
        norm_ppf(np.array([0.3, np.nan]))
    with pytest.raises(DomainError):
        Normal(0.0, 1.0).quantile(np.array([np.nan, 0.4]))
    assert norm_ppf(np.array([])).shape == (0,)
    assert norm_ppf(np.empty((0, 3))).shape == (0, 3)


def test_ppf_keeps_shape_and_sign_of_zero():
    p = np.array([[0.5, 0.25], [0.75, 1e-15]])
    x = norm_ppf(p)
    assert x.shape == (2, 2)
    assert x[0, 0] == 0.0 and not np.signbit(x[0, 0])
    assert x[1, 0] == -x[0, 1]  # 0.75 = 1 - 0.25 exactly
    assert isinstance(norm_ppf(0.25), float)


def test_cdf_ppf_round_trip():
    p = np.linspace(1e-8, 1 - 1e-8, 1001)
    assert np.abs(norm_cdf(norm_ppf(p)) - p).max() < 1e-12


@given(st.floats(min_value=1e-4, max_value=0.5))
def test_ppf_is_odd_around_half(p):
    # below 1e-4 the quantity 1 - p itself rounds away more than the
    # tolerance, so the identity is only meaningful on this range
    assert norm_ppf(1.0 - p) == pytest.approx(-norm_ppf(p), abs=1e-12)


@given(st.floats(min_value=1e-10, max_value=0.5 - 1e-12),
       st.floats(min_value=1e-12, max_value=0.49))
def test_ppf_is_increasing(p, gap):
    q = min(p + gap, 1 - 1e-10)
    assert norm_ppf(p) < norm_ppf(q)
