"""Normal quantile, CDF, and density against scipy and frozen values."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from copulamix.chains import Normal
from copulamix.errors import DomainError
from copulamix.normal import _A, _B, _C, _D, _P_LOW, norm_cdf, norm_pdf, norm_ppf
from copulamix.rng import NORMAL_STREAM, open_uniform, stream


def masked_ppf(p):
    """The quantile computed branch by branch through boolean indexing.

    The rational branches are written out here as nested Horner expressions
    rather than imported, so this reference shares no arithmetic with
    norm_ppf.  norm_ppf runs the central branch on every element and
    overwrites the tail elements, folds with a minimum and steps in place;
    each element goes through the same operations either way, so the two
    must agree bit for bit.
    """
    q = np.array(p, dtype=float)
    upper = q > 0.5
    q[upper] = 1.0 - q[upper]
    x = np.empty_like(q)
    low = q < _P_LOW
    c = q[~low] - 0.5
    r = c * c
    num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
    den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    x[~low] = c * num / den
    t = np.sqrt(-2.0 * np.log(q[low]))
    num = ((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]
    den = (((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0
    x[low] = num / den
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
    # the branch cut, its mirror and the fold point, with both neighbours
    edges = [np.nextafter(e, to) for e in (_P_LOW, 1.0 - _P_LOW, 0.5) for to in (0.0, e, 1.0)]
    p = np.concatenate([
        np.random.default_rng(7).random(1_000_000),
        open_uniform(stream(11, NORMAL_STREAM), 1_000_000),  # the lattice chains draw from
        tail,
        1.0 - tail[:-1],
        edges,
        [5e-324, 1e-320, 1e-300],  # subnormal and tiny: the smallest pdf values
    ])
    assert norm_ppf(p).tobytes() == masked_ppf(p).tobytes()
    for s in (1e-15, 0.3, 0.5, 0.975, 1.0 - 1e-15, 5e-324, *edges):
        assert norm_ppf(s) == masked_ppf([s])[0]
    # a block of rows, as the estimator passes it: each row gets the bits a
    # call on that row alone gives
    block = open_uniform(stream(12, NORMAL_STREAM), (16, 2000))
    x = norm_ppf(block)
    assert x.shape == (16, 2000)
    assert x.tobytes() == masked_ppf(block).tobytes()
    for row, xr in zip(block, x):
        assert norm_ppf(row).tobytes() == xr.tobytes()


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
