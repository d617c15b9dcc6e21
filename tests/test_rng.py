"""Seeded stream construction and the open-interval uniform sampler."""

import numpy as np
import pytest

from copulamix.rng import derive_seed, open_uniform, open_uniform_rows, stream

_LO = 2.0**-53
_HI = 1.0 - 2.0**-53


def test_streams_are_reproducible_and_purpose_separated():
    a = stream(123, 0).random(8)
    b = stream(123, 0).random(8)
    c = stream(123, 1).random(8)
    d = stream(124, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(42, 7) == derive_seed(42, 7)
    children = {derive_seed(42, i) for i in range(1000)}
    assert len(children) == 1000
    assert children.isdisjoint({derive_seed(43, i) for i in range(1000)})


def test_open_uniform_stays_inside_the_open_interval():
    gen = stream(99, 0)
    x = open_uniform(gen, size=200_000)
    assert x.min() >= _LO
    assert x.max() <= _HI
    assert not np.any(x == 0.5)


def test_open_uniform_scalar_mode():
    gen = stream(5, 0)
    x = open_uniform(gen)
    assert isinstance(x, float)
    assert _LO <= x <= _HI


def test_open_uniform_is_uniform():
    gen = stream(7, 0)
    x = open_uniform(gen, size=100_000)
    hist, _ = np.histogram(x, bins=20, range=(0.0, 1.0))
    # 20 bins of 5000 expected; 5 sigma is about 330
    assert np.abs(hist - 5000).max() < 400
    assert abs(x.mean() - 0.5) < 0.005


def test_huge_seeds_are_accepted():
    gen = stream(2**64 - 1, 3)
    x = open_uniform(gen, size=10)
    assert np.all((x > 0.0) & (x < 1.0))
    assert derive_seed(2**64 - 1, 0) >= 0


@pytest.mark.parametrize("purpose", [0, 1, 2])
def test_open_uniform_rows_equal_the_single_streams(purpose):
    seeds = [0, 1, 2**64 - 1, derive_seed(31, 4), 123456789]
    for rows in (seeds, seeds[:1], []):
        for size in (0, 1, 3, 1001):
            mat = open_uniform_rows(rows, purpose, size)
            assert mat.shape == (len(rows), size)
            for s, row in zip(rows, mat):
                assert row.tobytes() == open_uniform(stream(s, purpose), size).tobytes()
