"""Stationary chain sampling: determinism, law correctness, marginals, CSV."""

import numpy as np
import pytest
import scipy.stats

from copulamix.chains import (
    ChainSample,
    Normal,
    Uniform01,
    _selector_need,
    _transition,
    apply_marginal,
    chain_to_csv,
    sample_chain,
    sample_iid_normal,
    uniform_chain_matrix,
)
from copulamix.copulas import (
    PI,
    M,
    W,
    Amh,
    Convex,
    Fgm,
    Frechet,
    Gaussian,
    Mardia,
    NumericFold,
    cdf,
)
from copulamix.errors import DomainError, UnsupportedCopulaError

SAMPLEABLE = (
    PI,
    M,
    W,
    Fgm(0.6),
    Mardia(0.3, 0.2),
    Frechet(0.6),
    Gaussian(0.5),
    Amh(-1.0),
    Convex((0.6, 0.4), (Fgm(0.6), M)),
    Convex((0.5, 0.3, 0.2), (Frechet(0.6), Fgm(0.6), PI)),
)

_LO = 0.5**53
_HI = 1.0 - 0.5**53


@pytest.mark.parametrize("c", SAMPLEABLE, ids=lambda c: repr(c)[:40])
def test_chains_are_deterministic_and_stay_open(c):
    a = sample_chain(c, 64, 123)
    b = sample_chain(c, 64, 123)
    other = sample_chain(c, 64, 124)
    assert np.array_equal(a.uniforms, b.uniforms)
    assert not np.array_equal(a.uniforms, other.uniforms)
    assert len(a) == 64
    assert a.uniforms.min() >= _LO and a.uniforms.max() <= _HI


def test_batch_rows_match_single_chains_bitwise():
    c = Convex((0.6, 0.4), (Fgm(0.6), M))
    seeds = [5, 6, 7]
    mat = uniform_chain_matrix(c, 50, seeds)
    assert mat.shape == (3, 50)
    for row, seed in enumerate(seeds):
        single = sample_chain(c, 50, seed)
        assert np.array_equal(mat[row], single.uniforms)


def test_pi_chain_is_iid_uniform():
    u = sample_chain(PI, 20_000, 9).uniforms
    d = scipy.stats.kstest(u, "uniform").statistic
    assert d < 0.015
    # consecutive values decorrelate
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.02


def test_m_chain_is_constant_and_w_chain_alternates():
    um = sample_chain(M, 100, 11).uniforms
    assert np.all(um == um[0])
    uw = sample_chain(W, 100, 11).uniforms
    assert np.allclose(uw[2:], uw[:-2], atol=1e-15)
    assert np.allclose(uw[1:] + uw[:-1], 1.0, atol=1e-12)


def test_fgm_joint_frequency_matches_the_cdf():
    c = Fgm(0.6)
    u = sample_chain(c, 30_000, 21).uniforms
    hit = np.mean((u[:-1] <= 0.5) & (u[1:] <= 0.5))
    assert hit == pytest.approx(cdf(c, 0.5, 0.5), abs=0.01)
    d = scipy.stats.kstest(u, "uniform").statistic
    assert d < 0.015


def test_gaussian_chain_recovers_the_score_correlation():
    r = 0.5
    u = sample_chain(Gaussian(r), 30_000, 31).uniforms
    z = scipy.stats.norm.ppf(u)
    rho = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert rho == pytest.approx(r, abs=0.02)


def test_mardia_branch_frequencies():
    c = Mardia(0.3, 0.2)
    u = sample_chain(c, 30_000, 41).uniforms
    copies = np.mean(u[1:] == u[:-1])
    flips = np.mean(u[1:] == 1.0 - u[:-1])
    assert copies == pytest.approx(0.3, abs=0.01)
    assert flips == pytest.approx(0.2, abs=0.01)


def test_selector_draws_per_step():
    # Pi, M and W are Mardia members but take their transitions without a branch draw
    for c in (PI, M, W):
        assert _selector_need(c) == 0
    assert _selector_need(Mardia(0.0, 0.0)) == 1
    assert _selector_need(Frechet(0.6)) == 1
    assert _selector_need(Convex((0.5, 0.5), (Frechet(0.6), M))) == 2
    assert _selector_need(Convex((0.5, 0.5), (Fgm(0.6), PI))) == 1


def test_convex_chain_mixes_component_transitions():
    c = Convex((0.6, 0.4), (Fgm(0.6), M))
    u = sample_chain(c, 30_000, 51).uniforms
    copies = np.mean(u[1:] == u[:-1])
    assert copies == pytest.approx(0.4, abs=0.01)
    d = scipy.stats.kstest(u, "uniform").statistic
    assert d < 0.015


def test_fgm_transition_solves_the_conditional_cdf():
    # the closed-form root must hit C_u(v) = w, also at u = 1/2 where the
    # quadratic degenerates to the identity
    u = np.concatenate(([0.5, 1e-9, 1.0 - 1e-9], np.linspace(0.005, 0.995, 199)))
    uu, ww = np.meshgrid(u, np.linspace(1e-6, 1.0 - 1e-6, 401))
    uu, ww = uu.ravel(), ww.ravel()
    for theta in (-1.0, -0.5, 0.0, 0.6, 1.0):
        c = Fgm(theta)
        v = _transition(c, uu, ww, None)
        assert np.max(np.abs(c.cond_u_raw(uu, v) - ww)) <= 1e-12


def test_quadrature_fold_chain_stays_uniform():
    c = NumericFold(Fgm(0.8), Gaussian(0.4))
    u = sample_chain(c, 400, 61).uniforms
    d = scipy.stats.kstest(u, "uniform").statistic
    assert d < 0.1


def test_unsampleable_fold_is_rejected():
    bad = NumericFold(Frechet(0.6), Gaussian(0.5))
    with pytest.raises(UnsupportedCopulaError):
        sample_chain(bad, 10, 1)


def test_chain_length_validation():
    with pytest.raises(DomainError):
        sample_chain(PI, 0, 1)
    chain = sample_chain(PI, 1, 1)
    assert len(chain) == 1


def test_apply_marginal_transforms_and_records():
    s = sample_chain(Fgm(0.6), 500, 71)
    out = apply_marginal(s, Normal(30.0, 2.0))
    assert isinstance(out.marginal, Normal)
    assert np.array_equal(out.uniforms, s.uniforms)
    assert out.values.mean() == pytest.approx(30.0, abs=0.5)
    assert out.values.std() == pytest.approx(2.0, abs=0.2)
    # monotone transform preserves ordering
    order_u = np.argsort(s.uniforms)
    order_y = np.argsort(out.values)
    assert np.array_equal(order_u, order_y)


def test_apply_marginal_rejects_already_transformed_chains():
    s = sample_chain(Fgm(0.6), 50, 71)
    once = apply_marginal(s, Normal(0.0, 1.0))
    with pytest.raises(DomainError):
        apply_marginal(once, Normal(30.0, 1.0))


def test_marginal_validation():
    with pytest.raises(DomainError):
        Normal(0.0, 0.0)
    with pytest.raises(DomainError):
        Normal(float("nan"), 1.0)


def test_sample_iid_normal_moments_and_determinism():
    x = sample_iid_normal(50_000, 81)
    y = sample_iid_normal(50_000, 81)
    assert np.array_equal(x, y)
    assert x.mean() == pytest.approx(0.0, abs=0.02)
    assert x.std() == pytest.approx(1.0, abs=0.02)
    assert sample_iid_normal(0, 81).size == 0


def test_chain_csv_format(tmp_path):
    s = apply_marginal(sample_chain(PI, 3, 7), Normal(30.0, 1.0))
    path = tmp_path / "chain.csv"
    chain_to_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,y"
    assert len(lines) == 4
    t, u, y = lines[1].split(",")
    assert t == "1"
    assert float(u) == s.uniforms[0]
    assert float(y) == s.values[0]
