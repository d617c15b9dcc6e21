"""Stationary chain sampling: determinism, law correctness, marginals, CSV."""

import hashlib
import sys

import numpy as np
import pytest
import scipy.stats

from copulamix.chains import (
    ChainSample,
    Normal,
    Uniform01,
    _plan,
    apply_marginal,
    chain_to_csv,
    iid_normal_matrix,
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
    Reflected,
    cdf,
    fold,
    n_fold,
)
from copulamix import rootfind
from copulamix.errors import DomainError, UnsupportedCopulaError
from copulamix.rng import CHAIN_STREAM, SELECTOR_STREAM, derive_seed, open_uniform_rows
from oracles import amh_transition_root

SAMPLEABLE = (
    PI,
    M,
    W,
    Fgm(0.6),
    Mardia(0.3, 0.2),
    Frechet(0.6),
    Gaussian(0.5),
    Amh(-1.0),
    Amh(0.5),
    Convex((0.6, 0.4), (Fgm(0.6), M)),
    Convex((0.5, 0.3, 0.2), (Frechet(0.6), Fgm(0.6), PI)),
    fold(Frechet(0.6), Amh(0.5)),  # AMH, AMH reflected and Pi
    NumericFold(Fgm(0.8), Gaussian(0.4)),
    n_fold(Amh(0.5), 3),
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
    seeds = [5, 6, 7]
    for c in SAMPLEABLE:
        mat = uniform_chain_matrix(c, 50, seeds)
        assert mat.shape == (3, 50)
        for row, seed in enumerate(seeds):
            single = sample_chain(c, 50, seed)
            assert mat[row].tobytes() == single.uniforms.tobytes(), (c, seed)


# SHA-256 of uniform_chain_matrix(c, 257, seeds) for five derived seeds.  These
# families step with IEEE-exact operations only (+, -, *, /, sqrt, comparisons),
# so the little-endian digests hold on every platform; Gaussian and numeric folds
# go through libm and are left out.
PINNED_DIGESTS = (
    (PI, "c6295b902193faf84b15814f91fa14a582d92dc8c60561624ed89355e7b0e90f"),
    (M, "60fa5fb447978827c4243e28585961a67d0bc2a719da97f936ffb93d2eb794b5"),
    (W, "fd130982e0ce322c62e74718db2d3d79cb5fe8dfbd3dc673b6b0235b79066809"),
    (Mardia(0.3, 0.2), "a4fee8129e001b6dd7f4546d0994207538b00cdd49e4d2bc52648d3a497487f4"),
    (Frechet(0.6), "953cb0481f063985f899392c983a3c6e9d62d2856aaaad3fd7c9060eb7730ff1"),
    (Fgm(0.6), "b3dc7769ba88e6dafe11d4636579ed0f3fc8a5912a3021aafe1e54f3a5b0fe0b"),
    (Convex((0.6, 0.4), (Fgm(0.6), M)),
     "4e52f0b544769d6acba121e52acf07bc632f6973bfbee7356f926e1978dfe6fc"),
    (Convex((0.5, 0.3, 0.2), (Frechet(0.6), Fgm(0.6), PI)),
     "3f5f0d4620b26db828c8762ee11c4d4f37b6768d28148d32783a205808be4cf4"),
)


@pytest.mark.parametrize("c, digest", PINNED_DIGESTS,
                         ids=[repr(c)[:40] for c, _ in PINNED_DIGESTS])
def test_chains_match_pinned_digests(c, digest):
    seeds = [derive_seed(2026, r) for r in range(5)]
    mat = uniform_chain_matrix(c, 257, seeds)
    assert hashlib.sha256(mat.astype("<f8").tobytes()).hexdigest() == digest


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


def _step_rule(c, draws):
    """The chain of every row of draws, one cond_u_inv_raw call per step."""
    u = draws.copy()
    for t in range(1, u.shape[1]):
        u[:, t] = c.cond_u_inv_raw(u[:, t - 1], u[:, t])
    return u


@pytest.mark.parametrize("r", (-0.999, -0.9, 0.5, 0.9, 0.99))
def test_gaussian_score_path_follows_the_step_rule(r):
    # 40 rows of 2000 steps span three step blocks
    seeds = [derive_seed(77, i) for i in range(40)]
    draws = open_uniform_rows(seeds, CHAIN_STREAM, 2000)
    u = uniform_chain_matrix(Gaussian(r), 2000, seeds)
    ref = _step_rule(Gaussian(r), draws)
    assert u[:, 0].tobytes() == draws[:, 0].tobytes()
    assert np.max(np.abs(u - ref)) <= 1e-11
    assert u.min() >= _LO and u.max() <= _HI


def test_gaussian_score_path_clips_at_the_state_bounds():
    # ten extreme draws push the score past the bounds' scores; the step rule
    # restarts from the clipped state, so the score path must too.  Near 1 a
    # state keeps only absolute precision and the step rule's scores lose
    # digits, so the upper row is checked as the mirror of the lower one.
    draws = np.full((2, 60), 0.5)
    draws[0, :11], draws[1, :11] = _LO, _HI
    u = draws.copy()
    Gaussian(0.9).chain_raw(u)
    assert np.max(np.abs(u[0] - _step_rule(Gaussian(0.9), draws[:1])[0])) <= 1e-11
    assert np.max(np.abs(u[1] - (1.0 - u[0]))) <= 1e-15


def test_gaussian_batch_rows_match_single_chains_across_step_blocks():
    # a 40-row batch takes its steps in blocks of 819, a single chain in one block
    seeds = [derive_seed(78, i) for i in range(40)]
    mat = uniform_chain_matrix(Gaussian(0.9), 2000, seeds)
    for i in (0, 17, 39):
        assert mat[i].tobytes() == sample_chain(Gaussian(0.9), 2000, seeds[i]).uniforms.tobytes()


def test_gaussian_part_of_a_mixture_keeps_its_step_rule():
    c = Convex((0.5, 0.5), (Gaussian(0.7), Fgm(0.6)))
    seeds = [derive_seed(79, i) for i in range(6)]
    n = 300
    u = open_uniform_rows(seeds, CHAIN_STREAM, n)
    sel = open_uniform_rows(seeds, SELECTOR_STREAM, n - 1)
    (cut,), (first, second) = np.cumsum(c.weights)[:-1], c.components
    for t in range(1, n):
        prev, w = u[:, t - 1], u[:, t]
        u[:, t] = np.where(sel[:, t - 1] >= cut, second.cond_u_inv_raw(prev, w),
                           first.cond_u_inv_raw(prev, w))
    assert uniform_chain_matrix(c, n, seeds).tobytes() == u.tobytes()


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
        assert _plan(c)[0] == 0
    assert _plan(Mardia(0.0, 0.0))[0] == 1
    assert _plan(Frechet(0.6))[0] == 1
    assert _plan(Convex((0.5, 0.5), (Frechet(0.6), M)))[0] == 2
    assert _plan(Convex((0.5, 0.5), (Fgm(0.6), PI)))[0] == 1
    # a fold takes one draw for its right factor's step and the draws of both factors
    assert _plan(NumericFold(Fgm(0.8), Gaussian(0.4)))[0] == 1
    assert _plan(NumericFold(Convex((0.5, 0.5), (Fgm(0.6), PI)), Amh(0.5)))[0] == 2
    assert _plan(n_fold(Amh(0.5), 4))[0] == 3


def test_convex_chain_mixes_component_transitions():
    c = Convex((0.6, 0.4), (Fgm(0.6), M))
    u = sample_chain(c, 30_000, 51).uniforms
    copies = np.mean(u[1:] == u[:-1])
    assert copies == pytest.approx(0.4, abs=0.01)
    d = scipy.stats.kstest(u, "uniform").statistic
    assert d < 0.015


def test_fgm_transition_solves_the_conditional_cdf():
    # the closed-form root must hit C_u(v) = w, also at u = 1/2 where the FGM
    # quadratic degenerates to the identity; the AMH root must hit it too
    u = np.concatenate(([0.5, 1e-9, 1.0 - 1e-9], np.linspace(0.005, 0.995, 199)))
    uu, ww = np.meshgrid(u, np.linspace(1e-6, 1.0 - 1e-6, 401))
    uu, ww = uu.ravel(), ww.ravel()
    reflected = (Reflected(Amh(theta), *flips) for theta in (-1.0, 0.5)
                 for flips in ((True, False), (False, True), (True, True)))
    for c in (*(Fgm(theta) for theta in (-1.0, -0.5, 0.0, 0.6, 1.0)), Amh(-1.0), Amh(0.5),
              *reflected):
        v = c.cond_u_inv_raw(uu, ww)
        assert np.max(np.abs(c.cond_u_raw(uu, v) - ww)) <= 1e-12, c


@pytest.mark.parametrize("theta", (-1.0, -0.5, 0.0, 0.3, 0.5, 0.9, 1.0))
def test_amh_transition_matches_the_decimal_root(theta):
    # the closed-form root against a 50-digit reference, near both ends of
    # the state range, where j = 1 - theta (1 - u) or the discriminant
    # would lose digits if formed naively
    grid = np.array([1e-7, 3e-7, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 3e-7, 1.0 - 1e-7])
    uu, ww = (a.ravel() for a in np.meshgrid(grid, grid))
    v = Amh(theta).cond_u_inv_raw(uu, ww)
    ref = np.array([amh_transition_root(theta, u, w) for u, w in zip(uu, ww)])
    assert np.max(np.abs(v - ref) / ref) <= 1e-13


def test_amh_joint_frequency_matches_the_cdf():
    c = Amh(0.5)
    u = sample_chain(c, 30_000, 23).uniforms
    hit = np.mean((u[:-1] <= 0.3) & (u[1:] <= 0.3))
    assert hit == pytest.approx(cdf(c, 0.3, 0.3), abs=0.01)
    d = scipy.stats.kstest(u, "uniform").statistic
    assert d < 0.015


def test_quadrature_fold_chain_stays_uniform():
    c = NumericFold(Fgm(0.8), Gaussian(0.4))
    u = sample_chain(c, 400, 61).uniforms
    d = scipy.stats.kstest(u, "uniform").statistic
    assert d < 0.1


def test_fold_chain_steps_its_factors():
    # L * R moves by L on the chain draw, then by R on the selector draw
    c = NumericFold(Fgm(0.8), Amh(0.5))
    seeds = [derive_seed(62, i) for i in range(6)]
    n = 300
    u = open_uniform_rows(seeds, CHAIN_STREAM, n)
    sel = open_uniform_rows(seeds, SELECTOR_STREAM, n - 1)
    for t in range(1, n):
        u[:, t] = c.right.cond_u_inv_raw(c.left.cond_u_inv_raw(u[:, t - 1], u[:, t]),
                                         sel[:, t - 1])
    assert uniform_chain_matrix(c, n, seeds).tobytes() == u.tobytes()
    with pytest.raises(UnsupportedCopulaError):
        c.cond_u_inv_raw(u[:, 0], u[:, 1])


FOLD_CHAINS = (
    NumericFold(Fgm(0.8), Gaussian(0.4)),
    NumericFold(Amh(0.9), Amh(0.9)),
    NumericFold(Amh(-1.0), Reflected(Amh(0.7), True, False)),
    n_fold(Amh(0.5), 3),
    Reflected(NumericFold(Amh(0.9), Gaussian(0.5)), True, False),
    Reflected(Convex((0.5, 0.5), (Fgm(0.6), M)), False, True),
    Reflected(Mardia(0.3, 0.2), True, False),
)


@pytest.mark.parametrize("c", FOLD_CHAINS, ids=lambda c: repr(c)[:40])
def test_fold_chain_joint_frequency_matches_the_cdf(c):
    u = uniform_chain_matrix(c, 500, range(100, 160))  # 60 chains, 29 940 steps
    for a, b in ((0.3, 0.3), (0.3, 0.8), (0.7, 0.5)):
        hit = np.mean((u[:, :-1] <= a) & (u[:, 1:] <= b))
        assert hit == pytest.approx(cdf(c, a, b), abs=0.01), (a, b)
    assert scipy.stats.kstest(u.ravel(), "uniform").statistic < 0.015
    assert u.min() >= _LO and u.max() <= _HI


def test_fold_chains_find_no_root(monkeypatch):
    def no_root(*args, **kwargs):
        raise AssertionError("a chain step called the root finder")

    # every binding of the root finder in the package, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "copulamix":
            for attr, value in list(vars(module).items()):
                if value is rootfind.invert_increasing:
                    monkeypatch.setattr(module, attr, no_root)
    c = Convex((0.9, 0.1), (PI, NumericFold(Fgm(0.8), Gaussian(0.4))))
    assert uniform_chain_matrix(c, 100, range(20)).shape == (20, 100)
    assert uniform_chain_matrix(n_fold(Amh(0.5), 4), 100, range(20)).shape == (20, 100)


def test_reflected_amh_joint_frequency_matches_the_cdf():
    for c in (fold(Frechet(0.6), Amh(0.5)), Reflected(Amh(0.9), True, False),
              Reflected(Amh(0.9), False, True)):
        u = uniform_chain_matrix(c, 500, range(24, 84))  # 60 chains, 29 940 steps
        for a, b in ((0.3, 0.3), (0.3, 0.8)):
            hit = np.mean((u[:, :-1] <= a) & (u[:, 1:] <= b))
            assert hit == pytest.approx(cdf(c, a, b), abs=0.01), (c, a, b)
        assert scipy.stats.kstest(u.ravel(), "uniform").statistic < 0.015, c


def test_singular_fold_is_rejected_at_construction():
    # a fold with a singular factor has a closed form, which samples
    with pytest.raises(DomainError):
        NumericFold(Frechet(0.6), Gaussian(0.5))
    c = fold(Frechet(0.6), Gaussian(0.5))
    assert _plan(c)[0] == 1
    assert scipy.stats.kstest(sample_chain(c, 2000, 1).uniforms, "uniform").statistic < 0.05


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


def test_iid_normal_matrix_rows_are_the_single_samples_bitwise():
    seeds = [derive_seed(17, r) for r in range(5)]
    mat = iid_normal_matrix(300, seeds)
    assert mat.shape == (5, 300)
    for s, row in zip(seeds, mat):
        assert row.tobytes() == sample_iid_normal(300, s).tobytes()
    assert iid_normal_matrix(0, seeds).shape == (5, 0)
    assert iid_normal_matrix(300, []).shape == (0, 300)
    with pytest.raises(DomainError):
        iid_normal_matrix(-1, seeds)


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
