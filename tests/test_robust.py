"""Tests for the kernel-weighted robust mean and its Monte Carlo wrappers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulamix import robust
from copulamix.normal import norm_ppf
from copulamix import (
    PI,
    M,
    Amh,
    Convex,
    DegenerateSampleError,
    DomainError,
    Fgm,
    Gaussian,
    Normal,
    Uniform01,
    bandwidth,
    default_study_config,
    derive_seed,
    n_fold,
    population_bandwidth,
    replicate_robust_means,
    robust_mean,
    sample_iid_normal,
    uniform_chain_matrix,
    variance_diagnostic,
)


# ---------------------------------------------------------------------------
# bandwidth
# ---------------------------------------------------------------------------

def test_singleton_bandwidth_closed_form():
    # n=1, y=2: (4 / (1 * sqrt(2) * 4))^(1/5) = 2^(-1/10)
    assert bandwidth([2.0]) == pytest.approx(2.0 ** -0.1, abs=1e-15)
    assert bandwidth([2.0]) == pytest.approx(0.9330329915368074, abs=1e-15)


def test_bandwidth_is_scale_free():
    y = [1.0, 2.0, 3.5, 0.25]
    assert bandwidth([7.0 * v for v in y]) == pytest.approx(bandwidth(y), rel=1e-14)
    assert bandwidth([-7.0 * v for v in y]) == pytest.approx(bandwidth(y), rel=1e-14)


def test_bandwidth_shrinks_with_n():
    rng = np.random.default_rng(5)
    y = rng.normal(30.0, 1.0, size=4000)
    assert bandwidth(y[:100]) > bandwidth(y[:1000]) > bandwidth(y)


def test_bandwidth_rejects_bad_samples():
    with pytest.raises(DomainError):
        bandwidth([])
    with pytest.raises(DomainError):
        bandwidth([[1.0, 2.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            bandwidth([1.0, bad, 2.0])
    with pytest.raises(DegenerateSampleError):
        bandwidth([0.0, 0.0, 0.0])
    with pytest.raises(DegenerateSampleError):
        bandwidth([-1.0, 1.0])


def test_population_bandwidth_matches_moment_formula():
    expect = ((1.0 + 900.0) / (20000 * math.sqrt(2.0) * 900.0)) ** 0.2
    assert population_bandwidth(Normal(30.0, 1.0), 20000) == pytest.approx(expect, rel=1e-15)
    expect_u = ((1.0 / 3.0) / (100 * math.sqrt(2.0) * 0.25)) ** 0.2
    assert population_bandwidth(Uniform01(), 100) == pytest.approx(expect_u, rel=1e-15)


def test_population_bandwidth_approximates_large_sample_bandwidth():
    rng = np.random.default_rng(11)
    y = rng.normal(30.0, 1.0, size=200000)
    assert bandwidth(y) == pytest.approx(population_bandwidth(Normal(30.0, 1.0), y.size), rel=1e-3)


# ---------------------------------------------------------------------------
# the estimator itself
# ---------------------------------------------------------------------------

def test_single_point_estimate_closed_form():
    # y=2 at x=0: r_tilde = 2/h, mu_hat = 2 sqrt(1+h^2)/h with h = 2^(-1/10)
    res = robust_mean([2.0], [0.0])
    h = 2.0 ** -0.1
    assert res.h == pytest.approx(h, abs=1e-15)
    assert res.r_tilde == pytest.approx(2.0 / h, rel=1e-15)
    assert res.mu_hat == pytest.approx(2.0 * math.sqrt(1.0 + h * h) / h, rel=1e-15)
    assert res.mu_hat == pytest.approx(2.9316878107991204, abs=1e-13)


def test_interval_is_symmetric_with_the_stated_half_width():
    rng = np.random.default_rng(3)
    y = rng.normal(30.0, 1.0, size=500)
    x = rng.normal(size=500)
    res = robust_mean(y, x, level=0.95)
    half = res.z * math.sqrt(res.mean_y_sq / (res.n * res.h * math.sqrt(2.0)))
    assert res.half_width == pytest.approx(half, rel=1e-15)
    assert res.ci_hi - res.mu_hat == pytest.approx(half, rel=1e-12)
    assert res.mu_hat - res.ci_lo == pytest.approx(half, rel=1e-12)
    assert res.z == pytest.approx(1.959963984540054, abs=1e-12)
    # a 0-d array level is accepted and gives the same critical value
    assert robust_mean(y, x, level=np.array(0.95)).z == res.z


def test_zero_kernel_argument_recovers_weighted_average():
    # x identically zero turns the kernel into a constant weight
    y = np.array([1.0, 2.0, 3.0, 4.0])
    res = robust_mean(y, np.zeros(4))
    assert res.r_tilde == pytest.approx(float(y.mean()) / res.h, rel=1e-14)


def test_estimator_is_scale_equivariant():
    rng = np.random.default_rng(8)
    y = rng.normal(5.0, 1.0, size=200)
    x = rng.normal(size=200)
    base = robust_mean(y, x)
    scaled = robust_mean(3.5 * y, x)
    assert scaled.h == pytest.approx(base.h, rel=1e-14)
    assert scaled.mu_hat == pytest.approx(3.5 * base.mu_hat, rel=1e-12)
    assert scaled.half_width == pytest.approx(3.5 * base.half_width, rel=1e-12)


def test_estimator_tracks_the_mean_on_iid_data():
    rng = np.random.default_rng(21)
    y = rng.normal(30.0, 1.0, size=20000)
    x = rng.normal(size=20000)
    res = robust_mean(y, x)
    assert res.mu_hat == pytest.approx(30.0, abs=1.5)
    assert res.covers(30.0)


def test_covers_is_an_inclusive_interval_check():
    res = robust_mean([2.0], [0.0])
    assert res.covers(res.ci_lo)
    assert res.covers(res.ci_hi)
    assert not res.covers(res.ci_hi + 1e-9)


def test_estimator_input_validation():
    with pytest.raises(DomainError):
        robust_mean([1.0, 2.0], [0.0])
    with pytest.raises(DomainError):
        robust_mean([[1.0]], [[0.0]])
    with pytest.raises(DomainError):
        robust_mean([1.0], [0.0], level=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            robust_mean([1.0, bad], [0.0, 0.5])
        with pytest.raises(DomainError):
            robust_mean([1.0, 2.0], [0.0, bad])
    with pytest.raises(DomainError):
        robust_mean([1.0], [0.0], level=0.0)
    with pytest.raises(DegenerateSampleError):
        robust_mean([0.0, 0.0], [0.1, 0.2])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=40),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_scale_equivariance_property(y, k):
    x = np.linspace(-1.0, 1.0, len(y))
    base = robust_mean(y, x)
    scaled = robust_mean([k * v for v in y], x)
    assert scaled.mu_hat == pytest.approx(k * base.mu_hat, rel=1e-9)
    assert scaled.h == pytest.approx(base.h, rel=1e-9)


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------

def test_replications_are_deterministic():
    a = replicate_robust_means(Fgm(0.6), Normal(30.0, 1.0), 200, 5, 0.95, seed=7)
    b = replicate_robust_means(Fgm(0.6), Normal(30.0, 1.0), 200, 5, 0.95, seed=7)
    assert a == b
    c = replicate_robust_means(Fgm(0.6), Normal(30.0, 1.0), 200, 5, 0.95, seed=8)
    assert a != c


def test_replication_results_do_not_depend_on_batching(monkeypatch):
    # a budget of 10 rows at n=100 splits 32 replications into batches of
    # 10, 10, 10 and 2; replications on either side of every boundary must
    # equal their standalone single-seed reconstruction
    reps, n, seed = 32, 100, 424242
    monkeypatch.setattr(robust, "BATCH_BYTES", 10 * 3 * 8 * n)
    sizes = []
    original = robust.uniform_chain_matrix

    def recording(c, n, seeds):
        sizes.append(len(seeds))
        return original(c, n, seeds)

    monkeypatch.setattr(robust, "uniform_chain_matrix", recording)
    results = replicate_robust_means(PI, Uniform01(), n, reps, 0.95, seed)
    assert len(results) == reps
    assert sizes == [10, 10, 10, 2]
    starts = np.cumsum([0] + sizes[:-1])
    rows = sorted({r for s in starts for r in (s - 1, s) if r >= 0} | {reps - 1})
    for r in rows:
        s = derive_seed(seed, r)
        y = original(PI, n, [s])[0]
        x = sample_iid_normal(n, s)
        assert results[r] == robust_mean(y, x, 0.95)


def test_shipped_study_cell_is_one_batch(monkeypatch):
    # the shipped config's largest cell: 200 replications of n=20000
    class FirstBatch(Exception):
        pass

    def first_batch(c, n, seeds):
        raise FirstBatch(len(seeds))

    monkeypatch.setattr(robust, "uniform_chain_matrix", first_batch)
    with pytest.raises(FirstBatch) as info:
        replicate_robust_means(Fgm(0.6), Uniform01(), 20_000, 200, 0.95, seed=1)
    assert info.value.args == (200,)


def test_batch_size_counts_the_plan_draws_per_step(monkeypatch):
    # the budget holds 10 rows at three values per step, the floor every
    # shipped copula is sized at (Pi takes one draw a step, frechet_fgm
    # three); a fold of four AMH factors takes four, so 7 rows fit
    n = 40
    monkeypatch.setattr(robust, "BATCH_BYTES", 10 * 3 * 8 * n)
    sizes = []
    original = robust.uniform_chain_matrix

    def recording(c, n, seeds):
        sizes.append(len(seeds))
        return original(c, n, seeds)

    monkeypatch.setattr(robust, "uniform_chain_matrix", recording)
    frechet_fgm = dict(default_study_config().copulas)["frechet_fgm"]
    for c, batch in ((PI, 10), (frechet_fgm, 10), (n_fold(Amh(0.5), 4), 7)):
        sizes.clear()
        replicate_robust_means(c, Uniform01(), n, 12, 0.95, seed=3)
        assert sizes == [batch, 12 - batch], c


BLOCK_COPULAS = (
    ("fgm", Fgm(0.6)),
    ("frechet_fgm", dict(default_study_config().copulas)["frechet_fgm"]),
    ("gaussian", Gaussian(0.5)),
    ("amh", Amh(0.5)),
)
BLOCK_MARGINALS = (("normal", Normal(30.0, 1.0)), ("uniform", Uniform01()))


def _per_row_robust_mean(y, x, level):
    """The estimator on one sample, written out on its own: a reference for the block pass."""
    n = y.size
    mean = float(y.mean())
    mean_sq = float(np.mean(y * y))
    h = (mean_sq / (n * math.sqrt(2.0) * mean * mean)) ** 0.2
    r_tilde = float(np.sum(y * np.exp(-0.5 * (x / h) ** 2))) / (n * h)
    z = float(norm_ppf(1.0 - (1.0 - level) / 2.0))
    return robust.RobustMeanResult(
        n=n, h=h, r_tilde=r_tilde, mu_hat=r_tilde * math.sqrt(1.0 + h * h),
        half_width=z * math.sqrt(mean_sq / (n * h * math.sqrt(2.0))), z=z, mean_y_sq=mean_sq,
    )


def _hex_fields(r):
    return [float(v).hex() for v in (r.n, r.h, r.r_tilde, r.mu_hat, r.half_width, r.z, r.mean_y_sq)]


@pytest.mark.parametrize("m", [m for _, m in BLOCK_MARGINALS], ids=[k for k, _ in BLOCK_MARGINALS])
@pytest.mark.parametrize("c", [c for _, c in BLOCK_COPULAS], ids=[k for k, _ in BLOCK_COPULAS])
@pytest.mark.parametrize("n", [200, robust.BLOCK_ELEMS // 2 + 1], ids=["blocks", "one-row"])
def test_blocked_estimates_equal_the_per_row_loop_bit_for_bit(c, m, n, monkeypatch):
    # one full quantile block and a partial one of 3 rows; from
    # n = BLOCK_ELEMS // 2 + 1 on a block is one row
    block = max(1, robust.BLOCK_ELEMS // n)
    reps, seed = block + 3, 2718
    batches = []
    original = robust.uniform_chain_matrix

    def recording(c, n, seeds):
        batches.append((list(seeds), original(c, n, seeds)))
        return batches[-1][1]

    monkeypatch.setattr(robust, "uniform_chain_matrix", recording)
    results = replicate_robust_means(c, m, n, reps, 0.95, seed)
    assert len(results) == reps
    [(seeds, umat)] = batches
    assert seeds == [derive_seed(seed, r) for r in range(reps)]
    for r, (s, row) in enumerate(zip(seeds, umat)):
        ref = _per_row_robust_mean(m.quantile(row), sample_iid_normal(n, s), 0.95)
        assert _hex_fields(results[r]) == _hex_fields(ref), r
        assert _hex_fields(robust_mean(m.quantile(row), sample_iid_normal(n, s))) == _hex_fields(ref)


@pytest.mark.parametrize("fault", ["y", "x", "zero-mean"])
def test_block_estimator_raises_as_robust_mean_does(fault):
    rng = np.random.default_rng(4)
    ys, xs = rng.normal(30.0, 1.0, size=(5, 50)), rng.normal(size=(5, 50))
    if fault == "y":
        ys[2, 7] = np.nan
        ys[3, 1:3] = (np.inf, -np.inf)  # a later row whose mean is NaN
    elif fault == "x":
        xs[2, 7] = np.inf
    else:
        ys[2] = np.tile([1.5, -1.5], 25)
    with pytest.raises((DomainError, DegenerateSampleError)) as single:
        robust_mean(ys[2], xs[2])
    with pytest.raises((DomainError, DegenerateSampleError)) as block:
        robust._estimates(ys, xs, robust._z(0.95))
    assert type(block.value) is type(single.value)
    assert str(block.value) == str(single.value)
    # the first faulty row is the one reported
    ys[4], xs[4] = 0.0, np.nan
    with pytest.raises(type(single.value), match=str(single.value)):
        robust._estimates(ys, xs, 1.96)
    # a row with faults in both samples reports x, as robust_mean does
    ys[1, 0], xs[1, 0] = np.nan, np.nan
    for call in (lambda: robust_mean(ys[1], xs[1]), lambda: robust._estimates(ys, xs, 1.96)):
        with pytest.raises(DomainError, match="x must be a finite sample"):
            call()


@pytest.mark.parametrize("level", [1.5, 0.0, 1.0, float("nan")])
def test_level_is_checked_before_any_chain_is_simulated(level, monkeypatch):
    def never(c, n, seeds):
        raise AssertionError("a chain was simulated")

    monkeypatch.setattr(robust, "uniform_chain_matrix", never)
    with pytest.raises(DomainError, match="confidence level"):
        replicate_robust_means(Fgm(0.6), Normal(30.0, 1.0), 20_000, 200, level, seed=1)


def test_variance_diagnostic_equals_its_per_row_form():
    c, m, sizes, seed = dict(BLOCK_COPULAS)["frechet_fgm"], Normal(30.0, 1.0), (100, 200), 6
    reps = robust.BLOCK_ELEMS // sizes[-1] + 3
    diag = variance_diagnostic(c, m, sizes, reps, seed)
    for n, nv, nhv in zip(sizes, diag.nvar, diag.nhvar):
        umat = uniform_chain_matrix(c, n, [derive_seed(seed, r) for r in range(reps)])
        v = float(np.var([m.quantile(row).mean() for row in umat], ddof=1))
        assert (nv.hex(), nhv.hex()) == ((n * v).hex(), (n * population_bandwidth(m, n) * v).hex())


def test_replication_count_validation():
    with pytest.raises(DomainError):
        replicate_robust_means(PI, Uniform01(), 10, 0, 0.95, seed=1)


def test_iid_coverage_is_near_nominal():
    m = Normal(30.0, 1.0)
    cov = robust.coverage_rate(replicate_robust_means(PI, m, 400, 150, 0.95, seed=9), m.mean)
    assert 0.90 <= cov <= 1.0


# ---------------------------------------------------------------------------
# variance diagnostic
# ---------------------------------------------------------------------------

def test_variance_diagnostic_relates_its_two_columns():
    diag = variance_diagnostic(Fgm(0.6), Normal(30.0, 1.0), (100, 400), 40, seed=3)
    assert diag.sizes == (100, 400)
    assert diag.replications == 40
    for n, nv, nhv in zip(diag.sizes, diag.nvar, diag.nhvar):
        assert nv > 0.0
        assert nhv == pytest.approx(nv * population_bandwidth(Normal(30.0, 1.0), n), rel=1e-14)


def test_variance_diagnostic_does_not_depend_on_batching(monkeypatch):
    # a budget of 14 rows at n=100 splits 40 replications into 14, 14, 12;
    # at n=50 the same budget holds 28 rows, so that size takes two batches
    c, m, sizes, reps = Convex((0.6, 0.4), (Fgm(0.6), M)), Normal(30.0, 1.0), (50, 100), 40
    whole = variance_diagnostic(c, m, sizes, reps, seed=5)
    monkeypatch.setattr(robust, "BATCH_BYTES", 14 * 3 * 8 * 100)
    batches = []
    original = robust.uniform_chain_matrix

    def recording(c, n, seeds):
        batches.append((n, len(seeds)))
        return original(c, n, seeds)

    monkeypatch.setattr(robust, "uniform_chain_matrix", recording)
    split = variance_diagnostic(c, m, sizes, reps, seed=5)
    assert batches == [(50, 28), (50, 12), (100, 14), (100, 14), (100, 12)]
    assert split == whole


def test_dependent_chain_inflates_n_var_above_the_marginal_variance():
    # positively dependent steps push n*var(Y_bar) above sigma^2 = 1
    diag = variance_diagnostic(Fgm(0.6), Normal(30.0, 1.0), (400,), 120, seed=12)
    assert diag.nvar[0] > 1.05
    ind = variance_diagnostic(PI, Normal(30.0, 1.0), (400,), 120, seed=12)
    assert ind.nvar[0] == pytest.approx(1.0, abs=0.35)
    assert diag.nvar[0] > ind.nvar[0]


def test_variance_diagnostic_validation():
    with pytest.raises(DomainError):
        variance_diagnostic(PI, Uniform01(), (100, 100), 40, seed=1)
    with pytest.raises(DomainError):
        variance_diagnostic(PI, Uniform01(), (400, 100), 40, seed=1)
    with pytest.raises(DomainError):
        variance_diagnostic(PI, Uniform01(), (100, 400), 29, seed=1)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def test_marginal_means():
    assert Uniform01().mean == 0.5
    assert Normal(30.0, 1.0).mean == 30.0
