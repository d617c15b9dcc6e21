"""Copula families, the fold algebra, perturbations, and serialization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from copulamix.copulas import (
    PI,
    M,
    W,
    Amh,
    Convex,
    Copula,
    Fgm,
    Frechet,
    Gaussian,
    Mardia,
    NumericFold,
    Rect,
    Reflected,
    cdf,
    check_copula_axioms,
    conditional_cdf,
    density,
    density_grid,
    fold,
    from_dict,
    n_fold,
    numeric_fold_depth,
    perturb_m,
    perturb_pi,
    rectangle_probability,
    reflect_u,
    reflect_v,
    to_dict,
)
from copulamix.config import load_config
from copulamix.errors import ConfigError, DomainError, FoldDepthError
from copulamix.quadrature import unit_rule

ZOO = (
    PI,
    M,
    W,
    Fgm(0.6),
    Fgm(-1.0),
    Mardia(0.3, 0.2),
    Frechet(0.6),
    Gaussian(0.5),
    Gaussian(-0.8),
    Amh(0.5),
    Amh(-1.0),
    Convex((0.6, 0.4), (Fgm(0.6), M)),
    Convex((0.5, 0.3, 0.2), (Frechet(0.6), Fgm(0.6), PI)),
    Reflected(Amh(0.5), True, False),
    Reflected(Amh(-1.0), False, True),
    Convex((0.288, 0.072, 0.64), (Amh(0.5), Reflected(Amh(0.5), True, False), PI)),
)

AC_ZOO = tuple(c for c in ZOO if c.is_absolutely_continuous)
REFLECTABLE = ZOO + (NumericFold(Amh(0.5), Gaussian(0.3)),)

GRID = np.linspace(0.0, 1.0, 9)

copulas = st.sampled_from(ZOO)
interior = st.floats(min_value=1e-6, max_value=1 - 1e-6)


def _grid_cdf(c):
    uu, vv = np.meshgrid(GRID, GRID, indexing="ij")
    return c.cdf_raw(uu, vv)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_frozen_cdf_values():
    assert cdf(PI, 0.3, 0.9) == pytest.approx(0.27, abs=1e-15)
    assert cdf(M, 0.3, 0.9) == pytest.approx(0.3, abs=1e-15)
    assert cdf(W, 0.3, 0.9) == pytest.approx(0.2, abs=1e-15)
    # uv + theta uv (1-u)(1-v) at (0.3, 0.7)
    assert cdf(Fgm(0.6), 0.3, 0.7) == pytest.approx(0.23646, abs=1e-15)
    # 0.3 min + 0.2 max(u+v-1, 0) + 0.5 uv at (0.4, 0.8)
    assert cdf(Mardia(0.3, 0.2), 0.4, 0.8) == pytest.approx(0.32, abs=1e-15)
    # Frechet(0.6) carries weights a = 0.288, b = 0.072
    assert Frechet(0.6).a == pytest.approx(0.288, abs=1e-15)
    assert Frechet(0.6).b == pytest.approx(0.072, abs=1e-15)
    assert cdf(Frechet(0.6), 0.5, 0.5) == pytest.approx(0.304, abs=1e-15)
    # uv / (1 - theta (1-u)(1-v)) at (0.5, 0.5) is 2/7
    assert cdf(Amh(0.5), 0.5, 0.5) == pytest.approx(2.0 / 7.0, abs=1e-15)


def test_frozen_density_values():
    assert density(Fgm(0.6), 0.25, 0.25) == pytest.approx(1.15, abs=1e-15)
    assert density(Amh(0.5), 0.5, 0.5) == pytest.approx(1.0262390670553936, abs=1e-15)
    assert density(Mardia(0.3, 0.2), 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_gaussian_cdf_against_scipy():
    # frozen spot value first
    assert cdf(Gaussian(0.5), 0.3, 0.7) == pytest.approx(0.2669038488673631, abs=1e-13)
    dist = scipy.stats.multivariate_normal(cov=[[1.0, 0.5], [0.5, 1.0]])
    pts = np.linspace(0.05, 0.95, 7)
    z = scipy.stats.norm.ppf(pts)
    for i, u in enumerate(pts):
        for j, v in enumerate(pts):
            want = float(dist.cdf(np.array([z[i], z[j]])))
            assert cdf(Gaussian(0.5), u, v) == pytest.approx(want, abs=5e-8)


def test_gaussian_density_against_scipy():
    r = -0.8
    dist = scipy.stats.multivariate_normal(cov=[[1.0, r], [r, 1.0]])
    pts = np.linspace(0.1, 0.9, 5)
    z = scipy.stats.norm.ppf(pts)
    for i, u in enumerate(pts):
        for j, v in enumerate(pts):
            want = dist.pdf(np.array([z[i], z[j]])) / (
                scipy.stats.norm.pdf(z[i]) * scipy.stats.norm.pdf(z[j]))
            assert density(Gaussian(r), u, v) == pytest.approx(want, rel=1e-9)


def test_singular_families_report_zero_ac_density():
    assert density(M, 0.4, 0.4) == 0.0
    assert density(W, 0.4, 0.6) == 0.0
    assert density(Mardia(0.3, 0.2), 0.9, 0.1) == pytest.approx(0.5)


def test_pi_m_w_are_the_mardia_corners_bit_for_bit():
    u, v = np.meshgrid(GRID, GRID, indexing="ij")
    step = lambda mask: np.where(mask, 1.0, 0.0)  # noqa: E731
    cases = (
        # (copula, (a, b), cdf, density, d/du, d/dv)
        (PI, (0.0, 0.0), u * v, np.ones_like(u), v, u),
        (M, (1.0, 0.0), np.minimum(u, v), np.zeros_like(u), step(u <= v), step(v <= u)),
        (W, (0.0, 1.0), np.maximum(u + v - 1.0, 0.0), np.zeros_like(u),
         step(u + v >= 1.0), step(u + v >= 1.0)),
    )
    for c, ab, want_cdf, want_density, want_du, want_dv in cases:
        assert isinstance(c, Mardia) and (c.a, c.b) == ab
        assert np.array_equal(c.cdf_raw(u, v), want_cdf)
        assert np.array_equal(c.density_raw(u, v), want_density)
        assert np.array_equal(c.cond_u_raw(u, v), want_du)
        assert np.array_equal(c.cond_v_raw(u, v), want_dv)
    assert repr(M) == "Comonotone()"
    assert PI.is_absolutely_continuous
    assert not M.is_absolutely_continuous and not W.is_absolutely_continuous


LEAVES = tuple(c for c in ZOO if not isinstance(c, (Convex, Reflected)))


@pytest.mark.parametrize("c", LEAVES, ids=lambda c: repr(c)[:40])
def test_v_partial_is_the_swapped_u_partial(c):
    # every leaf family is exchangeable: d/dv C(u, v) = d/du C(v, u)
    pts = np.linspace(0.05, 0.95, 7)
    u, v = np.meshgrid(pts, pts, indexing="ij")
    assert np.array_equal(c.cond_v_raw(u, v), c.cond_u_raw(v, u))


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", ZOO, ids=lambda c: repr(c)[:40])
def test_axioms_hold_for_every_family(c):
    report = check_copula_axioms(c, m=16)
    assert report.ok, report.violations


FLIPS = ((True, False), (False, True), (True, True))


@pytest.mark.parametrize("flips", FLIPS)
@pytest.mark.parametrize("theta", [-1.0, 0.5, 1.0])
def test_axioms_hold_for_every_reflected_amh(theta, flips):
    report = check_copula_axioms(Reflected(Amh(theta), *flips), m=16)
    assert report.ok, report.violations


def test_axioms_hold_for_a_quadrature_fold():
    report = check_copula_axioms(NumericFold(Amh(0.5), Gaussian(0.3)), m=8)
    assert report.ok, report.violations


def test_axiom_checker_flags_a_broken_cdf():
    class Lopsided(Copula):
        def cdf_raw(self, u, v):
            return u * v * v

    report = check_copula_axioms(Lopsided(), m=8)
    assert not report.ok
    assert any("margin" in text for text in report.violations)


@given(copulas, interior, interior)
def test_cdf_between_frechet_bounds(c, u, v):
    val = cdf(c, u, v)
    assert max(u + v - 1.0, 0.0) - 1e-12 <= val <= min(u, v) + 1e-12


@given(copulas, interior)
def test_uniform_margins(c, u):
    assert cdf(c, u, 1.0) == pytest.approx(u, abs=1e-12)
    assert cdf(c, 1.0, u) == pytest.approx(u, abs=1e-12)
    assert cdf(c, u, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert cdf(c, 0.0, u) == pytest.approx(0.0, abs=1e-12)


@given(copulas, interior, interior, interior, interior)
def test_rectangles_never_carry_negative_mass(c, a, b, x, y):
    u_lo, u_hi = sorted((a, b))
    v_lo, v_hi = sorted((x, y))
    if u_hi - u_lo < 1e-9 or v_hi - v_lo < 1e-9:
        return
    mass = rectangle_probability(c, Rect(u_lo, u_hi, v_lo, v_hi))
    assert mass >= -1e-12


# ---------------------------------------------------------------------------
# fold algebra
# ---------------------------------------------------------------------------

def test_pi_absorbs_everything():
    # hand-built corners absorb too: the rule reads the weights, not the class
    for pi in (PI, Frechet(0.0), Mardia(0.0, 0.0)):
        for c in ZOO:
            assert fold(pi, c) is PI
            assert fold(c, pi) is PI


def test_m_is_the_fold_identity():
    for m in (M, Mardia(1.0, 0.0), Frechet(1.0)):
        for c in ZOO:
            assert fold(m, c) == c
            assert fold(c, m) == c


def test_w_fold_w_is_m():
    assert fold(W, W) is M


def test_fgm_fold_rule():
    out = fold(Fgm(0.6), Fgm(0.5))
    assert isinstance(out, Fgm)
    assert out.theta == pytest.approx(0.1, abs=1e-15)
    assert fold(Fgm(1.0), Fgm(1.0)).theta == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_mardia_weights_compose():
    out = fold(Mardia(0.3, 0.2), Mardia(0.25, 0.15))
    assert isinstance(out, Mardia)
    assert out.a == pytest.approx(0.3 * 0.25 + 0.2 * 0.15, abs=1e-15)
    assert out.b == pytest.approx(0.3 * 0.15 + 0.2 * 0.25, abs=1e-15)


def test_frechet_parameter_multiplies_under_folding():
    out = fold(Frechet(0.6), Frechet(0.5))
    want = Frechet(0.3)
    assert out.a == pytest.approx(want.a, abs=1e-15)
    assert out.b == pytest.approx(want.b, abs=1e-15)
    assert np.allclose(_grid_cdf(out), _grid_cdf(want), atol=1e-15)


def test_w_against_mardia_composes_too():
    out = fold(W, Mardia(0.3, 0.2))
    assert out == Mardia(0.2, 0.3)


@pytest.mark.parametrize("theta, phi", [(0.6, 0.6), (-0.7, 0.9), (1.0, -1.0), (0.3, -0.45)])
def test_frechet_times_fgm_is_fgm_with_theta_cubed(theta, phi):
    for out in (fold(Frechet(theta), Fgm(phi)), fold(Fgm(phi), Frechet(theta))):
        assert isinstance(out, Fgm)
        assert out.theta == pytest.approx(theta**3 * phi, abs=1e-15)


@pytest.mark.parametrize("c", REFLECTABLE, ids=lambda c: repr(c)[:40])
def test_w_reflects_the_other_factor(c):
    assert fold(W, c) == reflect_u(c)
    assert fold(c, W) == reflect_v(c)


@pytest.mark.parametrize("c", REFLECTABLE, ids=lambda c: repr(c)[:40])
def test_folds_with_a_mardia_factor_add_no_quadrature(c):
    for m in (W, Frechet(0.6), Mardia(0.3, 0.2)):
        for out in (fold(m, c), fold(c, m)):
            assert numeric_fold_depth(out) == numeric_fold_depth(c), out


def test_frechet_times_gaussian_mixes_both_reflections_with_pi():
    f = Frechet(0.6)
    out = fold(f, Gaussian(0.5))
    assert isinstance(out, Convex)
    weights = dict(zip(out.components, out.weights))
    assert weights == pytest.approx(
        {Gaussian(0.5): f.a, Gaussian(-0.5): f.b, PI: 1.0 - (f.a + f.b)}, abs=1e-15)


SHIPPED = load_config(Path(__file__).resolve().parent.parent / "configs" / "table4.json")


@pytest.mark.parametrize("name", [
    f"{name}{suffix}" for name in SHIPPED.names for suffix in ("", "@pi0.4", "@m0.7")])
def test_shipped_specs_fold_in_closed_form_at_every_lag(name):
    c = SHIPPED.resolve(name)
    for n in (1, 2, 3):
        out = n_fold(c, n)
        assert numeric_fold_depth(out) == 0
        if n == 1:
            continue  # the spec itself: a perturbation keeps its components for the sampler
        # the normal form: at most one Mardia member and one FGM
        parts = out.components if isinstance(out, Convex) else (out,)
        assert all(isinstance(p, (Mardia, Fgm)) for p in parts), out
        assert sum(isinstance(p, Mardia) for p in parts) <= 1, out
        assert sum(isinstance(p, Fgm) for p in parts) <= 1, out


def test_gaussian_correlations_multiply_under_folding():
    assert fold(Gaussian(0.5), Gaussian(0.5)) == Gaussian(0.25)
    assert fold(Gaussian(0.8), Gaussian(-0.4)) == Gaussian(0.8 * -0.4)
    assert n_fold(Gaussian(0.5), 3) == Gaussian(0.125)
    assert numeric_fold_depth(n_fold(Gaussian(-0.8), 5)) == 0


def test_convex_combinations_distribute():
    mix = Convex((0.5, 0.5), (M, W))
    out = fold(mix, W)
    assert isinstance(out, Convex)
    assert set(out.components) == {M, W}
    assert np.allclose(
        _grid_cdf(out), 0.5 * _grid_cdf(W) + 0.5 * _grid_cdf(M), atol=1e-15)


def test_fold_is_associative_on_closed_forms():
    a, b, c = Mardia(0.3, 0.2), Frechet(0.5), Mardia(0.1, 0.6)
    left = fold(fold(a, b), c)
    right = fold(a, fold(b, c))
    assert np.allclose(_grid_cdf(left), _grid_cdf(right), atol=1e-15)
    f1, f2, f3 = Fgm(0.9), Fgm(-0.7), Fgm(0.4)
    assert fold(fold(f1, f2), f3).theta == pytest.approx(fold(f1, fold(f2, f3)).theta)


def test_unmatched_pairs_become_quadrature_folds():
    out = fold(Amh(0.5), Gaussian(0.3))
    assert isinstance(out, NumericFold)
    assert numeric_fold_depth(out) > 0
    assert numeric_fold_depth(Fgm(0.5)) == 0


def test_quadrature_fold_agrees_with_a_closed_form():
    xs = np.linspace(0.1, 0.9, 5)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    numeric = NumericFold(Fgm(0.6), Fgm(0.5)).cdf_raw(gx, gy)
    closed = Fgm(0.1).cdf_raw(gx, gy)
    assert np.abs(numeric - closed).max() < 1e-10


# ---------------------------------------------------------------------------
# n-fold powers
# ---------------------------------------------------------------------------

def test_fgm_power_formula():
    for theta in (-1.0, -0.5, 0.5, 1.0):
        for n in range(1, 7):
            out = n_fold(Fgm(theta), n)
            assert isinstance(out, Fgm)
            assert out.theta == pytest.approx(3.0 * (theta / 3.0) ** n, abs=1e-15)


def test_w_powers_alternate_between_w_and_m():
    assert n_fold(W, 2) is M
    assert n_fold(W, 3) is W
    assert n_fold(W, 4) is M
    assert n_fold(M, 100) is M
    assert n_fold(PI, 100) is PI


def test_mardia_power_equals_iterated_fold():
    c = Mardia(0.3, 0.2)
    acc = c
    for n in range(2, 6):
        acc = fold(acc, c)
        power = n_fold(c, n)
        assert power.a == pytest.approx(acc.a, abs=1e-15)
        assert power.b == pytest.approx(acc.b, abs=1e-15)


def test_pi_perturbation_power_shortcut():
    base = Amh(0.5)
    mixed = perturb_m(perturb_pi(base, 0.3), 0.0)  # still the plain Pi-mix
    out = n_fold(mixed, 3)
    assert isinstance(out, Convex)
    weights = dict(zip(out.components, out.weights))
    assert weights[PI] == pytest.approx(1.0 - 0.7**3, abs=1e-12)
    other = next(c for c in out.components if c is not PI)
    assert isinstance(other, NumericFold)
    assert numeric_fold_depth(other) == 2


def test_power_of_one_is_the_copula_itself():
    for c in ZOO:
        assert n_fold(c, 1) is c


def test_generic_powers_hit_the_depth_cap():
    assert numeric_fold_depth(n_fold(Amh(0.5), 9)) == 8
    with pytest.raises(FoldDepthError):
        n_fold(Amh(0.5), 10)
    with pytest.raises(DomainError):
        n_fold(Amh(0.5), 0)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def test_fgm_is_closed_under_pi_perturbation():
    out = perturb_pi(Fgm(1.0), 0.4)
    assert isinstance(out, Fgm)
    assert out.theta == pytest.approx(0.6, abs=1e-15)
    # other families keep both components, though Frechet and Pi are one Mardia
    mixed = perturb_pi(Frechet(0.6), 0.4)
    assert isinstance(mixed, Convex)
    assert mixed.components == (Frechet(0.6), PI)
    assert mixed.weights == (0.6, 0.4)


def test_perturbation_endpoints():
    c = Amh(0.5)
    assert perturb_pi(c, 0.0) is c
    assert perturb_m(c, 0.0) is c
    assert perturb_pi(c, 1.0) is PI
    assert perturb_m(c, 1.0) is M
    assert perturb_m(M, 0.5) is M
    with pytest.raises(DomainError):
        perturb_pi(c, 1.5)
    with pytest.raises(DomainError):
        perturb_m(c, -0.1)


@given(copulas, st.floats(min_value=0.01, max_value=0.99), interior, interior)
@settings(max_examples=40)
def test_perturbations_mix_cdfs_linearly(c, alpha, u, v):
    toward_m = perturb_m(c, alpha)
    want = (1.0 - alpha) * cdf(c, u, v) + alpha * min(u, v)
    assert cdf(toward_m, u, v) == pytest.approx(want, abs=1e-12)
    toward_pi = perturb_pi(c, alpha)
    want = (1.0 - alpha) * cdf(c, u, v) + alpha * u * v
    assert cdf(toward_pi, u, v) == pytest.approx(want, abs=1e-12)


def test_convex_flattens_nested_combinations():
    inner = Convex((0.5, 0.5), (PI, M))
    outer = Convex((0.5, 0.5), (inner, PI))
    assert set(outer.components) == {PI, M}
    weights = dict(zip(outer.components, outer.weights))
    assert weights[PI] == pytest.approx(0.75, abs=1e-15)
    assert weights[M] == pytest.approx(0.25, abs=1e-15)


def test_convex_validation():
    with pytest.raises(DomainError):
        Convex((0.5, 0.4), (PI, M))  # weights do not sum to 1
    with pytest.raises(DomainError):
        Convex((1.2, -0.2), (PI, M))
    with pytest.raises(DomainError):
        Convex((), ())


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", REFLECTABLE, ids=lambda c: repr(c)[:40])
def test_reflection_identities(c):
    ru = reflect_u(c)
    rv = reflect_v(c)
    assert ru is not None and rv is not None
    pts = np.linspace(0.0, 1.0, 9)
    gu, gv = np.meshgrid(pts, pts, indexing="ij")
    assert np.abs(ru.cdf_raw(gu, gv) - (gv - c.cdf_raw(1.0 - gu, gv))).max() < 1e-14
    assert np.abs(rv.cdf_raw(gu, gv) - (gu - c.cdf_raw(gu, 1.0 - gv))).max() < 1e-14


def test_reflection_swaps_the_frechet_bounds():
    assert reflect_u(M) is W
    assert reflect_u(W) is M
    assert reflect_v(M) is W
    assert reflect_u(PI) is PI
    assert reflect_u(Fgm(0.6)) == Fgm(-0.6)
    assert reflect_u(Gaussian(0.5)) == Gaussian(-0.5)
    assert reflect_u(Mardia(0.3, 0.2)) == Mardia(0.2, 0.3)


def test_reflections_toggle_and_reach_the_outer_factor():
    a = Amh(0.5)
    assert reflect_u(a) == Reflected(a, True, False)
    assert reflect_u(reflect_u(a)) == a
    assert reflect_v(reflect_u(a)) == Reflected(a, True, True)
    assert reflect_u(reflect_v(reflect_u(a))) == Reflected(a, False, True)
    # the outer-side factor is the one that reflects
    f = NumericFold(a, Gaussian(0.3))
    assert reflect_v(f) == NumericFold(a, Gaussian(-0.3))
    assert reflect_u(f) == NumericFold(Reflected(a, True, False), Gaussian(0.3))
    with pytest.raises(DomainError):
        Reflected(a, False, False)
    with pytest.raises(DomainError):
        Reflected(a, 1, 0)


# ---------------------------------------------------------------------------
# conditionals, densities, rectangles
# ---------------------------------------------------------------------------

def test_fgm_conditional_matches_finite_differences():
    c = Fgm(0.6)
    eps = 1e-7
    for u in (0.2, 0.5, 0.8):
        for v in (0.3, 0.6, 0.9):
            fd = (cdf(c, u + eps, v) - cdf(c, u - eps, v)) / (2 * eps)
            assert conditional_cdf(c, u, v) == pytest.approx(fd, abs=1e-6)


@given(copulas, interior, interior)
@settings(max_examples=60)
def test_conditionals_are_probabilities(c, u, v):
    val = conditional_cdf(c, u, v)
    assert -1e-12 <= val <= 1.0 + 1e-12


def test_ac_densities_integrate_to_one():
    t, w = unit_rule()
    for c in (Fgm(0.6), Amh(0.5), Amh(-1.0), Gaussian(0.5)):
        total = w @ c.density_raw(t[:, None], t[None, :]) @ w
        assert total == pytest.approx(1.0, abs=5e-7), c


def test_density_entry_point_validates_the_open_square():
    with pytest.raises(DomainError):
        density(Fgm(0.5), 0.0, 0.5)
    with pytest.raises(DomainError):
        density(Fgm(0.5), 0.5, 1.0)


def test_numeric_fold_rejects_a_singular_factor():
    for left, right in ((Frechet(0.6), Gaussian(0.5)), (Gaussian(0.5), M),
                        (Convex((0.5, 0.5), (Fgm(0.6), W)), Amh(0.5))):
        with pytest.raises(DomainError):
            NumericFold(left, right)
    # a numeric_fold spec parses to the fold's closed form
    spec = {"family": "numeric_fold", "left": {"family": "frechet", "theta": 0.6},
            "right": {"family": "gaussian", "r": 0.5}}
    assert from_dict(spec) == fold(Frechet(0.6), Gaussian(0.5))


def test_rectangle_values_and_validation():
    # FGM(0.6) mass of (0.2, 0.6] x (0.3, 0.7]
    c = Fgm(0.6)
    want = (cdf(c, 0.6, 0.7) - cdf(c, 0.2, 0.7) - cdf(c, 0.6, 0.3) + cdf(c, 0.2, 0.3))
    assert rectangle_probability(c, Rect(0.2, 0.6, 0.3, 0.7)) == pytest.approx(want, abs=1e-15)
    with pytest.raises(DomainError):
        Rect(0.5, 0.5, 0.1, 0.2)
    with pytest.raises(DomainError):
        Rect(-0.1, 0.5, 0.1, 0.2)


def test_density_grid_shape_and_mass():
    g = density_grid(Fgm(0.6), 64)
    assert g.resolution == 64
    assert g.values.shape == (64, 64)
    assert g.values.mean() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_parameter_domains_are_enforced():
    for bad in (Fgm, Amh, Frechet):
        with pytest.raises(DomainError):
            bad(1.5)
        with pytest.raises(DomainError):
            bad(-1.5)
    with pytest.raises(DomainError):
        Mardia(0.6, 0.6)
    with pytest.raises(DomainError):
        Mardia(-0.1, 0.2)
    for bad_r in (1.0, -1.0, 2.0):
        with pytest.raises(DomainError):
            Gaussian(bad_r)


def test_cdf_entry_point_validates_the_closed_square():
    with pytest.raises(DomainError):
        cdf(PI, -0.1, 0.5)
    with pytest.raises(DomainError):
        cdf(PI, 0.5, 1.1)
    for entry in (cdf, density, conditional_cdf):
        with pytest.raises(DomainError):
            entry(Fgm(0.6), [0.5, math.nan], 0.5)
        with pytest.raises(DomainError):
            entry(Fgm(0.6), 0.5, math.nan)


NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))
CONSTRUCTORS = st.sampled_from((
    Fgm,
    Frechet,
    Gaussian,
    Amh,
    lambda x: Mardia(x, 0.1),
    lambda x: Mardia(0.1, x),
    lambda x: Convex((x, 0.5), (Fgm(0.6), PI)),
    lambda x: Convex((0.5, x), (Fgm(0.6), PI)),
    lambda x: Convex((x, 1.0 - x), (Fgm(0.6), PI)),
))


@given(CONSTRUCTORS, NON_FINITE)
@settings(max_examples=60, deadline=None)
def test_constructors_reject_non_finite_parameters(make, x):
    with pytest.raises(DomainError):
        make(x)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", ZOO + (NumericFold(Amh(0.5), Gaussian(0.3)),),
                         ids=lambda c: repr(c)[:40])
def test_dict_round_trip(c):
    back = from_dict(to_dict(c))
    assert to_dict(back) == to_dict(c)
    assert np.allclose(_grid_cdf(back), _grid_cdf(c), atol=1e-15)


def test_bounds_and_independence_deserialize_to_the_singletons():
    assert to_dict(M) == {"family": "m"}
    assert to_dict(W) == {"family": "w"}
    assert to_dict(PI) == {"family": "independence"}
    for c in (PI, M, W):
        assert from_dict(to_dict(c)) is c
    # a hand-built Mardia at a corner keeps its own family name
    assert to_dict(Mardia(1.0, 0.0)) == {"family": "mardia", "a": 1.0, "b": 0.0}


def test_reflected_specs_apply_the_reflection():
    amh = {"family": "amh", "theta": 0.5}
    spec = {"family": "reflected", "base": amh, "flip_u": True, "flip_v": False}
    assert from_dict(spec) == Reflected(Amh(0.5), True, False)
    assert from_dict({**spec, "flip_u": False}) == Amh(0.5)
    assert from_dict({**spec, "base": {"family": "fgm", "theta": 0.6}}) == Fgm(-0.6)
    twice = {"family": "reflected", "base": spec, "flip_u": True, "flip_v": True}
    assert from_dict(twice) == Reflected(Amh(0.5), False, True)


def test_json_round_trip():
    for c in (Convex((0.6, 0.4), (Fgm(0.6), M)), NumericFold(Amh(0.5), Gaussian(0.4)),
              Reflected(Amh(0.5), True, False)):
        assert from_dict(json.loads(json.dumps(to_dict(c)))) == c


def test_bad_specifications_raise_config_errors():
    with pytest.raises(ConfigError):
        from_dict({"family": "mystery"})
    with pytest.raises(ConfigError):
        from_dict({"theta": 0.5})
    with pytest.raises(ConfigError):
        from_dict({"family": "fgm"})  # missing theta
    with pytest.raises(ConfigError):
        from_dict({"family": ["fgm"]})
    amh = {"family": "amh", "theta": 0.5}
    for flags in ((1, 0), ("true", False), (None, True)):
        with pytest.raises(ConfigError):
            from_dict({"family": "reflected", "base": amh, "flip_u": flags[0], "flip_v": flags[1]})
    with pytest.raises(ConfigError):
        from_dict({"family": "reflected", "base": amh, "flip_u": True})
