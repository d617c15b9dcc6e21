"""Mixing-coefficient bounds, corner scans, and the rule-based classifier."""

import json
import math

import numpy as np
import pytest
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
    Reflected,
    density_grid,
    fold,
    n_fold,
    perturb_pi,
)
from copulamix import copulas, mixing
from copulamix.errors import DomainError
from copulamix.mixing import (
    MixingVerdict,
    classify,
    corner_divergence_scan,
    density_extrema,
    fgm_psi_bounds,
    lag_report,
    lag_reports,
    psi_prime_lower_bound,
)

from oracles import amh_density_range, fgm_density_range, iterated_density_grid, mardia_pi_weight

V = MixingVerdict
FRECHET_FGM = Convex((0.6, 0.4), (Frechet(0.6), Fgm(0.6)))
# its lag-2 law holds AMH reflected by the W part of Frechet, and AMH folded
# with AMH by quadrature
FRECHET_AMH = Convex((0.6, 0.4), (Frechet(0.6), Amh(0.5)))


# ---------------------------------------------------------------------------
# density extrema and envelopes
# ---------------------------------------------------------------------------

def test_fgm_extrema_on_midpoint_grids():
    # extreme cells sit at the corner midpoints, giving 1 -/+ theta (1 - 1/m)^2
    lo, hi = density_extrema(Fgm(0.6), 1, 64)
    assert lo == pytest.approx(1.0 - 0.6 * (63 / 64) ** 2, abs=1e-12)
    assert hi == pytest.approx(1.0 + 0.6 * (63 / 64) ** 2, abs=1e-12)
    lo, hi = density_extrema(Fgm(0.6), 1, 1024)
    assert lo == pytest.approx(0.40117, abs=5e-6)
    assert hi == pytest.approx(1.59883, abs=5e-6)


def test_fgm_envelope_contains_every_grid_and_tightens_with_n():
    for n in range(1, 5):
        lo_b, hi_b = fgm_psi_bounds(0.6, n)
        for m in (16, 64, 256):
            lo, hi = density_extrema(Fgm(0.6), n, m)
            assert lo_b - 1e-12 <= lo <= hi <= hi_b + 1e-12
    widths = [np.diff(fgm_psi_bounds(0.6, n))[0] for n in range(1, 6)]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_fgm_bounds_converge_at_the_stated_rate():
    lo1, hi1 = fgm_psi_bounds(0.6, 4)
    lo2, hi2 = fgm_psi_bounds(0.6, 5)
    assert (1.0 - lo2) / (1.0 - lo1) == pytest.approx(0.2, abs=1e-12)
    assert (hi2 - 1.0) / (hi1 - 1.0) == pytest.approx(0.2, abs=1e-12)


class _Opaque(Copula):
    """Independence under a type the envelope has no rule for."""

    def __repr__(self):
        return "_Opaque()"

    def cdf_raw(self, u, v):
        return u * v

    def density_raw(self, u, v):
        return np.ones(np.broadcast_shapes(np.shape(u), np.shape(v)))


AMH_HALF = amh_density_range(0.5)
FGM_LAG1 = fgm_density_range(0.6, 1)
# (copula, n -> its envelope from the closed forms in oracles.py)
ENVELOPE_ORACLES = [
    (Fgm(0.6), lambda n: (*fgm_density_range(0.6, n), False)),
    (Fgm(-1.0), lambda n: (*fgm_density_range(-1.0, n), False)),
    (Mardia(0.3, 0.2), lambda n: (mardia_pi_weight(0.3, 0.2, n), math.inf, True)),
    # Frechet(0.6) is Mardia(0.288, 0.072)
    (Frechet(0.6), lambda n: (mardia_pi_weight(0.288, 0.072, n), math.inf, True)),
    (M, lambda n: (0.0, math.inf, True)),
    (PI, lambda n: (1.0, 1.0, False)),
    (Gaussian(0.0), lambda n: (1.0, 1.0, False)),
    (Gaussian(0.5), lambda n: (0.0, math.inf, True)),
    (Amh(0.5), lambda n: (*AMH_HALF, False)),
    (Amh(-1.0), lambda n: (*amh_density_range(-1.0), False)),
    (Amh(1.0), lambda n: (0.0, math.inf, False)),
    (Convex((0.5, 0.5), (Gaussian(0.0), Fgm(0.6))),
     lambda n: (0.5 + 0.5 * FGM_LAG1[0], 0.5 + 0.5 * FGM_LAG1[1], False)),
    (FRECHET_FGM,
     lambda n: (0.6 * mardia_pi_weight(0.288, 0.072, 1) + 0.4 * FGM_LAG1[0], math.inf, True)),
    (NumericFold(Amh(0.5), Fgm(0.3)),
     lambda n: (max(AMH_HALF[0], fgm_density_range(0.3, 1)[0]),
                min(AMH_HALF[1], fgm_density_range(0.3, 1)[1]), False)),
    # a reflected density takes the base's values
    (Reflected(Amh(0.5), True, False), lambda n: (*AMH_HALF, False)),
    (Reflected(Amh(0.5), False, True), lambda n: (*AMH_HALF, False)),
    (Reflected(Amh(-1.0), True, True), lambda n: (*amh_density_range(-1.0), False)),
    # Frechet(0.6) * AMH(0.5): 0.288 AMH + 0.072 reflected AMH + 0.64 Pi
    (fold(Frechet(0.6), Amh(0.5)),
     lambda n: (0.36 * AMH_HALF[0] + 0.64, 0.36 * AMH_HALF[1] + 0.64, False)),
    (_Opaque(), lambda n: (0.0, math.inf, False)),
]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c, oracle", ENVELOPE_ORACLES, ids=[repr(c) for c, _ in ENVELOPE_ORACLES])
def test_envelope_matches_the_closed_forms_and_holds_on_the_lag_n_grid(c, oracle, n):
    floor, ceiling, unbounded = mixing._envelope(c, n)
    want_floor, want_ceiling, want_unbounded = oracle(n)
    assert floor == pytest.approx(want_floor, rel=1e-12, abs=1e-15)
    assert ceiling == pytest.approx(want_ceiling, rel=1e-12)
    assert unbounded is want_unbounded
    m = 16
    if c.is_absolutely_continuous:
        # quadrature folds are too slow at lag 3; the oracle composes kernels instead
        t = (np.arange(m) + 0.5) / m
        grid = iterated_density_grid(c.density_raw, n, t, t)
        lo, hi = float(grid.min()), float(grid.max())
    else:
        lo, hi = density_extrema(c, n, m)  # closed-form folds
    assert floor <= lo + 1e-12
    assert hi <= ceiling + 1e-12


@pytest.mark.parametrize("lag", [0, -1, 2.5, math.nan, math.inf, -math.inf])
def test_every_lag_entry_point_rejects_a_lag_that_is_not_a_whole_number_from_one(lag):
    entry_points = (
        lambda n: n_fold(Fgm(0.5), n),
        lambda n: fgm_psi_bounds(0.5, n),
        lambda n: density_extrema(Fgm(0.5), n, 16),
        lambda n: psi_prime_lower_bound(FRECHET_FGM, n, 16),
        lambda n: corner_divergence_scan(Fgm(0.5), n, (0.1,)),
        lambda n: lag_report(Fgm(0.5), n, 16),
        lambda n: lag_reports(Fgm(0.5), n, 16),
    )
    for call in entry_points:
        with pytest.raises(DomainError):
            call(lag)


def test_whole_float_lags_name_the_same_lag():
    assert fgm_psi_bounds(0.5, 2.0) == fgm_psi_bounds(0.5, 2)
    assert lag_report(Fgm(0.5), 2.0, 16) == lag_report(Fgm(0.5), 2, 16)
    assert lag_report(Fgm(0.5), 2.0, 16).n == 2


def test_density_extrema_validates_resolution():
    with pytest.raises(DomainError):
        density_extrema(Fgm(0.5), 1, 4)


# ---------------------------------------------------------------------------
# psi-prime floor
# ---------------------------------------------------------------------------

def test_psi_prime_floor_values():
    assert psi_prime_lower_bound(PI, 1, 64) == pytest.approx(1.0, abs=1e-15)
    assert psi_prime_lower_bound(Fgm(0.6), 1, 64) == pytest.approx(
        1.0 - 0.6 * (63 / 64) ** 2, abs=1e-12)
    # the Pi part of a Mardia spec survives as a uniform floor
    assert psi_prime_lower_bound(Mardia(0.3, 0.2), 1, 64) == pytest.approx(0.5, abs=1e-15)


def test_psi_prime_floor_is_capped_at_one():
    # the ratio at the full square is exactly 1, so no useful floor exceeds it
    assert psi_prime_lower_bound(Gaussian(0.5), 3, 32) <= 1.0


def test_m_pi_combination_floor_is_the_pi_weight_of_its_power():
    # the AC density of the lag-n copula is the surviving Pi weight
    c = Convex((0.5, 0.5), (M, PI))
    assert psi_prime_lower_bound(c, 1, 32) == pytest.approx(0.5, abs=1e-15)
    assert psi_prime_lower_bound(c, 2, 32) == pytest.approx(0.75, abs=1e-15)


def test_convex_floor_falls_back_to_a_product_term(monkeypatch):
    # past the fold-depth cap the lag-2 law has no density grid, so the bound is
    # the envelope floor: the weighted lag-1 floors, AMH(0.5)'s 0.5 and Pi's 1
    monkeypatch.setattr(copulas, "MAX_NUMERIC_FOLD_DEPTH", 0)
    c = Convex((0.5, 0.5), (Amh(0.5), PI))
    assert psi_prime_lower_bound(c, 2, 32) == pytest.approx(0.5 * 0.5 + 0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# corner scans
# ---------------------------------------------------------------------------

def test_mardia_corner_ratios_match_the_closed_form():
    scan = corner_divergence_scan(Mardia(0.3, 0.3), 1, (0.1, 0.01, 0.001))
    for eps, ratio in scan:
        assert ratio == pytest.approx(0.4 + 0.3 / eps, abs=1e-12)


def test_pi_corner_ratios_are_level_at_one():
    scan = corner_divergence_scan(PI, 1, (0.1, 0.01, 0.001))
    for _, ratio in scan:
        assert ratio == pytest.approx(1.0, abs=1e-12)


def test_w_corner_picks_the_antitone_orientation():
    # W concentrates on the antidiagonal: the (low, high) corner carries eps
    scan = corner_divergence_scan(W, 1, (0.01,))
    assert scan[0][1] == pytest.approx(1.0 / 0.01, abs=1e-9)


def test_corner_scan_validates_epsilon():
    with pytest.raises(DomainError):
        corner_divergence_scan(PI, 1, (0.6,))
    with pytest.raises(DomainError):
        corner_divergence_scan(PI, 1, (0.0,))


# ---------------------------------------------------------------------------
# per-lag reports
# ---------------------------------------------------------------------------

def test_lag_report_fields_for_fgm():
    rep = lag_report(Fgm(0.6), 1, 64)
    assert rep.n == 1
    assert rep.psi_prime_lower <= 1.0 <= rep.psi_star_upper
    assert not rep.density_unbounded_evidence
    assert rep.psi_star_upper == pytest.approx(1.0 + 0.6 * (63 / 64) ** 2, abs=1e-12)
    assert len(rep.corner_scan) == 7


def test_lag_report_flags_gaussian_growth():
    rep = lag_report(Gaussian(1 / math.sqrt(2)), 1, 64)
    assert rep.density_unbounded_evidence
    assert rep.psi_star_upper == math.inf


def test_lag_report_survives_unavailable_densities(monkeypatch):
    # a fold with a singular factor has a closed form, so its report is complete
    rep = lag_report(fold(Frechet(0.6), Gaussian(0.5)), 1, 16)
    assert len(rep.corner_scan) == 7
    assert rep.complete
    assert lag_report(FRECHET_AMH, 2, 16).complete
    assert lag_report(Gaussian(0.5), 1, 64).complete  # unbounded, yet computed
    # past the fold-depth cap the lag-2 law is never built: the report keeps
    # the envelope floor, AMH(0.5)'s 0.5, and leaves the scan empty
    monkeypatch.setattr(copulas, "MAX_NUMERIC_FOLD_DEPTH", 0)
    rep = lag_report(Amh(0.5), 2, 8)
    assert rep.psi_prime_lower == 0.5
    assert rep.psi_star_upper == math.inf
    assert rep.corner_scan == ()
    assert not rep.complete
    assert lag_report(Amh(0.5), 1, 16).complete


@pytest.mark.parametrize("m, built", [
    (256, [256, 64, 1024]),
    (64, [64, 256, 1024]),
    (32, [32, 64, 256, 1024]),
])
def test_unbounded_ladder_reuses_the_lag_grid(monkeypatch, m, built):
    sizes = []

    def counting(c, res):
        sizes.append(res)
        return density_grid(c, res)

    monkeypatch.setattr(mixing, "density_grid", counting)
    rep = lag_report(Gaussian(0.5), 1, m, eps_list=(0.1,))
    assert sizes == built
    assert rep.density_unbounded_evidence


def test_a_lag_density_grid_is_built_at_most_once(monkeypatch):
    # one lag-2 grid gives the extrema and the floor; a lag past the fold-depth
    # cap builds none, and its floor is the closed-form envelope's
    built = []

    def counting(c, res):
        built.append(type(c).__name__)
        return density_grid(c, res)

    monkeypatch.setattr(mixing, "density_grid", counting)
    rep = lag_report(FRECHET_AMH, 2, 16)
    assert built == ["Convex"]
    assert rep.psi_prime_lower == psi_prime_lower_bound(FRECHET_AMH, 2, 16) > 0.0
    built.clear()
    monkeypatch.setattr(copulas, "MAX_NUMERIC_FOLD_DEPTH", 0)
    rep = lag_report(FRECHET_AMH, 2, 16)
    assert built == []
    assert rep.psi_prime_lower == psi_prime_lower_bound(FRECHET_AMH, 2, 16) > 0.0
    assert rep.psi_prime_lower == mixing._envelope(FRECHET_AMH, 2)[0]


def test_each_lag_is_folded_once(monkeypatch):
    # the lag-n copula built for the report also feeds its grid and its scan
    calls = []

    def counting(c, n):
        calls.append(n)
        return n_fold(c, n)

    monkeypatch.setattr(mixing, "n_fold", counting)
    lag_report(FRECHET_FGM, 3, 64)
    assert calls == [3]
    calls.clear()
    lag_reports(FRECHET_FGM, 3, 64)
    assert calls == [1, 2, 3]


@pytest.mark.parametrize("c, lags", [
    *((c, (1, 2)) for c in (
        PI, M, W, Fgm(0.6), Fgm(-1.0), Mardia(0.3, 0.2), Frechet(0.6),
        Gaussian(0.5), Gaussian(-0.8), Amh(0.5), Amh(-1.0),
        Convex((0.6, 0.4), (Fgm(0.6), M)),
        Convex((0.5, 0.3, 0.2), (Frechet(0.6), Fgm(0.6), PI)),
    )),
    # a fold with a singular factor, in closed form, and a reflected AMH
    (Convex((0.5, 0.5), (fold(Frechet(0.6), Gaussian(0.5)), Fgm(0.6))), (1,)),
    (Reflected(Amh(0.5), True, False), (1, 2)),
], ids=repr)
def test_lag_report_floor_is_psi_prime_lower_bound(c, lags):
    for n in lags:
        assert lag_report(c, n, 16).psi_prime_lower == psi_prime_lower_bound(c, n, 16)


def test_report_serializes_infinities_as_strings():
    rep = lag_report(Mardia(0.3, 0.3), 1, 16)
    doc = json.loads(rep.to_json())
    assert doc["psi_star_upper"] == "inf"
    assert doc["n"] == 1


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

def _verdicts(c, m=64):
    report = classify(c, m)
    return {f.verdict for f in report.findings}, report


def test_independence_is_psi_mixing_certified():
    verdicts, report = _verdicts(PI)
    assert verdicts == {V.PSI_MIXING}
    assert all(f.certified for f in report.findings)


def test_fgm_is_psi_mixing_by_the_envelope_rule():
    verdicts, report = _verdicts(Fgm(0.6))
    assert verdicts == {V.PSI_MIXING}
    assert report.findings[0].rule == "density-envelope"
    assert report.findings[0].certified


def test_mardia_splits_into_floor_and_corner_verdicts():
    verdicts, report = _verdicts(Mardia(0.3, 0.3))
    assert verdicts == {V.PSI_PRIME_MIXING, V.NOT_PSI_STAR_MIXING}
    assert all(f.certified for f in report.findings)


def test_frechet_classifies_like_its_mardia_form():
    verdicts, _ = _verdicts(Frechet(0.6))
    assert verdicts == {V.PSI_PRIME_MIXING, V.NOT_PSI_STAR_MIXING}


def test_pure_bounds_are_not_psi_star_only():
    verdicts, _ = _verdicts(M)
    assert V.NOT_PSI_STAR_MIXING in verdicts
    assert V.PSI_MIXING not in verdicts
    verdicts, _ = _verdicts(W)
    assert V.NOT_PSI_STAR_MIXING in verdicts


def test_gaussian_is_certified_not_psi_star():
    verdicts, report = _verdicts(Gaussian(0.5))
    assert V.NOT_PSI_STAR_MIXING in verdicts
    assert any(f.certified for f in report.findings
               if f.verdict is V.NOT_PSI_STAR_MIXING)


def test_amh_has_a_certified_bounded_density_rule():
    # the density lies in [0.5, 2]: a positive floor and a finite ceiling
    verdicts, report = _verdicts(Amh(0.5))
    assert verdicts == {V.PSI_MIXING}
    assert len(report.findings) == 1
    assert report.findings[0].rule == "density-envelope"
    assert report.findings[0].certified


def test_convex_grid_bound_respects_weighted_component_bounds():
    a, b = Fgm(0.6), Amh(0.3)
    mix = Convex((0.5, 0.5), (a, b))
    up_mix = lag_report(mix, 1, 64).psi_star_upper
    up_a = lag_report(a, 1, 64).psi_star_upper
    up_b = lag_report(b, 1, 64).psi_star_upper
    assert up_mix <= 0.5 * up_a + 0.5 * up_b + 1e-12


def test_perturbed_fgm_keeps_the_envelope_rule():
    verdicts, report = _verdicts(perturb_pi(Fgm(1.0), 0.4))
    assert verdicts == {V.PSI_MIXING}
    assert report.findings[0].certified


def test_mixed_m_perturbation_keeps_floor_and_corner_divergence():
    verdicts, _ = _verdicts(Convex((0.6, 0.4), (Fgm(0.6), M)))
    assert verdicts == {V.PSI_PRIME_MIXING, V.NOT_PSI_STAR_MIXING}


def test_quadrature_fold_gets_grid_findings():
    # neither AMH(1) factor has a floor or a ceiling, so the envelope decides
    # nothing and the psi-star side rests on the corner scan
    verdicts, report = _verdicts(NumericFold(Amh(1.0), Amh(1.0)), m=16)
    assert verdicts == {V.NOT_PSI_STAR_MIXING}
    assert not any(f.certified for f in report.findings)


CLASSIFIABLE = st.sampled_from((
    PI, M, W,
    Fgm(0.6), Fgm(-1.0),
    Mardia(0.3, 0.2), Frechet(0.6),
    Gaussian(0.5), Amh(0.5), Amh(-0.5),
    Convex((0.6, 0.4), (Fgm(0.6), M)),
    Convex((0.5, 0.5), (M, PI)),
    perturb_pi(Amh(0.5), 0.4),
))


@given(CLASSIFIABLE)
@settings(max_examples=20, deadline=None)
def test_classifier_invariants(c):
    report = classify(c, 16)
    verdicts = set(report.verdicts)
    assert verdicts, "classifier must always return at least one finding"
    # a two-sided conclusion contradicts an infinite upper coefficient
    assert not ({V.PSI_MIXING, V.NOT_PSI_STAR_MIXING} <= verdicts)
    assert not ({V.PSI_STAR_MIXING, V.NOT_PSI_STAR_MIXING} <= verdicts)
    assert report.psi_prime_lower <= 1.0
    if math.isfinite(report.psi_star_upper):
        assert report.psi_star_upper >= 1.0
    assert all(ratio >= 0.0 for _, ratio in report.corner_scan)


ENVELOPE = (V.PSI_MIXING, "density-envelope", True)
FLOOR = (V.PSI_PRIME_MIXING, "density-floor", True)
UNBOUNDED = (V.NOT_PSI_STAR_MIXING, "unbounded-at-every-lag", True)


@pytest.mark.parametrize("c, expected", [
    (PI, [ENVELOPE]),
    (M, [UNBOUNDED]),
    (W, [UNBOUNDED]),
    (Mardia(0.3, 0.2), [FLOOR, UNBOUNDED]),
    (Frechet(1.0), [UNBOUNDED]),
    (Frechet(-1.0), [UNBOUNDED]),
    (Fgm(0.0), [ENVELOPE]),
    (Gaussian(0.0), [ENVELOPE]),
    (Amh(0.0), [ENVELOPE]),
    (Amh(1.0), [(V.NOT_PSI_STAR_MIXING, "corner-divergence-scan", False)]),
    (Amh(-1.0), [(V.PSI_STAR_MIXING, "density-ceiling", True)]),
    (Convex((0.6, 0.4), (Fgm(0.6), M)), [FLOOR, UNBOUNDED]),
    (FRECHET_FGM, [FLOOR, UNBOUNDED]),
    (Convex((0.5, 0.5), (M, PI)), [FLOOR, UNBOUNDED]),
    (Convex((0.5, 0.5), (Fgm(0.6), PI)), [ENVELOPE]),
    (Convex((0.6, 0.4), (Fgm(0.6), W)), [FLOOR, UNBOUNDED]),
    (Convex((0.5, 0.5), (Gaussian(0.5), PI)), [FLOOR, UNBOUNDED]),
    (Convex((0.5, 0.5), (Gaussian(0.0), Fgm(0.6))), [ENVELOPE]),
    (NumericFold(Amh(0.5), Amh(0.5)), [ENVELOPE]),
    (fold(Frechet(0.6), Amh(0.5)), [ENVELOPE]),
], ids=repr)
def test_classify_findings_are_pinned(c, expected):
    assert [(f.verdict, f.rule, f.certified) for f in classify(c, 8).findings] == expected


def test_a_rounding_residue_is_no_density_floor():
    # 1 - 0.7 - 0.3 is 5.6e-17 in floating point, yet Mardia(0.7, 0.3) has no
    # Pi part, so a mixture of it with W has no absolutely continuous part
    c = Convex((0.5, 0.5), (Mardia(0.7, 0.3), W))
    assert [f.rule for f in classify(c, 8).findings] == ["unbounded-at-every-lag"]
