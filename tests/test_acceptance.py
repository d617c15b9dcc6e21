"""Top-level acceptance checks for the whole package.

Each check prints exactly one PASS or FAIL line (bypassing capture) so a
plain pytest run shows the scoreboard.  All twelve are expected to pass;
where a check has a closed-form target its line prints the measured values
next to it.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner

from copulamix import (
    M,
    PI,
    W,
    Amh,
    Convex,
    Fgm,
    Frechet,
    Gaussian,
    Mardia,
    MixingVerdict,
    Normal,
    NumericFold,
    cdf,
    classify,
    corner_divergence_scan,
    default_study_config,
    density,
    density_extrema,
    fgm_psi_bounds,
    fold,
    n_fold,
    replicate_robust_means,
    sample_chain,
    variance_diagnostic,
)
from copulamix.cli import main as cli_main

from oracles import (
    amh_density,
    amh_density_range,
    gaussian_diagonal_density,
    iterated_fold_grid,
    kinked_fold_cdf,
)

SEED = default_study_config().seed


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {num:02d} {'PASS' if ok else 'FAIL'} {detail}", file=sys.stderr)


def _grid(points=33):
    xs = np.linspace(0.0, 1.0, points)
    return xs, xs


def _max_cdf_diff(a, b, points=33):
    xs, ys = _grid(points)
    uu, vv = np.meshgrid(xs, ys, indexing="ij")
    return float(np.max(np.abs(cdf(a, uu, vv) - cdf(b, uu, vv))))


def _quadrature_fold(c1, c2):
    """CDF of C1 * C2 on the grid by quadrature: the package's NumericFold for two
    absolutely continuous factors, the kink-splitting oracle otherwise."""
    xs, ys = _grid()
    if c1.is_absolutely_continuous and c2.is_absolutely_continuous:
        uu, vv = np.meshgrid(xs, ys, indexing="ij")
        return cdf(NumericFold(c1, c2), uu, vv)
    return kinked_fold_cdf(c1, c2, xs, ys)


def test_01_closed_form_folds_match_quadrature_folds(capsys):
    start = time.time()
    ac = Fgm(0.7)
    frechet_amh = Convex((0.6, 0.4), (Frechet(0.6), Amh(0.5)))
    pairs = [
        # (left factor, right factor, tolerance, label)
        (ac, PI, 1e-8, "pi-absorb-right"),
        (PI, ac, 1e-8, "pi-absorb-left"),
        (ac, M, 1e-6, "m-identity-right"),
        (M, ac, 1e-6, "m-identity-left"),
        (W, W, 1e-6, "w-squared-is-m"),
        (Fgm(0.8), Fgm(-0.5), 1e-8, "fgm-map"),
        (Mardia(0.3, 0.2), Mardia(0.1, 0.4), 1e-6, "mardia-composition"),
        *((Gaussian(r1), Gaussian(r2), 1e-8, f"gaussian-{r1}x{r2}")
          for r1, r2 in ((0.5, 0.5), (0.8, -0.4), (0.25, 0.9))),
        # the Mardia rule against factors outside the Mardia family; AMH has
        # no reflected member, so its W part is a Reflected
        *((c1, c2, 1e-6, f"mardia-rule-{label}")
          for c1, c2, label in (
              (W, Fgm(0.7), "w-x-fgm"),
              (Fgm(0.7), W, "fgm-x-w"),
              (Frechet(0.6), Fgm(0.6), "frechet-x-fgm"),
              (Fgm(0.6), Frechet(0.6), "fgm-x-frechet"),
              (Frechet(0.6), Gaussian(0.5), "frechet-x-gaussian"),
              (Gaussian(0.5), Mardia(0.3, 0.2), "gaussian-x-mardia"),
              (W, Gaussian(0.5), "w-x-gaussian"),
              (Mardia(0.3, 0.2), Fgm(-0.8), "mardia-x-fgm"),
              (Frechet(0.6), Amh(0.5), "frechet-x-amh"),
              (Amh(0.5), Frechet(0.6), "amh-x-frechet"),
              (W, Amh(0.5), "w-x-amh"),
              (Amh(0.5), W, "amh-x-w"),
          )),
        (frechet_amh, frechet_amh, 1e-6, "frechet-amh-lag-2"),
    ]
    cases = [(fold(c1, c2), c1, c2, tol, label) for c1, c2, tol, label in pairs]
    # the normal form of the shipped mixtures at lags 2 and 3
    for name in ("fgm_m", "frechet_fgm", "frechet_fgm@m0.7"):
        c = default_study_config().resolve(name)
        cases += [
            (fold(c, c), c, c, 1e-6, f"{name}-lag-2"),
            (n_fold(c, 3), n_fold(c, 2), c, 1e-6, f"{name}-lag-3"),
        ]
    xs, ys = _grid()
    uu, vv = np.meshgrid(xs, ys, indexing="ij")
    worst = []
    for closed, c1, c2, tol, label in cases:
        err = float(np.max(np.abs(cdf(closed, uu, vv) - _quadrature_fold(c1, c2))))
        worst.append((label, err, tol))
    elapsed = time.time() - start
    ok = all(err <= tol for _, err, tol in worst) and elapsed < 10.0
    peak = max(worst, key=lambda w: w[1] / w[2])
    _line(capsys, 1, ok,
          f"closed-form folds match quadrature on 33x33 grids "
          f"(worst {peak[0]}: {peak[1]:.2e} vs {peak[2]:.0e}, {elapsed:.1f}s)")
    for label, err, tol in worst:
        assert err <= tol, f"{label}: {err:.3e} > {tol}"
    assert elapsed < 10.0


def test_02_fgm_power_formula_matches_independent_oracle(capsys):
    start = time.time()
    xs = np.linspace(0.0, 1.0, 17)
    worst = 0.0
    for theta in (-1.0, -0.5, 0.5, 1.0):
        c = Fgm(theta)
        for n in range(1, 6):
            closed = n_fold(c, n)
            got = np.array([[cdf(closed, u, v) for v in xs] for u in xs])
            want = iterated_fold_grid(c, n, xs, xs)
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.time() - start
    ok = worst <= 1e-7 and elapsed < 30.0
    _line(capsys, 2, ok,
          f"lag-n closed form matches matrix-quadrature oracle over "
          f"theta in {{-1,-0.5,0.5,1}}, n 1..5 (max err {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-7
    assert elapsed < 30.0


def test_03_independence_shift_power_matches_direct_iteration(capsys):
    c = Convex((0.6, 0.4), (Fgm(1.0), PI))
    worst = 0.0
    direct = c
    for n in range(1, 5):
        if n > 1:
            direct = fold(direct, c)
        worst = max(worst, _max_cdf_diff(n_fold(c, n), direct))
    ok = worst <= 1e-8
    _line(capsys, 3, ok,
          f"convex-with-independence powers match direct fold iteration "
          f"for n 1..4 (max err {worst:.2e})")
    assert worst <= 1e-8


def test_04_fgm_density_extrema_hit_their_envelope(capsys):
    # the closed envelope bounds 0.4 and 1.6 are the density's inf and sup
    # over the open square; midpoint grids approach them strictly from
    # inside, so the attainable bands sit just inside the bounds
    lo, hi = density_extrema(Fgm(0.6), 1, 1024)
    band_ok = 0.4 <= lo <= 0.41 and 1.59 <= hi <= 1.6
    envelope_ok = True
    for n in range(1, 5):
        e_lo, e_hi = fgm_psi_bounds(0.6, n)
        g_lo, g_hi = density_extrema(Fgm(0.6), n, 256)
        envelope_ok = envelope_ok and e_lo <= g_lo <= g_hi <= e_hi
    _, sharp_hi = density_extrema(Fgm(1.0), 2, 1024)
    sharp_ok = sharp_hi < 2.0
    ok = band_ok and envelope_ok and sharp_ok
    _line(capsys, 4, ok,
          f"lag-1 extrema ({lo:.5f}, {hi:.5f}) inside [0.4,0.41]x[1.59,1.6], "
          f"lag<=4 inside closed envelope, lag-2 max at theta=1 is {sharp_hi:.3f} < 2")
    assert band_ok, (lo, hi)
    assert envelope_ok
    assert sharp_ok, sharp_hi


def test_05_mardia_corner_ratios_are_exact_and_flagged(capsys):
    c = Mardia(0.3, 0.3)
    scan = corner_divergence_scan(c, 1, (0.1, 0.01, 0.001))
    errs = [abs(ratio - (0.4 + 0.3 / eps)) for eps, ratio in scan]
    exact_ok = max(errs) <= 1e-12
    report = classify(c, 64)
    verdicts = {f.verdict for f in report.findings}
    verdict_ok = MixingVerdict.NOT_PSI_STAR_MIXING in verdicts
    ok = exact_ok and verdict_ok
    _line(capsys, 5, ok,
          f"corner ratios equal 0.4 + 0.3/eps to {max(errs):.1e} "
          f"and the classifier reports NotPsiStarMixing")
    assert exact_ok, errs
    assert verdict_ok, verdicts


def test_06_gaussian_density_grows_without_bound(capsys):
    # the max over an m x m midpoint grid sits on the midpoint nearest the
    # diverging corner, eps = 1/(2m); the same corner-nearest points further
    # down the ladder carry the growth past 10^3 without building the grid
    r = 1.0 / math.sqrt(2.0)
    ms = (64, 256, 1024)
    maxima = [density_extrema(Gaussian(r), 1, m)[1] for m in ms]
    corner = [float(gaussian_diagonal_density(r, 0.5 / m)) for m in ms]
    grid_err = max(abs(g / c - 1.0) for g, c in zip(maxima, corner))
    on_corner = grid_err <= 1e-9
    growing = maxima[0] < maxima[1] < maxima[2]
    deep_ms = (4096, 16384, 65536)
    deep = [float(density(Gaussian(r), 0.5 / m, 0.5 / m)) for m in deep_ms]
    deep_want = [float(gaussian_diagonal_density(r, 0.5 / m)) for m in deep_ms]
    deep_err = max(abs(g / c - 1.0) for g, c in zip(deep, deep_want))
    crosses = deep[0] < deep[1] < deep[2] and deep[0] < 1e3 < deep[1]
    report = classify(Gaussian(0.4), 64)
    verdict_ok = MixingVerdict.NOT_PSI_STAR_MIXING in {f.verdict for f in report.findings}
    ok = on_corner and growing and deep_err <= 1e-9 and crosses and verdict_ok
    _line(capsys, 6, ok,
          f"grid maxima ({maxima[0]:.1f}, {maxima[1]:.1f}, {maxima[2]:.1f}) at m=64,256,1024 "
          f"vs corner-midpoint closed form ({corner[0]:.1f}, {corner[1]:.1f}, {corner[2]:.1f}) "
          f"(rel err {grid_err:.1e}); corner-midpoint density "
          f"({deep[0]:.1f}, {deep[1]:.1f}, {deep[2]:.1f}) at m=4096,16384,65536 vs "
          f"({deep_want[0]:.1f}, {deep_want[1]:.1f}, {deep_want[2]:.1f}) "
          f"(rel err {deep_err:.1e}), "
          f"{'crossing' if crosses else 'not strictly growing across'} 1000 at m=16384; "
          f"classifier {'flags' if verdict_ok else 'does not flag'} NotPsiStarMixing")
    assert growing, maxima
    assert on_corner, (maxima, corner)
    assert deep_err <= 1e-9, (deep, deep_want)
    assert deep[0] < deep[1] < deep[2], deep
    assert deep[0] < 1e3 < deep[1], deep
    assert verdict_ok


def test_07_amh_density_respects_closed_bounds(capsys):
    # the grid extrema sit on the corner midpoints 1/512 and 1 - 1/512, and
    # the density's sharp range over the open square contains them
    m = 256
    edge = (0.5 / m, 1.0 - 0.5 / m)
    results = []
    for theta in (0.25, 0.5, 0.75, -1.0, -0.5):
        lo, hi = density_extrema(Amh(theta), 1, m)
        corners = [float(amh_density(theta, u, v)) for u in edge for v in edge]
        inf, sup = amh_density_range(theta)
        results.append((theta, lo, hi, min(corners), max(corners), inf, sup))
    outside = [t for t, lo, hi, _, _, inf, sup in results
               if not inf - 1e-9 <= lo <= hi <= sup + 1e-9]
    worst = max(max(abs(lo - c_lo), abs(hi - c_hi)) for _, lo, hi, c_lo, c_hi, _, _ in results)
    ok = not outside and worst <= 1e-12
    shown = "; ".join(f"theta={t}: ({lo:.4f}, {hi:.4f}) in [{inf:.4f}, {sup:.4f}]"
                      for t, lo, hi, _, _, inf, sup in results)
    _line(capsys, 7, ok,
          f"grid extrema vs [1-|theta|, max(1-theta, 1/(1-theta))]: {shown}; "
          f"corner-midpoint closed form matches to {worst:.1e}"
          + (f"; outside the range at theta={outside[0]}" if outside else ""))
    for t, lo, hi, c_lo, c_hi, inf, sup in results:
        assert inf - 1e-9 <= lo <= hi <= sup + 1e-9, (t, lo, hi, inf, sup)
        assert abs(lo - c_lo) <= 1e-12, (t, lo, c_lo)
        assert abs(hi - c_hi) <= 1e-12, (t, hi, c_hi)


def test_08_sampler_reproduces_the_stationary_law(capsys):
    start = time.time()
    chain = sample_chain(Fgm(0.6), 100_000, SEED)
    u = chain.uniforms
    ks = scipy.stats.kstest(u, "uniform").statistic
    joint = float(np.mean((u[:-1] <= 0.5) & (u[1:] <= 0.5)))
    mard = sample_chain(Mardia(0.3, 0.2), 100_000, SEED).uniforms
    copies = float(np.mean(mard[1:] == mard[:-1]))
    flips = float(np.mean(mard[1:] == 1.0 - mard[:-1]))
    elapsed = time.time() - start
    ok = (
        ks <= 0.01
        and abs(joint - 0.2875) <= 0.01
        and abs(copies - 0.3) <= 0.01
        and abs(flips - 0.2) <= 0.01
        and elapsed < 20.0
    )
    _line(capsys, 8, ok,
          f"KS={ks:.4f}, joint quadrant {joint:.4f} vs 0.2875, "
          f"copy/flip rates ({copies:.4f}, {flips:.4f}) vs (0.3, 0.2), {elapsed:.1f}s")
    assert ks <= 0.01
    assert abs(joint - 0.2875) <= 0.01
    assert abs(copies - 0.3) <= 0.01
    assert abs(flips - 0.2) <= 0.01
    assert elapsed < 20.0


def test_09_study_intervals_cover_and_match_expected_widths(capsys):
    start = time.time()
    cfg = default_study_config()
    rows = []
    for name, c in cfg.copulas:
        results = replicate_robust_means(c, cfg.marginal, 20_000, 200, 0.95, SEED)
        coverage = sum(r.covers(30.0) for r in results) / len(results)
        halves = [r.half_width for r in results]
        rows.append((name, coverage, min(halves), max(halves)))
    elapsed = time.time() - start
    ok = all(cov >= 0.9 and 0.6 < h_lo and h_hi < 1.4 for _, cov, h_lo, h_hi in rows)
    ok = ok and elapsed < 600.0
    summary = ", ".join(f"{name}={cov:.3f}" for name, cov, _, _ in rows)
    spread = (min(r[2] for r in rows), max(r[3] for r in rows))
    _line(capsys, 9, ok,
          f"coverage {summary}; half-widths within "
          f"({spread[0]:.3f}, {spread[1]:.3f}) over 200 replications, {elapsed:.0f}s")
    for name, cov, h_lo, h_hi in rows:
        assert cov >= 0.9, (name, cov)
        assert 0.6 < h_lo and h_hi < 1.4, (name, h_lo, h_hi)
    assert elapsed < 600.0


def test_10_estimator_is_calibrated_on_independent_data(capsys):
    results = replicate_robust_means(PI, Normal(30.0, 1.0), 5_000, 500, 0.95, SEED)
    mus = np.array([r.mu_hat for r in results])
    se = float(mus.std(ddof=1) / math.sqrt(mus.size))
    dev = abs(float(mus.mean()) - 30.0)
    ok = dev <= 3.0 * se
    _line(capsys, 10, ok,
          f"mean estimate {mus.mean():.4f} sits {dev / se:.2f} standard errors "
          f"from 30 over 500 replications")
    assert dev <= 3.0 * se, (mus.mean(), se)


def test_11_weighted_variance_condition_decays(capsys):
    cfg = default_study_config()
    diag = variance_diagnostic(Fgm(0.6), Normal(30.0, 1.0), cfg.sizes, 100, SEED)
    drops = all(b < a for a, b in zip(diag.nhvar, diag.nhvar[1:]))
    shown = ", ".join(f"{v:.3f}" for v in diag.nhvar)
    _line(capsys, 11, drops,
          f"n*h*var(mean) = ({shown}) strictly decreases across sizes {diag.sizes}")
    assert drops, diag.nhvar


def test_12_study_table_is_byte_identical_across_runs(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "copulas": {
            "fgm": {"family": "fgm", "theta": 0.6},
            "mix": {
                "family": "convex",
                "weights": [0.6, 0.4],
                "components": [{"family": "fgm", "theta": 0.6}, {"family": "m"}],
            },
        },
        "marginal": {"kind": "normal", "mu": 30.0, "sigma": 1.0},
        "sizes": [50, 200],
        "perturbations": [],
        "seed": SEED,
        "replications": 5,
        "outputs": str(tmp_path / "default"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    runner = CliRunner()
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = runner.invoke(
            cli_main, ["table4", "--config", str(cfg_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payloads.append((out / "table4.csv").read_bytes())
    ok = payloads[0] == payloads[1]
    _line(capsys, 12, ok,
          f"two table runs with the same config and seed wrote identical bytes "
          f"({len(payloads[0])} bytes)")
    assert ok
