"""Tests for the experiment drivers between config and CLI."""

import hashlib
import json

import pytest

from copulamix import (
    Amh,
    ConfigError,
    Convex,
    ExperimentConfig,
    Fgm,
    FoldDepthError,
    Frechet,
    Gaussian,
    Normal,
    Perturbation,
    Uniform01,
    default_study_config,
    derive_seed,
    density_grid,
    fold,
    replicate_robust_means,
)
from copulamix import mixing
from copulamix.study import (
    TABLE_LEVEL,
    axiom_check,
    figure_data,
    mixing_report_set,
    run_table,
    simulate_to_csv,
    surface_to_csv,
    table_to_csv,
    write_json,
)


def _tiny(**overrides):
    fields = dict(
        copulas=(("fgm", Fgm(0.6)), ("weak", Fgm(0.1))),
        marginal=Uniform01(),
        sizes=(40, 80),
        perturbations=(Perturbation("pi", 0.4),),
        seed=5,
        replications=4,
        outputs="results",
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def test_run_table_orders_rows_by_declaration():
    rows = run_table(_tiny())
    assert [(r["copula"], r["n"]) for r in rows] == [
        ("fgm", 40), ("fgm", 80), ("weak", 40), ("weak", 80),
    ]
    for row in rows:
        assert set(row) == {"copula", "n", "mu_hat", "ci_lo", "ci_hi", "coverage"}
        assert row["ci_lo"] < row["mu_hat"] < row["ci_hi"]
        assert 0.0 <= row["coverage"] <= 1.0


def test_run_table_cells_use_position_derived_seeds():
    cfg = _tiny()
    rows = run_table(cfg)
    # cell index 3 is ('weak', 80); rebuild it directly from the same seed
    results = replicate_robust_means(
        Fgm(0.1), cfg.marginal, 80, cfg.replications, TABLE_LEVEL, derive_seed(cfg.seed, 3)
    )
    assert rows[3]["mu_hat"] == results[0].mu_hat
    mu = cfg.marginal.mean
    assert rows[3]["coverage"] == sum(r.covers(mu) for r in results) / len(results)


def test_run_table_parallel_matches_serial():
    cfg = _tiny()
    assert run_table(cfg, workers=2) == run_table(cfg, workers=1)


def test_table_csv_format(tmp_path):
    rows = run_table(_tiny())
    path = tmp_path / "t.csv"
    table_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "copula,n,mu_hat,ci_lo,ci_hi,coverage"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "fgm"
    assert float(first[2]) == rows[0]["mu_hat"]


def test_simulate_to_csv_names_files_after_the_request(tmp_path):
    cfg = _tiny(marginal=Normal(30.0, 1.0))
    path = simulate_to_csv(cfg, "fgm@pi0.4", 25, 7, tmp_path)
    assert path.name == "fgm-pi0.4_n25_seed7.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,y"
    assert len(lines) == 26


def test_mixing_report_set_shares_findings_across_lags():
    doc, reports = mixing_report_set(_tiny(), "fgm", 3, 64)
    assert doc["reports"] == [r.to_dict() for r in reports]
    assert doc["copula"] == "fgm"
    assert doc["spec"] == {"family": "fgm", "theta": 0.6}
    assert [r["n"] for r in doc["reports"]] == [1, 2, 3]
    findings = [r["findings"] for r in doc["reports"]]
    assert findings[0] == findings[1] == findings[2]
    # the envelope tightens with the lag
    uppers = [r["psi_star_upper"] for r in doc["reports"]]
    assert uppers[0] > uppers[1] > uppers[2]


def test_mixing_report_set_past_the_fold_depth_cap_raises_before_any_grid(monkeypatch):
    built = []

    def counting(c, res):
        built.append(res)
        return density_grid(c, res)

    monkeypatch.setattr(mixing, "density_grid", counting)
    cfg = _tiny(copulas=(("frechet_amh", Convex((0.6, 0.4), (Frechet(0.6), Amh(0.5)))),))
    with pytest.raises(FoldDepthError):
        mixing_report_set(cfg, "frechet_amh", 10, 8)
    assert built == []


@pytest.mark.parametrize("n_max, attempts", [(3, 3), (1, 1)])
def test_mixing_report_set_tries_each_lag_density_once(monkeypatch, n_max, attempts):
    # one grid per lag, none repeated for the floor
    built = []

    def counting(c, res):
        built.append(res)
        return density_grid(c, res)

    monkeypatch.setattr(mixing, "density_grid", counting)
    cfg = _tiny(copulas=(("hard", fold(Frechet(0.6), Gaussian(0.5))),))
    doc, _ = mixing_report_set(cfg, "hard", n_max, 16)
    assert len(built) == attempts
    assert [r["n"] for r in doc["reports"]] == list(range(1, n_max + 1))



# SHA-256 of each shipped mixing report as reproduce_study.py writes it: FGM
# and Mardia polynomial arithmetic, so the bytes hold on any platform
SHIPPED_MIXING_SHA256 = {
    "fgm": "8c8163720795f8d3da2c52b66869c082c500bf43ab66f1a324f8c3e82b659d32",
    "fgm_m": "12bee8e3afe8b6bf5bf82bbc13b2c5f14181171816266e273582e46d3b0ce419",
    "frechet": "9350e7b600f8470e8a55fa88c32326babdbae0623da45102dc853319aaff4ca7",
    "frechet_fgm": "be8da37524ea1c17867f6a9b32681f1ded77e4cdcec64797107070431cd12edf",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_MIXING_SHA256))
def test_shipped_mixing_reports_are_pinned(tmp_path, name):
    cfg = default_study_config()
    doc, _ = mixing_report_set(cfg, name, mixing.DEFAULT_N_MAX, mixing.DEFAULT_RESOLUTION)
    path = tmp_path / f"mixing_{name}.json"
    write_json(doc, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHIPPED_MIXING_SHA256[name]


# SHA-256 of each CDF surface of figures 1 and 4 for the shipped study: FGM and
# Mardia polynomials again.  The chain CSVs go through exp and log, which can
# move by an ulp across CPUs, so the determinism checks cover them instead.
SHIPPED_SURFACE_SHA256 = {
    "figure1_fgm_surface.csv": "7aa3fc6f832156e42f2c100ed6f8faf104635959afcf8ac08b7f0f867ea6a90f",
    "figure1_fgm-pi0.4_surface.csv": "b23611cb70bf0a9a9b147bad2a9c39403625e7533af15dc72ec46d4a7a1e6609",
    "figure4_frechet_surface.csv": "8ec0cbd71ba597ffebc3f5b9915068188e6e8cb3b4a5745c594e393aa87bf217",
    "figure4_frechet-pi0.4_surface.csv": "1dfbe30cd1ed0409ef80d1f989a8e46a9fe82c692f0bb6767c9102e982c968f8",
}


def test_shipped_surfaces_are_pinned(tmp_path):
    paths = figure_data(default_study_config(), 1, tmp_path)
    paths += figure_data(default_study_config(), 4, tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == SHIPPED_SURFACE_SHA256

def test_surface_csv_corners(tmp_path):
    path = tmp_path / "s.csv"
    surface_to_csv(Fgm(0.6), path, points=3)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 9
    grid = {(float(u), float(v)): float(z) for u, v, z in rows}
    assert grid[(0.0, 0.0)] == 0.0
    assert grid[(1.0, 1.0)] == 1.0
    assert grid[(0.5, 1.0)] == 0.5
    assert grid[(0.5, 0.5)] == pytest.approx(0.2875)


def test_figure_data_file_names(tmp_path):
    cfg = _tiny()
    surface = figure_data(cfg, 1, tmp_path)
    assert [p.name for p in surface] == [
        "figure1_fgm_surface.csv",
        "figure1_fgm-pi0.4_surface.csv",
    ]
    chains = figure_data(cfg, 2, tmp_path)
    assert [p.name for p in chains] == [
        "figure2_fgm_chain.csv",
        "figure2_fgm-pi0.4_chain.csv",
    ]
    for p in chains:
        assert len(p.read_text().splitlines()) == 501


def test_figure_data_is_deterministic(tmp_path):
    cfg = _tiny()
    a = figure_data(cfg, 2, tmp_path / "a")
    b = figure_data(cfg, 2, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_figure_data_guards(tmp_path):
    out = tmp_path / "out"
    cfg = _tiny()
    with pytest.raises(ConfigError):
        figure_data(cfg, 7, out)
    with pytest.raises(ConfigError):
        figure_data(cfg, 3, out)  # needs a third declared copula
    no_pi = _tiny(perturbations=(Perturbation("m", 0.7),))
    with pytest.raises(ConfigError):
        figure_data(no_pi, 1, out)
    assert not out.exists()  # a rejected call leaves no directory behind


def test_figure_data_third_copula(tmp_path):
    paths = figure_data(default_study_config(), 4, tmp_path)
    assert [p.name for p in paths] == [
        "figure4_frechet_surface.csv",
        "figure4_frechet-pi0.4_surface.csv",
    ]


def test_axiom_check_resolves_names():
    report = axiom_check(_tiny(), "fgm@pi0.4", 16)
    assert report.ok


def test_write_json_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"a": [1, 2], "b": "x"}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1, 2], "b": "x"}
