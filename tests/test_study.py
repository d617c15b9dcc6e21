"""Tests for the experiment drivers between config and CLI."""

import json

import pytest

from copulamix import (
    Amh,
    ConfigError,
    Convex,
    ExperimentConfig,
    Fgm,
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
from copulamix import copulas, mixing
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
    doc, density_ok = mixing_report_set(_tiny(), "fgm", 3, 64)
    assert density_ok
    assert doc["copula"] == "fgm"
    assert doc["spec"] == {"family": "fgm", "theta": 0.6}
    assert [r["n"] for r in doc["reports"]] == [1, 2, 3]
    findings = [r["findings"] for r in doc["reports"]]
    assert findings[0] == findings[1] == findings[2]
    # the envelope tightens with the lag
    uppers = [r["psi_star_upper"] for r in doc["reports"]]
    assert uppers[0] > uppers[1] > uppers[2]


def test_mixing_report_set_is_incomplete_when_a_lag_lacks_its_density(monkeypatch):
    cfg = _tiny(copulas=(("frechet_amh", Convex((0.6, 0.4), (Frechet(0.6), Amh(0.5)))),))
    doc, complete = mixing_report_set(cfg, "frechet_amh", 2, 16)
    assert complete
    # with the fold-depth cap at 0, the lag-2 law (AMH folded with AMH) is not built
    monkeypatch.setattr(copulas, "MAX_NUMERIC_FOLD_DEPTH", 0)
    doc, complete = mixing_report_set(cfg, "frechet_amh", 2, 16)
    assert not complete
    assert doc["reports"][1]["density_max"] == "inf"


@pytest.mark.parametrize("n_max, attempts", [(3, 3), (1, 1)])
def test_mixing_report_set_tries_each_lag_density_once(monkeypatch, n_max, attempts):
    # one grid per lag, none repeated for the floor
    built = []

    def counting(c, res):
        built.append(res)
        return density_grid(c, res)

    monkeypatch.setattr(mixing, "density_grid", counting)
    cfg = _tiny(copulas=(("hard", fold(Frechet(0.6), Gaussian(0.5))),))
    doc, complete = mixing_report_set(cfg, "hard", n_max, 16)
    assert len(built) == attempts
    assert complete
    assert [r["n"] for r in doc["reports"]] == list(range(1, n_max + 1))


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


def test_figure_data_guards():
    cfg = _tiny()
    with pytest.raises(ConfigError):
        figure_data(cfg, 7, "ignored")
    with pytest.raises(ConfigError):
        figure_data(cfg, 3, "ignored")  # needs a third declared copula
    no_pi = _tiny(perturbations=(Perturbation("m", 0.7),))
    with pytest.raises(ConfigError):
        figure_data(no_pi, 1, "ignored")


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
