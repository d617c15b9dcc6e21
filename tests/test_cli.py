"""End-to-end tests for the command-line interface and the reproduce script."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from copulamix import default_study_config, to_dict
from copulamix.cli import main

runner = CliRunner()


def _small_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "copulas": {
            "fgm": {"family": "fgm", "theta": 0.6},
            "frechet": {"family": "frechet", "theta": 0.6},
        },
        "marginal": {"kind": "uniform"},
        "sizes": [50, 100],
        "perturbations": [{"kind": "pi", "alpha": 0.4}],
        "seed": 11,
        "replications": 3,
        "outputs": str(tmp_path / "results"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

def test_fold_two_named_copulas():
    result = runner.invoke(main, ["fold", "fgm", "fgm"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"family": "fgm", "theta": pytest.approx(0.12)}


def test_fold_inline_json_specs():
    spec = '{"family": "fgm", "theta": 0.6}'
    result = runner.invoke(main, ["fold", spec, spec])
    assert result.exit_code == 0
    assert json.loads(result.output)["theta"] == pytest.approx(0.12)


def test_fold_power_of_one_spec():
    result = runner.invoke(main, ["fold", "fgm", "--n", "3"])
    assert result.exit_code == 0
    assert json.loads(result.output)["theta"] == pytest.approx(3 * 0.2 ** 3)
    # a mixture's power holds one Mardia and one FGM component
    result = runner.invoke(main, ["fold", "frechet_fgm", "--n", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["family"] == "convex"
    assert [c["family"] for c in doc["components"]] == ["mardia", "fgm"]
    assert doc["weights"] == pytest.approx([0.216, 0.784], abs=1e-15)


def test_fold_against_amh_reflects_it_in_closed_form():
    # Frechet(0.6) = 0.288 M + 0.072 W + 0.64 Pi, and W reflects the other factor
    result = runner.invoke(main, ["fold", "frechet", '{"family": "amh", "theta": 0.5}'])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    amh = {"family": "amh", "theta": 0.5}
    assert doc["family"] == "convex"
    assert doc["components"] == [
        amh, {"family": "reflected", "base": amh, "flip_u": True, "flip_v": False},
        {"family": "independence"}]
    assert doc["weights"] == pytest.approx([0.288, 0.072, 0.64], abs=1e-15)


def test_fold_usage_errors_exit_2():
    assert runner.invoke(main, ["fold", "fgm"]).exit_code == 2
    assert runner.invoke(main, ["fold", "fgm", "fgm", "fgm"]).exit_code == 2
    assert runner.invoke(main, ["fold", "fgm", "fgm", "--n", "2"]).exit_code == 2
    assert runner.invoke(main, ["fold", "fgm", "--n", "0"]).exit_code == 2
    assert runner.invoke(main, ["fold", "nope", "fgm"]).exit_code == 2
    result = runner.invoke(main, ["fold", "{not json", "fgm"])
    assert result.exit_code == 2
    assert "inline copula is not valid JSON" in result.output
    bad = '{"family": "fgm", "theta": 7}'
    assert runner.invoke(main, ["fold", bad, "fgm"]).exit_code == 2


def test_fold_depth_limit_exits_3():
    result = runner.invoke(main, ['fold', '{"family": "amh", "theta": 0.5}', "--n", "10"])
    assert result.exit_code == 3
    assert "numeric failure" in result.output


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes_for_a_declared_copula():
    result = runner.invoke(main, ["check", "fgm", "--resolution", "16"])
    assert result.exit_code == 0
    assert "all axioms hold" in result.output


def test_check_accepts_derived_names():
    result = runner.invoke(main, ["check", "fgm@pi0.4", "--resolution", "16"])
    assert result.exit_code == 0


def test_check_rejects_unknown_names_and_bad_resolution():
    assert runner.invoke(main, ["check", "nope"]).exit_code == 2
    assert runner.invoke(main, ["check", "fgm", "--resolution", "1"]).exit_code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_a_chain_csv(tmp_path):
    cfg = _small_config(tmp_path)
    result = runner.invoke(
        main, ["simulate", "fgm", "--n", "50", "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0
    path = tmp_path / result.output.strip().split("\n")[-1].split("/")[-1]
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,y"
    assert len(lines) == 51


def test_simulate_is_seed_deterministic(tmp_path):
    cfg = _small_config(tmp_path)
    args = ["simulate", "fgm", "--n", "40", "--config", str(cfg)]
    runner.invoke(main, args + ["--out", str(tmp_path / "a")])
    runner.invoke(main, args + ["--out", str(tmp_path / "b")])
    runner.invoke(main, args + ["--seed", "99", "--out", str(tmp_path / "c")])
    a = next((tmp_path / "a").glob("*.csv")).read_bytes()
    b = next((tmp_path / "b").glob("*.csv")).read_bytes()
    c = next((tmp_path / "c").glob("*.csv")).read_bytes()
    assert a == b
    assert a != c


def test_simulate_accepts_perturbed_names(tmp_path):
    cfg = _small_config(tmp_path)
    result = runner.invoke(
        main,
        ["simulate", "fgm@m0.7", "--n", "20", "--config", str(cfg), "--out", str(tmp_path)],
    )
    assert result.exit_code == 0


def test_simulate_validation(tmp_path):
    cfg = _small_config(tmp_path)
    assert runner.invoke(main, ["simulate", "fgm", "--n", "0", "--config", str(cfg)]).exit_code == 2
    assert runner.invoke(main, ["simulate", "nope", "--n", "5", "--config", str(cfg)]).exit_code == 2
    missing = str(tmp_path / "absent.json")
    assert runner.invoke(main, ["simulate", "fgm", "--n", "5", "--config", missing]).exit_code == 2


@pytest.mark.parametrize("name", ["a/b", "fgm@pi0.4"])
def test_a_declared_name_resolve_cannot_return_is_a_config_error(tmp_path, name):
    # "a/b" would name a file in a missing directory, and "fgm@pi0.4" would
    # resolve to the FGM shift instead of the AMH declared under that name
    cfg = _small_config(tmp_path, copulas={"fgm": {"family": "fgm", "theta": 0.6},
                                           name: {"family": "amh", "theta": 0.5}})
    result = runner.invoke(main, ["simulate", name, "--n", "5", "--config", str(cfg)])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error:") and "must not contain" in result.stderr
    assert not (tmp_path / "results").exists()


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def test_mixing_writes_reports_and_prints_verdicts(tmp_path):
    cfg = _small_config(tmp_path)
    out = tmp_path / "mix"
    result = runner.invoke(
        main,
        ["mixing", "fgm", "--n-max", "2", "--resolution", "64",
         "--config", str(cfg), "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "verdict: PsiMixing" in result.output
    doc = json.loads((out / "mixing_fgm.json").read_text())
    assert len(doc["reports"]) == 2
    assert doc["reports"][0]["n"] == 1


def test_mixing_handles_derived_names_in_filenames(tmp_path):
    cfg = _small_config(tmp_path)
    out = tmp_path / "mix"
    result = runner.invoke(
        main,
        ["mixing", "fgm@pi0.4", "--n-max", "1", "--resolution", "32",
         "--config", str(cfg), "--out", str(out)],
    )
    assert result.exit_code == 0
    assert (out / "mixing_fgm-pi0.4.json").exists()


AMH = {"family": "amh", "theta": 0.5}
# the README's example of a fold with a singular factor
FRECHET_X_GAUSSIAN = {"family": "numeric_fold", "left": {"family": "frechet", "theta": 0.6},
                      "right": {"family": "gaussian", "r": 0.5}}


def test_mixing_past_the_fold_depth_cap_exits_3_and_writes_nothing(tmp_path):
    # AMH's lag-10 law nests numeric folds to depth 9: the command fails while
    # folding, before it evaluates any lag
    cfg = _small_config(tmp_path, copulas={"hard": AMH})
    out = tmp_path / "mix"
    start = time.perf_counter()
    result = runner.invoke(
        main,
        ["mixing", "hard", "--n-max", "10", "--resolution", "8",
         "--config", str(cfg), "--out", str(out)],
    )
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 3
    assert result.stderr == "numeric failure: numeric fold nesting reached depth 9 > cap 8\n"
    assert result.stdout == ""
    assert not out.exists()


def test_mixing_of_a_fold_with_a_singular_factor_exits_0_with_its_report(tmp_path):
    # the spec parses to its closed form, 0.288 Gaussian(0.5) + 0.072
    # Gaussian(-0.5) + 0.64 Pi, so every lag has a density and a corner scan
    cfg = _small_config(tmp_path, copulas={"hard": FRECHET_X_GAUSSIAN})
    out = tmp_path / "mix"
    result = runner.invoke(main, ["mixing", "hard", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "mixing_hard.json").read_text())
    assert [r["n"] for r in doc["reports"]] == [1, 2, 3]
    assert all(r["corner_scan"] for r in doc["reports"])
    assert doc["spec"]["family"] == "convex"
    # the shipped perturbation example folds in closed form at every lag
    result = runner.invoke(main, ["mixing", "frechet_fgm", "--out", str(tmp_path / "shipped")])
    assert result.exit_code == 0, result.output


def test_mixing_validation(tmp_path):
    cfg = _small_config(tmp_path)
    base = ["mixing", "fgm", "--config", str(cfg)]
    assert runner.invoke(main, base + ["--n-max", "0"]).exit_code == 2
    assert runner.invoke(main, base + ["--resolution", "4"]).exit_code == 2


# ---------------------------------------------------------------------------
# table4
# ---------------------------------------------------------------------------

def test_table4_runs_and_is_deterministic(tmp_path):
    cfg = _small_config(tmp_path)
    for sub in ("a", "b"):
        result = runner.invoke(
            main, ["table4", "--config", str(cfg), "--out", str(tmp_path / sub)]
        )
        assert result.exit_code == 0, result.output
    a = (tmp_path / "a" / "table4.csv").read_bytes()
    b = (tmp_path / "b" / "table4.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == "copula,n,mu_hat,ci_lo,ci_hi,coverage"
    assert len(lines) == 5  # 2 copulas x 2 sizes


def test_table4_worker_count_does_not_change_output(tmp_path):
    cfg = _small_config(tmp_path)
    runner.invoke(main, ["table4", "--config", str(cfg), "--out", str(tmp_path / "s")])
    runner.invoke(
        main,
        ["table4", "--config", str(cfg), "--out", str(tmp_path / "p"), "--workers", "2"],
    )
    assert (tmp_path / "s" / "table4.csv").read_bytes() == (
        tmp_path / "p" / "table4.csv"
    ).read_bytes()


def test_table4_seed_override_changes_output(tmp_path):
    cfg = _small_config(tmp_path)
    runner.invoke(main, ["table4", "--config", str(cfg), "--out", str(tmp_path / "s")])
    runner.invoke(
        main, ["table4", "--config", str(cfg), "--out", str(tmp_path / "t"), "--seed", "99"]
    )
    assert (tmp_path / "s" / "table4.csv").read_bytes() != (
        tmp_path / "t" / "table4.csv"
    ).read_bytes()


def test_table4_rejects_bad_workers(tmp_path):
    cfg = _small_config(tmp_path)
    assert runner.invoke(main, ["table4", "--config", str(cfg), "--workers", "0"]).exit_code == 2


# ---------------------------------------------------------------------------
# figure-data
# ---------------------------------------------------------------------------

def test_figure_data_surface_files(tmp_path):
    cfg = _small_config(tmp_path)
    out = tmp_path / "fig"
    result = runner.invoke(
        main, ["figure-data", "1", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    paths = [line for line in result.output.splitlines() if line]
    assert paths
    for p in paths:
        header = open(p).readline().strip()
        assert header == "u,v,c"


def test_figure_data_chain_files(tmp_path):
    cfg = _small_config(tmp_path)
    out = tmp_path / "fig"
    result = runner.invoke(
        main, ["figure-data", "2", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    paths = [line for line in result.output.splitlines() if line]
    for p in paths:
        header = open(p).readline().strip()
        assert header == "t,u,y"


def test_figure_data_rejects_bad_ids_and_short_configs(tmp_path):
    cfg = _small_config(tmp_path)
    assert runner.invoke(main, ["figure-data", "5", "--config", str(cfg)]).exit_code == 2
    assert runner.invoke(main, ["figure-data", "0", "--config", str(cfg)]).exit_code == 2
    # figures 3 and 4 need a third declared copula
    assert runner.invoke(main, ["figure-data", "3", "--config", str(cfg)]).exit_code == 2


def test_figure_data_third_copula_path(tmp_path):
    doc_copulas = {
        name: to_dict(spec) for name, spec in default_study_config().copulas
    }
    cfg = _small_config(tmp_path, copulas=doc_copulas)
    out = tmp_path / "fig"
    result = runner.invoke(
        main, ["figure-data", "4", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output


# ---------------------------------------------------------------------------
# scripts/reproduce_study.py
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _reproduce_without_the_table(config, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_study.py"), "--skip-table",
         "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_reproduce_study_without_the_table_completes_on_the_shipped_config(tmp_path):
    shipped = ROOT / "configs" / "table4.json"
    proc = _reproduce_without_the_table(shipped, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("fgm", "fgm_m", "frechet", "frechet_fgm"):
        assert json.loads((tmp_path / f"mixing_{name}.json").read_text())["copula"] == name
    assert len(list(tmp_path.glob("figure*.csv"))) == 10
    assert not (tmp_path / "table4.csv").exists()


def test_reproduce_study_fails_like_the_cli(tmp_path):
    proc = _reproduce_without_the_table(tmp_path / "missing.json", tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot read config")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
