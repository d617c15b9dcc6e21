"""Tests for the JSON experiment configuration layer."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from copulamix import (
    ConfigError,
    Convex,
    ExperimentConfig,
    Fgm,
    Frechet,
    M,
    Normal,
    Perturbation,
    Uniform01,
    cdf,
    default_study_config,
    load_config,
    parse_config,
    perturb_m,
    perturb_pi,
)
from copulamix.config import SCHEMA_VERSION


def test_default_study_shape():
    cfg = default_study_config()
    assert cfg.names == ("fgm", "fgm_m", "frechet", "frechet_fgm")
    assert cfg.sizes == (100, 5000, 10000, 20000)
    assert cfg.marginal == Normal(30.0, 1.0)
    assert cfg.seed == 20260825
    assert cfg.replications == 200
    assert [p.suffix for p in cfg.perturbations] == ["pi0.4", "m0.7"]
    assert cfg.base("fgm") == Fgm(0.6)
    assert cfg.base("frechet") == Frechet(0.6)
    mix = cfg.base("fgm_m")
    assert isinstance(mix, Convex)
    assert mix.weights == (0.6, 0.4)
    assert mix.components == (Fgm(0.6), M)


def test_round_trip_through_json():
    cfg = default_study_config()
    again = parse_config(json.loads(cfg.to_json()))
    assert again == cfg


def test_load_config_from_file(tmp_path):
    cfg = default_study_config()
    path = tmp_path / "study.json"
    path.write_text(cfg.to_json())
    assert load_config(path) == cfg


def test_copulas_serialize_as_a_name_keyed_object():
    doc = default_study_config().to_dict()
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc["copulas"]) == {"fgm", "fgm_m", "frechet", "frechet_fgm"}
    assert doc["copulas"]["fgm"] == {"family": "fgm", "theta": 0.6}
    assert doc["marginal"] == {"kind": "normal", "mu": 30.0, "sigma": 1.0}


def test_resolve_plain_and_derived_names():
    cfg = default_study_config()
    assert cfg.resolve("fgm") == Fgm(0.6)
    shifted = cfg.resolve("fgm@pi0.4")
    assert shifted == perturb_pi(Fgm(0.6), 0.4)
    assert shifted == Fgm(0.6 * 0.6)
    toward_m = cfg.resolve("frechet@m0.7")
    assert toward_m == perturb_m(Frechet(0.6), 0.7)
    assert cdf(toward_m, 0.5, 0.5) == pytest.approx(
        0.3 * cdf(Frechet(0.6), 0.5, 0.5) + 0.7 * 0.5
    )


def test_resolve_rejects_bad_names():
    cfg = default_study_config()
    with pytest.raises(ConfigError):
        cfg.resolve("nope")
    with pytest.raises(ConfigError):
        cfg.resolve("fgm@x0.4")
    with pytest.raises(ConfigError):
        cfg.resolve("fgm@pihigh")
    with pytest.raises(ConfigError):
        cfg.resolve("fgm@pi1.5")
    with pytest.raises(ConfigError):
        cfg.resolve("nope@pi0.4")


def test_perturbation_validation():
    assert Perturbation("pi", 0.4).suffix == "pi0.4"
    assert Perturbation("m", 0.25).suffix == "m0.25"
    with pytest.raises(ConfigError):
        Perturbation("w", 0.4)
    with pytest.raises(ConfigError):
        Perturbation("pi", 1.5)
    with pytest.raises(ConfigError):
        Perturbation("pi", -0.1)


def test_config_field_validation():
    base = default_study_config()
    with pytest.raises(ConfigError):
        ExperimentConfig((), base.marginal, base.sizes, (), 1, 1, "out")
    with pytest.raises(ConfigError):
        ExperimentConfig(base.copulas, base.marginal, (), (), 1, 1, "out")
    with pytest.raises(ConfigError):
        ExperimentConfig(
            (("a", Fgm(0.5)), ("a", Fgm(0.2))), base.marginal, (10,), (), 1, 1, "out"
        )
    with pytest.raises(ConfigError):
        ExperimentConfig(base.copulas, base.marginal, base.sizes, (), 1, 0, "out")


@pytest.mark.parametrize("name", ["fgm@pi0.4", "a/b", "a\\b"])
def test_config_rejects_a_name_resolve_cannot_return(name):
    # resolve reads "fgm@pi0.4" as the FGM shift, and a name becomes part of a
    # file name
    base = default_study_config()
    with pytest.raises(ConfigError, match="must not contain"):
        replace(base, copulas=base.copulas + ((name, Fgm(0.5)),))


def test_config_rejects_perturbations_whose_suffixes_coincide():
    # both suffixes read "pi0.4", so their figure files would share a name
    with pytest.raises(ConfigError, match="distinct suffixes"):
        replace(default_study_config(),
                perturbations=(Perturbation("pi", 0.4), Perturbation("pi", 0.4000001)))


def test_parse_rejects_malformed_documents():
    good = default_study_config().to_dict()
    with pytest.raises(ConfigError):
        parse_config([])
    with pytest.raises(ConfigError):
        parse_config({**good, "schema_version": 2})
    with pytest.raises(ConfigError):
        parse_config({**good, "copulas": {}})
    with pytest.raises(ConfigError):
        parse_config({**good, "copulas": {"bad": {"family": "fgm", "theta": 9.0}}})
    with pytest.raises(ConfigError):
        parse_config({**good, "marginal": {"kind": "cauchy"}})
    with pytest.raises(ConfigError):
        parse_config({**good, "marginal": {"kind": "normal", "mu": 1.0}})
    with pytest.raises(ConfigError):
        parse_config({**good, "sizes": [100, 0]})
    with pytest.raises(ConfigError):
        parse_config({**good, "perturbations": [{"kind": "pi"}]})
    with pytest.raises(ConfigError):
        parse_config({**good, "seed": "abc"})
    # counts are whole numbers: no silent truncation of fractions, bools or strings
    for field, bad in (("sizes", [100.7, 5000]), ("sizes", [100, "5000"]),
                       ("replications", 2.9), ("replications", True), ("seed", True),
                       ("seed", 1.5), ("seed", "7")):
        with pytest.raises(ConfigError):
            parse_config({**good, field: bad})


def test_parse_accepts_whole_floats_as_counts():
    good = default_study_config().to_dict()
    cfg = parse_config({**good, "sizes": [100.0, 5000], "replications": 200.0, "seed": 7.0})
    assert cfg.sizes == (100, 5000)
    assert cfg.replications == 200
    assert cfg.seed == 7
    assert all(type(x) is int for x in (*cfg.sizes, cfg.replications, cfg.seed))


def test_parse_fills_defaults():
    cfg = parse_config(
        {
            "schema_version": 1,
            "copulas": {"only": {"family": "fgm", "theta": 0.1}},
            "sizes": [50],
        }
    )
    assert cfg.marginal == Uniform01()
    assert cfg.perturbations == ()
    assert cfg.seed == 0
    assert cfg.replications == 1
    assert cfg.outputs == "results"


def test_load_reports_missing_and_invalid_files(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_checked_in_study_config_matches_the_default():
    assert load_config("configs/table4.json") == default_study_config()


NUMERIC_FIELDS = (
    ("copulas", "fgm", "theta"),
    ("copulas", "fgm_m", "weights", 0),
    ("copulas", "fgm_m", "components", 0, "theta"),
    ("copulas", "frechet", "theta"),
    ("marginal", "mu"),
    ("marginal", "sigma"),
    ("sizes", 1),
    ("perturbations", 0, "alpha"),
    ("seed",),
    ("replications",),
)


@given(st.sampled_from(NUMERIC_FIELDS), st.sampled_from((math.nan, math.inf, -math.inf)))
@settings(max_examples=60, deadline=None)
def test_parse_rejects_non_finite_numbers(path, bad):
    # Python's json module reads NaN and Infinity, so a config file can hold them
    doc = json.loads(default_study_config().to_json())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(ConfigError):
        parse_config(doc)
