"""Experiment drivers sitting between the config file and the CLI.

Every function here is deterministic given the config: seeds for each unit of
work are derived from the master seed and the unit's position in the declared
order, never from execution order, so a parallel run and a serial run write
byte-identical files.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .chains import apply_marginal, chain_to_csv, sample_chain
from .config import ExperimentConfig, Perturbation
from .copulas import check_copula_axioms, to_dict
from .errors import ConfigError
from .mixing import lag_reports
from .robust import coverage_rate, replicate_robust_means
from .rng import derive_seed

TABLE_LEVEL = 0.95
FIGURE_CHAIN_LENGTH = 500
SURFACE_POINTS = 101
_FIGURE_SEED_SPACE = 10_000


def _safe_name(name: str) -> str:
    return name.replace("@", "-")


def simulate_to_csv(cfg: ExperimentConfig, name: str, n: int, seed: int, out_dir) -> Path:
    """Sample one chain for the named copula and write it as CSV."""
    c = cfg.resolve(name)
    chain = apply_marginal(sample_chain(c, n, seed), cfg.marginal)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{_safe_name(name)}_n{n}_seed{seed}.csv"
    chain_to_csv(chain, path)
    return path


def mixing_report_set(cfg: ExperimentConfig, name: str, n_max: int, resolution: int) -> tuple:
    """One report per lag 1..n_max, each carrying the classification.

    Returns (document, complete): the document is JSON-ready; complete is
    False when some lag lacks its density or its corner scan, in which case
    the reports carry only the computable parts.
    """
    c = cfg.resolve(name)
    reports = lag_reports(c, n_max, resolution)
    doc = {
        "copula": name,
        "spec": to_dict(c),
        "resolution": resolution,
        "reports": [r.to_dict() for r in reports],
    }
    return doc, all(r.complete for r in reports)


def _study_cell(args) -> tuple:
    """One (copula, size) cell of the study; top level so workers can pickle it."""
    index, name, c, marginal, n, reps, seed = args
    results = replicate_robust_means(c, marginal, n, reps, TABLE_LEVEL, seed)
    first = results[0]
    return index, {
        "copula": name,
        "n": n,
        "mu_hat": first.mu_hat,
        "ci_lo": first.ci_lo,
        "ci_hi": first.ci_hi,
        "coverage": coverage_rate(results, marginal.mean),
    }


def run_table(cfg: ExperimentConfig, workers: int = 1) -> list:
    """The full study grid: every declared copula at every size.

    Each row reports the first replication's estimate and interval plus the
    coverage rate over all configured replications.  Cell seeds come from the
    master seed and the cell's position in the declared order.
    """
    cells = []
    index = 0
    for name, c in cfg.copulas:
        for n in cfg.sizes:
            cells.append(
                (index, name, c, cfg.marginal, n, cfg.replications, derive_seed(cfg.seed, index))
            )
            index += 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_study_cell, cells))
    else:
        done = [_study_cell(cell) for cell in cells]
    return [row for _, row in sorted(done, key=lambda item: item[0])]


def table_to_csv(rows, path) -> None:
    """Write study rows as CSV with 17-significant-digit floats and LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write("copula,n,mu_hat,ci_lo,ci_hi,coverage\n")
        for row in rows:
            fh.write(
                "%s,%d,%.17g,%.17g,%.17g,%.17g\n"
                % (row["copula"], row["n"], row["mu_hat"], row["ci_lo"],
                   row["ci_hi"], row["coverage"])
            )


def surface_to_csv(c, path, points: int = SURFACE_POINTS) -> None:
    """Write the CDF surface on a points x points lattice as u,v,c rows."""
    xs = np.linspace(0.0, 1.0, points)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    zz = c.cdf_raw(uu, vv)
    with open(path, "w", newline="\n") as fh:
        fh.write("u,v,c\n")
        for u, v, z in zip(uu.ravel(), vv.ravel(), zz.ravel()):
            fh.write("%.17g,%.17g,%.17g\n" % (u, v, z))


def _first_pi(cfg: ExperimentConfig) -> Perturbation:
    for p in cfg.perturbations:
        if p.kind == "pi":
            return p
    raise ConfigError("this figure needs a 'pi' perturbation declared in the config")


def _figure_base(cfg: ExperimentConfig, position: int) -> tuple:
    if len(cfg.copulas) <= position:
        raise ConfigError(
            f"this figure uses the copula declared at position {position + 1}, "
            f"but the config declares only {len(cfg.copulas)}"
        )
    return cfg.copulas[position]


def figure_data(cfg: ExperimentConfig, figure_id: int, out_dir) -> list:
    """Write the plot-ready files for one figure; returns the paths.

    Figures 1 and 4 are CDF surface grids for the first and third declared
    copulas with their shifts toward independence; figures 2 and 3 are length
    500 chains from the same bases under every declared perturbation.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if figure_id in (1, 4):
        name, base = _figure_base(cfg, 0 if figure_id == 1 else 2)
        p = _first_pi(cfg)
        variants = [(name, base), (f"{name}-{p.suffix}", p.apply(base))]
        for label, c in variants:
            path = out / f"figure{figure_id}_{_safe_name(label)}_surface.csv"
            surface_to_csv(c, path)
            written.append(path)
    elif figure_id in (2, 3):
        name, base = _figure_base(cfg, 0 if figure_id == 2 else 2)
        variants = [(name, base)]
        variants += [(f"{name}-{p.suffix}", p.apply(base)) for p in cfg.perturbations]
        fig_seed = derive_seed(cfg.seed, _FIGURE_SEED_SPACE + figure_id)
        for idx, (label, c) in enumerate(variants):
            seed = derive_seed(fig_seed, idx)
            chain = apply_marginal(sample_chain(c, FIGURE_CHAIN_LENGTH, seed), cfg.marginal)
            path = out / f"figure{figure_id}_{_safe_name(label)}_chain.csv"
            chain_to_csv(chain, path)
            written.append(path)
    else:
        raise ConfigError(f"unknown figure id {figure_id}; known ids are 1, 2, 3, 4")
    return written


def axiom_check(cfg: ExperimentConfig, name: str, resolution: int):
    """Axiom report for a named copula."""
    return check_copula_axioms(cfg.resolve(name), resolution)


def write_json(doc: dict, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
