"""Command-line front end.

Subcommands: simulate, mixing, table4, figure-data, fold, check.  All take an
optional --config (JSON); without one the built-in study configuration is
used.  Exit codes: 0 success, 2 configuration problem, 3 numeric failure.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from .config import ExperimentConfig, default_study_config, load_config
from .copulas import Copula, fold as fold_op, from_dict, n_fold, to_dict
from .errors import ConfigError, CopulamixError
from .mixing import DEFAULT_N_MAX, DEFAULT_RESOLUTION
from .study import (
    _safe_name,
    axiom_check,
    figure_data,
    mixing_report_set,
    run_table,
    simulate_to_csv,
    table_to_csv,
    write_json,
)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _guard(fn):
    """Map package errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except CopulamixError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)

    return wrapper


def _load(config_path, seed=None) -> ExperimentConfig:
    """The config file's settings (or the built-in study), with --seed applied."""
    cfg = default_study_config() if config_path is None else load_config(config_path)
    return cfg if seed is None else replace(cfg, seed=seed)


def _spec_argument(cfg: ExperimentConfig, text: str) -> Copula:
    """A copula given either as a config name or as inline JSON."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return from_dict(json.loads(stripped))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"inline copula is not valid JSON: {exc}") from exc
        except ConfigError:
            raise
        except (CopulamixError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad inline copula: {exc}") from exc
    return cfg.resolve(text)


config_option = click.option(
    "--config", "config_path", type=click.Path(), default=None,
    help="JSON config file; defaults to the built-in study configuration.",
)
out_option = click.option(
    "--out", "out_dir", type=click.Path(), default=None,
    help="Output directory; defaults to the config's outputs field.",
)
seed_option = click.option(
    "--seed", type=int, default=None,
    help="Override the config's master seed.",
)


@click.group()
def main() -> None:
    """Copula algebra, chain sampling, mixing bounds, and the study harness."""


@main.command()
@click.argument("name")
@click.option("--n", "length", type=int, required=True, help="Chain length.")
@config_option
@seed_option
@out_option
@_guard
def simulate(name, length, config_path, seed, out_dir):
    """Sample a stationary chain for the named copula and write it as CSV."""
    cfg = _load(config_path, seed)
    if length < 1:
        raise ConfigError("--n must be at least 1")
    path = simulate_to_csv(cfg, name, length, cfg.seed, out_dir or cfg.outputs)
    click.echo(str(path))


@main.command()
@click.argument("name")
@click.option("--n-max", type=int, default=DEFAULT_N_MAX, show_default=True,
              help="Largest lag to report.")
@click.option("--resolution", type=int, default=DEFAULT_RESOLUTION, show_default=True,
              help="Grid resolution for density bounds.")
@config_option
@out_option
@_guard
def mixing(name, n_max, resolution, config_path, out_dir):
    """Classify the named copula and print per-lag mixing bounds."""
    cfg = _load(config_path)
    if n_max < 1:
        raise ConfigError("--n-max must be at least 1")
    if resolution < 8:
        raise ConfigError("--resolution must be at least 8")
    doc, reports = mixing_report_set(cfg, name, n_max, resolution)
    out = Path(out_dir or cfg.outputs)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"mixing_{_safe_name(name)}.json"
    write_json(doc, path)
    click.echo(f"copula: {name}")
    for finding in reports[0].findings:
        mark = "certified" if finding.certified else "evidence"
        click.echo(f"  verdict: {finding.verdict.value}  [{finding.rule}, {mark}]")
    click.echo(f"{'lag':>4} {'dens_min':>12} {'dens_max':>12} {'psi_prime>=':>12} {'psi_star<=':>12}")
    for rep in reports:
        click.echo(
            "%4d %12.6g %12.6g %12.6g %12.6g"
            % (rep.n, rep.density_min, rep.density_max, rep.psi_prime_lower, rep.psi_star_upper)
        )
    click.echo(f"report written to {path}")


@main.command()
@config_option
@seed_option
@out_option
@click.option("--workers", type=int, default=1, show_default=True,
              help="Parallel workers across study cells.")
@_guard
def table4(config_path, seed, out_dir, workers):
    """Run the full study grid and write table4.csv."""
    cfg = _load(config_path, seed)
    if workers < 1:
        raise ConfigError("--workers must be at least 1")
    rows = run_table(cfg, workers=workers)
    out = Path(out_dir or cfg.outputs)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "table4.csv"
    table_to_csv(rows, path)
    for row in rows:
        click.echo(
            "%-14s n=%-6d mu_hat=%-8.4f ci=(%.4f, %.4f) coverage=%.3f"
            % (row["copula"], row["n"], row["mu_hat"], row["ci_lo"],
               row["ci_hi"], row["coverage"])
        )
    click.echo(f"table written to {path}")


@main.command("figure-data")
@click.argument("figure_id", type=int)
@config_option
@seed_option
@out_option
@_guard
def figure_data_cmd(figure_id, config_path, seed, out_dir):
    """Write the plot-ready data files for one figure id (1-4)."""
    cfg = _load(config_path, seed)
    paths = figure_data(cfg, figure_id, out_dir or cfg.outputs)
    for path in paths:
        click.echo(str(path))


@main.command()
@click.argument("specs", nargs=-1, required=True)
@click.option("--n", "power", type=int, default=None,
              help="Fold the single given copula with itself this many times.")
@config_option
@_guard
def fold(specs, power, config_path):
    """Print the fold product (two specs) or n-fold power (one spec plus --n).

    Specs are config names or inline JSON like '{"family": "fgm", "theta": 0.6}'.
    """
    cfg = _load(config_path)
    resolved = [_spec_argument(cfg, s) for s in specs]
    if power is not None:
        if len(resolved) != 1:
            raise ConfigError("--n expects exactly one copula spec")
        if power < 1:
            raise ConfigError("--n must be at least 1")
        result = n_fold(resolved[0], power)
    elif len(resolved) == 2:
        result = fold_op(resolved[0], resolved[1])
    else:
        raise ConfigError("give two specs for a product, or one spec with --n")
    click.echo(json.dumps(to_dict(result), indent=2))


@main.command()
@click.argument("name")
@click.option("--resolution", type=int, default=64, show_default=True,
              help="Lattice resolution for the axiom check.")
@config_option
@_guard
def check(name, resolution, config_path):
    """Check the copula axioms on a lattice and print the report."""
    cfg = _load(config_path)
    if resolution < 2:
        raise ConfigError("--resolution must be at least 2")
    report = axiom_check(cfg, name, resolution)
    click.echo(f"copula: {name}")
    click.echo(f"  resolution:     {report.resolution}")
    click.echo(f"  grounded error: {report.grounded_max_abs:.3g}")
    click.echo(f"  margin error:   {report.margin_max_abs:.3g}")
    click.echo(f"  min cell mass:  {report.min_cell_mass:.3g}")
    if report.ok:
        click.echo("  all axioms hold at this resolution")
    else:
        for violation in report.violations:
            click.echo(f"  violation: {violation}")
        sys.exit(EXIT_NUMERIC)


if __name__ == "__main__":
    main()
