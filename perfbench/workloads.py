"""The benchmark's workloads: their operations and the check of every output.

An operation is one call a user of copulamix waits for:

* ``study_long`` and ``study_short``: one ``replicate_robust_means`` call for
  one (copula, size) cell, the unit ``copulamix.study._study_cell`` runs;
* ``mixing``: one ``figure_data`` call, one ``mixing_report_set`` call with
  the JSON write ``scripts/reproduce_study.py`` does after it, or one
  ``lag_report`` call.

Every input comes from the benchmark seed.  The checks compare against closed
forms, recorded values and the outputs of the same operation in other rounds;
none depends on how the library consumes its random streams.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from copulamix import chains, copulas, mixing, robust, study

LEVEL = study.TABLE_LEVEL
RTOL = 1e-6  # loose enough for a closed form or an operator to replace quadrature

# study_long runs every transition path: Newton (fgm), mixture branches
# (frechet), the closed-form inverse (gaussian) and bisection (amh), plus the
# two convex specs.  AMH is shorter so that its cell does not dominate.
LONG_N = 2000
LONG_AMH_N = 500
# one replication more than a 512 Ki-element batch holds (263 rows at
# n=2000, 1049 at n=500), so every cell spans two batches
LONG_REPS = {LONG_N: 264, LONG_AMH_N: 1050}
EXTRA_COPULAS = (("gaussian", copulas.Gaussian(0.5)), ("amh", copulas.Amh(0.5)))

SHORT_N = 100
SHORT_CELLS_PER_COPULA = 10

MIXING_N_MAX = 3
MIXING_RESOLUTION = 256
# (lag, grid, corner epsilons); lag 3 uses a shorter ladder that keeps its smallest eps
LAG_REPORTS = ((2, 64, mixing.DEFAULT_EPS_LADDER), (3, 8, (0.1, 0.01, 0.001)))
LAG_COPULAS = (copulas.Gaussian(0.5), copulas.Amh(0.5))
AMH_REFERENCE = Path(__file__).with_name("amh_reference.json")


@dataclass
class Op:
    """One operation: the call, the check of its output, and its digest."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]
    sample_row: Optional[int] = None  # replication whose chain is compared with sample_chain
    chain_spec: tuple = ()  # (copula, n) of that chain


def step_names(cfg) -> dict:
    """repr(copula) -> name, for the copulas whose step time the trace reports."""
    return {repr(c): name for name, c in (*cfg.copulas, *EXTRA_COPULAS)}


def warm_up(workload: str, cfg) -> None:
    """One small call of the workload's kind, so lazy set-up and caches fill."""
    if workload == "mixing":
        mixing.lag_report(copulas.Amh(0.5), 2, 8)
    else:
        _, c = cfg.copulas[0]
        robust.replicate_robust_means(c, cfg.marginal, SHORT_N, 2, LEVEL, 1)


def build(workload: str, seed: int, cfg, out_dir: Path) -> list:
    rng = random.Random(seed)
    if workload == "study_long":
        cells = [(name, c, LONG_AMH_N if name == "amh" else LONG_N)
                 for name, c in (*cfg.copulas, *EXTRA_COPULAS)]
        return [_cell_op(name, c, cfg.marginal, n, LONG_REPS[n], rng, sample=True)
                for name, c, n in cells]
    if workload == "study_short":
        return [_cell_op(name, c, cfg.marginal, SHORT_N, cfg.replications, rng, sample=k == 0)
                for k in range(SHORT_CELLS_PER_COPULA) for name, c in cfg.copulas]
    if workload == "mixing":
        cfg = replace(cfg, seed=rng.getrandbits(32))
        ops = [_figure_op(cfg, fid, out_dir) for fid in (1, 2, 3, 4)]
        ops += [_mixing_set_op(cfg, name, out_dir) for name, _ in cfg.copulas]
        ops += [_lag_op(c, lag, m, eps) for lag, m, eps in LAG_REPORTS for c in LAG_COPULAS]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


# -- study cells -------------------------------------------------------------

def _cell_op(name, c, marginal, n, reps, rng, sample: bool) -> Op:
    seed = rng.getrandbits(63)
    row = rng.randrange(reps) if sample else None

    def call():
        return robust.replicate_robust_means(c, marginal, n, reps, LEVEL, seed)

    def check(results):
        if len(results) != reps:
            return [f"{len(results)} results for {reps} replications"]
        for i, r in enumerate(results):
            if not all(math.isfinite(v) for v in (r.h, r.r_tilde, r.mu_hat, r.ci_lo, r.ci_hi)):
                return [f"replication {i}: estimate is not finite"]
            if not r.ci_lo <= r.mu_hat <= r.ci_hi:
                return [f"replication {i}: mu_hat {r.mu_hat} outside [{r.ci_lo}, {r.ci_hi}]"]
        return []

    def digest(results):
        table = np.array([(r.n, r.h, r.r_tilde, r.mu_hat, r.ci_lo, r.ci_hi, r.z, r.mean_y_sq)
                          for r in results])
        return _sha(table.tobytes())

    return Op(f"cell {name} n={n} reps={reps} seed={seed}", call, check, digest, row, (c, n))


class RowCapture:
    """Stands in for ``robust.uniform_chain_matrix`` and keeps one row of a cell.

    ``start(r)`` before a cell selects its replication r; the matrix row that
    carried it is kept with its seed, whichever batch it fell in.
    """

    def __init__(self):
        self._original = robust.uniform_chain_matrix
        self._want: Optional[int] = None
        self._seen = 0
        self.row: Optional[tuple] = None

    def __enter__(self):
        robust.uniform_chain_matrix = self
        return self

    def __exit__(self, *exc):
        robust.uniform_chain_matrix = self._original

    def start(self, want: Optional[int]) -> None:
        self._want, self._seen, self.row = want, 0, None

    def __call__(self, c, n, seeds):
        mat = self._original(c, n, seeds)
        i = -1 if self._want is None else self._want - self._seen
        if 0 <= i < len(seeds):
            self.row = (int(seeds[i]), mat[i].copy())
        self._seen += len(seeds)
        return mat


def check_row(op: Op, captured: Optional[tuple]) -> list:
    """The kept batch row must equal sample_chain for its seed, bit for bit."""
    if captured is None:
        return [f"{op.label}: replication {op.sample_row} was never sampled"]
    seed, row = captured
    c, n = op.chain_spec
    single = chains.sample_chain(c, n, seed).uniforms
    if single.tobytes() != row.tobytes():
        return [f"{op.label}: batch row {op.sample_row} differs from sample_chain({seed})"]
    return []


# -- mixing ------------------------------------------------------------------

def _files_digest(paths) -> str:
    return _sha(*(p.name.encode() + p.read_bytes() for p in paths))


def _figure_op(cfg, fid: int, out_dir: Path) -> Op:
    n_files = 2 if fid in (1, 4) else 1 + len(cfg.perturbations)
    mu, sigma = cfg.marginal.mu, cfg.marginal.sigma

    def check(paths):
        if len(paths) != n_files:
            return [f"figure {fid}: {len(paths)} files, expected {n_files}"]
        problems = []
        for p in paths:
            data = np.loadtxt(p, delimiter=",", skiprows=1)
            if fid in (1, 4):
                u, v, c = data.T
                if data.shape != (study.SURFACE_POINTS ** 2, 3):
                    problems.append(f"{p.name}: shape {data.shape}")
                elif np.any(c < np.maximum(u + v - 1.0, 0.0) - 1e-12) or np.any(c > np.minimum(u, v) + 1e-12):
                    problems.append(f"{p.name}: CDF outside the Frechet bounds")
            else:
                t, u, y = data.T
                if data.shape != (study.FIGURE_CHAIN_LENGTH, 3) or np.any(t != np.arange(1, len(t) + 1)):
                    problems.append(f"{p.name}: not a chain of {study.FIGURE_CHAIN_LENGTH} steps")
                elif not (np.all(u > 0.0) and np.all(u < 1.0)):
                    problems.append(f"{p.name}: state outside (0, 1)")
                elif not np.allclose(y, mu + sigma * ndtri(u), rtol=1e-9, atol=1e-9):
                    problems.append(f"{p.name}: values are not the normal quantiles of the states")
        return problems

    return Op(f"figure_data {fid}", lambda: study.figure_data(cfg, fid, out_dir), check, _files_digest)


def _num(x) -> float:
    return math.inf if x == "inf" else float(x)


def _mixing_set_op(cfg, name: str, out_dir: Path) -> Op:
    spec = cfg.resolve(name)

    def call():
        doc, _ = study.mixing_report_set(cfg, name, n_max=MIXING_N_MAX, resolution=MIXING_RESOLUTION)
        path = out_dir / f"mixing_{name}.json"
        study.write_json(doc, path)
        return doc, path

    def check(output):
        doc, _ = output
        reports = doc["reports"]
        if [r["n"] for r in reports] != list(range(1, MIXING_N_MAX + 1)):
            return [f"mixing {name}: reports for lags {[r['n'] for r in reports]}"]
        problems = []
        for r in reports:
            lo, hi = _num(r["density_min"]), _num(r["density_max"])
            if not (0.0 <= _num(r["psi_prime_lower"]) <= 1.0 and lo <= hi and r["findings"]):
                problems.append(f"mixing {name}: inconsistent lag-{r['n']} report")
            if isinstance(spec, copulas.Fgm):
                spread = 3.0 * (abs(spec.theta) / 3.0) ** r["n"]  # fgm_psi_bounds
                if not (1.0 - spread - 1e-12 <= lo and hi <= 1.0 + spread + 1e-12):
                    problems.append(f"mixing {name}: lag-{r['n']} extrema outside the FGM envelope")
        return problems

    return Op(f"mixing_report_set {name}", call, check, lambda out: _sha(out[1].read_bytes()))


def _gaussian_report(r: float, lag: int, m: int, eps_list) -> dict:
    """Lag-n report numbers of Gaussian(r) from the closed form Gaussian(r**n)."""
    rho = r ** lag
    x = ndtri((np.arange(m) + 0.5) / m)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    one_m = 1.0 - rho * rho
    dens = np.exp(-(rho * rho * (xx * xx + yy * yy) - 2.0 * rho * xx * yy) / (2.0 * one_m)) / math.sqrt(one_m)
    # for rho > 0 the low-low corner carries the most mass: Phi2(h, h; rho) / eps^2
    a = math.sqrt((1.0 - rho) / (1.0 + rho))
    scan = [[e, float(ndtr(ndtri(e)) - 2.0 * owens_t(ndtri(e), a)) / (e * e)] for e in eps_list]
    lo, hi = float(dens.min()), float(dens.max())
    return {"density_min": lo, "density_max": hi, "psi_prime_lower": min(lo, 1.0),
            "psi_star_upper": max(hi, 1.0), "corner_scan": scan}


def _lag_op(c, lag: int, m: int, eps_list) -> Op:
    key = f"lag{lag}_m{m}"

    def check(report):
        if isinstance(c, copulas.Gaussian):
            expected = _gaussian_report(c.r, lag, m, eps_list)
        else:
            expected = json.loads(AMH_REFERENCE.read_text())[key]
        got = report.to_dict()
        problems = [f"{c} {key}: {field} {got[field]} != {expected[field]}"
                    for field in ("density_min", "density_max", "psi_prime_lower", "psi_star_upper")
                    if not _close(_num(got[field]), expected[field])]
        scan = got["corner_scan"]
        if [e for e, _ in scan] != [e for e, _ in expected["corner_scan"]]:
            problems.append(f"{c} {key}: corner scan epsilons differ")
        elif not all(_close(_num(r), ref) for (_, r), (_, ref) in zip(scan, expected["corner_scan"])):
            problems.append(f"{c} {key}: corner ratios {scan} != {expected['corner_scan']}")
        return problems

    def digest(report):
        return _sha(json.dumps(report.to_dict(), sort_keys=True).encode())

    return Op(f"lag_report {c} lag={lag} m={m}",
              lambda: mixing.lag_report(c, lag, m, eps_list=eps_list), check, digest)
