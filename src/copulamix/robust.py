"""Kernel-weighted robust mean estimation and its Monte Carlo diagnostics.

The estimator pairs the sample of interest Y with an independent standard
normal sample X and averages Y through a Gaussian window in X:

    r_tilde = (1 / (n h)) sum_i y_i exp(-x_i^2 / (2 h^2))

Because E[exp(-X^2/(2 h^2))] = h / sqrt(1 + h^2) for standard normal X, the
rescaled value mu_hat = r_tilde * sqrt(1 + h^2) estimates the mean of Y
without touching the limiting variance of the underlying chain.  The interval
half-width uses the plug-in second moment of Y, so only marginal quantities
enter.  The kernel is a bare exponential, no 1/sqrt(2 pi): the sqrt(1 + h^2)
rescaling is calibrated to exactly this convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import Marginal, iid_normal_matrix, uniform_chain_matrix
from .copulas import Copula
from .errors import DegenerateSampleError, DomainError
from .normal import BLOCK_ELEMS, norm_ppf
from .rng import derive_seed

# Memory for one batch of chains at three float64 values per row and step:
# the chain draws, which the states overwrite in place, and up to two selector
# draws (the shipped frechet_fgm mixture takes two a step).  It holds 279 rows
# at n = 20000, so every cell of the shipped study is one batch.  The rows of
# a batch then go through the marginal's quantile, get their auxiliary normals
# and their estimates in blocks of BLOCK_ELEMS values: 16 rows at n = 2000,
# one row from n = 16385 on.
BATCH_BYTES = 128 * 2 ** 20


@dataclass(frozen=True)
class RobustMeanResult:
    """Point estimate, interval, and the ingredients that produced them."""

    n: int
    h: float
    r_tilde: float
    mu_hat: float
    half_width: float
    z: float
    mean_y_sq: float

    @property
    def ci_lo(self) -> float:
        return self.mu_hat - self.half_width

    @property
    def ci_hi(self) -> float:
        return self.mu_hat + self.half_width

    def covers(self, mu: float) -> bool:
        return self.ci_lo <= mu <= self.ci_hi


@dataclass(frozen=True)
class VarianceDiagnostic:
    """n*var(Y_bar) and n*h*var(Y_bar) across sample sizes."""

    sizes: tuple
    nvar: tuple
    nhvar: tuple
    replications: int


def bandwidth(y: Sequence[float]) -> float:
    """Data-driven window width [ mean(y^2) / (n sqrt(2) mean(y)^2) ]^(1/5).

    The ratio mean of squares over squared mean keeps the width scale-free;
    a sample with zero mean leaves it undefined.
    """
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("bandwidth needs a nonempty 1-d sample")
    if not np.all(np.isfinite(arr)):
        raise DomainError("bandwidth needs a finite sample")
    mean = float(arr.mean())
    if mean == 0.0:
        raise DegenerateSampleError("bandwidth undefined: sample mean is zero")
    return _width(mean, float(np.mean(arr * arr)), arr.size)


def population_bandwidth(m: Marginal, n: int) -> float:
    """Bandwidth from the marginal's population moments instead of a sample."""
    if m.mean == 0.0:
        raise DegenerateSampleError("bandwidth undefined: population mean is zero")
    return _width(m.mean, m.mean_sq, n)


def _width(mean: float, mean_sq: float, n: int) -> float:
    return (mean_sq / (n * math.sqrt(2.0) * mean * mean)) ** 0.2


def robust_mean(y: Sequence[float], x: Sequence[float], level: float = 0.95) -> RobustMeanResult:
    """Kernel-weighted mean of y with a confidence interval at the given level."""
    ya = np.asarray(y, dtype=float)
    xa = np.asarray(x, dtype=float)
    if ya.shape != xa.shape or ya.ndim != 1:
        raise DomainError("y and x must be 1-d samples of equal length")
    return _estimates(ya[None], xa[None], _z(float(level)))[0]


@functools.lru_cache(maxsize=None)
def _z(level: float) -> float:
    """Two-sided normal critical value of a level in (0, 1), computed once per level."""
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie in (0, 1)")
    return float(norm_ppf(1.0 - (1.0 - level) / 2.0))


def _estimates(ys: np.ndarray, xs: np.ndarray, z: float) -> list:
    """One RobustMeanResult per row of ys, with its auxiliary normals in the same row of xs.

    The row reductions run once on the block; the bandwidth and the interval
    are Python floats per row, so row i gets the bits a block of row i alone
    would.  The first row with a fault raises, as a loop over the rows would.
    """
    n = ys.shape[1]
    if n < 1:
        raise DomainError("bandwidth needs a nonempty 1-d sample")
    bad_x = ~np.isfinite(xs).all(axis=1)
    bad_y = ~np.isfinite(ys).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf in a row that raises below
        means = ys.mean(axis=1)
    bad = bad_x | bad_y | (means == 0.0)
    if bad.any():
        i = int(bad.argmax())
        if bad_x[i]:
            raise DomainError("x must be a finite sample")
        if bad_y[i]:
            raise DomainError("bandwidth needs a finite sample")
        raise DegenerateSampleError("bandwidth undefined: sample mean is zero")
    mean_sqs = (ys * ys).mean(axis=1).tolist()
    hs = [_width(mean, mean_sq, n) for mean, mean_sq in zip(means.tolist(), mean_sqs)]
    kernel = xs / np.array(hs)[:, None]
    np.square(kernel, out=kernel)
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    kernel *= ys
    sums = kernel.sum(axis=1).tolist()
    out = []
    for h, total, mean_y_sq in zip(hs, sums, mean_sqs):
        r_tilde = total / (n * h)
        out.append(RobustMeanResult(
            n=n,
            h=h,
            r_tilde=r_tilde,
            mu_hat=r_tilde * math.sqrt(1.0 + h * h),
            half_width=z * math.sqrt(mean_y_sq / (n * h * math.sqrt(2.0))),
            z=z,
            mean_y_sq=mean_y_sq,
        ))
    return out


def coverage_rate(results: Sequence[RobustMeanResult], mu: float) -> float:
    """Fraction of the intervals that contain mu."""
    return sum(r.covers(mu) for r in results) / len(results)


def replicate_robust_means(
    c: Copula,
    m: Marginal,
    n: int,
    reps: int,
    level: float,
    seed: int,
) -> list:
    """One RobustMeanResult per replication, each on its own derived stream.

    Replication r simulates the chain with seed derive_seed(seed, r) and draws
    its auxiliary normal sample from the same derived seed's dedicated stream,
    so results do not depend on scheduling or batching.
    """
    if reps < 1:
        raise DomainError("need at least one replication")
    z = _z(float(level))
    out = []
    for seeds, umat in _row_blocks(c, n, reps, seed):
        out += _estimates(m.quantile(umat), iid_normal_matrix(n, seeds), z)
    return out


def _row_blocks(c: Copula, n: int, reps: int, seed: int):
    """(seeds, uniform chains) of replications 0..reps-1, simulated in batches
    that fit BATCH_BYTES and handed out in blocks of BLOCK_ELEMS values."""
    batch = max(1, min(reps, BATCH_BYTES // (3 * 8 * max(n, 1))))
    block = max(1, BLOCK_ELEMS // max(n, 1))
    for start in range(0, reps, batch):
        seeds = [derive_seed(seed, r) for r in range(start, min(start + batch, reps))]
        umat = uniform_chain_matrix(c, n, seeds)
        for b in range(0, len(seeds), block):
            yield seeds[b:b + block], umat[b:b + block]


def variance_diagnostic(
    c: Copula,
    m: Marginal,
    sizes: Sequence[int],
    reps: int,
    seed: int,
) -> VarianceDiagnostic:
    """Empirical n*var(Y_bar) and n*h_n*var(Y_bar) across sample sizes.

    The bandwidth here comes from population moments of the marginal, so the
    diagnostic tracks the variance condition alone, free of estimator noise.
    """
    sizes = [int(n) for n in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError("sizes must be strictly increasing")
    if reps < 30:
        raise DomainError("need at least 30 replications for a variance estimate")
    nvar = []
    nhvar = []
    for n in sizes:
        means = np.concatenate([m.quantile(umat).mean(axis=1)
                                for _, umat in _row_blocks(c, n, reps, seed)])
        v = float(np.var(means, ddof=1))
        nvar.append(n * v)
        nhvar.append(n * population_bandwidth(m, n) * v)
    return VarianceDiagnostic(
        sizes=tuple(sizes), nvar=tuple(nvar), nhvar=tuple(nhvar), replications=int(reps)
    )
