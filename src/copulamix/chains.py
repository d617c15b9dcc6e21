"""Stationary Markov chains driven by a copula transition kernel.

A chain starts from a uniform draw and advances by inverting the conditional
CDF of the driving copula: given the previous state u and a fresh uniform w,
the next state is the root v of ``conditional_cdf(c, u, v) = w``.  Each leaf
family owns that root as ``cond_u_inv_raw``: closed forms for Pi, M, W,
Gaussian, FGM and AMH, the base's root for a reflection, bisection for
numeric folds.  A chain plans its step
once.  Convex combinations and Mardia mixtures (a fresh draw, a copy or a flip
of the state) share one mixture rule: a dedicated selector stream gives one
draw per step, every part steps, and the draw picks one part's result.

All chains are stationary from the first step, so no burn-in is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .copulas import PI, M, W, Convex, Copula, Mardia
from .errors import DomainError
from .normal import norm_ppf
from .rng import CHAIN_STREAM, NORMAL_STREAM, SELECTOR_STREAM, open_uniform, stream


@dataclass(frozen=True)
class Uniform01:
    """Marginal of the raw chain: Uniform on (0, 1)."""

    mean = 0.5
    mean_sq = 1.0 / 3.0

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.array(u, dtype=float)  # a copy: values never alias the uniforms

    def to_dict(self) -> dict:
        return {"kind": "uniform"}


@dataclass(frozen=True)
class Normal:
    """Normal marginal with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise DomainError("Normal marginal needs sigma > 0")
        if not math.isfinite(self.mu):
            raise DomainError("Normal marginal needs a finite mean")

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def mean_sq(self) -> float:
        return self.mu * self.mu + self.sigma * self.sigma

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return self.mu + self.sigma * norm_ppf(u)

    def to_dict(self) -> dict:
        return {"kind": "normal", "mu": self.mu, "sigma": self.sigma}


Marginal = Union[Uniform01, Normal]


@dataclass(frozen=True)
class ChainSample:
    """One simulated chain: uniform path, transformed path, and provenance."""

    copula: Copula
    marginal: Marginal
    seed: int
    uniforms: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.uniforms, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if u.ndim != 1 or y.shape != u.shape or u.size < 1:
            raise DomainError("uniforms and values must be equal-length 1-d arrays")
        object.__setattr__(self, "uniforms", u)
        object.__setattr__(self, "values", y)

    def __len__(self) -> int:
        return int(self.uniforms.size)


def _plan(c: Copula) -> tuple:
    """(selector draws per step, plan) for chains of ``c``: a leaf's plan is its
    conditional quantile, a mixture's is (cuts, plans of its parts)."""
    if isinstance(c, Convex):
        cuts, parts = np.cumsum(c.weights)[:-1], c.components
    elif isinstance(c, Mardia) and c not in (PI, M, W):
        # a fresh draw below 1 - a - b, a flip from 1 - b on, a copy in between
        cuts, parts = (1.0 - c.a - c.b, 1.0 - c.b), (PI, M, W)
    else:
        return 0, c.cond_u_inv_raw
    plans = [_plan(p) for p in parts]
    return 1 + max(k for k, _ in plans), (cuts, [plan for _, plan in plans])


def _step(plan, u_prev: np.ndarray, w: np.ndarray, sel) -> np.ndarray:
    """Advance every row one step: u_prev, w -> next state.

    A mixture steps every part on every row with the selector columns after
    its own.  Each row keeps part j for the last cut j - 1 its draw reaches;
    the cuts never decrease, so that is the part the draw falls in.
    """
    if callable(plan):
        return plan(u_prev, w)
    cuts, parts = plan
    s, inner = sel[:, 0], sel[:, 1:]
    out = _step(parts[0], u_prev, w, inner)
    for cut, part in zip(cuts, parts[1:]):
        out = np.where(s >= cut, _step(part, u_prev, w, inner), out)
    return out


def uniform_chain_matrix(c: Copula, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Simulate one uniform chain per seed; returns an array of shape (len(seeds), n).

    Row i is bit-for-bit the chain that ``sample_chain(c, n, seeds[i])``
    returns, so batch and single-chain runs agree exactly.
    """
    if n < 1:
        raise DomainError("chain length must be at least 1")
    k, plan = _plan(c)
    seeds = [int(s) for s in seeds]
    rows = len(seeds)
    path = np.empty((rows, n))
    for i, s in enumerate(seeds):
        path[i] = open_uniform(stream(s, CHAIN_STREAM), n)
    sel = np.empty((rows, n - 1, k))
    if k:
        for i, s in enumerate(seeds):
            sel[i] = open_uniform(stream(s, SELECTOR_STREAM), (n - 1) * k).reshape(n - 1, k)
    u = np.empty((rows, n))
    u[:, 0] = path[:, 0]
    for t in range(1, n):
        u[:, t] = _step(plan, u[:, t - 1], path[:, t], sel[:, t - 1])
    return u


def sample_chain(c: Copula, n: int, seed: int) -> ChainSample:
    """Simulate a stationary chain of length n with uniform marginal."""
    u = uniform_chain_matrix(c, n, [seed])[0]
    return ChainSample(copula=c, marginal=Uniform01(), seed=int(seed), uniforms=u, values=u.copy())


def apply_marginal(s: ChainSample, m: Marginal) -> ChainSample:
    """Transform a uniform chain through the quantile of the target marginal."""
    if not isinstance(s.marginal, Uniform01):
        raise DomainError("apply_marginal expects a chain with uniform marginal")
    return ChainSample(copula=s.copula, marginal=m, seed=s.seed, uniforms=s.uniforms,
                       values=m.quantile(s.uniforms))


def sample_iid_normal(n: int, seed: int) -> np.ndarray:
    """I.i.d. standard normals by inverse CDF, on a stream of their own."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    if n == 0:
        return np.empty(0)
    return norm_ppf(open_uniform(stream(seed, NORMAL_STREAM), n))


def chain_to_csv(s: ChainSample, path) -> None:
    """Write a chain as CSV with columns t, u, y (17 significant digits, LF)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,u,y\n")
        for t, (u, y) in enumerate(zip(s.uniforms, s.values), start=1):
            fh.write("%d,%.17g,%.17g\n" % (t, u, y))
