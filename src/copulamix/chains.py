"""Stationary Markov chains driven by a copula transition kernel.

A chain starts from a uniform draw and advances by inverting the conditional
CDF of the driving copula: given the previous state u and a fresh uniform w,
the next state is the root v of ``conditional_cdf(c, u, v) = w``.  Families
with a singular component (M, W, Mardia mixtures) instead take the explicit
mixture route: copy the state, flip it, or draw fresh, with the branch picked
by a dedicated selector stream.  Convex combinations first pick a component
with its weight and then delegate.

All chains are stationary from the first step, so no burn-in is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .copulas import (
    PI,
    M,
    W,
    Comonotone,
    Convex,
    Copula,
    Countermonotone,
    Fgm,
    Gaussian,
    Independence,
    Mardia,
    NumericFold,
)
from .errors import DomainError, UnsupportedCopulaError
from .normal import norm_cdf, norm_ppf
from .rng import CHAIN_STREAM, NORMAL_STREAM, SELECTOR_STREAM, open_uniform, stream
from .rootfind import invert_increasing

# hard clamp keeping every state strictly inside (0, 1); both endpoints are
# exactly representable and match the extremes of the uniform lattice
_U_LO = 0.5 ** 53
_U_HI = 1.0 - 0.5 ** 53


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


def _selector_need(c: Copula) -> int:
    """Selector draws consumed per transition step."""
    if isinstance(c, Convex):
        return 1 + max(_selector_need(comp) for comp in c.components)
    if isinstance(c, Mardia):
        return 0 if c in (PI, M, W) else 1  # their transitions below need no branch
    return 0


def _check_sampleable(c: Copula) -> None:
    """Reject copulas whose transition cannot be realised."""
    if isinstance(c, Convex):
        for comp in c.components:
            _check_sampleable(comp)
    elif isinstance(c, NumericFold) and not c.left.is_absolutely_continuous:
        raise UnsupportedCopulaError(
            "cannot sample a chain: the fold's left factor has a singular part, "
            "so the conditional CDF in the first argument is unavailable"
        )


def _transition(c: Copula, u_prev: np.ndarray, w: np.ndarray, sel) -> np.ndarray:
    """Advance every row one step: u_prev, w -> next state."""
    if isinstance(c, Independence):
        return w.copy()
    if isinstance(c, Comonotone):
        return u_prev.copy()
    if isinstance(c, Countermonotone):
        return 1.0 - u_prev
    if isinstance(c, Gaussian):
        z = c.r * norm_ppf(u_prev) + math.sqrt(1.0 - c.r * c.r) * norm_ppf(w)
        return np.clip(norm_cdf(z), _U_LO, _U_HI)
    if isinstance(c, Fgm):
        # the root in [0, 1] of a v^2 - (1 + a) v + w = 0, in the form that
        # never divides by a; a discriminant that rounds below zero counts as 0
        a = c.theta * (1.0 - 2.0 * u_prev)
        b = 1.0 + a
        root = 2.0 * w / (b + np.sqrt(np.maximum(b * b - 4.0 * a * w, 0.0)))
        return np.clip(root, _U_LO, _U_HI)
    if isinstance(c, Mardia):
        s = sel[:, 0]
        fresh = s < 1.0 - c.a - c.b
        flip = s >= 1.0 - c.b
        return np.where(fresh, w, np.where(flip, 1.0 - u_prev, u_prev))
    if isinstance(c, Convex):
        s = sel[:, 0]
        cuts = np.cumsum(c.weights)
        choice = np.minimum(np.searchsorted(cuts, s, side="right"), len(c.weights) - 1)
        rest = sel[:, 1:]
        out = np.empty_like(w)
        for j, comp in enumerate(c.components):
            mask = choice == j
            if mask.any():
                out[mask] = _transition(comp, u_prev[mask], w[mask], rest[mask])
        return out
    root = invert_increasing(lambda v: c.cond_u_raw(u_prev, v), w)
    return np.clip(root, _U_LO, _U_HI)


def uniform_chain_matrix(c: Copula, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Simulate one uniform chain per seed; returns an array of shape (len(seeds), n).

    Row i is bit-for-bit the chain that ``sample_chain(c, n, seeds[i])``
    returns, so batch and single-chain runs agree exactly.
    """
    if n < 1:
        raise DomainError("chain length must be at least 1")
    _check_sampleable(c)
    seeds = [int(s) for s in seeds]
    rows = len(seeds)
    path = np.empty((rows, n))
    for i, s in enumerate(seeds):
        path[i] = open_uniform(stream(s, CHAIN_STREAM), n)
    k = _selector_need(c)
    sel = None
    if k:
        sel = np.empty((rows, n - 1, k))
        for i, s in enumerate(seeds):
            sel[i] = open_uniform(stream(s, SELECTOR_STREAM), (n - 1) * k).reshape(n - 1, k)
    u = np.empty((rows, n))
    u[:, 0] = path[:, 0]
    for t in range(1, n):
        st = sel[:, t - 1, :] if sel is not None else None
        u[:, t] = _transition(c, u[:, t - 1], path[:, t], st)
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
