"""Stationary Markov chains driven by a copula transition kernel.

A chain starts from a uniform draw and advances by inverting the conditional
CDF of the driving copula: given the previous state u and a fresh uniform w,
the next state is the root v of ``conditional_cdf(c, u, v) = w``.  Each leaf
family owns that root in closed form as ``cond_u_inv_raw``.  A chain plans its
step once.  A leaf family turns a whole matrix of draws into paths with
``chain_raw``, which steps ``cond_u_inv_raw`` unless the family overrides it:
a Gaussian chain is an AR(1) in normal scores.  Convex combinations and Mardia
mixtures (a fresh draw, a copy or a flip of the state) draw a part on a
dedicated selector stream.  A numeric fold L * R is the two-step transition of
a chain that moves by L and then by R (Darsow, Nguyen and Olsen 1992), so it
steps L and then R on a selector draw.  No step finds a root numerically.

All chains are stationary from the first step, so no burn-in is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .copulas import PI, M, W, Convex, Copula, Mardia, NumericFold, Reflected, _reflect
from .errors import DomainError
from .normal import norm_ppf
from .rng import CHAIN_STREAM, NORMAL_STREAM, SELECTOR_STREAM, open_uniform_rows


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
    """(selector draws per step, step) for chains of ``c``, where
    ``step(u_prev, w, sel)`` moves every row on by its chain draw w and its
    selector columns.  A leaf steps its conditional quantile.  A mixture steps
    every part on every row with the columns after its own and keeps, per row,
    the part its draw falls in: the last cut it reaches, as the cuts never
    decrease.  A fold L * R steps L on w and the columns after its own, then R
    on its own column and the columns after L's.  A reflected mixture or fold
    steps its normal form.
    """
    if isinstance(c, Reflected) and isinstance(c.base, (Convex, Mardia, NumericFold, Reflected)):
        return _plan(_reflect(c.base, c.flip_u, c.flip_v))
    if isinstance(c, NumericFold):
        (k_left, left), (k_right, right) = _plan(c.left), _plan(c.right)

        def fold_step(u_prev, w, sel):
            mid = left(u_prev, w, sel[:, 1:1 + k_left])
            return right(mid, sel[:, 0], sel[:, 1 + k_left:])
        return 1 + k_left + k_right, fold_step
    if isinstance(c, Convex):
        cuts, parts = np.cumsum(c.weights)[:-1], c.components
    elif isinstance(c, Mardia) and c not in (PI, M, W):
        # a fresh draw below 1 - a - b, a flip from 1 - b on, a copy in between
        cuts, parts = (1.0 - c.a - c.b, 1.0 - c.b), (PI, M, W)
    else:
        return 0, lambda u_prev, w, sel: c.cond_u_inv_raw(u_prev, w)
    plans = [_plan(p) for p in parts]
    steps = [step for _, step in plans]

    def mixture_step(u_prev, w, sel):
        s, inner = sel[:, 0], sel[:, 1:]
        out = steps[0](u_prev, w, inner)
        for cut, step in zip(cuts, steps[1:]):
            out = np.where(s >= cut, step(u_prev, w, inner), out)
        return out
    return 1 + max(k for k, _ in plans), mixture_step


def uniform_chain_matrix(c: Copula, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Simulate one uniform chain per seed; returns an array of shape (len(seeds), n).

    Row i is bit-for-bit the chain that ``sample_chain(c, n, seeds[i])``
    returns, so batch and single-chain runs agree exactly.  The chain draws
    become the states in place: a leaf family turns them into its path with
    ``chain_raw``, a mixture or a fold steps its parts.
    """
    if n < 1:
        raise DomainError("chain length must be at least 1")
    k, step = _plan(c)
    seeds = [int(s) for s in seeds]
    u = open_uniform_rows(seeds, CHAIN_STREAM, n)
    if not k:
        c.chain_raw(u)
        return u
    sel = open_uniform_rows(seeds, SELECTOR_STREAM, (n - 1) * k).reshape(len(seeds), n - 1, k)
    for t in range(1, n):
        u[:, t] = step(u[:, t - 1], u[:, t], sel[:, t - 1])
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


def iid_normal_matrix(n: int, seeds: Sequence[int]) -> np.ndarray:
    """One i.i.d. standard normal sample per seed; returns shape (len(seeds), n).

    Row i is bit-for-bit ``sample_iid_normal(n, seeds[i])``: the rows are
    drawn from their own streams as one matrix and pass through one quantile
    call.
    """
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    return norm_ppf(open_uniform_rows(seeds, NORMAL_STREAM, n))


def sample_iid_normal(n: int, seed: int) -> np.ndarray:
    """I.i.d. standard normals by inverse CDF, on a stream of their own."""
    return iid_normal_matrix(n, [seed])[0]


def chain_to_csv(s: ChainSample, path) -> None:
    """Write a chain as CSV with columns t, u, y (17 significant digits, LF)."""
    rows = zip(range(1, s.uniforms.size + 1), s.uniforms.tolist(), s.values.tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write("t,u,y\n" + "".join(map("%d,%.17g,%.17g\n".__mod__, rows)))
