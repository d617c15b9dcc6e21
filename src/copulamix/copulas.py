"""Bivariate copula families and their fold-product algebra.

The fold product of two copulas,

    (C1 * C2)(x, y) = integral over t in (0, 1) of  d2 C1(x, t) . d1 C2(t, y) dt,

is the two-step transition law of a stationary Markov chain whose one-step
law is a copula; folding is associative, and the n-fold power of the chain's
copula gives the lag-n joint law.  ``fold`` returns a closed form wherever
one exists (a Mardia factor on either side reflects or absorbs the other;
FGM, Gaussian and convex combinations are closed) and otherwise wraps both
factors in :class:`NumericFold`, which evaluates the integral by composite
Gauss-Legendre quadrature: only pairs of absolutely continuous factors, such
as AMH against AMH or FGM against Gaussian, need it.  A reflection a closed
family has no member for, such as AMH's, is a :class:`Reflected`.  A mixture
that ``fold`` returns holds at most one Mardia and one FGM component;
``perturb_pi`` and ``perturb_m`` keep their components, which chains sample.

Parameter conventions:

* ``Fgm(theta)``        C(u,v) = uv + theta uv(1-u)(1-v), theta in [-1, 1]
* ``Mardia(a, b)``      a M + b W + (1-a-b) Pi with a, b >= 0, a + b <= 1
* ``Frechet(theta)``    Mardia with a = theta^2(1+theta)/2, b = theta^2(1-theta)/2
* ``PI``, ``M``, ``W``    Mardia at (a, b) = (0, 0), (1, 0) and (0, 1)
* ``Gaussian(r)``       normal-scores correlation r in (-1, 1)
* ``Amh(theta)``        C(u,v) = uv / (1 - theta(1-u)(1-v)), theta in [-1, 1]
* ``Reflected(c, fu, fv)``  c with U flipped if fu, V flipped if fv
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import owens_t

from .errors import (
    ConfigError,
    DensityUnavailableError,
    DomainError,
    EvaluationError,
    FoldDepthError,
    UnsupportedCopulaError,
)
from .normal import BLOCK_ELEMS, norm_cdf, norm_ppf
from .quadrature import unit_rule

MAX_NUMERIC_FOLD_DEPTH = 8
WEIGHT_TOL = 1e-12
GAUSS_EDGE = 1e-15

_CHUNK_BUDGET = 1 << 21  # max elements * quadrature nodes held at once

# hard clamp keeping every chain state strictly inside (0, 1); both endpoints
# are exactly representable and match the extremes of the uniform lattice
_U_LO = 0.5 ** 53
_U_HI = 1.0 - 0.5 ** 53
_Z_LO, _Z_HI = norm_ppf(_U_LO), norm_ppf(_U_HI)  # their normal scores


def _prep(u, v):
    """Broadcast the two arguments and remember whether both were scalars."""
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    scalar = ua.ndim == 0 and va.ndim == 0
    ua, va = np.broadcast_arrays(np.atleast_1d(ua), np.atleast_1d(va))
    return np.ascontiguousarray(ua), np.ascontiguousarray(va), scalar


def _ret(out, scalar):
    return float(out[0]) if scalar else out


class Copula:
    """Abstract base for copula specifications.

    Subclasses implement raw vectorized hooks; the module-level functions
    ``cdf``, ``density`` and ``conditional_cdf`` add domain validation.
    """

    # -- raw evaluation hooks (arguments already validated and broadcast) --

    def cdf_raw(self, u, v):
        raise NotImplementedError

    def density_raw(self, u, v):
        raise DensityUnavailableError(f"{type(self).__name__} has no computable density")

    def cond_u_raw(self, u, v):
        """d/du C(u, v): the conditional CDF of the next state given u."""
        raise UnsupportedCopulaError(f"{type(self).__name__} has no conditional CDF")

    def cond_v_raw(self, u, v):
        """d/dv C(u, v); the leaf families are exchangeable, so it is d/du C(v, u)."""
        return self.cond_u_raw(v, u)

    def cond_u_inv_raw(self, u, w):
        """The v with cond_u_raw(u, v) = w: the next chain state after u for a uniform w.

        Families with a closed-form inverse override it and clip v into
        [2^-53, 1 - 2^-53].  Chains step a mixture or a fold through its parts.
        """
        raise UnsupportedCopulaError(f"{type(self).__name__} has no conditional quantile")

    def chain_raw(self, w):
        """Turn a (rows, n) matrix of uniform draws into chain paths, in place.

        Column 0 holds each chain's start and stays.  Column t holds the draw
        of step t and becomes the state after it.  The base rule steps
        ``cond_u_inv_raw``; a family whose paths have a closed form over many
        steps overrides it.
        """
        for t in range(1, w.shape[1]):
            w[:, t] = self.cond_u_inv_raw(w[:, t - 1], w[:, t])

    # -- structure --

    @property
    def is_absolutely_continuous(self) -> bool:
        return True


@dataclass(frozen=True)
class Fgm(Copula):
    """Farlie-Gumbel-Morgenstern copula, theta in [-1, 1]."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        if not -1.0 <= self.theta <= 1.0:
            raise DomainError(f"FGM theta must lie in [-1, 1], got {self.theta}")

    def cdf_raw(self, u, v):
        return u * v * (1.0 + self.theta * (1.0 - u) * (1.0 - v))

    def density_raw(self, u, v):
        return 1.0 + self.theta * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)

    def cond_u_raw(self, u, v):
        return v + self.theta * (1.0 - 2.0 * u) * v * (1.0 - v)

    def cond_u_inv_raw(self, u, w):
        # the root in [0, 1] of a v^2 - (1 + a) v + w = 0, in the form that
        # never divides by a; a discriminant that rounds below zero counts as 0
        a = self.theta * (1.0 - 2.0 * u)
        b = 1.0 + a
        root = 2.0 * w / (b + np.sqrt(np.maximum(b * b - 4.0 * a * w, 0.0)))
        return np.clip(root, _U_LO, _U_HI)


@dataclass(frozen=True)
class Mardia(Copula):
    """Mardia family a M + b W + (1 - a - b) Pi with a, b >= 0, a + b <= 1."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (self.a >= 0.0 and self.b >= 0.0 and self.a + self.b <= 1.0 + WEIGHT_TOL):
            raise DomainError(f"Mardia needs a, b >= 0 and a + b <= 1, got ({self.a}, {self.b})")

    def cdf_raw(self, u, v):
        pi_w = 1.0 - self.a - self.b
        return (self.a * np.minimum(u, v)
                + self.b * np.maximum(u + v - 1.0, 0.0)
                + pi_w * u * v)

    def density_raw(self, u, v):
        # the M and W parts are singular; only the Pi part has a density
        return np.full_like(np.asarray(u, dtype=float), 1.0 - (self.a + self.b))

    def cond_u_raw(self, u, v):
        pi_w = 1.0 - self.a - self.b
        return (pi_w * v
                + self.a * np.where(u <= v, 1.0, 0.0)
                + self.b * np.where(u + v >= 1.0, 1.0, 0.0))

    @property
    def is_absolutely_continuous(self) -> bool:
        return self.a == 0.0 and self.b == 0.0


@dataclass(frozen=True, init=False)
class Frechet(Mardia):
    """One-parameter Frechet subfamily of Mardia, |theta| <= 1.

    Weights are a = theta^2 (1 + theta) / 2 on M and b = theta^2 (1 - theta) / 2
    on W, so the dependence parameter theta multiplies under folding.
    """

    theta: float

    def __init__(self, theta: float):
        theta = float(theta)
        if not -1.0 <= theta <= 1.0:
            raise DomainError(f"Frechet theta must lie in [-1, 1], got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "a", theta * theta * (1.0 + theta) / 2.0)
        object.__setattr__(self, "b", theta * theta * (1.0 - theta) / 2.0)


class _MardiaCorner(Mardia):
    """Mardia member at the fixed weights ``_ab``; it takes and prints no arguments."""

    _ab: tuple = ()

    def __init__(self):
        super().__init__(*self._ab)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Independence(_MardiaCorner):
    """Product copula Pi(u, v) = uv: Mardia at (a, b) = (0, 0)."""

    _ab = (0.0, 0.0)

    def cond_u_inv_raw(self, u, w):
        return w.copy()  # a fresh draw


class Comonotone(_MardiaCorner):
    """Upper Frechet-Hoeffding bound M(u, v) = min(u, v): Mardia at (1, 0)."""

    _ab = (1.0, 0.0)

    def cond_u_inv_raw(self, u, w):
        return u.copy()  # the state repeats


class Countermonotone(_MardiaCorner):
    """Lower Frechet-Hoeffding bound W(u, v) = max(u + v - 1, 0): Mardia at (0, 1)."""

    _ab = (0.0, 1.0)

    def cond_u_inv_raw(self, u, w):
        return 1.0 - u  # the state flips


@dataclass(frozen=True)
class Gaussian(Copula):
    """Gaussian copula with normal-scores correlation r in (-1, 1)."""

    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        if not -1.0 < self.r < 1.0:
            raise DomainError(f"Gaussian correlation must lie in (-1, 1), got {self.r}")

    def _edge_guard(self, *vals):
        for w in vals:
            if np.any((w < GAUSS_EDGE) | (w > 1.0 - GAUSS_EDGE)):
                raise EvaluationError(
                    "Gaussian copula density requires arguments "
                    f"farther than {GAUSS_EDGE} from 0 and 1")

    def cdf_raw(self, u, v):
        if self.r == 0.0:
            return u * v
        ub, vb, _ = _prep(u, v)
        out = np.where(ub <= vb, ub, vb).astype(float)  # boundary rows reduce to min(u, v)
        inner = (ub > 0.0) & (ub < 1.0) & (vb > 0.0) & (vb < 1.0)
        if np.any(inner):
            out[inner] = self._bvn(norm_ppf(ub[inner]), norm_ppf(vb[inner]))
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        return out.reshape(shape) if shape else out

    def _bvn(self, h, k):
        """P(X <= h, Y <= k) for standard bivariate normal, via Owen's T."""
        rho = self.r
        s = math.sqrt(1.0 - rho * rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            a1 = (k - rho * h) / (h * s)
            a2 = (h - rho * k) / (k * s)
        hk = h * k
        beta = np.where((hk > 0.0) | ((hk == 0.0) & (h + k >= 0.0)), 0.0, 0.5)
        out = 0.5 * (norm_cdf(h) + norm_cdf(k)) - owens_t(h, a1) - owens_t(k, a2) - beta
        both_zero = (h == 0.0) & (k == 0.0)
        if np.any(both_zero):
            out = np.where(both_zero, 0.25 + math.asin(rho) / (2.0 * math.pi), out)
        return np.clip(out, 0.0, 1.0)

    def density_raw(self, u, v):
        self._edge_guard(u, v)
        rho = self.r
        one_m = 1.0 - rho * rho
        x = norm_ppf(u)
        y = norm_ppf(v)
        expo = -(rho * rho * (x * x + y * y) - 2.0 * rho * x * y) / (2.0 * one_m)
        return np.exp(expo) / math.sqrt(one_m)

    def cond_u_raw(self, u, v):
        rho = self.r
        s = math.sqrt(1.0 - rho * rho)
        ub, vb, _ = _prep(u, v)
        out = np.where(vb >= 1.0, 1.0, 0.0)
        inner = (vb > 0.0) & (vb < 1.0)
        if np.any(inner):
            x = norm_ppf(ub[inner])
            y = norm_ppf(vb[inner])
            out[inner] = norm_cdf((y - rho * x) / s)
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        return out.reshape(shape) if shape else out

    def cond_u_inv_raw(self, u, w):
        x, y = norm_ppf(np.stack(np.broadcast_arrays(u, w)))  # one quantile pass for both
        z = self.r * x + math.sqrt(1.0 - self.r * self.r) * y
        return np.clip(norm_cdf(z), _U_LO, _U_HI)

    def chain_raw(self, w):
        """The chain as an AR(1) in normal scores: z_t = r z_(t-1) + sqrt(1 - r^2) Phi^-1(w_t).

        The step rule maps every state back to its score; here the score
        carries over, clipped to the scores of the state bounds as the step
        rule's states are.  So each block of about BLOCK_ELEMS draws takes one
        quantile pass and one CDF pass, and each step in it a product, a sum
        and the clip.  The states differ from the step rule's by the
        quantile's round trip, a few 1e-13, except after a state within about
        1e-6 of 1, where the step rule's own score loses digits.
        """
        rows, n = w.shape
        if not rows or n < 2:
            return
        r, s = self.r, math.sqrt(1.0 - self.r * self.r)
        z = norm_ppf(w[:, 0])
        span = max(1, BLOCK_ELEMS // rows)
        for a in range(1, n, span):
            scores = norm_ppf(w[:, a:a + span].T.copy())  # a row per step, contiguous
            scores *= s
            for zt in scores:
                zt += r * z
                np.clip(zt, _Z_LO, _Z_HI, out=zt)
                z = zt
            w[:, a:a + span] = np.clip(norm_cdf(scores), _U_LO, _U_HI).T


@dataclass(frozen=True)
class Amh(Copula):
    """Ali-Mikhail-Haq copula, theta in [-1, 1]."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        if not -1.0 <= self.theta <= 1.0:
            raise DomainError(f"AMH theta must lie in [-1, 1], got {self.theta}")

    def _den(self, u, v):
        return 1.0 - self.theta * (1.0 - u) * (1.0 - v)

    def cdf_raw(self, u, v):
        d = self._den(u, v)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = u * v / d
        # d vanishes only at theta = 1, u = v = 0, where C = 0
        return np.where(d == 0.0, 0.0, out)

    def density_raw(self, u, v):
        th = self.theta
        d = self._den(u, v)
        return ((1.0 - th) * d + 2.0 * th * u * v) / d ** 3

    def cond_u_raw(self, u, v):
        return v * (1.0 - self.theta * (1.0 - v)) / self._den(u, v) ** 2

    def cond_u_inv_raw(self, u, w):
        # the root in [0, 1] of a v^2 + b v - w j^2 = 0 with j = 1 - k,
        # k = theta (1 - u), a = theta - w k^2 and b = (1 - theta) - 2 w k j.
        # j is formed as (1 - theta) + theta u, and the discriminant
        # b^2 + 4 a w j^2 = (1 - theta)^2 + 4 theta u w j
        #                 = (1 - theta + 2 theta u)^2 - 4 theta u j (1 - w)
        # is summed from terms of one sign, so no step cancels
        th = self.theta
        j = (1.0 - th) + th * u
        b = (1.0 - th) - 2.0 * w * (th * (1.0 - u)) * j
        if th >= 0.0:
            disc = (1.0 - th) ** 2 + 4.0 * th * u * w * j
        else:
            s = (1.0 + th) - 2.0 * th * (1.0 - u)
            disc = s * s - 4.0 * th * u * j * (1.0 - w)
        sq = np.sqrt(disc)
        root = 2.0 * w * j * j / (b + sq)
        if th > 0.0:  # only here can b be negative: take the other root form there
            a = th * ((1.0 - th) + th * ((1.0 - w) + w * u * (2.0 - u)))
            root = np.where(b < 0.0, (sq - b) / (2.0 * a), root)
        return np.clip(root, _U_LO, _U_HI)


@dataclass(frozen=True)
class Convex(Copula):
    """Finite convex combination of copulas.

    Nested combinations are flattened and identical components merged at
    construction, so a ``Convex`` instance is always a flat list of distinct
    components with strictly positive weights summing to one.
    """

    weights: tuple[float, ...]
    components: tuple[Copula, ...]

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        comps = tuple(self.components)
        if not comps or len(ws) != len(comps):
            raise DomainError("Convex needs matching, nonempty weights and components")
        if not all(w > 0.0 for w in ws):
            raise DomainError("Convex weights must be strictly positive")
        if not abs(sum(ws) - 1.0) <= WEIGHT_TOL:
            raise DomainError(f"Convex weights must sum to 1, got {sum(ws)!r}")
        merged: dict[Copula, float] = {}
        for w, comp in zip(ws, comps):
            if not isinstance(comp, Copula):
                raise DomainError(f"Convex component is not a copula: {comp!r}")
            for wi, ci in _convex_terms(comp):
                merged[ci] = merged.get(ci, 0.0) + w * wi
        object.__setattr__(self, "weights", tuple(merged.values()))
        object.__setattr__(self, "components", tuple(merged.keys()))

    def _mix(self, attr, u, v):
        out = None
        for w, comp in zip(self.weights, self.components):
            term = w * getattr(comp, attr)(u, v)
            out = term if out is None else out + term
        return out

    def cdf_raw(self, u, v):
        return self._mix("cdf_raw", u, v)

    def density_raw(self, u, v):
        return self._mix("density_raw", u, v)

    def cond_u_raw(self, u, v):
        return self._mix("cond_u_raw", u, v)

    def cond_v_raw(self, u, v):
        return self._mix("cond_v_raw", u, v)

    @property
    def is_absolutely_continuous(self) -> bool:
        return all(c.is_absolutely_continuous for c in self.components)


@dataclass(frozen=True)
class Reflected(Copula):
    """Copula of (1 - U, V), (U, 1 - V) or (1 - U, 1 - V) when (U, V) has copula ``base``.

    ``reflect_u`` and ``reflect_v`` build it for families with no reflected
    member of their own, such as AMH.  Every value comes from the base at the
    reflected point (Nelsen 2006, sections 2.4 and 2.6).
    """

    base: Copula
    flip_u: bool
    flip_v: bool

    def __post_init__(self):
        if not isinstance(self.base, Copula):
            raise DomainError(f"Reflected base is not a copula: {self.base!r}")
        if not (isinstance(self.flip_u, bool) and isinstance(self.flip_v, bool)):
            raise DomainError("Reflected flags must be booleans")
        if not (self.flip_u or self.flip_v):
            raise DomainError("Reflected needs at least one flipped coordinate")

    def _at(self, u, v):
        return (1.0 - u if self.flip_u else u), (1.0 - v if self.flip_v else v)

    def cdf_raw(self, u, v):
        c = self.base.cdf_raw(*self._at(u, v))
        if self.flip_u and self.flip_v:
            return u + v - 1.0 + c
        return v - c if self.flip_u else u - c

    def density_raw(self, u, v):
        return self.base.density_raw(*self._at(u, v))

    def cond_u_raw(self, u, v):
        g = self.base.cond_u_raw(*self._at(u, v))
        return 1.0 - g if self.flip_v else g

    def cond_v_raw(self, u, v):
        g = self.base.cond_v_raw(*self._at(u, v))
        return 1.0 - g if self.flip_u else g

    def cond_u_inv_raw(self, u, w):
        v = self.base.cond_u_inv_raw(*self._at(u, w))  # the draw w flips with v
        return 1.0 - v if self.flip_v else v

    @property
    def is_absolutely_continuous(self) -> bool:
        return self.base.is_absolutely_continuous


@dataclass(frozen=True)
class NumericFold(Copula):
    """Fold product of two absolutely continuous copulas, evaluated by quadrature.

    ``fold`` builds one only where no closed form exists.  Every fold with a
    Mardia factor has one, so both factors are absolutely continuous: the CDF,
    the partials and the density are integrals of smooth kernels in t.
    """

    left: Copula
    right: Copula

    def __post_init__(self):
        if not isinstance(self.left, Copula) or not isinstance(self.right, Copula):
            raise DomainError("NumericFold factors must be copulas")
        if not (self.left.is_absolutely_continuous and self.right.is_absolutely_continuous):
            raise DomainError("NumericFold factors must be absolutely continuous; "
                              "fold() gives the closed form of a fold with a singular factor")

    def cdf_raw(self, u, v):
        return _fold_quad(self.left.cond_v_raw, self.right.cond_u_raw, u, v)

    def density_raw(self, u, v):
        return _fold_quad(self.left.density_raw, self.right.density_raw, u, v)

    def cond_u_raw(self, u, v):
        return _fold_quad(self.left.density_raw, self.right.cond_u_raw, u, v)

    def cond_v_raw(self, u, v):
        return _fold_quad(self.left.cond_v_raw, self.right.density_raw, u, v)


def _fold_quad(f_left, g_right, u, v):
    """Evaluate integral over t of f_left(x, t) * g_right(t, y) elementwise."""
    xb, yb, _ = _prep(u, v)
    x = xb.ravel()
    y = yb.ravel()
    out = np.empty_like(x)
    t, wts = unit_rule()
    step = max(1, _CHUNK_BUDGET // t.size)
    for i in range(0, x.size, step):
        xs = x[i:i + step, None]
        ys = y[i:i + step, None]
        vals = f_left(xs, t[None, :]) * g_right(t[None, :], ys)
        out[i:i + step] = vals @ wts
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    return out.reshape(shape) if shape else out


# module-level instances of the parameterless families
PI = Independence()
M = Comonotone()
W = Countermonotone()


# ---------------------------------------------------------------------------
# validated evaluation entry points
# ---------------------------------------------------------------------------

def cdf(c: Copula, u, v):
    """C(u, v) for u, v in [0, 1]."""
    ua, va, scalar = _prep(u, v)
    if not np.all((ua >= 0.0) & (ua <= 1.0) & (va >= 0.0) & (va <= 1.0)):
        raise DomainError("cdf arguments must lie in [0, 1]")
    return _ret(c.cdf_raw(ua, va), scalar)


def density(c: Copula, u, v):
    """Absolutely continuous density on the open unit square.

    For copulas with a singular part this is the density of the AC part
    only (zero for M and W).
    """
    ua, va, scalar = _prep(u, v)
    if not np.all((ua > 0.0) & (ua < 1.0) & (va > 0.0) & (va < 1.0)):
        raise DomainError("density arguments must lie strictly inside (0, 1)")
    return _ret(c.density_raw(ua, va), scalar)


def conditional_cdf(c: Copula, u, v):
    """P(next <= v | previous = u), the u-partial of the CDF."""
    ua, va, scalar = _prep(u, v)
    if not np.all((ua > 0.0) & (ua < 1.0)):
        raise DomainError("conditioning point must lie strictly inside (0, 1)")
    if not np.all((va >= 0.0) & (va <= 1.0)):
        raise DomainError("conditional_cdf target must lie in [0, 1]")
    return _ret(c.cond_u_raw(ua, va), scalar)


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle (u_lo, u_hi] x (v_lo, v_hi] inside the unit square."""

    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float

    def __post_init__(self):
        for name in ("u_lo", "u_hi", "v_lo", "v_hi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.0 <= self.u_lo < self.u_hi <= 1.0 and 0.0 <= self.v_lo < self.v_hi <= 1.0):
            raise DomainError(f"degenerate or out-of-range rectangle: {self}")


def rectangle_probability(c: Copula, rect: Rect) -> float:
    """Copula mass of ``rect`` by inclusion-exclusion of corner CDF values."""
    corners = np.array([[rect.u_hi, rect.v_hi], [rect.u_lo, rect.v_hi],
                        [rect.u_hi, rect.v_lo], [rect.u_lo, rect.v_lo]])
    vals = c.cdf_raw(corners[:, 0], corners[:, 1])
    return float(vals[0] - vals[1] - vals[2] + vals[3])


def reflect_u(c: Copula) -> Copula:
    """Copula of (1 - U, V).

    Flipping one coordinate avoids evaluating CDFs at arguments like
    1 - epsilon, which keeps corner probabilities exact for small epsilon.
    """
    return _reflect(c, True, False)


def reflect_v(c: Copula) -> Copula:
    """Copula of (U, 1 - V)."""
    return _reflect(c, False, True)


def _reflect(c: Copula, flip_u: bool, flip_v: bool) -> Copula:
    """Copula of (U, V) ~ c with U taken to 1 - U if ``flip_u`` and V to 1 - V if ``flip_v``.

    FGM, Gaussian and Mardia reflect within their families and are radially
    symmetric; a mixture reflects each part, a fold its outer factors, and any
    other copula becomes a :class:`Reflected`.
    """
    if not (flip_u or flip_v):
        return c
    if isinstance(c, Reflected):
        return _reflect(c.base, c.flip_u != flip_u, c.flip_v != flip_v)
    if isinstance(c, Convex):
        return Convex(c.weights, tuple(_reflect(p, flip_u, flip_v) for p in c.components))
    if isinstance(c, NumericFold):
        return NumericFold(_reflect(c.left, flip_u, False), _reflect(c.right, False, flip_v))
    if isinstance(c, (Fgm, Gaussian, Mardia)) and flip_u and flip_v:
        return c
    if isinstance(c, Fgm):
        return Fgm(-c.theta)
    if isinstance(c, Gaussian):
        return Gaussian(-c.r)
    if isinstance(c, Mardia):
        return _canonical_mardia(c.b, c.a)
    return Reflected(c, flip_u, flip_v)


# ---------------------------------------------------------------------------
# fold algebra
# ---------------------------------------------------------------------------

def _canonical_mardia(a: float, b: float) -> Copula:
    if a == 0.0 and b == 0.0:
        return PI
    if a == 1.0 and b == 0.0:
        return M
    if a == 0.0 and b == 1.0:
        return W
    return Mardia(a, b)


def _convex_terms(c: Copula):
    if isinstance(c, Convex):
        return list(zip(c.weights, c.components))
    return [(1.0, c)]


def _mixture(terms) -> Copula:
    """Normal form of a mix of (weight, copula) terms; a single term comes back as is.

    The CDF is linear in the parameters, so all Mardia members pool into one Mardia
    and all FGMs into one FGM; Pi joins the FGM when it is the only Mardia part.
    """
    if len(terms) == 1:
        return terms[0][1]
    flat = Convex(*zip(*terms))
    pools: dict = {}
    for w, c in zip(flat.weights, flat.components):
        family = Mardia if isinstance(c, Mardia) else Fgm if isinstance(c, Fgm) else c
        pools.setdefault(family, []).append((w, c))
    if Fgm in pools and [c for _, c in pools.get(Mardia, ())] == [PI]:
        pools[Fgm] += pools.pop(Mardia)
    members = {_pool(group): sum(w for w, _ in group) for group in pools.values()}
    if len(members) == 1:
        return next(iter(members))
    total = sum(members.values())
    return Convex(tuple(w / total for w in members.values()), tuple(members))


def _pool(group) -> Copula:
    if len(group) == 1:
        return group[0][1]
    total = sum(w for w, _ in group)
    if all(isinstance(c, Mardia) for _, c in group):
        a = sum(w * c.a for w, c in group) / total
        # a pool of members without a Pi part has none either: a + (1 - a) == 1 exactly
        if all(c.a + c.b == 1.0 for _, c in group):
            return _canonical_mardia(a, 1.0 - a)
        return _canonical_mardia(a, sum(w * c.b for w, c in group) / total)
    return Fgm(sum(w * c.theta for w, c in group if isinstance(c, Fgm)) / total)


def fold(c1: Copula, c2: Copula) -> Copula:
    """Fold product C1 * C2.

    Closed-form rules: Mardia(a, b) * C = a C + b reflect_u(C) + (1-a-b) Pi,
    and C * Mardia(a, b) likewise with reflect_v, so Pi absorbs, M is the
    identity and Frechet(theta) * FGM(phi) = FGM(theta^3 phi); FGM folds to
    FGM(theta1 * theta2 / 3), Gaussian to Gaussian(r1 * r2), and convex
    combinations distribute termwise.  Mixtures come back with at most one Mardia
    and one FGM component.  Any other pair, two absolutely continuous factors,
    becomes a :class:`NumericFold`.
    """
    # d2 W(x, t) = 1{t > 1 - x}, so W reflects the other factor; terms of weight
    # zero, or whose product weight underflows to zero, are dropped.  With two
    # Mardia factors, expand the one with fewer parts.  M goes last among
    # equals: it hands back the other factor unchanged.
    expansions = []
    for m, c, reflect in ((c1, c2, reflect_u), (c2, c1, reflect_v)):
        if isinstance(m, Mardia):
            parts = zip((m.a, m.b, 1.0 - (m.a + m.b)), (c, reflect(c), PI))
            expansions.append(([(w, t) for w, t in parts if w > 0.0], m == M))
    if expansions:
        return _mixture(min(expansions, key=lambda e: (len(e[0]), e[1]))[0])
    if isinstance(c1, Convex) or isinstance(c2, Convex):
        terms = [(w1 * w2, fold(a, b))
                 for w1, a in _convex_terms(c1)
                 for w2, b in _convex_terms(c2) if w1 * w2 > 0.0]
        return _mixture(terms)
    if isinstance(c1, Fgm) and isinstance(c2, Fgm):
        return Fgm(c1.theta * c2.theta / 3.0)
    if isinstance(c1, Gaussian) and isinstance(c2, Gaussian):
        return Gaussian(c1.r * c2.r)
    return NumericFold(c1, c2)


def numeric_fold_depth(c: Copula) -> int:
    """Maximum NumericFold nesting depth inside a specification."""
    if isinstance(c, NumericFold):
        return 1 + max(numeric_fold_depth(c.left), numeric_fold_depth(c.right))
    if isinstance(c, Convex):
        return max(numeric_fold_depth(comp) for comp in c.components)
    return 0


def check_lag(n) -> int:
    """``n`` as an int lag, or ``DomainError`` unless it is a whole number >= 1."""
    try:
        lag = int(n)
    except (TypeError, ValueError, OverflowError):  # NaN, +-inf, non-numbers
        lag = 0
    if lag < 1 or lag != n:
        raise DomainError(f"a lag must be a whole number >= 1, got {n!r}")
    return lag


def n_fold(c: Copula, n: int) -> Copula:
    """n-step fold power of ``c`` (the lag-n copula of its chain).

    Iterates ``fold``, so every closed form it knows carries over (the Mardia
    rule, the FGM and Gaussian maps, convex distribution), and raises
    ``FoldDepthError`` once the NumericFold nesting exceeds
    ``MAX_NUMERIC_FOLD_DEPTH``.
    """
    acc = c
    for _ in range(check_lag(n) - 1):
        acc = fold(acc, c)
        depth = numeric_fold_depth(acc)
        if depth > MAX_NUMERIC_FOLD_DEPTH:
            raise FoldDepthError(
                f"numeric fold nesting reached depth {depth} > cap {MAX_NUMERIC_FOLD_DEPTH}")
    return acc


def _perturb(c: Copula, alpha: float, target: Copula) -> Copula:
    """(1 - alpha) C + alpha target.  Both components stay: chains sample them."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"perturbation weight must lie in [0, 1], got {alpha}")
    if isinstance(c, Fgm) and target is PI:
        return Fgm(c.theta * (1.0 - alpha))
    if alpha == 1.0:
        return target
    if alpha == 0.0 or c == target:
        return c
    return Convex((1.0 - alpha, alpha), (c, target))


def perturb_pi(c: Copula, alpha: float) -> Copula:
    """Mix toward independence: (1 - alpha) C + alpha Pi; an FGM stays one FGM."""
    return _perturb(c, alpha, PI)


def perturb_m(c: Copula, alpha: float) -> Copula:
    """Mix toward comonotone dependence: (1 - alpha) C + alpha M."""
    return _perturb(c, alpha, M)


# ---------------------------------------------------------------------------
# grids and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityGrid:
    """AC density sampled at cell midpoints ((i+1/2)/m, (j+1/2)/m)."""

    resolution: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.resolution, self.resolution):
            raise DomainError("density grid shape must match its resolution")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("density values must be finite")
        if np.any(self.values < 0.0):
            raise DomainError("density values must be nonnegative")


def midpoints(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def density_grid(c: Copula, m: int) -> DensityGrid:
    if m < 1:
        raise DomainError("grid resolution must be positive")
    t = midpoints(m)
    vals = c.density_raw(t[:, None], t[None, :])
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (m, m)).copy()
    return DensityGrid(m, vals)


@dataclass(frozen=True)
class AxiomReport:
    """Lattice check of the copula axioms at one resolution."""

    resolution: int
    grounded_max_abs: float
    margin_max_abs: float
    min_cell_mass: float
    margin_tolerance: float
    cell_tolerance: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_copula_axioms(c: Copula, m: int = 32) -> AxiomReport:
    """Verify groundedness, margins, and 2-increasingness on an (m+1)^2 lattice.

    Closed-form specifications must satisfy the boundary conditions to 1e-12;
    quadrature-backed ones get 1e-8 on the margins.  Every lattice cell must
    carry mass >= -1e-12.
    """
    if m < 1:
        raise DomainError("lattice resolution must be positive")
    xs = np.linspace(0.0, 1.0, m + 1)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    grid = c.cdf_raw(uu, vv)
    margin_tol = 1e-8 if numeric_fold_depth(c) > 0 else 1e-12
    cell_tol = -1e-12

    grounded = max(float(np.abs(grid[0, :]).max()), float(np.abs(grid[:, 0]).max()))
    margin = max(float(np.abs(grid[-1, :] - xs).max()), float(np.abs(grid[:, -1] - xs).max()))
    cells = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
    min_mass = float(cells.min())

    violations = []
    if grounded > margin_tol:
        violations.append(f"grounding error {grounded:.3e} exceeds {margin_tol:.1e}")
    if margin > margin_tol:
        violations.append(f"margin error {margin:.3e} exceeds {margin_tol:.1e}")
    if min_mass < cell_tol:
        i, j = np.unravel_index(int(np.argmin(cells)), cells.shape)
        violations.append(
            f"negative cell mass {min_mass:.3e} at cell ({i}, {j}) of {m}x{m} lattice")
    return AxiomReport(m, grounded, margin, min_mass, margin_tol, cell_tol, tuple(violations))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# family name -> (class, serialised fields in order); Convex, NumericFold and
# Reflected nest other specifications and are handled by to_dict/from_dict themselves
_FAMILIES = {
    "independence": (Independence, ()),
    "m": (Comonotone, ()),
    "w": (Countermonotone, ()),
    "fgm": (Fgm, ("theta",)),
    "frechet": (Frechet, ("theta",)),
    "mardia": (Mardia, ("a", "b")),
    "gaussian": (Gaussian, ("r",)),
    "amh": (Amh, ("theta",)),
}
_FAMILY_NAMES = {cls: name for name, (cls, _) in _FAMILIES.items()}
_SINGLETONS = {type(c): c for c in (PI, M, W)}


def to_dict(c: Copula) -> dict:
    if isinstance(c, Convex):
        return {"family": "convex",
                "weights": list(c.weights),
                "components": [to_dict(comp) for comp in c.components]}
    if isinstance(c, NumericFold):
        return {"family": "numeric_fold", "left": to_dict(c.left), "right": to_dict(c.right)}
    if isinstance(c, Reflected):
        return {"family": "reflected", "base": to_dict(c.base),
                "flip_u": c.flip_u, "flip_v": c.flip_v}
    name = _FAMILY_NAMES.get(type(c))
    if name is None:
        raise UnsupportedCopulaError(f"cannot serialize {type(c).__name__}")
    _, fields = _FAMILIES[name]
    return {"family": name, **{f: getattr(c, f) for f in fields}}


def from_dict(d: dict) -> Copula:
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError(f"copula specification must be an object with a 'family': {d!r}")
    fam = d["family"]
    try:
        if fam == "convex":
            return Convex(tuple(d["weights"]), tuple(from_dict(x) for x in d["components"]))
        if fam == "numeric_fold":  # a closed form wherever the pair has one
            return fold(from_dict(d["left"]), from_dict(d["right"]))
        if fam == "reflected":
            flips = d["flip_u"], d["flip_v"]
            if not all(isinstance(f, bool) for f in flips):
                raise ConfigError(f"reflected flip_u and flip_v must be booleans, got {flips}")
            return _reflect(from_dict(d["base"]), *flips)
        if not isinstance(fam, str) or fam not in _FAMILIES:
            raise ConfigError(f"unknown copula family: {fam!r}")
        cls, fields = _FAMILIES[fam]
        if cls in _SINGLETONS:
            return _SINGLETONS[cls]
        return cls(*(d[f] for f in fields))
    except KeyError as exc:
        raise ConfigError(f"copula specification for '{fam}' is missing field {exc}") from exc

