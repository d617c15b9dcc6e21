"""Independent reference computations the tests compare against.

The iterated-fold oracle composes transition operators by straight
Gauss-Legendre matrix algebra, sharing no code with the fold machinery in the
package: the only package calls are the pointwise conditional CDF and density
evaluations of the base copula.  The kinked-fold oracle likewise calls only
the factors' partials.  The closed-form densities below call nothing from the
package at all; the normal quantile comes from scipy.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import scipy.stats

GL_ORDER = 48


def gl_unit_rule(order: int = GL_ORDER):
    """Gauss-Legendre nodes and weights transplanted from [-1, 1] to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def iterated_fold_grid(c, n, xs, ys, order: int = GL_ORDER):
    """CDF of the n-step fold of an absolutely continuous copula on a grid.

    Uses the kernel representation of the n-fold product: one conditional on
    each side and n-2 density kernels in between, every integral replaced by
    the same quadrature rule.  Exact for polynomial kernels like FGM.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if n == 1:
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return c.cdf_raw(gx, gy)
    t, w = gl_unit_rule(order)
    gx, gt = np.meshgrid(xs, t, indexing="ij")
    left = c.cond_v_raw(gx, gt)
    gt2, gy = np.meshgrid(t, ys, indexing="ij")
    right = c.cond_u_raw(gt2, gy)
    ga, gb = np.meshgrid(t, t, indexing="ij")
    kernel = w[:, None] * c.density_raw(ga, gb)
    middle = np.eye(len(t))
    for _ in range(n - 2):
        middle = middle @ kernel
    return left @ middle @ (w[:, None] * right)


KINK_ORDER = 24
# panel edges within a segment, relative to its length: graded toward both ends
_KINK_EDGES = np.array((0.0, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-3, 1.0 - 1e-6, 1.0))


def kinked_fold_cdf(c1, c2, xs, ys, order: int = KINK_ORDER):
    """CDF of the fold C1 * C2 on the grid xs x ys, for factors with singular parts.

    The integrand d2 C1(x, t) d1 C2(t, y) jumps where an M or W part of a factor
    switches on: at t = x or 1 - x on the left and t = y or 1 - y on the right.
    Each point's integral over (0, 1) is split there, and every segment carries
    the same graded stack of Gauss-Legendre panels, vectorised over the points.
    A zero-width segment carries zero weight.
    """
    gx, gy = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), indexing="ij")
    x, y = gx.ravel(), gy.ravel()
    ends = np.sort(np.stack([np.zeros_like(x), x, 1.0 - x, y, 1.0 - y, np.ones_like(x)], axis=1), axis=1)
    lo, width = ends[:, :-1, None], np.diff(ends, axis=1)[:, :, None]
    g, gw = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(_KINK_EDGES)[:, None]
    rel = (_KINK_EDGES[:-1, None] + half * (g + 1.0)).ravel()
    rel_w = (half * gw).ravel()
    t = np.where(width > 0.0, lo + width * rel, 0.5)  # keep idle nodes off the ends
    vals = c1.cond_v_raw(x[:, None, None], t) * c2.cond_u_raw(t, y[:, None, None])
    return (vals * (width * rel_w)).sum(axis=(1, 2)).reshape(gx.shape)


def iterated_density_grid(density, n, xs, ys, order: int = GL_ORDER):
    """Lag-n density of an absolutely continuous copula on a grid.

    ``density(u, v)`` is the lag-1 density.  The lag-n density is the kernel
    product c(x, t1) c(t1, t2) ... c(t_{n-1}, y) integrated over the n-1
    intermediate states, each integral replaced by the same quadrature rule.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if n == 1:
        return density(xs[:, None], ys[None, :])
    t, w = gl_unit_rule(order)
    left = density(xs[:, None], t[None, :]) * w[None, :]
    kernel = density(t[:, None], t[None, :]) * w[None, :]
    middle = np.eye(len(t))
    for _ in range(n - 2):
        middle = middle @ kernel
    return left @ middle @ density(t[:, None], ys[None, :])


def fgm_density_range(theta: float, n: int):
    """(inf, sup) of the lag-n FGM density.

    FGM(a) folded with FGM(b) is FGM(ab/3), so the lag-n law is FGM with
    parameter 3 (theta/3)^n, whose density 1 + t(1-2u)(1-2v) ranges over
    1 -/+ |t|.
    """
    spread = 3.0 * (abs(theta) / 3.0) ** n
    return 1.0 - spread, 1.0 + spread


def fgm_corner_ratio(theta: float, eps: float) -> float:
    """Largest FGM corner ratio P(corner) / eps^2 over the four orientations.

    The low corner has mass eps^2 (1 + theta (1 - eps)^2), and a reflection of
    FGM(theta) is FGM(-theta) or itself, so the best orientation takes |theta|.
    """
    return 1.0 + abs(theta) * (1.0 - eps) ** 2


def mardia_pi_weight(a: float, b: float, n: int):
    """Weight of independence in the lag-n power of a M + b W + (1-a-b) Pi.

    M and W fold into M or W and Pi absorbs everything, so the singular part
    of the n-th power keeps weight (a + b)^n; the rest is Pi, the only
    absolutely continuous part, so this is also its constant density.
    """
    return 1.0 - (a + b) ** n


def gaussian_diagonal_density(r: float, u):
    """Gaussian(r) copula density at (u, u), from scipy's normal quantile.

    On the diagonal the bivariate-normal exponent collapses to
    r x^2 / (1 + r) with x = Phi^-1(u), so the density is
    (1 - r^2)^(-1/2) exp(r x^2 / (1 + r)); for r > 0 it diverges at both
    diagonal corners.
    """
    x = scipy.stats.norm.ppf(np.asarray(u, dtype=float))
    return np.exp(r * x * x / (1.0 + r)) / np.sqrt(1.0 - r * r)


def amh_density(theta: float, u, v):
    """Ali-Mikhail-Haq copula density ((1-t)d + 2t uv) / d^3, d = 1 - t(1-u)(1-v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = 1.0 - theta * (1.0 - u) * (1.0 - v)
    return ((1.0 - theta) * d + 2.0 * theta * u * v) / d ** 3


def amh_density_range(theta: float):
    """(inf, sup) of the AMH density over the open unit square, theta < 1.

    The corner limits are 1/(1-theta) at (0,0), 1-theta at (0,1) and (1,0),
    and 1+theta at (1,1); the extremes are corner limits, which gives
    inf = 1 - |theta| and sup = max(1 - theta, 1/(1 - theta)).
    """
    return 1.0 - abs(theta), max(1.0 - theta, 1.0 / (1.0 - theta))


def amh_transition_root(theta: float, u: float, w: float) -> float:
    """The v in [0, 1] with AMH conditional CDF C_u(v) = w, in decimal arithmetic.

    C_u(v) = v (1 - t(1-v)) / (1 - t(1-u)(1-v))^2 = w is the quadratic
    (t - w k^2) v^2 + ((1-t) - 2 w k (1-k)) v - w (1-k)^2 = 0 with
    k = t(1-u).  Every input converts to Decimal exactly, and at 50 digits
    the quadratic formula leaves a rounding error far below a double's, so
    the result is the correctly rounded root up to a final ulp.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        t, u, w = Decimal(theta), Decimal(u), Decimal(w)
        k = t * (1 - u)
        a = t - w * k * k
        b = (1 - t) - 2 * w * k * (1 - k)
        c = w * (1 - k) * (1 - k)
        if a == 0:
            return float(c / b)
        return float((-b + (b * b + 4 * a * c).sqrt()) / (2 * a))


def frechet_fgm_m_pi_floor(frechet: float, fgm: float, m: float, pi: float,
                           theta: float, phi: float, n: int):
    """Density floor of the lag-n law of a mix of Frechet(theta), FGM(phi), M and Pi.

    The four weights sum to 1, and theta, phi >= 0.  The lag-n law mixes the
    n-letter words of factors.  Pi absorbs a word and M drops out of it.
    Frechet(s) folds with Frechet(t) to Frechet(st), whose Pi weight is
    1 - (st)^2; FGM(a) folds with FGM(b) to FGM(ab/3), and Frechet(t) turns
    FGM(a) into FGM(t^3 a).  So a word without Pi, with j Frechet and k FGM
    factors, has floor 1 - theta^(2j) if k = 0 and 1 - 3 (phi/3)^k theta^(3j)
    otherwise.  All FGM parameters share one sign, so the floors add up.
    """
    total = 1.0 - (1.0 - pi) ** n  # the words with a Pi factor
    for j in range(n + 1):
        for k in range(n + 1 - j):
            weight = math.comb(n, j) * math.comb(n - j, k) * frechet ** j * fgm ** k * m ** (n - j - k)
            floor = 1.0 - theta ** (2 * j) if k == 0 else 1.0 - 3.0 * (phi / 3.0) ** k * theta ** (3 * j)
            total += weight * floor
    return total
