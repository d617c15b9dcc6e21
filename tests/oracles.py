"""Independent reference computations the tests compare against.

The iterated-fold oracle composes transition operators by straight
Gauss-Legendre matrix algebra, sharing no code with the fold machinery in the
package: the only package calls are the pointwise conditional CDF and density
evaluations of the base copula.  The closed-form densities below call nothing
from the package at all; the normal quantile comes from scipy.
"""

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
