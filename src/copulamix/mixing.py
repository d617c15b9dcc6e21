"""Bounds and diagnostics for the mixing behaviour of copula-driven chains.

Three dependence coefficients are tracked for the chain at lag n, all defined
through ratios P(A x B) / (lambda(A) lambda(B)) over rectangles-of-events:

* psi-prime: the infimum of the ratio; the essential infimum of the lag-n
  density bounds it from below.
* psi-star: the supremum; for a purely absolutely continuous lag-n copula the
  essential supremum of its density bounds it from above.
* psi: the two-sided coefficient, max(psi-star - 1, 1 - psi-prime).

Every certified verdict comes from one closed-form envelope per family: a
density floor and ceiling that hold at every lag, and a flag for psi-star
infinite at every lag.  A report's ``psi_prime_lower`` and ``psi_star_upper``
are the lag-n density's minimum (capped at 1) and maximum (raised to 1) over a
midpoint grid: estimates, not bounds, since a grid can only overstate the
infimum and understate the supremum.  Only where the lag-n density is
unavailable does ``psi_prime_lower`` hold the envelope floor, a true bound.
Grid maxima across resolutions and corner-event scans give uncertified
psi-star evidence where the envelope leaves that side open.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .copulas import (
    Amh,
    Convex,
    Copula,
    DensityGrid,
    Fgm,
    Gaussian,
    Mardia,
    NumericFold,
    Rect,
    check_lag,
    density_grid,
    n_fold,
    numeric_fold_depth,
    rectangle_probability,
    reflect_u,
    reflect_v,
)
from .errors import DensityUnavailableError, DomainError, FoldDepthError, UnsupportedCopulaError

DEFAULT_RESOLUTION = 256
DEFAULT_N_MAX = 3
_UNBOUNDED_RESOLUTIONS = (64, 256, 1024)
DEFAULT_EPS_LADDER = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


class MixingVerdict(str, Enum):
    PSI_PRIME_MIXING = "PsiPrimeMixing"
    PSI_STAR_MIXING = "PsiStarMixing"
    PSI_MIXING = "PsiMixing"
    NOT_PSI_STAR_MIXING = "NotPsiStarMixing"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Finding:
    """One classification outcome together with the rule that produced it."""

    verdict: MixingVerdict
    rule: str
    certified: bool

    def to_dict(self) -> dict:
        return {"verdict": self.verdict.value, "rule": self.rule, "certified": self.certified}


@dataclass(frozen=True)
class MixingReport:
    """Per-lag mixing diagnostics plus the verdicts that apply to the family."""

    n: int
    density_min: float
    density_max: float
    density_unbounded_evidence: bool
    psi_prime_lower: float
    psi_star_upper: float
    corner_scan: tuple
    findings: tuple = field(default_factory=tuple)

    @property
    def verdicts(self) -> tuple:
        return tuple(f.verdict for f in self.findings)

    @property
    def complete(self) -> bool:
        """True when both the lag-n density and the corner scan were computable."""
        has_density = self.density_max < math.inf or self.density_unbounded_evidence
        return has_density and bool(self.corner_scan)

    def to_dict(self) -> dict:
        def num(x):
            return "inf" if math.isinf(x) else x

        return {
            "n": self.n,
            "density_min": num(self.density_min),
            "density_max": num(self.density_max),
            "density_unbounded_evidence": self.density_unbounded_evidence,
            "psi_prime_lower": num(self.psi_prime_lower),
            "psi_star_upper": num(self.psi_star_upper),
            "corner_scan": [[e, num(r)] for e, r in self.corner_scan],
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class EpsDecomposition:
    """Additive floor c(u, v) >= eps1(u) + eps2(v), tabulated on a grid."""

    eps1: np.ndarray
    eps2: np.ndarray

    def __post_init__(self) -> None:
        e1 = np.asarray(self.eps1, dtype=float)
        e2 = np.asarray(self.eps2, dtype=float)
        if e1.ndim != 1 or e2.ndim != 1 or e1.size != e2.size or e1.size == 0:
            raise DomainError("eps1 and eps2 must be equal-length 1-d tables")
        if not (np.all(e1 >= 0.0) and np.all(e2 >= 0.0)):
            raise DomainError("decomposition entries must be nonnegative")
        object.__setattr__(self, "eps1", e1)
        object.__setattr__(self, "eps2", e2)

    @property
    def resolution(self) -> int:
        return int(self.eps1.size)


def density_extrema(c: Copula, n: int, m: int) -> tuple:
    """(min, max) of the lag-n AC density over the m x m midpoint grid."""
    return _grid_extrema(n_fold(c, n), m)


def _grid_extrema(cn: Copula, m: int) -> tuple:
    if m < 8:
        raise DomainError("resolution must be at least 8")
    vals = density_grid(cn, m).values
    return float(vals.min()), float(vals.max())


def psi_prime_lower_bound(c: Copula, n: int, m: int = DEFAULT_RESOLUTION) -> float:
    """The psi-prime floor a lag-n report carries.

    It is the minimum of the lag-n density over the m x m midpoint grid,
    capped at 1: an estimate of the density's essential infimum from above,
    not a bound.  When the lag-n density is unavailable (a fold with a
    singular factor, or fold nesting past the cap) it is the closed-form
    envelope floor, which is a certified lower bound.
    """
    try:
        lo, _ = density_extrema(c, n, m)
    except (DensityUnavailableError, FoldDepthError):
        return _envelope(c, n)[0]
    return min(float(lo), 1.0)


def verify_eps_decomposition(d: DensityGrid, e: EpsDecomposition) -> tuple:
    """Check d(i, j) >= eps1(i) + eps2(j) cellwise; also return min eps1 + min eps2.

    The second value is the additive floor's total mass rate: when the check
    holds and the value is positive, every event ratio at this lag is bounded
    below by it, because the infimum over sets of the average of a function
    equals the function's essential infimum.
    """
    if d.resolution != e.resolution:
        raise DomainError(
            f"resolution mismatch: grid {d.resolution} vs decomposition {e.resolution}"
        )
    floor = e.eps1[:, None] + e.eps2[None, :]
    holds = bool(np.all(d.values >= floor))
    return holds, float(e.eps1.min() + e.eps2.min())


def _corner_probability(c: Copula, eps: float, flip_u: bool, flip_v: bool) -> float:
    """Mass of the eps-corner in the given orientation.

    Where the family supports closed-form coordinate reflection, the high
    corners are folded onto the low corner of the reflected copula, so the
    value is a single CDF evaluation at (eps, eps) with no cancellation and
    no rounding of 1 - eps.  Otherwise falls back to inclusion-exclusion.
    """
    cc = reflect_u(c) if flip_u else c
    if flip_v and cc is not None:
        cc = reflect_v(cc)
    if cc is not None:
        return rectangle_probability(cc, Rect(0.0, eps, 0.0, eps))
    u_lo, u_hi = (1.0 - eps, 1.0) if flip_u else (0.0, eps)
    v_lo, v_hi = (1.0 - eps, 1.0) if flip_v else (0.0, eps)
    return rectangle_probability(c, Rect(u_lo, u_hi, v_lo, v_hi))


def corner_divergence_scan(c: Copula, n: int, eps_list: Sequence[float]) -> list:
    """Max corner-event ratio P(corner) / eps^2 per epsilon, over 4 orientations.

    Ratios growing like 1/eps certify that the lag-n psi-star coefficient is
    infinite along this family of events.
    """
    return _corner_scan(n_fold(c, n), eps_list)


def _corner_scan(cn: Copula, eps_list: Sequence[float]) -> list:
    for eps in eps_list:
        if not 0.0 < eps < 0.5:
            raise DomainError("each epsilon must lie in (0, 0.5)")
    orientations = ((False, False), (False, True), (True, False), (True, True))
    out = []
    for eps in eps_list:
        ratio = max(
            _corner_probability(cn, eps, fu, fv) for fu, fv in orientations
        ) / (eps * eps)
        out.append((float(eps), float(ratio)))
    return out


def fgm_psi_bounds(theta: float, n: int) -> tuple:
    """Closed two-sided envelope for the lag-n FGM density and event ratios."""
    if not -1.0 <= theta <= 1.0:
        raise DomainError("FGM theta must lie in [-1, 1]")
    spread = 3.0 * (abs(theta) / 3.0) ** check_lag(n)
    return 1.0 - spread, 1.0 + spread


def _grid_maxima_unbounded(cn: Copula, m: int, hi: float) -> tuple:
    """Evidence scan for an unbounded density of the lag-n copula ``cn``.

    ``hi`` is the maximum of the m x m grid the caller already built; the
    ladder reuses it where m is one of its resolutions.  Returns (flag, max at
    the finest resolution).  The flag fires when the grid maximum grows
    strictly across the resolution ladder, is large in absolute terms, and at
    least doubles from the coarsest to the finest level, the signature of a
    density diverging at a boundary point.
    """
    maxima = [hi if r == m else float(density_grid(cn, r).values.max())
              for r in _UNBOUNDED_RESOLUTIONS]
    growing = all(b > a for a, b in zip(maxima, maxima[1:]))
    flag = growing and maxima[-1] > 10.0 and maxima[-1] >= 2.0 * maxima[0]
    return flag, maxima[-1]


def _scan_diverges(scan: Sequence[tuple]) -> bool:
    """True when corner ratios keep growing like 1/eps instead of levelling."""
    if len(scan) < 2:
        return False
    ratios = [r for _, r in sorted(scan, key=lambda p: -p[0])]
    return ratios[-1] >= 10.0 * max(ratios[0], 1.0) and ratios[-1] > 50.0


def _envelope(c: Copula, n: int) -> tuple:
    """(floor, ceiling, unbounded_at_every_lag) of the lag-n copula of ``c``.

    The floor and ceiling bound the absolutely continuous density of the lag-n
    law from below and above; the ceiling is inf when that law has a singular
    part or no finite bound is known.  The flag says psi-star is infinite at
    every lag.  A fold's density is at least the floor of either factor and at
    most the ceiling of either absolutely continuous factor, so a lag-1
    envelope holds at every later lag: the AMH, Convex and NumericFold rules
    use that.  Any other copula gets the neutral (0, inf, False).
    """
    if isinstance(c, Fgm):
        return (*fgm_psi_bounds(c.theta, n), False)
    if isinstance(c, Mardia):
        # the Pi weight of the n-th power; from a + b it is exactly 0 when
        # a + b == 1, where 1 - a - b can leave a rounding residue
        singular = c.a + c.b
        return 1.0 - singular ** n, (math.inf if singular > 0.0 else 1.0), singular > 0.0
    if isinstance(c, Gaussian):
        return (1.0, 1.0, False) if c.r == 0.0 else (0.0, math.inf, True)
    if isinstance(c, Amh):
        # the density's range over the open square, set by its corner limits
        th = c.theta
        return 1.0 - abs(th), (max(1.0 - th, 1.0 / (1.0 - th)) if th < 1.0 else math.inf), False
    if isinstance(c, Convex):
        parts = [(w, *_envelope(comp, 1)) for w, comp in zip(c.weights, c.components)]
        return (sum(w * lo for w, lo, _, _ in parts),
                sum(w * hi for w, _, hi, _ in parts),
                any(flag for _, _, _, flag in parts))
    if isinstance(c, NumericFold):
        (lo_l, hi_l, _), (lo_r, hi_r, _) = _envelope(c.left, 1), _envelope(c.right, 1)
        return max(lo_l, lo_r), min(hi_l, hi_r), False
    return 0.0, math.inf, False


def lag_report(
    c: Copula,
    n: int,
    m: int = DEFAULT_RESOLUTION,
    eps_list: Sequence[float] = DEFAULT_EPS_LADDER,
) -> MixingReport:
    """The lag-n numbers as a report without findings; ``lag_reports`` attaches them."""
    try:
        cn = n_fold(c, n)
    except FoldDepthError:  # no lag-n law to evaluate: keep the envelope floor alone
        return MixingReport(int(n), 0.0, math.inf, False, float(_envelope(c, n)[0]), math.inf, ())
    try:
        lo, hi = _grid_extrema(cn, m)
        psi_prime = min(lo, 1.0)  # psi_prime_lower_bound of this very grid
        unbounded = False
        # the refinement ladder is affordable only for closed-form densities;
        # quadrature-backed folds rely on the corner scan for divergence evidence
        if hi > 5.0 and numeric_fold_depth(cn) == 0:
            unbounded, hi_fine = _grid_maxima_unbounded(cn, m, hi)
            hi = max(hi, hi_fine)
        density_min, density_max = lo, (math.inf if unbounded else hi)
    except DensityUnavailableError:
        density_min, density_max, unbounded = 0.0, math.inf, False
        psi_prime = _envelope(c, n)[0]

    psi_star = max(density_max, 1.0) if cn.is_absolutely_continuous else math.inf
    try:
        scan = tuple(_corner_scan(cn, eps_list))
    except UnsupportedCopulaError:
        scan = ()  # a fold with a singular factor: no corner mass to scan
    return MixingReport(
        n=int(n),
        density_min=float(density_min),
        density_max=float(density_max),
        density_unbounded_evidence=bool(unbounded),
        psi_prime_lower=float(psi_prime),
        psi_star_upper=float(psi_star),
        corner_scan=scan,
    )


def _findings(c: Copula, first: MixingReport) -> tuple:
    """Verdicts from the lag-2 envelope, plus grid evidence from the lag-1
    report ``first`` where the envelope leaves the psi-star side open.

    Every absolutely continuous family here has a density positive almost
    everywhere, so its chain is ergodic and aperiodic (Longla and Peligrad
    2012), and a positive floor or a finite ceiling at one lag then carries
    over to every later lag (Bradley 2005).  Lag 2 is where FGM(+-1) first has
    a positive floor.  Grid findings are marked not certified; PsiMixing and
    NotPsiStarMixing are never reported together.
    """
    floor, ceiling, unbounded = _envelope(c, 2)
    if floor > 0.0 and ceiling < math.inf:
        return (Finding(MixingVerdict.PSI_MIXING, "density-envelope", True),)
    findings = []
    if floor > 0.0:
        findings.append(Finding(MixingVerdict.PSI_PRIME_MIXING, "density-floor", True))
    if unbounded:
        findings.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "unbounded-at-every-lag", True))
    elif ceiling < math.inf:
        findings.append(Finding(MixingVerdict.PSI_STAR_MIXING, "density-ceiling", True))
    elif first.density_unbounded_evidence or _scan_diverges(first.corner_scan):
        findings.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "corner-divergence-scan", False))
    elif first.psi_star_upper < math.inf:
        findings.append(Finding(MixingVerdict.PSI_STAR_MIXING, "bounded-density-grid", False))
    return tuple(findings) or (Finding(MixingVerdict.UNKNOWN, "no-rule-applies", False),)


def classify(c: Copula, m: int = DEFAULT_RESOLUTION) -> MixingReport:
    """The lag-1 report with the findings, ``lag_reports(c, 1, m)[0]``.

    Certified verdicts come from the closed-form density envelope; where it
    leaves the psi-star side open, grid maxima and corner scans add evidence
    that is marked not certified.
    """
    return lag_reports(c, 1, m)[0]


def lag_reports(c: Copula, n_max: int = DEFAULT_N_MAX, m: int = DEFAULT_RESOLUTION) -> tuple:
    """One report per lag 1..n_max, each built once, all carrying the same findings."""
    reports = [lag_report(c, lag, m) for lag in range(1, check_lag(n_max) + 1)]
    findings = _findings(c, reports[0])
    return tuple(replace(r, findings=findings) for r in reports)
