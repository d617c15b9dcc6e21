"""Bounds and diagnostics for the mixing behaviour of copula-driven chains.

Three dependence coefficients are tracked for the chain at lag n, all defined
through ratios P(A x B) / (lambda(A) lambda(B)) over rectangles-of-events:

* psi-prime: the infimum of the ratio; the essential infimum of the lag-n
  density bounds it from below.
* psi-star: the supremum; for a purely absolutely continuous lag-n copula the
  essential supremum of its density bounds it from above.
* psi: the two-sided coefficient, max(psi-star - 1, 1 - psi-prime).

Every certified verdict comes from one closed-form lag-1 envelope per family:
a density floor and ceiling, and a flag for psi-star infinite at every lag.
The lag lives in the fold algebra alone: the lag-n envelope is the envelope of
``n_fold(c, n)``, and verdicts read the lag-1 and lag-2 envelopes.  A report's
``psi_prime_lower`` and ``psi_star_upper`` are the lag-n density's minimum
(capped at 1) and maximum (raised to 1) over a midpoint grid: estimates, not
bounds, since a grid can only overstate the infimum and understate the
supremum.  Every lag-n entry point folds the lag-n law first, so a lag whose
law would nest numeric folds past the depth cap raises ``FoldDepthError``
before any grid is built; a report is never partial.  Grid maxima across
resolutions and corner-event scans give uncertified psi-star evidence where
the envelopes leave that side open.
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
    Fgm,
    Gaussian,
    Mardia,
    NumericFold,
    Reflected,
    check_lag,
    density_grid,
    n_fold,
    numeric_fold_depth,
    reflect_u,
    reflect_v,
)
from .errors import DomainError

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
    not a bound.
    """
    return min(density_extrema(c, n, m)[0], 1.0)


def corner_divergence_scan(c: Copula, n: int, eps_list: Sequence[float]) -> list:
    """Max corner-event ratio P(corner) / eps^2 per epsilon, over 4 orientations.

    Each corner mass is one CDF value of a reflection of the lag-n law (see
    ``_corner_scan``).  Ratios growing like 1/eps certify that the lag-n
    psi-star coefficient is infinite along this family of events.
    """
    return _corner_scan(n_fold(c, n), eps_list)


def _corner_scan(cn: Copula, eps_list: Sequence[float]) -> list:
    """(eps, max corner ratio) per epsilon for the lag-n law ``cn``.

    Every copula is grounded, C(0, v) = C(u, 0) = 0, so the corner
    (0, eps]^2 has mass C(eps, eps).  A high corner is the low corner of a
    reflection, which keeps 1 - eps out of the arithmetic.  So the scan is one
    CDF evaluation per orientation, each over the whole epsilon array.
    """
    eps = np.array(eps_list, dtype=float)
    if not np.all((eps > 0.0) & (eps < 0.5)):
        raise DomainError("each epsilon must lie in (0, 0.5)")
    orientations = (cn, reflect_v(cn), reflect_u(cn), reflect_v(reflect_u(cn)))
    mass = np.max([cc.cdf_raw(eps, eps) for cc in orientations], axis=0)
    return [(float(e), float(r)) for e, r in zip(eps, mass / (eps * eps))]


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


def _envelope(c: Copula) -> tuple:
    """(floor, ceiling, unbounded_at_every_lag) of the lag-1 law ``c``.

    The floor and ceiling bound the absolutely continuous density of ``c``
    from below and above; the ceiling is inf when ``c`` has a singular part or
    no finite bound is known.  The flag says psi-star is infinite at every lag.
    A fold's density is at least the floor of either factor and at most the
    ceiling of either absolutely continuous factor, so this envelope holds at
    every later lag too; the lag-n envelope is ``_envelope(n_fold(c, n))``.
    A mixture weights its parts' envelopes, and a reflected density takes the
    base's values.  Any other copula gets the neutral (0, inf, False).
    """
    if isinstance(c, Fgm):
        return 1.0 - abs(c.theta), 1.0 + abs(c.theta), False
    if isinstance(c, Mardia):
        # the Pi weight; from a + b it is exactly 0 when a + b == 1, where
        # 1 - a - b can leave a rounding residue
        singular = c.a + c.b
        return 1.0 - singular, (math.inf if singular > 0.0 else 1.0), singular > 0.0
    if isinstance(c, Gaussian):
        return (1.0, 1.0, False) if c.r == 0.0 else (0.0, math.inf, True)
    if isinstance(c, Amh):
        # the density's range over the open square, set by its corner limits
        th = c.theta
        return 1.0 - abs(th), (max(1.0 - th, 1.0 / (1.0 - th)) if th < 1.0 else math.inf), False
    if isinstance(c, Convex):
        parts = [(w, *_envelope(comp)) for w, comp in zip(c.weights, c.components)]
        return (sum(w * lo for w, lo, _, _ in parts),
                sum(w * hi for w, _, hi, _ in parts),
                any(flag for _, _, _, flag in parts))
    if isinstance(c, NumericFold):
        (lo_l, hi_l, _), (lo_r, hi_r, _) = _envelope(c.left), _envelope(c.right)
        return max(lo_l, lo_r), min(hi_l, hi_r), False
    if isinstance(c, Reflected):
        return _envelope(c.base)
    return 0.0, math.inf, False


def lag_report(
    c: Copula,
    n: int,
    m: int = DEFAULT_RESOLUTION,
    eps_list: Sequence[float] = DEFAULT_EPS_LADDER,
) -> MixingReport:
    """The lag-n numbers as a report without findings; ``lag_reports`` attaches them."""
    return _report(check_lag(n), n_fold(c, n), m, eps_list)


def _report(n: int, cn: Copula, m: int, eps_list: Sequence[float]) -> MixingReport:
    """The lag-n report from the lag-n law ``cn``."""
    lo, hi = _grid_extrema(cn, m)
    unbounded = False
    # the refinement ladder is affordable only for closed-form densities;
    # quadrature-backed folds rely on the corner scan for divergence evidence
    if hi > 5.0 and numeric_fold_depth(cn) == 0:
        unbounded, hi_fine = _grid_maxima_unbounded(cn, m, hi)
        hi = max(hi, hi_fine)
    density_max = math.inf if unbounded else hi
    psi_star = max(density_max, 1.0) if cn.is_absolutely_continuous else math.inf
    return MixingReport(
        n=n,
        density_min=float(lo),
        density_max=float(density_max),
        density_unbounded_evidence=bool(unbounded),
        psi_prime_lower=float(min(lo, 1.0)),  # psi_prime_lower_bound of this very grid
        psi_star_upper=float(psi_star),
        corner_scan=tuple(_corner_scan(cn, eps_list)),
    )


def _findings(c: Copula, first: MixingReport, second: Copula) -> tuple:
    """Verdicts from the lag-1 envelope of ``c`` and the envelope of its lag-2
    law ``second``, plus grid evidence from the lag-1 report ``first`` where
    the envelopes leave the psi-star side open.

    Every absolutely continuous family here has a density positive almost
    everywhere, so its chain is ergodic and aperiodic (Longla and Peligrad
    2012), and a positive floor or a finite ceiling at one lag then carries
    over to every later lag (Bradley 2005).  So the floor is the larger and
    the ceiling the smaller of the two envelopes', and either flag counts.
    Lag 2 is where FGM(+-1) and its perturbations first have a positive floor.
    Grid findings are marked not certified; PsiMixing and NotPsiStarMixing are
    never reported together.
    """
    envelopes = [_envelope(c), _envelope(second)]
    floor = max(lo for lo, _, _ in envelopes)
    ceiling = min(hi for _, hi, _ in envelopes)
    unbounded = any(flag for _, _, flag in envelopes)
    # the flag also guards the ceiling: a mixture fold drops a singular term
    # whose weight underflows, which can leave the lag-2 ceiling finite
    if floor > 0.0 and ceiling < math.inf and not unbounded:
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
    """One report per lag 1..n_max, each law folded once, all carrying the same findings.

    The findings read the lag-2 law, folded once more when n_max is 1.
    """
    laws = [n_fold(c, lag) for lag in range(1, check_lag(n_max) + 1)]
    reports = [_report(lag, cn, m, DEFAULT_EPS_LADDER) for lag, cn in enumerate(laws, 1)]
    findings = _findings(c, reports[0], laws[1] if len(laws) > 1 else n_fold(c, 2))
    return tuple(replace(r, findings=findings) for r in reports)
