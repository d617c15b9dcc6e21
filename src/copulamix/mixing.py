"""Bounds and diagnostics for the mixing behaviour of copula-driven chains.

Three dependence coefficients are tracked for the chain at lag n, all defined
through ratios P(A x B) / (lambda(A) lambda(B)) over rectangles-of-events:

* psi-prime: the infimum of the ratio; positive values certify lower mixing,
  and the essential infimum of the lag-n density is a valid lower bound.
* psi-star: the supremum; a finite density ceiling for a purely absolutely
  continuous lag-n copula is a valid upper bound.
* psi: the two-sided coefficient, bounded through the one-sided pair.

Exact suprema over Borel sets are not computable, so this module reports
certified one-sided bounds where a closed form exists, grid evidence where it
does not, and divergence certificates from explicit corner-event families.
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
    Comonotone,
    Countermonotone,
    DensityGrid,
    Fgm,
    Gaussian,
    Independence,
    Mardia,
    NumericFold,
    Rect,
    density_grid,
    is_quadrature_backed,
    n_fold,
    rectangle_probability,
    reflect_u,
    reflect_v,
)
from .errors import DensityUnavailableError, DomainError, FoldDepthError

DEFAULT_RESOLUTION = 256
TEST_RESOLUTION = 64
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
    """One classification outcome live with the rule that produced it."""

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
    if m < 8:
        raise DomainError("resolution must be at least 8")
    grid = density_grid(n_fold(c, n), m)
    vals = grid.values
    return float(vals.min()), float(vals.max())


def psi_prime_lower_bound(c: Copula, n: int, m: int = DEFAULT_RESOLUTION) -> float:
    """Certified lower bound for psi-prime at lag n.

    The essential infimum of the lag-n AC density bounds the event-ratio
    infimum from below; the grid minimum stands in for it.  When the lag-n
    density cannot be evaluated directly (a fold with a singular factor, or
    fold nesting past the cap), a convex combination is bounded through one
    surviving product term: the n-fold of component j alone carries weight
    w_j^n inside the expanded mixture, so w_j^n times that component's own
    floor is still a valid lower bound.
    """
    try:
        lo, _ = density_extrema(c, n, m)
        return min(float(lo), 1.0)
    except (DensityUnavailableError, FoldDepthError):
        if isinstance(c, Convex):
            best = 0.0
            for w, comp in zip(c.weights, c.components):
                try:
                    sub = psi_prime_lower_bound(comp, n, m)
                except (DensityUnavailableError, FoldDepthError):
                    continue
                best = max(best, (w ** n) * sub)
            return min(best, 1.0)
        raise


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
    cc = c
    if flip_u:
        cc = reflect_u(cc) if cc is not None else None
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
    for eps in eps_list:
        if not 0.0 < eps < 0.5:
            raise DomainError("each epsilon must lie in (0, 0.5)")
    cn = n_fold(c, n)
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
    if n < 1:
        raise DomainError("lag must be at least 1")
    spread = 3.0 * (abs(theta) / 3.0) ** n
    return 1.0 - spread, 1.0 + spread


def _grid_maxima_unbounded(c: Copula, n: int) -> tuple:
    """Evidence scan for an unbounded lag-n density.

    Returns (flag, max at the finest resolution).  The flag fires when the
    grid maximum grows strictly across the resolution ladder, is large in
    absolute terms, and at least doubles from the coarsest to the finest
    level, the signature of a density diverging at a boundary point.
    """
    maxima = []
    for m in _UNBOUNDED_RESOLUTIONS:
        _, hi = density_extrema(c, n, m)
        maxima.append(hi)
    growing = all(b > a for a, b in zip(maxima, maxima[1:]))
    flag = growing and maxima[-1] > 10.0 and maxima[-1] >= 2.0 * maxima[0]
    return flag, maxima[-1]


def _scan_diverges(scan: Sequence[tuple]) -> bool:
    """True when corner ratios keep growing like 1/eps instead of levelling."""
    if len(scan) < 2:
        return False
    ratios = [r for _, r in sorted(scan, key=lambda p: -p[0])]
    return ratios[-1] >= 10.0 * max(ratios[0], 1.0) and ratios[-1] > 50.0


def _certified_floor(c: Copula) -> float:
    """Closed-form lag-1 essential infimum of the AC density, 0 when unknown."""
    if isinstance(c, Independence):
        return 1.0
    if isinstance(c, Fgm):
        return 1.0 - abs(c.theta)
    if isinstance(c, Mardia):
        return 1.0 - c.a - c.b
    if isinstance(c, Convex):
        return sum(w * _certified_floor(comp) for w, comp in zip(c.weights, c.components))
    return 0.0


def _certified_psi1_below_one(c: Copula) -> bool:
    """Closed-form certificate that the lag-1 psi coefficient is below 1."""
    if isinstance(c, Independence):
        return True
    if isinstance(c, Fgm):
        return abs(c.theta) < 1.0
    if isinstance(c, Convex):
        return all(_certified_psi1_below_one(comp) for comp in c.components)
    return False


def _not_psi_star_certified(c: Copula) -> bool:
    """Closed-form certificate that the family is not psi-star mixing."""
    if isinstance(c, (Comonotone, Countermonotone)):
        return True
    if isinstance(c, Mardia):
        return c.a > 0.0 or c.b > 0.0
    if isinstance(c, Gaussian):
        return c.r != 0.0
    if isinstance(c, Convex):
        return any(
            w > 0.0 and _not_psi_star_certified(comp)
            for w, comp in zip(c.weights, c.components)
        )
    return False


def _closed_form_findings(c: Copula) -> list:
    """Family rules that need no grid work."""
    out = []
    if isinstance(c, Independence) or (isinstance(c, Fgm) and c.theta == 0.0) \
            or (isinstance(c, Gaussian) and c.r == 0.0) \
            or (isinstance(c, Mardia) and c.a == 0.0 and c.b == 0.0) \
            or (isinstance(c, Amh) and c.theta == 0.0):
        out.append(Finding(MixingVerdict.PSI_MIXING, "independence-product", True))
        return out
    if isinstance(c, Fgm):
        out.append(Finding(MixingVerdict.PSI_MIXING, "fgm-envelope", True))
        return out
    # the AMH density's sup over the open square is max(1-theta, 1/(1-theta)),
    # its corner limits at (0,1) and (0,0): finite for every theta != 1
    if isinstance(c, Amh) and c.theta != 1.0:
        out.append(Finding(MixingVerdict.PSI_STAR_MIXING, "amh-bounded-density", True))
        return out
    if isinstance(c, Gaussian):
        out.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "gaussian-corner-divergence", True))
        return out
    if isinstance(c, (Comonotone, Countermonotone)):
        out.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "singular-corner-mass", True))
        return out
    if isinstance(c, Mardia):
        if c.a + c.b < 1.0:
            out.append(Finding(MixingVerdict.PSI_PRIME_MIXING, "mixture-density-floor", True))
        out.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "singular-corner-mass", True))
        return out
    if isinstance(c, Convex):
        if _certified_psi1_below_one(c):
            out.append(Finding(MixingVerdict.PSI_MIXING, "convex-psi-small", True))
        else:
            if _certified_floor(c) > 0.0:
                out.append(Finding(MixingVerdict.PSI_PRIME_MIXING, "mixture-density-floor", True))
            if _not_psi_star_certified(c):
                out.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "convex-propagation", True))
        return out
    return out


def lag_report(
    c: Copula,
    n: int,
    m: int = DEFAULT_RESOLUTION,
    eps_list: Sequence[float] = DEFAULT_EPS_LADDER,
) -> MixingReport:
    """Assemble the per-lag numbers into a report (findings are attached by classify)."""
    if n < 1:
        raise DomainError("lag must be at least 1")
    cn = n_fold(c, n)
    try:
        lo, hi = density_extrema(c, n, m)
        psi_prime = min(lo, 1.0)  # psi_prime_lower_bound of this very grid
        unbounded = False
        # the refinement ladder is affordable only for closed-form densities;
        # quadrature-backed folds rely on the corner scan for divergence evidence
        if hi > 5.0 and not is_quadrature_backed(cn):
            unbounded, hi_fine = _grid_maxima_unbounded(c, n)
            hi = max(hi, hi_fine)
        density_min, density_max = lo, (math.inf if unbounded else hi)
    except (DensityUnavailableError, FoldDepthError):
        density_min, density_max, unbounded = 0.0, math.inf, False
        try:
            psi_prime = psi_prime_lower_bound(c, n, m)
        except (DensityUnavailableError, FoldDepthError):
            psi_prime = 0.0

    if density_max < math.inf and cn.is_absolutely_continuous:
        psi_star = max(density_max, 1.0)
    else:
        psi_star = math.inf
    scan = tuple(corner_divergence_scan(c, n, eps_list))
    return MixingReport(
        n=n,
        density_min=float(density_min),
        density_max=float(density_max),
        density_unbounded_evidence=bool(unbounded),
        psi_prime_lower=float(psi_prime),
        psi_star_upper=float(psi_star),
        corner_scan=scan,
    )


def classify(c: Copula, m: int = DEFAULT_RESOLUTION, n_max: int = 3) -> MixingReport:
    """Apply the family rules, then grid evidence; report the lag-1 numbers.

    Closed-form rules run first and their verdicts are certified.  When none
    applies, grid evidence is used: a positive density floor at some lag up to
    n_max supports PsiPrimeMixing (the rule tag records the lag), a bounded
    ceiling with level corner ratios supports PsiStarMixing, and either the
    unbounded-ceiling flag or diverging corner ratios supports
    NotPsiStarMixing.  Grid findings are marked not certified.  PsiMixing and
    NotPsiStarMixing are never reported together.
    """
    findings = _closed_form_findings(c)
    report = lag_report(c, 1, m)
    if not findings:
        try:
            floor_lag = next(
                lag for lag in range(1, n_max + 1)
                if (report.psi_prime_lower if lag == 1
                    else psi_prime_lower_bound(c, lag, m)) > 0.0
            )
        except (StopIteration, DensityUnavailableError, FoldDepthError):
            floor_lag = None
        if floor_lag is not None:
            findings.append(
                Finding(MixingVerdict.PSI_PRIME_MIXING, f"density-floor-grid@n={floor_lag}", False)
            )
        if report.density_unbounded_evidence or _scan_diverges(report.corner_scan):
            findings.append(
                Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "corner-divergence-scan", False)
            )
        elif report.psi_star_upper < math.inf:
            findings.append(Finding(MixingVerdict.PSI_STAR_MIXING, "bounded-density-grid", False))
        if not findings:
            findings.append(Finding(MixingVerdict.UNKNOWN, "no-rule-applies", False))
    return replace(report, findings=tuple(findings))
