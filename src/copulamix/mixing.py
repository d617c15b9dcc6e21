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
from typing import Iterable, Sequence

import numpy as np

from .copulas import (
    Amh,
    Convex,
    Copula,
    DensityGrid,
    Fgm,
    Gaussian,
    Mardia,
    Rect,
    check_lag,
    density_grid,
    is_quadrature_backed,
    n_fold,
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
    fold nesting past the cap), a convex combination is bounded through its
    components' own floors.
    """
    try:
        lo, _ = density_extrema(c, n, m)
    except (DensityUnavailableError, FoldDepthError):
        if not isinstance(c, Convex):
            raise
        return _component_floor(c, n, m)
    return min(float(lo), 1.0)


def _component_floor(c: Convex, n: int, m: int) -> float:
    """psi-prime floor of a mixture whose lag-n density is unavailable.

    The n-fold of component j alone carries weight w_j^n inside the expanded
    mixture, so w_j^n times that component's own floor is still a valid lower
    bound; the best such term is returned, 0 when no component has a floor.
    """
    best = 0.0
    for w, comp in zip(c.weights, c.components):
        try:
            best = max(best, (w ** n) * psi_prime_lower_bound(comp, n, m))
        except (DensityUnavailableError, FoldDepthError):
            continue
    return min(best, 1.0)


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


def _certificates(c: Copula) -> tuple:
    """Closed-form (lag-1 AC density floor, psi_1 < 1, not psi-star mixing).

    Each part is the safe value (0, False, False) where no closed form decides it.
    """
    if isinstance(c, Fgm):
        return 1.0 - abs(c.theta), abs(c.theta) < 1.0, False
    if isinstance(c, Mardia):
        # the floor is the Pi weight, exactly 0 when a + b == 1 (1 - a - b can
        # leave a rounding residue there); only Pi itself has psi_1 < 1
        return 1.0 - (c.a + c.b), c.is_absolutely_continuous, c.a > 0.0 or c.b > 0.0
    if isinstance(c, Gaussian):
        return 0.0, False, c.r != 0.0
    if isinstance(c, Convex):
        parts = [(w, *_certificates(comp)) for w, comp in zip(c.weights, c.components)]
        return (sum(w * floor for w, floor, _, _ in parts),
                all(small for _, _, small, _ in parts),
                any(w > 0.0 and diverges for w, _, _, diverges in parts))
    return 0.0, False, False


def _closed_form_findings(c: Copula) -> list:
    """Family rules that need no grid work."""
    if (isinstance(c, Fgm) and c.theta == 0.0) \
            or (isinstance(c, Gaussian) and c.r == 0.0) \
            or (isinstance(c, Mardia) and c.a == 0.0 and c.b == 0.0) \
            or (isinstance(c, Amh) and c.theta == 0.0):
        return [Finding(MixingVerdict.PSI_MIXING, "independence-product", True)]
    if isinstance(c, Fgm):
        return [Finding(MixingVerdict.PSI_MIXING, "fgm-envelope", True)]
    # the AMH density's sup over the open square is max(1-theta, 1/(1-theta)),
    # its corner limits at (0,1) and (0,0): finite for every theta != 1
    if isinstance(c, Amh) and c.theta != 1.0:
        return [Finding(MixingVerdict.PSI_STAR_MIXING, "amh-bounded-density", True)]
    if isinstance(c, Gaussian):
        return [Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "gaussian-corner-divergence", True)]
    if not isinstance(c, (Mardia, Convex)):
        return []
    floor, psi1_small, not_psi_star = _certificates(c)
    if psi1_small:  # every component is Pi or an FGM with |theta| < 1
        return [Finding(MixingVerdict.PSI_MIXING, "convex-psi-small", True)]
    out = []
    if floor > 0.0:
        out.append(Finding(MixingVerdict.PSI_PRIME_MIXING, "mixture-density-floor", True))
    if not_psi_star:
        rule = "convex-propagation" if isinstance(c, Convex) else "singular-corner-mass"
        out.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, rule, True))
    return out


def lag_report(
    c: Copula,
    n: int,
    m: int = DEFAULT_RESOLUTION,
    eps_list: Sequence[float] = DEFAULT_EPS_LADDER,
) -> MixingReport:
    """Assemble the per-lag numbers into a report (findings are attached by classify)."""
    cn = n_fold(c, n)
    try:
        lo, hi = density_extrema(c, n, m)
        psi_prime = min(lo, 1.0)  # psi_prime_lower_bound of this very grid
        unbounded = False
        # the refinement ladder is affordable only for closed-form densities;
        # quadrature-backed folds rely on the corner scan for divergence evidence
        if hi > 5.0 and not is_quadrature_backed(cn):
            unbounded, hi_fine = _grid_maxima_unbounded(cn, m, hi)
            hi = max(hi, hi_fine)
        density_min, density_max = lo, (math.inf if unbounded else hi)
    except DensityUnavailableError:
        density_min, density_max, unbounded = 0.0, math.inf, False
        psi_prime = _component_floor(c, n, m) if isinstance(c, Convex) else 0.0

    psi_star = max(density_max, 1.0) if cn.is_absolutely_continuous else math.inf
    try:
        scan = tuple(corner_divergence_scan(c, n, eps_list))
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


def _findings(c: Copula, first: MixingReport, floors: Iterable[float]) -> tuple:
    """Closed-form findings, else grid evidence from the lag-1 report ``first``.

    ``floors`` yields the psi-prime floors at lags 1, 2, ...; it is read only
    when no family rule applies, and only up to the first positive floor.
    """
    findings = _closed_form_findings(c)
    if findings:
        return tuple(findings)
    try:
        floor_lag = next((lag for lag, lo in enumerate(floors, 1) if lo > 0.0), None)
    except (DensityUnavailableError, FoldDepthError):
        floor_lag = None
    if floor_lag is not None:
        rule = f"density-floor-grid@n={floor_lag}"
        findings.append(Finding(MixingVerdict.PSI_PRIME_MIXING, rule, False))
    if first.density_unbounded_evidence or _scan_diverges(first.corner_scan):
        findings.append(Finding(MixingVerdict.NOT_PSI_STAR_MIXING, "corner-divergence-scan", False))
    elif first.psi_star_upper < math.inf:
        findings.append(Finding(MixingVerdict.PSI_STAR_MIXING, "bounded-density-grid", False))
    if not findings:
        findings.append(Finding(MixingVerdict.UNKNOWN, "no-rule-applies", False))
    return tuple(findings)


def classify(c: Copula, m: int = DEFAULT_RESOLUTION, n_max: int = DEFAULT_N_MAX) -> MixingReport:
    """Apply the family rules, then grid evidence; report the lag-1 numbers.

    Closed-form rules run first and their verdicts are certified.  When none
    applies, grid evidence is used: a positive density floor at some lag up to
    n_max supports PsiPrimeMixing (the rule tag records the lag), a bounded
    ceiling with level corner ratios supports PsiStarMixing, and either the
    unbounded-ceiling flag or diverging corner ratios supports
    NotPsiStarMixing.  Grid findings are marked not certified.  PsiMixing and
    NotPsiStarMixing are never reported together.
    """
    report = lag_report(c, 1, m)
    floors = (report.psi_prime_lower if lag == 1 else psi_prime_lower_bound(c, lag, m)
              for lag in range(1, n_max + 1))
    return replace(report, findings=_findings(c, report, floors))


def lag_reports(c: Copula, n_max: int = DEFAULT_N_MAX, m: int = DEFAULT_RESOLUTION) -> tuple:
    """One report per lag 1..n_max, each built once, all carrying classify's
    findings; the grid floor search reads these reports' floors (lags 1..n_max).
    """
    reports = [lag_report(c, lag, m) for lag in range(1, check_lag(n_max) + 1)]
    findings = _findings(c, reports[0], (r.psi_prime_lower for r in reports))
    return tuple(replace(r, findings=findings) for r in reports)
