"""Iso-p-capacitary and isoperimetric quasilocal masses.

The iso-p-capacitary mass of the region inside the sphere at rho compares
its volume with the volume of the Euclidean ball of equal normalized
p-capacity:

    m_p(rho) = (|Omega| - (4pi/3) c^(3/(3-p))) / (2 pi p c^(2/(3-p))),

with c the normalized p-capacity.  At p = 1 the convention
(p-1)^(p-1) = 1 applies and c is the hull area over 4pi.  The p = "iso"
(Huisken) mass replaces the capacity radius by the area radius.  The
total mass of an end is the limit along an exhaustion by centered
spheres, estimated here by extrapolation over a geometric radius grid.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Tuple

from .capacity import _capacities, one_capacity, p_capacity
from .errors import ConfigError, DomainError, InsufficientData
from .geometry import FOUR_PI, SIXTEEN_PI, RadialMetric, sphere_data
from .numerics import DEFAULT_CFG, ToleranceConfig, extrapolate_limit
from .specfun import check_p, gauss_2f1

CONVERGED = "CONVERGED"
DIVERGENT = "DIVERGENT"
INDETERMINATE = "INDETERMINATE"
REPORT_TOL = 1e-2  # relative extrapolation error of a CONVERGED total mass
EQUIVALENCE_TOL = 5e-3  # largest mass gap an equivalence report passes
BMX_TOL = 1e-8  # largest passing relative excess of the capacity over its bound
ISOPERIMETRIC_TOL = 1e-12  # largest passing relative excess of a volume over its bound


@dataclass
class MassReport:
    """Quasilocal masses along a radius grid and their extrapolated limit."""

    metric: str
    p: Optional[float]  # None marks the Huisken-mass sequence
    radii: List[float]
    quasilocal: List[float]
    extrapolated_mass: float
    err_estimate: float
    verdict: str


@dataclass
class EquivalenceVerdict:
    reports: List[MassReport]
    max_pairwise_gap: float
    tol: float
    passed: bool


@dataclass
class BmxResult:
    rho: float
    p: float
    x: float
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass
class IsoperimetricRow:
    rho: float
    volume: float
    bound: float
    passed: bool


@dataclass
class IsoperimetricReport:
    m_bound: float
    rows: List[IsoperimetricRow]
    threshold: Optional[float]  # smallest grid radius past which all pass


def _overflow(metric: RadialMetric, radii: Sequence[float]
              ) -> Optional[Tuple[float, str]]:
    """Where the quasilocal masses at increasing radii leave the floats, or
    None: the first radius whose area, or the volume (4pi/3) R^3 of the
    ball of area radius R, overflows, and which of the two.  Every mass
    formula holds a volume of that size.  Read at the last radius, where
    an exhaustion's areas are largest; the others are read only when that
    one overflows."""
    def why(rho: float) -> Optional[Tuple[float, str]]:
        area = metric.area(rho)
        if math.isinf(area):
            return rho, "area"
        try:
            area ** 1.5
        except OverflowError:
            return rho, "volume of a ball of the area"
        return None
    if why(radii[-1]) is None:
        return None
    return next(filter(None, map(why, radii)))


def _quasilocal(metric: RadialMetric, radii: Sequence[float],
                p_grid: Sequence[Optional[float]],
                cfg: ToleranceConfig, default_grid: bool = False
                ) -> List[List[float]]:
    """Quasilocal masses at increasing radii, one list per entry of p_grid:
    iso-p-capacitary (+inf when p-parabolic), or isoperimetric for None.
    One capacity pass serves every p, one ``volumes`` call every radius.

    Before any of that work, a radius whose area, or the volume of a ball
    of that area, overflows raises DomainError, or ConfigError on
    ``default_r_grid``'s grid (default_grid), which ``extrap_terms`` sized.
    """
    for rho in radii:
        metric.check_start(rho)
    too_big = _overflow(metric, radii)
    if too_big and default_grid:
        raise ConfigError(f"extrap_terms = {cfg.extrap_terms} takes the default "
                          f"radius grid to rho={too_big[0]!r}, where the {too_big[1]} "
                          "of the sphere overflows")
    if too_big:
        raise DomainError(f"{too_big[1]} of the sphere at rho={too_big[0]!r} overflows")
    ps = list(dict.fromkeys(p for p in p_grid if p is not None))
    caps = dict(zip(ps, _capacities(metric, radii, ps, cfg)))
    if None in p_grid:
        areas = [metric.area(rho) for rho in radii]
        if 0.0 in areas:
            raise DomainError(f"sphere at rho={radii[areas.index(0.0)]} "
                              "has zero area")
    want = [rho for k, rho in enumerate(radii)
            if None in p_grid or any(not row[k].parabolic for row in caps.values())]
    vols = dict(zip(want, metric.volumes(want, cfg)))
    out = []
    for p in p_grid:
        if p is None:
            out.append([(2.0 / a) * (vols[rho] - a ** 1.5 / (6.0 * math.sqrt(math.pi)))
                        for rho, a in zip(radii, areas)])
            continue
        vals = []
        for cap in caps[p]:
            if cap.parabolic:
                vals.append(math.inf)
                continue
            c = cap.ncap
            if c == 0.0:  # p = 1 on a sphere of zero area
                raise DomainError(f"sphere at rho={cap.rho0} has zero capacity")
            ball = (FOUR_PI / 3.0) * c ** (3.0 / (3.0 - p))
            vals.append((vols[cap.rho0] - ball)
                        / (2.0 * math.pi * p * c ** (2.0 / (3.0 - p))))
        out.append(vals)
    return out


def quasilocal_mass(metric: RadialMetric, rho: float, p: float,
                    cfg: ToleranceConfig = DEFAULT_CFG) -> float:
    """Iso-p-capacitary mass of the sphere at rho; +inf when p-parabolic."""
    return _quasilocal(metric, [rho], [p], cfg)[0][0]


def huisken_mass(metric: RadialMetric, rho: float,
                 cfg: ToleranceConfig = DEFAULT_CFG) -> float:
    """Isoperimetric quasilocal mass of the sphere at rho."""
    return _quasilocal(metric, [rho], [None], cfg)[0][0]


def default_r_grid(metric: RadialMetric,
                   cfg: ToleranceConfig = DEFAULT_CFG) -> List[float]:
    """Geometric grid, ratio 2, from 50 capacitary radii of the boundary.

    A boundary sphere of zero area is a pole, like flat space's centre at
    0: the capacitary radius is read 1e-3 past it, and the grid starts at
    the pole.  The boundary's 1-capacity costs one critical-point search
    on a geodesic metric (``flow.outward_hull``) and none on an areal one,
    whose spheres are their own hulls.
    Raises ConfigError where ``extrap_terms`` overflows the grid.
    """
    rho0, start = metric.domain_start, 0.0
    if rho0 >= 1e-3 and metric.area(rho0) == 0.0:
        rho0, start = rho0 + 1e-3, rho0
    c1 = one_capacity(metric, max(rho0, 1e-3), cfg).ncap
    base = 50.0 * math.sqrt(c1)
    try:  # base * 2**k exactly, or OverflowError past the largest float
        return [start + math.ldexp(base, k) for k in range(cfg.extrap_terms)]
    except OverflowError:
        raise ConfigError(f"extrap_terms = {cfg.extrap_terms} takes the default "
                          "radius grid past the largest float") from None


def _diverges(radii: Sequence[float], vals: Sequence[float],
              report_tol: float) -> bool:
    """True for a p-parabolic sequence, one that ends far above the median
    of its upper half, and one still growing at least like log r: its last
    two steps have one sign, the last per unit of log r is no smaller than
    the one before, and it exceeds the report tolerance.  Accelerators take
    steady growth, such as a linear sequence, for a finite limit; a sequence
    whose slope in log r shrinks, such as m + c/r, is never flagged."""
    if any(math.isinf(v) for v in vals):
        return True
    scale = statistics.median(abs(v) for v in vals[len(vals) // 2:])
    if abs(vals[-1]) > 10.0 * max(scale, 1e-12) and abs(vals[-1]) > 1.0:
        return True
    if len(vals) < 3 or radii[-3] <= 0.0:
        return False
    prev, last = vals[-2] - vals[-3], vals[-1] - vals[-2]
    if prev * last <= 0.0 or abs(last) <= report_tol * max(1.0, abs(vals[-1])):
        return False
    return (abs(last) / math.log(radii[-1] / radii[-2])
            >= abs(prev) / math.log(radii[-2] / radii[-3]))


def total_masses(metric: RadialMetric, p_grid: Sequence[Optional[float]],
                 r_grid: Optional[Sequence[float]] = None,
                 cfg: ToleranceConfig = DEFAULT_CFG) -> List[MassReport]:
    """Extrapolated total masses along one exhaustion, one report per entry
    of p_grid in order, None for Huisken; each has the bits that a grid of
    that entry alone gives.  Every p is checked before any work."""
    for p in p_grid:
        if p is not None and p != 1.0:
            check_p(p)
    default = r_grid is None
    if default:
        r_grid = default_r_grid(metric, cfg)
    radii = [float(r) for r in r_grid]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise InsufficientData("need non-empty, strictly increasing radii")
    reports = []
    for p, vals in zip(p_grid, _quasilocal(metric, radii, p_grid, cfg, default)):
        lim, err, verdict = math.inf, math.inf, DIVERGENT
        if not _diverges(radii, vals, REPORT_TOL):
            lim, err = extrapolate_limit(list(zip(radii, vals)), cfg)
            verdict = (CONVERGED if err <= REPORT_TOL * max(1.0, abs(lim))
                       else INDETERMINATE)
        reports.append(MassReport(metric=metric.label, p=p, radii=radii,
                                  quasilocal=vals, extrapolated_mass=lim,
                                  err_estimate=err, verdict=verdict))
    return reports


def total_mass(metric: RadialMetric, p: Optional[float],
               r_grid: Optional[Sequence[float]] = None,
               cfg: ToleranceConfig = DEFAULT_CFG) -> MassReport:
    """Extrapolated total mass along an exhaustion; p=None for Huisken."""
    return total_masses(metric, [p], r_grid, cfg)[0]


def equivalence_report(metric: RadialMetric, p_grid: Sequence[float],
                       r_grid: Optional[Sequence[float]] = None,
                       cfg: ToleranceConfig = DEFAULT_CFG) -> EquivalenceVerdict:
    """Compare extrapolated masses over a p-grid plus the Huisken sequence."""
    reports = total_masses(metric, [*p_grid, None], r_grid, cfg)
    limits = [r.extrapolated_mass for r in reports]
    if any(not math.isfinite(v) for v in limits):
        gap = math.inf
    else:
        gap = max(limits) - min(limits)
    return EquivalenceVerdict(reports=reports, max_pairwise_gap=gap,
                              tol=EQUIVALENCE_TOL, passed=gap <= EQUIVALENCE_TOL)


def bmx_bound_check(metric: RadialMetric, rho: float, p: float,
                    cfg: ToleranceConfig = DEFAULT_CFG) -> BmxResult:
    """Capacity upper bound from area and Willmore energy.

    ncap_p <= (area/4pi)^((3-p)/2) * F(1/2, (3-p)/(p-1), 2/(p-1); x)^(1-p)
    with x = 1 - willmore/16pi.  Equality on round spheres in Schwarzschild
    at p = 2 and everywhere on flat space.
    """
    data = sphere_data(metric, rho, cfg)
    x = 1.0 - data.willmore / SIXTEEN_PI
    lhs = p_capacity(metric, rho, p, cfg).ncap
    f = gauss_2f1(p, x, cfg)
    rhs = (data.area / FOUR_PI) ** ((3.0 - p) / 2.0) * f ** (1.0 - p)
    return BmxResult(rho=rho, p=p, x=x, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                     passed=lhs <= rhs * (1.0 + BMX_TOL))


def asymptotic_isoperimetric_check(metric: RadialMetric, m_bound: float,
                                   r_grid: Sequence[float],
                                   cfg: ToleranceConfig = DEFAULT_CFG
                                   ) -> IsoperimetricReport:
    """Check |Omega| <= |S|^(3/2)/(6 sqrt(pi)) + (m/2)|S| on large spheres."""
    rows: List[IsoperimetricRow] = []
    radii = [float(rho) for rho in r_grid]
    for rho, vol in zip(radii, metric.volumes(radii, cfg)):
        area = metric.area(rho)
        bound = area ** 1.5 / (6.0 * math.sqrt(math.pi)) + 0.5 * m_bound * area
        rows.append(IsoperimetricRow(rho=rho, volume=vol, bound=bound,
                                     passed=vol <= bound * (1.0 + ISOPERIMETRIC_TOL)))
    threshold: Optional[float] = None
    for row in reversed(rows):
        if not row.passed:
            break
        threshold = row.rho
    return IsoperimetricReport(m_bound=m_bound, rows=rows, threshold=threshold)


def _num(v: float):
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return v


def _json(v) -> str:
    """v as json.dumps writes it, floats by float.__repr__ when finite."""
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")
    return "null" if v is None else json.dumps(v)


def mass_report_to_json(report: MassReport) -> str:
    """The bytes of json.dumps(obj, indent=2), written directly: indent
    selects json's pure-Python encoder, which costs more than this."""
    def array(vs):
        return "[\n    " + ",\n    ".join(map(_json, vs)) + "\n  ]" if vs else "[]"

    fields = [("metric", _json(report.metric)), ("p", _json(report.p)),
              ("radii", array(report.radii)),
              ("quasilocal", array([_num(v) for v in report.quasilocal])),
              ("extrapolated", _json(_num(report.extrapolated_mass))),
              ("err", _json(_num(report.err_estimate))),
              ("verdict", _json(report.verdict))]
    return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in fields) + "\n}"


def mass_report_to_csv(report: MassReport, stream: IO[str]) -> None:
    def cell(v: float):
        return "%.17g" % v if math.isfinite(v) else _num(v)

    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["metric", "p", "radius", "quasilocal",
                "extrapolated", "err", "verdict"])
    pstr = "" if report.p is None else "%.17g" % report.p
    ends = [cell(report.extrapolated_mass), cell(report.err_estimate),
            report.verdict]
    for r, q in zip(report.radii, report.quasilocal):
        w.writerow([report.metric, pstr, "%.17g" % r, cell(q)] + ends)
