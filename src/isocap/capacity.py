"""Normalized p-capacities of centered spheres and radial potentials.

For a rotationally symmetric metric the capacitary potential of a centered
sphere is itself radial, so the normalized p-capacity reduces to a single
radial integral

    I_p(rho0) = integral_{rho0}^{inf} area(s)^(-1/(p-1)) d(arclength),

with flux = I_p^(1-p) and ncap = (1/4pi) * ((p-1)/(3-p))^(p-1) * flux.
This normalization gives a Euclidean ball of radius r the capacity
r^(3-p).  The 1-capacity is the least enclosing sphere area over 4pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import numerics
from .errors import DomainError, NonConvergence, ParabolicMetric
from .flow import _outward_hulls
from .geometry import FOUR_PI, Gauge, RadialMetric
from .numerics import DEFAULT_CFG, ToleranceConfig
from .specfun import check_p


@dataclass
class CapacityResult:
    """Normalized p-capacity of the centered sphere at rho0."""

    p: float
    rho0: float
    ncap: float
    flux: float
    err_estimate: float
    parabolic: bool
    rho_star: Optional[float] = None  # outermost minimizing radius (p=1)


@dataclass
class PotentialCurve:
    """Radial p-capacitary potential u and flow function w = -(p-1) log u."""

    p: float
    rho0: float
    rhos: np.ndarray
    u: np.ndarray
    w: np.ndarray


@dataclass
class FluxHolderRow:
    t: float
    rho: float
    lhs: float
    rhs: float
    rel_gap: float
    passed: bool


@dataclass
class FluxHolderReport:
    p: float
    rho0: float
    rows: List[FluxHolderRow]
    max_rel_gap: float
    all_pass: bool


_PANEL = 0.5  # widest panel, in log r
HOLDER_TOL = 1e-8  # largest passing relative excess in verify_flux_holder
# Relative precision of the density values themselves, charged to every
# gap: next to a throat f is known to about 1e-11 relative (the Taylor band
# of RadialMetric._xi_density), which moved J by up to 3e-13 against
# mpmath over 150 Reissner-Nordstrom slices.
_DENSITY_REL = 1e-12


def _tail_past(g: Sequence[float], big: float, q: float,
               q1: float) -> Tuple[float, float]:
    """Integral over [big, inf) of a density known at big, big/2 and big/4
    (g, in that order), and its error; q1 = q - 1.

    The density is fit by s^-q (A + B/s), the two leading terms of an
    asymptotically flat end, through g[0] and g[1], and integrated in
    closed form.  The error is the gap to the same fit through g[1] and
    g[2].  Both fits are written in ratios to their anchor, so big^q is
    never formed.
    """
    def fit(g1: float, g2: float) -> Tuple[float, float]:
        # (s/anchor)^-q (a + b anchor/s) through g1 at anchor, g2 at anchor/2
        t = g2 * 0.5 ** q
        return 2.0 * g1 - t, t - g1

    a, b = fit(g[0], g[1])
    tail = big * (a / q1 + b / q)
    # the second fit, anchored at big/2, integrated from big
    a, b = fit(g[1], g[2])
    other = big * 0.5 ** q * (a / q1 + 0.5 * b / q)
    return tail, abs(tail - other)


def _offsets(q1: float, span: float) -> np.ndarray:
    """Panel edges in y = log s past the start of a gap, up to span.

    In y the density of a gap decays about like exp(-(q-1) y).  The first
    panels are 1.6/(q-1) wide, where the 5-point check of
    ``numerics.gauss_legendre_err`` still passes on such a decay; past an
    offset of 4/(q-1) each panel is 0.4 of its offset wide, so each panel's
    5-point error stays well below quad_rel_tol of the gap's total, and no
    panel is wider than half a unit.
    """
    first = min(_PANEL, 1.6 / q1)
    out = [first]
    while out[-1] < span:
        out.append(out[-1] + min(_PANEL, max(first, 0.4 * out[-1])))
    return np.array(out)


def _variable(metric: RadialMetric, r0: float
              ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                         Callable[[np.ndarray], Tuple[np.ndarray, ...]]]:
    """The variable t the capacity density is integrated in, from r0 out.

    Geodesic gauge: t = y = log s.  Areal gauge: t = sqrt(y - log r_min)
    with r_min the domain start (r0 if the start is not positive), which
    removes the inverse square root of a throat at r_min; d(arclength)/ds
    comes from ``RadialMetric._xi_density``, which is accurate there.
    Returns t as a function of y, and t -> (s, dl/dt, ds/dt).
    """
    if metric.gauge is Gauge.GEODESIC:
        def at(t: np.ndarray) -> Tuple[np.ndarray, ...]:
            s = np.exp(t)
            return s, s, s
        return (lambda y: y), at
    start, xi_density = metric.domain_start, metric._xi_density
    r_min = start if start > 0.0 else r0

    def at_u(t: np.ndarray) -> Tuple[np.ndarray, ...]:
        grow = r_min * np.expm1(t * t)  # s - r_min
        xi = np.sqrt(grow + (r_min - start))
        s = r_min + grow
        ds_dt = 2.0 * s * t
        # dl/dt = dl/dxi * dxi/dt, and dxi/dt = ds/dt / (2 xi)
        return s, xi_density(xi) * ds_dt / (2.0 * xi), ds_dt
    log_min = math.log(r_min)
    return (lambda y: np.sqrt(np.maximum(y - log_min, 0.0))), at_u


def _capacity_tails(metric: RadialMetric, radii: Sequence[float],
                    ps: Sequence[float], cfg: ToleranceConfig
                    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rescaled I_p from each of the strictly increasing radii to infinity, per p.

    The only code that integrates the capacity density.  Every gap
    [r_k, r_{k+1}] and the head [r_last, big] are cut into the panels of
    ``_offsets`` in y = log s, which resolve the p -> 1 boundary layer at
    each gap's start.  The panels of all p's with equal edges are summed by
    one ``numerics.gauss_legendre_err`` call, one row per p, in the variable
    of ``_variable``, each checked against its gap's total: the metric is
    evaluated once per node for all of them, and each row has the bits of a
    call with its p alone.  A node in gap k rescales the density by that
    gap's area A_k, so p near 1 neither over- nor underflows.  Past the
    anchor big the two-term closed form of ``_tail_past`` takes over, on
    infinite and finite domains alike.  Then
    J_k = int_{r_k}^{r_{k+1}} g_k + (A_{k+1}/A_k)^(-1/(p-1)) J_{k+1};
    on growing areas the factor can only underflow (p near 1).  The error
    of J_k sums the panels' estimates, _DENSITY_REL of each gap's integral
    and the tail's estimate.

    I_p diverges when the density decays like s^-k with k <= 1; k is read
    between big/10 and big, with the slack 4.3e-4 at which a next-decade
    >= 0.999 * last-decade test flags exact power laws.  A density that
    underflows to 0 converges.

    Returns arrays (A_k, J_k, err_k) per p; every J_k is inf when I_p diverges.
    """
    for p in ps:
        check_p(p)
    if not ps:
        return []
    radii = np.asarray(radii, dtype=float)
    metric.check_start(radii[0])
    areas = np.asarray(metric.area(radii), dtype=float)
    if np.any(areas == 0.0):
        raise DomainError(f"sphere at rho={radii[areas == 0.0][0]} has zero area")
    lo, n = float(radii[-1]), len(radii)
    big = min(max(cfg.cutoff_radius, 100.0 * lo), 0.999 * metric.r_max)
    if big <= lo or big / 4.0 < metric.domain_start:  # the probes reach big/4
        raise DomainError(f"metric domain [{metric.domain_start}, "
                          f"{metric.r_max}] too short for capacity")
    t_of, at = _variable(metric, float(radii[0]))
    # an area that falls far below a gap's start, with p near 1
    overflow = "I_{} rescaled by the area of an inner radius overflows"

    def density(t: np.ndarray, group: Sequence[float]) -> Tuple[np.ndarray, ...]:
        """dI/dt of each p of group, one row each, rescaled by gap; ds/dt."""
        s, dl_dt, ds_dt = at(t)
        k = np.searchsorted(radii, s, side="right") - 1
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = metric.area(s) / areas[k]
            # a Python float exponent per row: numpy takes 1/x for a scalar
            # -1.0, which pow on a column of exponents does not round alike
            out = np.stack([ratio ** (-1.0 / (p - 1.0)) * dl_dt for p in group])
        for p, ok in zip(group, np.isfinite(out).all(axis=1)):
            if not ok:
                raise NonConvergence(overflow.format(p))
        return out, ds_dt

    near = max(big / 10.0, lo)
    probe, ds_dt = density(t_of(np.log([big, big / 2.0, big / 4.0, near])), ps)
    probe = (probe / ds_dt).tolist()  # dI/ds
    out = [(areas, np.full(n, math.inf), np.zeros(n))] * len(ps)
    live = [i for i, (g_big, _, _, g_near) in enumerate(probe) if not (
        g_big > 0.0 and g_near > 0.0 and math.log(g_near / g_big)
        <= (1.0 + 4.3e-4) * math.log(big / near))]
    if not live:
        return out
    if radii[0] <= 0.0:  # no panel in y = log s starts at s = 0
        raise DomainError(f"capacity of the sphere at rho={radii[0]} needs rho > 0")
    ends = np.log(np.append(radii, big))
    span = float(np.diff(ends).max())
    groups: dict = {}  # panel offsets -> indices of the p's they serve
    for i in live:
        offsets = _offsets((3.0 - ps[i]) / (ps[i] - 1.0), span)
        groups.setdefault(offsets.tobytes(), (offsets, []))[1].append(i)

    for offsets, members in groups.values():
        # at a throat the areal variable starts from 0 like sqrt(y): the
        # first panel is halved twice in that variable, quartered twice in y
        lead = np.concatenate((offsets[:1] / 16.0, offsets[:1] / 4.0, offsets))
        edges, gap = [], []
        for k in range(n):
            inner = lead if k == 0 else offsets
            inner = ends[k] + inner[inner < (ends[k + 1] - ends[k]) * (1.0 - 1e-9)]
            edges.append(t_of(np.concatenate(([ends[k]], inner, [ends[k + 1]]))))
            gap.append(np.full(inner.size + 1, k))
        gap = np.concatenate(gap)
        group = [ps[i] for i in members]
        sums, errs = numerics.gauss_legendre_err(
            lambda t: density(t, group)[0], np.concatenate([e[:-1] for e in edges]),
            np.concatenate([e[1:] for e in edges]), cfg, gap)
        for i, p, row, row_err in zip(members, group, sums, errs):
            # q - 1 without the cancellation of 2/(p-1) - 1 near p = 3
            q, q1 = 2.0 / (p - 1.0), (3.0 - p) / (p - 1.0)
            inc = np.bincount(gap, weights=row, minlength=n)
            inc_err = np.bincount(gap, weights=row_err + _DENSITY_REL * np.abs(row),
                                  minlength=n)
            tail, tail_err = _tail_past(probe[i][:3], big, q, q1)
            with np.errstate(over="ignore"):
                carry = (areas[1:] / areas[:-1]) ** (-1.0 / (p - 1.0))
            if not np.all(np.isfinite(carry)):
                raise NonConvergence(overflow.format(p))
            tails, errs_out = np.empty(n), np.empty(n)
            tails[-1], errs_out[-1] = inc[-1] + tail, inc_err[-1] + tail_err
            for k in range(n - 2, -1, -1):
                tails[k] = inc[k] + carry[k] * tails[k + 1]
                errs_out[k] = inc_err[k] + carry[k] * errs_out[k + 1]
            out[i] = (areas, tails, errs_out)
    return out


def _capacities(metric: RadialMetric, radii: Sequence[float],
                ps: Sequence[float], cfg: ToleranceConfig
                ) -> List[List[CapacityResult]]:
    """Normalized p-capacities of the spheres at strictly increasing radii,
    one list per exponent of ps; one ``_capacity_tails`` pass serves every
    p > 1."""
    for rho in radii:  # a NaN passes any test of increasing order
        metric.check_start(rho)
    tails = iter(_capacity_tails(metric, radii, [p for p in ps if p != 1.0], cfg))
    out = []
    for p in ps:
        if p == 1.0:
            hulls = _outward_hulls(metric, radii, cfg)
            out.append([CapacityResult(p=1.0, rho0=rho, ncap=hull / FOUR_PI,
                                       flux=hull, err_estimate=0.0,
                                       parabolic=False, rho_star=star)
                        for rho, (star, hull) in zip(radii, hulls)])
            continue
        caps = []
        for rho, area0, ivalue, ierr in zip(radii, *(t.tolist() for t in next(tails))):
            # unscaled I_p = area0^(-1/(p-1)) * ivalue, so I_p^(1-p) =
            # area0 * ... (0 on a p-parabolic end, where I_p = inf)
            flux = area0 * ivalue ** (1.0 - p)
            ncap = ((p - 1.0) / (3.0 - p)) ** (p - 1.0) * flux / FOUR_PI
            rel = (p - 1.0) * ierr / ivalue if ivalue > 0 else math.inf
            caps.append(CapacityResult(p=p, rho0=rho, ncap=ncap, flux=flux,
                                       err_estimate=abs(ncap) * rel,
                                       parabolic=math.isinf(ivalue)))
        out.append(caps)
    return out


def p_capacity(metric: RadialMetric, rho0: float, p: float,
               cfg: ToleranceConfig = DEFAULT_CFG) -> CapacityResult:
    """Normalized p-capacity of the centered sphere at rho0, 1 < p < 3."""
    check_p(p)
    return _capacities(metric, [rho0], [p], cfg)[0][0]


def one_capacity(metric: RadialMetric, rho0: float,
                 cfg: ToleranceConfig = DEFAULT_CFG) -> CapacityResult:
    """1-capacity: least enclosing-sphere area over 4pi (hull area).

    Where the sphere at rho0 is its own hull (``RadialMetric.own_hull``:
    an areal metric from r >= 0, among others) nothing is searched;
    otherwise the hull is read off the critical points of the area, found
    once per metric and cfg (see ``flow.outward_hull``).
    """
    return _capacities(metric, [rho0], [1.0], cfg)[0][0]


def _potential(metric: RadialMetric, rho0: float, p: float,
               cfg: ToleranceConfig, n: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Geometric grid from rho0, its areas, u = I_p(rho)/I_p(rho0) on it and
    the rescaled I_p(rho0).  The grid ends a decade inside a finite domain,
    so that its last node keeps a power-law anchor."""
    hi = min(cfg.cutoff_radius, 0.1 * metric.r_max)
    rhos = np.geomspace(max(rho0, 1e-12), hi, n)
    rhos[0] = rho0
    areas, tails, _ = _capacity_tails(metric, rhos, [p], cfg)[0]
    if math.isinf(tails[0]):
        raise ParabolicMetric(f"I_{p} diverges at rho0={rho0}")
    u = (areas / areas[0]) ** (-1.0 / (p - 1.0)) * tails / tails[0]
    return rhos, areas, u, float(tails[0])


def capacitary_potential(metric: RadialMetric, rho0: float, p: float,
                         cfg: ToleranceConfig = DEFAULT_CFG,
                         n_samples: int = 200) -> PotentialCurve:
    """Radial p-capacitary potential sampled on a geometric grid."""
    rhos, _, u, _ = _potential(metric, rho0, p, cfg, n_samples)
    u = np.clip(u, 1e-300, None)
    w = -(p - 1.0) * np.log(u)
    w[0] = 0.0
    return PotentialCurve(p=p, rho0=rho0, rhos=rhos, u=u, w=w)


def verify_flux_holder(metric: RadialMetric, rho0: float, p: float,
                       n_samples: int = 50,
                       cfg: ToleranceConfig = DEFAULT_CFG) -> FluxHolderReport:
    """Check |level set area|^p <= Ncap_p * (-V')^(p-1) along the p-flow.

    On level sets of a radial potential the Hoelder step is an equality,
    so the relative gap measures pure quadrature error: Ncap_p comes from
    a single-radius capacity, the potential from the tails of the grid.
    """
    rhos, areas, u, iscaled = _potential(metric, rho0, p, cfg, n_samples)
    big_ncap = p_capacity(metric, rho0, p, cfg).flux  # = I_p(rho0)^(1-p)
    area0 = float(areas[0])
    rows: List[FluxHolderRow] = []
    for rho, area, t in zip(rhos.tolist(), areas.tolist(), u.tolist()):
        # |grad u| = Phi^(1/(p-1)) * area^(-1/(p-1)), in rescaled pieces
        grad = (area0 / area) ** (1.0 / (p - 1.0)) / iscaled
        neg_vprime = area / grad
        lhs = area ** p
        rhs = big_ncap * neg_vprime ** (p - 1.0)
        gap = abs(lhs - rhs) / rhs
        ok = lhs <= rhs * (1.0 + HOLDER_TOL)
        rows.append(FluxHolderRow(t=t, rho=rho, lhs=lhs, rhs=rhs,
                                  rel_gap=gap, passed=ok))
    return FluxHolderReport(p=p, rho0=rho0, rows=rows,
                            max_rel_gap=max(r.rel_gap for r in rows),
                            all_pass=all(r.passed for r in rows))
