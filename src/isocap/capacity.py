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
from .errors import ConfigError, DomainError, NonConvergence, ParabolicMetric
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
              ) -> Tuple[float, Callable[[np.ndarray], np.ndarray],
                         Callable[[np.ndarray], Tuple[np.ndarray, ...]]]:
    """The variable t the capacity density is integrated in, from r0 out.

    Panels are cut in y = log(s + c).  Geodesic gauge: t = y, c = a(0)
    from r0 = 0 (log s has no start there) and c = 0 otherwise.  Areal
    gauge: c = 0, t = sqrt(y - log r_min) with r_min the domain start (r0
    if the start is not positive), which removes the inverse square root
    of a throat at r_min; d(arclength)/ds comes from
    ``RadialMetric._xi_density``, which is accurate there.  Returns c, t
    as a function of y, and t -> (s, dl/dt, ds/dt).
    """
    if metric.gauge is Gauge.GEODESIC:
        c = metric.profile.eval_d2(r0)[0] if r0 == 0.0 else 0.0

        def at(t: np.ndarray) -> Tuple[np.ndarray, ...]:
            e = np.exp(t)
            return e - c, e, e
        return c, (lambda y: y), at
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
    return 0.0, (lambda y: np.sqrt(np.maximum(y - log_min, 0.0))), at_u


def _panels(offsets: np.ndarray, ends: np.ndarray,
            t_of: Callable[[np.ndarray], np.ndarray]
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every gap [ends[k], ends[k+1]] in y cut at ``_offsets`` past its
    start: the panels' ends lo and hi in the variable t and the gap of each.
    At a throat the areal variable starts from 0 like sqrt(y): the first
    panel of the first gap is halved twice in that variable, quartered
    twice in y."""
    lead = np.concatenate((offsets[:1] / 16.0, offsets[:1] / 4.0, offsets))
    inner = ends[:-1, None] + lead
    keep = lead < np.diff(ends)[:, None] * (1.0 - 1e-9)
    keep[1:, :2] = False
    edge = np.ones((len(ends) - 1, 1), dtype=bool)
    lo = t_of(np.hstack((ends[:-1, None], inner))[np.hstack((edge, keep))])
    hi = t_of(np.hstack((inner, ends[1:, None]))[np.hstack((keep, edge))])
    return lo, hi, np.repeat(np.arange(len(ends) - 1), keep.sum(axis=1) + 1)


def _capacity_tails(metric: RadialMetric, radii: Sequence[float],
                    ps: Sequence[float], cfg: ToleranceConfig
                    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rescaled I_p from each of the strictly increasing radii to infinity, per p.

    The only code that integrates the capacity density.  Every gap
    [r_k, r_{k+1}] and the head [r_last, big] are cut into the panels of
    ``_offsets`` in y = log s, which resolve the p -> 1 boundary layer at
    each gap's start; the p's whose first panels are equally wide share
    them, one ``_offsets`` call per such group.  One pass of the variable
    of ``_variable`` samples the metric, with one profile evaluation, at
    the four tail probes and at every node of every group, before the
    probes tell which p's diverge: the group of a divergent p is sampled
    but never summed.  A group's rows, one per live p, are built from
    those samples and summed by one ``numerics.gauss_legendre_sampled``
    call, each checked against its gap's total; only a panel that fails
    that check evaluates the metric again, in ``numerics._refine``.  Each
    row has the bits of a call with its p alone.  A node in gap k rescales
    the density by that gap's area A_k, so p near 1 neither over- nor
    underflows.  Past the anchor big the two-term closed form of
    ``_tail_past`` takes over, on infinite and finite domains alike.  Then
    J_k = int_{r_k}^{r_{k+1}} g_k + (A_{k+1}/A_k)^(-1/(p-1)) J_{k+1};
    on growing areas the factor can only underflow (p near 1).  The error
    of J_k sums the panels' estimates, _DENSITY_REL of each gap's integral
    and the tail's estimate.

    I_p diverges when the density decays like s^-k with k <= 1; k is read
    between big/10 and big, with the slack 4.3e-4 at which a next-decade
    >= 0.999 * last-decade test flags exact power laws.  A density that
    underflows to 0 converges.  An area that overflows, at a radius or at
    big, raises DomainError; ConfigError where big is ``cutoff_radius``.

    Returns arrays (A_k, J_k, err_k) per p; every J_k is inf when I_p diverges.
    """
    for p in ps:
        check_p(p)
    if not ps:
        return []
    radii = np.asarray(radii, dtype=float)
    metric.check_start(radii[0])
    with np.errstate(over="ignore"):
        areas = np.asarray(metric.area(radii), dtype=float)
    if np.any(areas == 0.0):
        raise DomainError(f"sphere at rho={radii[areas == 0.0][0]} has zero area")
    if np.any(np.isinf(areas)):
        raise DomainError(f"area of the sphere at rho={radii[np.isinf(areas)][0]} "
                          "overflows")
    lo, n = float(radii[-1]), len(radii)
    big = min(max(cfg.cutoff_radius, 100.0 * lo), 0.999 * metric.r_max)
    if big <= lo or big / 4.0 < metric.domain_start:  # the probes reach big/4
        raise DomainError(f"metric domain [{metric.domain_start}, "
                          f"{metric.r_max}] too short for capacity")
    c, t_of, at = _variable(metric, float(radii[0]))
    # an area that falls far below a gap's start, with p near 1
    overflow = "I_{} rescaled by the area of an inner radius overflows"

    def sample(t: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The metric at t, whatever p: area(s), its ratio to the area of
        the gap's start, dl/dt and ds/dt."""
        s, dl_dt, ds_dt = at(t)
        k = np.searchsorted(radii, s, side="right") - 1
        with np.errstate(over="ignore", invalid="ignore"):
            area = metric.area(s)
            return area, area / areas[k], dl_dt, ds_dt

    def rows(ratio: np.ndarray, dl_dt: np.ndarray, group: Sequence[float]) -> np.ndarray:
        """dI/dt of each p of group, one row each, rescaled by gap."""
        with np.errstate(over="ignore", invalid="ignore"):
            # a Python float exponent per row: numpy takes 1/x for a scalar
            # -1.0, which pow on a column of exponents does not round alike
            out = np.stack([ratio ** (-1.0 / (p - 1.0)) * dl_dt for p in group])
        for p, ok in zip(group, np.isfinite(out).all(axis=1)):
            if not ok:
                raise NonConvergence(overflow.format(p))
        return out

    def density(t: np.ndarray, group: Sequence[float]) -> np.ndarray:
        return rows(*sample(t)[1:3], group)

    near = max(big / 10.0, lo)
    nodes = [t_of(np.log(np.add([big, big / 2.0, big / 4.0, near], c)))]
    # q - 1 without the cancellation of 2/(p-1) - 1 near p = 3, and the
    # width of the first panel, which keys the group of each p
    q1s = [(3.0 - p) / (p - 1.0) for p in ps]
    widths = [min(_PANEL, 1.6 / q1) for q1 in q1s]
    groups: dict = {}  # width -> panel ends in t, their gaps, first node
    if radii[0] + c > 0.0:  # panels in y = log(s + c) start past s + c = 0
        ends = np.log(np.append(radii, big) + c)
        span = float(np.diff(ends).max())
        for q1, width in zip(q1s, widths):
            if width not in groups:
                lo_t, hi_t, gap = _panels(_offsets(q1, span), ends, t_of)
                groups[width] = (lo_t, hi_t, gap, sum(map(len, nodes)))
                nodes.append(numerics.panel_nodes(lo_t, hi_t)[1].ravel())
    area, ratio, dl_dt, ds_dt = sample(np.concatenate(nodes))
    if math.isinf(area[0]) and big == cfg.cutoff_radius:
        raise ConfigError(f"cutoff_radius = {big!r} puts the capacity tail anchor "
                          "where the area of the sphere overflows")
    if math.isinf(area[0]):
        raise DomainError(f"area of the sphere at rho={big} overflows")
    probe = (rows(ratio[:4], dl_dt[:4], ps) / ds_dt[:4]).tolist()  # dI/ds
    out = [(areas, np.full(n, math.inf), np.zeros(n))] * len(ps)
    live: dict = {}  # width -> indices of the live p's of its group
    for i, (g_big, _, _, g_near) in enumerate(probe):
        if not (g_big > 0.0 and g_near > 0.0 and math.log(g_near / g_big)
                <= (1.0 + 4.3e-4) * math.log(big / near)):
            live.setdefault(widths[i], []).append(i)
    if not live:
        return out
    if not groups:
        raise DomainError(f"capacity of the sphere at rho={radii[0]} needs rho > 0")
    with np.errstate(over="ignore"):
        step = areas[1:] / areas[:-1]
    for width, members in live.items():
        lo_t, hi_t, gap, first = groups[width]
        group = [ps[i] for i in members]
        at_group = slice(first, first + 15 * lo_t.size)
        sums, errs = numerics.gauss_legendre_sampled(
            lambda t: density(t, group), lo_t, hi_t,
            rows(ratio[at_group], dl_dt[at_group], group), cfg, gap)
        # each row's gap sums by one bincount, row after row
        bins = (n * np.arange(len(members))[:, None] + gap).ravel()
        inc, inc_err = (np.bincount(bins, weights=w.ravel(), minlength=n * len(members))
                        .reshape(-1, n).tolist()
                        for w in (sums, errs + _DENSITY_REL * np.abs(sums)))
        for i, p, inc_p, err_p in zip(members, group, inc, inc_err):
            tail, tail_err = _tail_past(probe[i][:3], big, 2.0 / (p - 1.0), q1s[i])
            with np.errstate(over="ignore"):
                carry = step ** (-1.0 / (p - 1.0))
            if not np.all(np.isfinite(carry)):
                raise NonConvergence(overflow.format(p))
            carry = carry.tolist()
            tails, errs_out = [inc_p[-1] + tail], [err_p[-1] + tail_err]
            for k in range(n - 2, -1, -1):
                tails.append(inc_p[k] + carry[k] * tails[-1])
                errs_out.append(err_p[k] + carry[k] * errs_out[-1])
            out[i] = (areas, np.array(tails[::-1]), np.array(errs_out[::-1]))
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
