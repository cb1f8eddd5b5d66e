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

from .errors import DomainError, ParabolicMetric
from .flow import _outward_hulls
from .geometry import FOUR_PI, RadialMetric
from .numerics import DEFAULT_CFG, ToleranceConfig, integrate
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


def _cap_integrand(metric: RadialMetric, p: float,
                   area0: float) -> Callable[[float], float]:
    """Radial density of I_p, rescaled by (area0)^(1/(p-1)).

    The raw density area^(-1/(p-1)) under- or overflows for p near 1; the
    area ratio keeps the integrand of order one near rho0.
    """
    expo = -1.0 / (p - 1.0)
    return metric.density(lambda area: (area / area0) ** expo)


def _integral_to_inf(metric: RadialMetric, g: Callable[[float], float],
                     lo: float, big: float, p: float,
                     cfg: ToleranceConfig) -> Tuple[float, float]:
    """Integrate the capacity density g over [lo, inf).

    Three pieces.  Up to the anchor big a log substitution s = lo*e^y
    resolves both the thin boundary layer of p near 1 and the slowly
    varying tail of p near 3.  Beyond big the density is matched by the
    exact power law g(big)*(s/big)^(-q), q = 2/(p-1), whose integral is
    g(big)*big/(q-1); on an asymptotically flat end the residual decays one
    power faster and is integrated numerically, so nothing is truncated.
    """
    q = 2.0 / (p - 1.0)
    span = math.log(big / lo)
    hy = lambda y: g(lo * math.exp(y)) * lo * math.exp(y)
    # In y the density decays at rate q-1; for p near 1 that makes a layer
    # far thinner than the full span, which the subdivider would miss.
    # Integrate the layer on its own panel first.
    y1 = min(span, max(1.0, 40.0 / (q - 1.0)))
    head, err = integrate(hy, 0.0, y1, cfg)
    if y1 < span:
        h2, e2 = integrate(hy, y1, span, cfg)
        head, err = head + h2, err + e2

    g_big = g(big)
    tail = g_big * big / (q - 1.0)
    if tail == 0.0:
        return head, err

    if math.isinf(metric.r_max):
        def resid(s: float) -> float:
            return g(s) - g_big * (s / big) ** (-q)
        corr, cerr = integrate(resid, big, math.inf, cfg)
        return head + tail + corr, err + cerr
    # No samples past the table edge: keep the power-law model and charge
    # its leading 1/R correction to the error estimate.
    return head + tail, err + abs(tail) * (10.0 * max(1.0, lo) / big)


def _capacity_tails(metric: RadialMetric, radii: Sequence[float], p: float,
                    cfg: ToleranceConfig
                    ) -> Tuple[List[float], List[float], List[float]]:
    """Rescaled I_p from each of the strictly increasing radii to infinity.

    The only code that integrates the capacity density.  Node k rescales
    by its own area A_k, and one semi-infinite integral at the last node
    serves all:  J_k = int_{r_k}^{r_{k+1}} g_k + (A_{k+1}/A_k)^(-1/(p-1)) J_{k+1};
    on growing areas the factor can only underflow (p near 1).  I_p
    diverges when the density decays like s^-k with k <= 1; k is read
    between big/10 and big, the anchor of the power-law tail, with the
    slack 4.3e-4 at which a next-decade >= 0.999 * last-decade test flags
    exact power laws.  A density that underflows to 0 converges.

    Returns (A_k, J_k, err_k); every J_k is inf when I_p diverges.
    """
    check_p(p)
    if radii[0] < metric.domain_start - 1e-12:
        raise DomainError(f"rho0={radii[0]} below domain start "
                          f"{metric.domain_start}")
    areas = [metric.area(r) for r in radii]
    if 0.0 in areas:
        raise DomainError(f"sphere at rho={radii[areas.index(0.0)]} has zero area")
    dens = [_cap_integrand(metric, p, a) for a in areas]
    lo = radii[-1]
    big = min(max(cfg.cutoff_radius, 100.0 * lo), 0.999 * metric.r_max)
    if big <= lo:
        raise DomainError(f"metric domain [{lo}, {metric.r_max}] too short "
                          "for capacity")
    near = max(big / 10.0, lo)
    g_big, g_near = dens[-1](big), dens[-1](near)
    if g_big > 0.0 and g_near > 0.0 and (
            math.log(g_near / g_big) <= (1.0 + 4.3e-4) * math.log(big / near)):
        return areas, [math.inf] * len(radii), [0.0] * len(radii)

    tail, err = _integral_to_inf(metric, dens[-1], lo, big, p, cfg)
    tails, errs = [tail], [err]
    for k in range(len(radii) - 2, -1, -1):
        inc, e = integrate(dens[k], radii[k], radii[k + 1], cfg)
        carry = (areas[k + 1] / areas[k]) ** (-1.0 / (p - 1.0))
        tail, err = inc + carry * tail, e + carry * err
        tails.append(tail)
        errs.append(err)
    return areas, tails[::-1], errs[::-1]


def _capacities(metric: RadialMetric, radii: Sequence[float], p: float,
                cfg: ToleranceConfig) -> List[CapacityResult]:
    """Normalized p-capacities of the spheres at strictly increasing radii."""
    if p == 1.0:
        hulls = _outward_hulls(metric, radii, cfg)
        return [CapacityResult(p=1.0, rho0=rho, ncap=hull / FOUR_PI, flux=hull,
                               err_estimate=0.0, parabolic=False, rho_star=star)
                for rho, (star, hull) in zip(radii, hulls)]
    out = []
    for rho, area0, ivalue, ierr in zip(radii,
                                        *_capacity_tails(metric, radii, p, cfg)):
        # unscaled I_p = area0^(-1/(p-1)) * ivalue, so I_p^(1-p) = area0 * ...
        # (0 on a p-parabolic end, where I_p = inf)
        flux = area0 * ivalue ** (1.0 - p)
        ncap = ((p - 1.0) / (3.0 - p)) ** (p - 1.0) * flux / FOUR_PI
        rel = (p - 1.0) * ierr / ivalue if ivalue > 0 else math.inf
        out.append(CapacityResult(p=p, rho0=rho, ncap=ncap, flux=flux,
                                  err_estimate=abs(ncap) * rel,
                                  parabolic=math.isinf(ivalue)))
    return out


def p_capacity(metric: RadialMetric, rho0: float, p: float,
               cfg: ToleranceConfig = DEFAULT_CFG) -> CapacityResult:
    """Normalized p-capacity of the centered sphere at rho0, 1 < p < 3."""
    check_p(p)
    return _capacities(metric, [rho0], p, cfg)[0]


def one_capacity(metric: RadialMetric, rho0: float,
                 cfg: ToleranceConfig = DEFAULT_CFG) -> CapacityResult:
    """1-capacity: least enclosing-sphere area over 4pi (hull area)."""
    return _capacities(metric, [rho0], 1.0, cfg)[0]


def _potential(metric: RadialMetric, rho0: float, p: float,
               cfg: ToleranceConfig, n: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Geometric grid from rho0, its areas, u = I_p(rho)/I_p(rho0) on it and
    the rescaled I_p(rho0).  The grid ends a decade inside a finite domain,
    so that its last node keeps a power-law anchor."""
    hi = min(cfg.cutoff_radius, 0.1 * metric.r_max)
    rhos = np.geomspace(max(rho0, 1e-12), hi, n)
    rhos[0] = rho0
    areas, tails, _ = map(np.array, _capacity_tails(metric, rhos, p, cfg))
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
        ok = lhs <= rhs * (1.0 + 1e-8)
        rows.append(FluxHolderRow(t=t, rho=rho, lhs=lhs, rhs=rhs,
                                  rel_gap=gap, passed=ok))
    return FluxHolderReport(p=p, rho0=rho0, rows=rows,
                            max_rel_gap=max(r.rel_gap for r in rows),
                            all_pass=all(r.passed for r in rows))
