"""Weak inverse mean curvature flow for rotationally symmetric metrics.

The weak flow of a centered sphere stays a centered sphere: at time t it
is the outermost sphere of area hull_area * exp(t) anywhere on the end
(Huisken and Ilmanen 2001).  The critical points of the area
(``RadialMetric.critical_points``), between which the area is monotone,
give the hull and the necks the flow jumps over; a jump preserves area.
The areas their search probes, past the hull and with the critical radii
as nodes, bracket the radius at every sample time on one monotone piece,
and one safeguarded Newton pass over all the brackets solves them.  Where
the area cannot fall (``RadialMetric.own_hull``) each sphere is its own
hull, no critical point is looked for, and a 256-node area scan from it
gives the brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, List, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, InsufficientData, NoBracket
from .geometry import (FOUR_PI, CriticalPoint, Gauge, RadialMetric,
                       SphereData, Triples, spheres)
from .numerics import (DEFAULT_CFG, ToleranceConfig, extrapolate_limit,
                       find_root, newton_roots)

_FLOW_POINTS = 256  # the scan of a flow from its own hull
_WILLMORE_TAIL = 0.25  # share of the flow samples the Willmore limit reads
GEROCH_TOL = 1e-8  # largest passing Hawking mass drop, over max(1, |m_H|)


@dataclass
class Jump:
    """Instantaneous area-preserving jump of the weak flow."""

    t: float
    rho_before: float
    rho_after: float


@dataclass
class SmoothSegment:
    t_start: float
    t_end: float
    rho_start: float
    rho_end: float


@dataclass
class FlowTrack:
    """Sampled weak inverse mean curvature flow started at rho0."""

    rho0: float
    initial_area: float
    events: List[Union[Jump, SmoothSegment]]
    samples: List[Tuple[float, SphereData]] = field(repr=False)

    @property
    def jumps(self) -> List[Jump]:
        return [e for e in self.events if isinstance(e, Jump)]


@dataclass
class GerochReport:
    monotone: bool
    worst_drop: float
    times: List[float]
    masses: List[float]


def _outward_hulls(metric: RadialMetric, radii: Sequence[float],
                   cfg: ToleranceConfig) -> List[Tuple[float, float]]:
    """(rho_star, hull_area) of each of the strictly increasing radii (see
    ``outward_hull``).  Where the innermost radius is its own hull
    (``RadialMetric.own_hull``) or lies at or past the end of the probe
    range, so is each radius, and no critical point is looked for."""
    metric.check_start(radii[0])
    limit = min(cfg.cutoff_radius, metric.r_max)
    if radii[0] >= limit or metric.own_hull(radii[0]):
        return [(r, metric.area(r)) for r in radii]
    # the end of the probe range, then each area minimum, outermost first
    floors = [(limit, metric.area(limit))] + [
        (p.rho, p.area) for p in reversed(metric.critical_points(cfg)[0])
        if p.minimum]

    def hull(r: float) -> Tuple[float, float]:
        base = (r, metric.area(r))
        dip = min((f for f in floors if f[0] > r), key=lambda f: f[1],
                  default=base)  # the first, outermost, of equal areas
        return dip if dip[1] < base[1] else base
    return [hull(r) for r in radii]


def outward_hull(metric: RadialMetric, rho0: float,
                 cfg: ToleranceConfig = DEFAULT_CFG) -> Tuple[float, float]:
    """Outermost radius minimizing sphere area over [rho0, inf).

    Returns (rho_star, hull_area): the least area among rho0, the area
    minima past it (``RadialMetric.critical_points``) and the end of the
    probe range, min(cutoff_radius, r_max); of equal least areas the
    outermost, unless area(rho0) is no larger.  A sphere where the area
    cannot fall (``RadialMetric.own_hull``) is its own hull and costs no
    search; the critical points are searched once per metric and cfg.
    """
    return _outward_hulls(metric, [rho0], cfg)[0]


def _find_jumps(metric: RadialMetric, points: Sequence[CriticalPoint],
                rho_star: float, hull_area: float, t_max: float,
                cfg: ToleranceConfig) -> List[Jump]:
    """The jumps of a flow from its hull up to t_max.  A jump lands on each
    area minimum past the hull that is lower than every later one, at the
    time its area is reached once above the hull's.  It leaves at the
    first crossing of that area past the previous landing, on the rising
    piece up to the next maximum; NoBracket where no maximum comes first."""
    points = [p for p in points if p.rho > rho_star]
    landings, floor = [], math.inf
    for p in reversed(points):
        if p.minimum and p.area < floor:
            floor = p.area
            if p.area > hull_area:
                landings.append(p)
    jumps, last = [], rho_star
    for land in reversed(landings):
        t = math.log(land.area / hull_area)
        if t > t_max:
            break
        tops = [p.rho for p in points
                if last < p.rho < land.rho and not p.minimum]
        if not tops:  # the area never rose from last to fall onto land
            raise NoBracket(f"no area maximum between {last} and {land.rho}")
        s1 = find_root(lambda r: metric.area(r) - land.area, last, tops[0],
                       cfg)
        jumps.append(Jump(t=t, rho_before=s1, rho_after=land.rho))
        last = land.rho
    return jumps


def _sample_radii(metric: RadialMetric, grid: np.ndarray, areas: np.ndarray,
                  envelope: np.ndarray, targets: np.ndarray,
                  cfg: ToleranceConfig) -> Tuple[List[float], Triples]:
    """The outermost radius of each target area on a scan, and the
    profile's (value, d1, d2) arrays there.

    Past the last node within a target every area exceeds it, so that node
    and the next bracket the radius.  All radii are solved together by
    ``numerics.newton_roots`` on area(rho) = target, with area' = 8*pi*a*a'
    from one ``profile.triple`` call per step, from the secant between the
    bracketing nodes, whose areas the scan already holds.
    """
    k = np.minimum(np.searchsorted(envelope, targets, side="right") - 1,
                   len(grid) - 2)
    lo, hi = grid[k], grid[k + 1]
    below, above = areas[k] - targets, areas[k + 1] - targets
    start = lo - below * (hi - lo) / (above - below)
    geodesic = metric.gauge is Gauge.GEODESIC
    triples = np.empty((3, len(targets)))

    def area_slope(rhos: np.ndarray, ks: np.ndarray):
        v, d1, d2 = metric.profile.triple(rhos)
        triples[:, ks] = v, d1, d2
        a, ap = (v, d1) if geodesic else (rhos, 1.0)
        return FOUR_PI * a * a - targets[ks], 2.0 * FOUR_PI * a * ap

    radii = newton_roots(area_slope, start, lo, hi, cfg)
    return radii.tolist(), triples


def weak_imcf(metric: RadialMetric, rho0: float, t_max: float,
              n_samples: int = 200,
              cfg: ToleranceConfig = DEFAULT_CFG) -> FlowTrack:
    """Run the weak flow from the sphere at rho0 up to time t_max.

    The hull is ``outward_hull``'s, and the jumps come from the same
    critical points; where the sphere at rho0 is its own hull
    (``RadialMetric.own_hull``) the hull is (rho0, area(rho0)) and there
    are none.  The radius at each of the n_samples times on [0, t_max] is
    bracketed on the area probes past the hull with the critical radii as
    nodes (``RadialMetric.critical_points``), or on a 256-node scan from an
    own hull.  Raises DomainError for t_max not positive, n_samples < 1, or a
    domain that ends before the area reaches hull_area * exp(t_max).
    """
    if not t_max > 0.0:
        raise DomainError(f"t_max must be positive, got {t_max}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    # a rho0 below domain_start by the rounding slack starts at
    # domain_start, as spheres would move it: the samples' triples are
    # taken at the radii as solved
    rho0 = metric.check_start(rho0)
    limit = min(cfg.cutoff_radius, metric.r_max)
    too_short = f"metric domain ends before the flow reaches t={t_max}"
    if rho0 >= limit:
        raise DomainError(too_short)
    rho_star, hull_area = _outward_hulls(metric, [rho0], cfg)[0]
    if metric.own_hull(rho0):
        points: Sequence[CriticalPoint] = []
        grid = np.geomspace(max(rho0, 1e-12), limit, _FLOW_POINTS)
        grid[0] = rho0
        areas = metric.area(grid)
    else:
        points, probes, probe_areas = metric.critical_points(cfg)
        # the hull, then the probes and critical radii past it, in order
        past = [(rho_star, hull_area)] + [(p.rho, p.area) for p in points
                                          if p.rho > rho_star]
        at = np.searchsorted(probes, [x for x, _ in past], side="right")
        grid = np.insert(probes, at, [x for x, _ in past])[at[0]:]
        areas = np.insert(probe_areas, at, [y for _, y in past])[at[0]:]
    areas[0] = hull_area
    envelope = np.minimum.accumulate(areas[::-1])[::-1]  # least area past
    times = np.linspace(0.0, t_max, n_samples).tolist()
    targets = [hull_area * math.exp(t) for t in times + [t_max]]
    if areas[-1] < targets[-1]:
        raise DomainError(too_short)
    jumps = _find_jumps(metric, points, rho_star, hull_area, t_max, cfg)
    radii, triples = _sample_radii(metric, grid, areas, envelope,
                                   np.array(targets), cfg)

    events: List[Union[Jump, SmoothSegment]] = []
    if rho_star > rho0 * (1.0 + 1e-12) + 1e-12:
        events.append(Jump(t=0.0, rho_before=rho0, rho_after=rho_star))
    t_start, rho_start = 0.0, rho_star
    for jump in jumps:
        events += [SmoothSegment(t_start, jump.t, rho_start, jump.rho_before),
                   jump]
        t_start, rho_start = jump.t, jump.rho_after
    events.append(SmoothSegment(t_start, t_max, rho_start, radii[-1]))
    samples = list(zip(times, spheres(metric, radii[:-1], cfg,
                                      [x[:-1] for x in triples])))
    return FlowTrack(rho0=rho0, initial_area=hull_area,
                     events=events, samples=samples)


def geroch_check(track: FlowTrack) -> GerochReport:
    """Verify Hawking-mass monotonicity along the sampled flow."""
    times = [t for t, _ in track.samples]
    masses = [d.hawking_mass for _, d in track.samples]
    worst = 0.0
    for a, b in zip(masses, masses[1:]):
        worst = max(worst, a - b)
    scale = max(1.0, max(abs(m) for m in masses))
    return GerochReport(monotone=worst <= GEROCH_TOL * scale, worst_drop=worst,
                        times=times, masses=masses)


def willmore_limit(track: FlowTrack,
                   cfg: ToleranceConfig = DEFAULT_CFG) -> Tuple[float, float]:
    """Extrapolated limit of the Willmore energy along the flow.

    For an asymptotically flat end the limit is 16*pi.  Returns (limit,
    err_estimate).
    """
    n = len(track.samples)
    k = max(cfg.extrap_terms, math.ceil(_WILLMORE_TAIL * n))
    if n < cfg.extrap_terms:
        raise InsufficientData(f"flow track has only {n} samples")
    tail = track.samples[n - k:]
    seq = [(t, d.willmore) for t, d in tail]
    return extrapolate_limit(seq, cfg)


def flow_to_csv(track: FlowTrack, stream: IO[str]) -> None:
    """Write the sampled flow as CSV.

    Columns: t, rho, area, volume, H, m_H, willmore, R, jump_flag.  The
    jump flag marks the first sample at or after each jump time.
    """
    jump_times = [j.t for j in track.jumps if j.t > 0.0]
    stream.write("t,rho,area,volume,H,m_H,willmore,R,jump_flag\n")
    pending = list(jump_times)
    for t, d in track.samples:
        flag = 0
        while pending and t >= pending[0] - 1e-15:
            flag = 1
            pending.pop(0)
        row = [t, d.rho, d.area, d.volume, d.mean_curvature,
               d.hawking_mass, d.willmore, d.scalar_curvature]
        stream.write(",".join("%.17g" % v for v in row) + f",{flag}\n")
