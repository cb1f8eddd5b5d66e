"""Weak inverse mean curvature flow for rotationally symmetric metrics.

The weak flow of a centered sphere stays a centered sphere: at time t it
is the outermost sphere of area hull_area * exp(t) anywhere on the end
(Huisken and Ilmanen 2001).  One area scan from rho0 serves a whole flow;
its envelope, the least area still reachable outward from each node,
gives the hull, a bracket of the radius at every sample time and the
necks the flow jumps over.  One safeguarded Newton pass over all those
brackets gives the sample radii, and the profile's (value, d1, d2) at
each radius gives its sphere data.  Jumps preserve area: the flow leaves
a rising branch at radius s1 and reappears past the neck at the
matching-area radius s2 > s1.

Where the area cannot fall (``RadialMetric.own_hull``) each sphere is its
own hull.  The hull then costs no scan, and a flow brackets its samples
on a 256-node scan: the envelope of a non-decreasing area is the area
itself, so no neck can hide between nodes.  Other metrics scan 8192
nodes.  A neck's bottom is the root of the area's slope, which every
profile gives exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, List, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, InsufficientData, IsocapError
from .geometry import (FOUR_PI, Gauge, RadialMetric, SphereData, Triples,
                       spheres)
from .numerics import (DEFAULT_CFG, ToleranceConfig, extrapolate_limit,
                       find_root, newton_roots)

_SCAN_POINTS = 8192
_OWN_HULL_POINTS = 256  # the scan of a flow from its own hull
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


def _area_grid(metric: RadialMetric, lo: float, hi: float,
               points: int = _SCAN_POINTS) -> Tuple[np.ndarray, np.ndarray]:
    grid = np.geomspace(max(lo, 1e-12), hi, points)
    grid[0] = lo
    return grid, metric.area(grid)


def _suffix_min(areas: np.ndarray) -> np.ndarray:
    """Least area at or past each node: the area still reachable outward."""
    return np.minimum.accumulate(areas[::-1])[::-1]


def _refine_min(metric: RadialMetric, lo: float, hi: float,
                cfg: ToleranceConfig) -> Tuple[float, float]:
    """(rho, area) of the least area on [lo, hi] about a neck bottom: the
    root of the area's slope, a*a' (a = r in the areal gauge), where that
    slope rises through 0 on the bracket, else the end of smaller area.
    Each radius costs one profile call."""
    geodesic = metric.gauge is Gauge.GEODESIC
    seen = {}  # radius -> (a, a')

    def slope(x: float) -> float:
        if x not in seen:
            seen[x] = metric.profile.eval_d2(x)[:2] if geodesic else (x, 1.0)
        return seen[x][0] * seen[x][1]

    s_lo, s_hi = slope(lo), slope(hi)
    x = (find_root(slope, lo, hi, cfg) if s_lo < 0.0 < s_hi
         else min((lo, hi), key=lambda end: abs(seen[end][0])))
    return x, FOUR_PI * seen[x][0] * seen[x][0]


def _read_hull(metric: RadialMetric, grid: np.ndarray, envelope: np.ndarray,
               r: float, cfg: ToleranceConfig) -> Tuple[float, float]:
    """(rho_star, hull_area) of a radius r of a hull scan, read off the
    scan's envelope (its suffix minimum)."""
    j = int(np.searchsorted(grid, r, side="right"))  # first node past r
    base = metric.area(r)  # a scalar call: r is in general not a scan node
    level = min(base, envelope[min(j, len(grid) - 1)]) * (1.0 + 1e-9)
    # the outermost node within level is the last one the envelope admits
    i = int(np.searchsorted(envelope, level, side="right")) - 1
    if i >= j:  # a node past r comes within level: refine the dip there
        dip = _refine_min(metric, max(float(grid[i - 1]), r),
                          float(grid[min(i + 1, len(grid) - 1)]), cfg)
        if dip[1] < base * (1.0 - 1e-12):
            return dip
    return r, base


def _outward_hulls(metric: RadialMetric, radii: Sequence[float],
                   cfg: ToleranceConfig) -> List[Tuple[float, float]]:
    """(rho_star, hull_area) of each of the strictly increasing radii, all
    read off one area scan from the innermost radius.

    No scan is made where each sphere is its own hull: from the end of the
    scan range on, and where the area cannot fall from the innermost
    radius on (``RadialMetric.own_hull``; ``_read_hull`` would return
    (r, area(r)) too).
    """
    metric.check_start(radii[0])
    limit = min(cfg.cutoff_radius, metric.r_max)
    if radii[0] >= limit or metric.own_hull(radii[0]):
        return [(r, metric.area(r)) for r in radii]
    grid, areas = _area_grid(metric, radii[0], limit)
    envelope = _suffix_min(areas)
    return [_read_hull(metric, grid, envelope, r, cfg) for r in radii]


def outward_hull(metric: RadialMetric, rho0: float,
                 cfg: ToleranceConfig = DEFAULT_CFG) -> Tuple[float, float]:
    """Outermost radius minimizing sphere area over [rho0, inf).

    Returns (rho_star, hull_area).  For an area profile that only grows
    this is (rho0, area(rho0)); past a neck it is the bottom of the
    outermost dip at or below area(rho0).  A sphere where the area cannot
    fall (``RadialMetric.own_hull``) is its own hull and costs no scan; any
    other radius below the scan limit costs one 8192-node area scan.
    """
    return _outward_hulls(metric, [rho0], cfg)[0]


def _find_jumps(metric: RadialMetric, grid: np.ndarray, areas: np.ndarray,
                envelope: np.ndarray, hull_area: float, t_max: float,
                cfg: ToleranceConfig) -> List[Jump]:
    """Locate necks the outermost-root rule skips, as area-matched jumps, on
    a scan from the hull whose envelope may reach past its last node."""
    skipped = np.concatenate(([False], areas > envelope * (1.0 + 1e-10),
                              [False]))
    edges = np.flatnonzero(skipped[1:] != skipped[:-1]).tolist()
    jumps: List[Jump] = []
    n = len(grid)
    for i, j in zip(edges[::2], edges[1::2]):
        # run [i, j): the flow jumps over it; the landing neck bottom sits
        # just past index j-1
        lo_b = float(grid[j - 1])
        hi_b = float(grid[min(j + 1, n - 1)])
        s2, area_j = _refine_min(metric, lo_b, hi_b, cfg)
        t_j = math.log(area_j / hull_area)
        if 0.0 < t_j <= t_max:
            lo_r = float(grid[max(i - 2, 0)])
            hi_r = float(grid[i])
            try:
                s1 = find_root(lambda r: metric.area(r) - area_j, lo_r, hi_r, cfg)
            except IsocapError:
                s1 = float(grid[i])
            jumps.append(Jump(t=t_j, rho_before=s1, rho_after=s2))
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

    The hull, the jumps and the radius at each of the n_samples times on
    [0, t_max] are read off the hull scan from rho0.  Where the sphere at
    rho0 is its own hull (``RadialMetric.own_hull``) the hull is
    (rho0, area(rho0)) and the scan has 256 nodes; elsewhere it has 8192.
    Raises DomainError for t_max not positive, n_samples < 1, or a domain
    that ends before the area reaches hull_area * exp(t_max).
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
    own = metric.own_hull(rho0)
    grid, areas = _area_grid(metric, rho0, limit,
                             _OWN_HULL_POINTS if own else _SCAN_POINTS)
    envelope = _suffix_min(areas)
    rho_star, hull_area = ((rho0, metric.area(rho0)) if own else
                           _read_hull(metric, grid, envelope, rho0, cfg))
    times = np.linspace(0.0, t_max, n_samples).tolist()
    targets = [hull_area * math.exp(t) for t in times + [t_max]]
    if areas[-1] < targets[-1]:
        raise DomainError(too_short)

    # the scan from the hull, which replaces the last node before it, up
    # to the first node whose envelope passes 1.02 times the final area; a
    # run of skipped nodes that starts before that node ends before it
    start = int(np.searchsorted(grid, rho_star, side="right")) - 1
    stop = max(start + 1, int(np.searchsorted(envelope, 1.02 * targets[-1],
                                              side="right")))
    grid[start], areas[start] = rho_star, hull_area
    envelope[start] = min(hull_area, envelope[start + 1])
    grid, areas, envelope = (x[start:stop + 1] for x in (grid, areas, envelope))
    cut = stop - start
    jumps = _find_jumps(metric, grid[:cut], areas[:cut], envelope[:cut],
                        hull_area, t_max, cfg)
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
