"""Rotationally symmetric 3-metrics and per-sphere geometric quantities.

A metric is specified by a single radial profile in one of two gauges:

* geodesic gauge:  g = d(rho)^2 + a(rho)^2 * (round unit sphere),
* areal gauge:     g = f(r)^(-1) dr^2 + r^2 * (round unit sphere).

Closed-form warped-product curvature identities (validated in the test
suite against finite differences):

    geodesic: area = 4*pi*a^2        areal: area = 4*pi*r^2
              H    = 2*a'/a                 H    = 2*sqrt(f)/r
              m_H  = (a/2)*(1-a'^2)         m_H  = (r/2)*(1-f)
              R    = 2*(1-a'^2-2*a*a'')/a^2 R    = 2*(1-f-r*f')/r^2

Volumes are measured from ``domain_start`` (``RadialMetric.volumes``): a
converted or generated metric, or a scaled copy of one, reads them off a
series on the panels of a(rho); any other sums Gauss-Legendre panels on
edges fixed by the metric's variable alone, so the volume at a radius
never depends on the other radii asked.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import numerics, profiles
from .errors import (ConfigError, DomainError, EvalError, IsocapError,
                     NonConvergence, NonIntegrableThroat)
from .numerics import DEFAULT_CFG, ToleranceConfig, find_root

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi
# |f| (areal) or a'^2 (geodesic) up to which H = 0 (``_is_minimal``), so
# that f rounded slightly below 0 at a throat still counts as 0
_THROAT_TOL = 1e-10
# the first panel edge past 0 of ``RadialMetric.volumes``; the edges double
_VOLUME_EDGE = 2.0 ** -6


class Gauge(enum.Enum):
    GEODESIC = "geodesic"
    AREAL = "areal"


# ---------------------------------------------------------------------------
# Profiles: three forms of one radial function.
#   eval_d2(r)  -> (value, d1, d2) at one radius, on Python floats;
#   values(rs)  -> the value at each radius of a 1-D array;
#   triple(rs)  -> the arrays (value, d1, d2) at each radius of a 1-D array.
# Each element of values and triple has the bits of eval_d2 at its radius.
# Area scans, volume panels and the conversion's build call values once per
# array; sphere data, critical-point probes and the flow's Newton steps call
# triple once per array.  A family supplies eval_d2 and one hook,
# _arrays(rs, parts), which computes the first parts (1 or 3) of the arrays
# with in-repo code (a numerics.PanelSeries for tables, conversions and
# generated metrics, whose array read raises the error of the first radius
# out of its range), or returns None where some radius fails; _Profile then
# runs eval_d2 radius by radius, which raises the error of the first
# failing radius.

Triples = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _mapped(fn: Callable[[float], Tuple[float, float, float]],
            rs: np.ndarray) -> Triples:
    """(value, d1, d2) arrays of a scalar callable, one call per radius."""
    return tuple(np.array([fn(float(r)) for r in rs],
                          dtype=float).reshape(-1, 3).T)


class _Profile:
    """The array forms of a profile, from its hook ``_arrays``.  A profile
    that carries a volume map sets ``volumes`` to a function from a list
    of radii, at or past domain_start, to the volume enclosed at each; one
    of a geodesic metric whose area never falls (``RadialMetric.own_hull``)
    sets ``radius_of`` to the inverse of a(rho) on a 1-D array."""

    r_max = math.inf
    volumes: Optional[Callable[[Sequence[float]], List[float]]] = None
    radius_of: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def values(self, rs: np.ndarray) -> np.ndarray:
        out = self._arrays(rs, 1)
        return _mapped(self.eval_d2, rs)[0] if out is None else out[0]

    def triple(self, rs: np.ndarray) -> Triples:
        out = self._arrays(rs, 3)
        return _mapped(self.eval_d2, rs) if out is None else out


class ExprProfile(_Profile):
    """Profile backed by a parsed expression plus parameter bindings."""

    def __init__(self, expr: profiles.ProfileExpr, params: Optional[dict] = None):
        if isinstance(expr, str):
            expr = profiles.parse(expr)
        self.expr = expr
        self.params = dict(params or {})
        unbound = expr.names() - set(self.params)
        if unbound:
            raise ConfigError(f"undeclared parameters: {sorted(unbound)}")
        self._compiled = profiles.compile(expr, self.params)
        self._arrays = self._compiled.array

    def eval_d2(self, r: float) -> Tuple[float, float, float]:
        return self._compiled(r)

    def describe(self) -> str:
        text = profiles.to_text(self.expr)
        if self.params:
            binds = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{text}[{binds}]"
        return text


class FuncProfile(_Profile):
    """Profile backed by a callable returning (value, d1, d2), plus the
    hook ``arrays(rs, parts)`` and the maps of ``_Profile``."""

    def __init__(self, fn: Callable[[float], Tuple[float, float, float]],
                 arrays: Callable[[np.ndarray, int], Optional[tuple]],
                 label: str = "func", r_max: float = math.inf,
                 volumes: Optional[Callable] = None, radius_of: Optional[Callable] = None):
        self.fn, self._arrays, self.label, self.r_max = fn, arrays, label, r_max
        self.volumes, self.radius_of = volumes, radius_of

    def eval_d2(self, r: float) -> Tuple[float, float, float]:
        return self.fn(r)

    def describe(self) -> str:
        return self.label


class TableProfile(_Profile):
    """Monotone piecewise cubic interpolation of tabulated (radius, value)
    pairs: the cubic Hermite form on a one-row ``numerics.PanelSeries``,
    with the node slopes of ``numerics.pchip_slopes`` (Fritsch and Carlson
    1980), computed once.  It preserves the monotonicity of the data
    between nodes; its first derivative is continuous and its second is
    not, so curvatures that use f' or a'' are less accurate than values.
    Radii and values must be finite (ConfigError otherwise)."""

    def __init__(self, radii: Sequence[float], values: Sequence[float],
                 label: str = "table"):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 4:
            raise ConfigError("table profile needs >= 4 (radius, value) rows")
        if not (np.isfinite(radii).all() and np.isfinite(values).all()):
            raise ConfigError("table radii and values must be finite")
        h = np.diff(radii)
        if np.any(h <= 0):
            raise ConfigError("table radii must be strictly increasing")
        dy, slopes = np.diff(values), numerics.pchip_slopes(radii, values)
        d0, d1 = h * slopes[:-1], h * slopes[1:]
        coeffs = np.stack((np.zeros_like(h), d0, 3.0 * dy - 2.0 * d0 - d1,
                           d0 + d1 - 2.0 * dy), axis=-1)
        self.series = numerics.PanelSeries(radii, radii[:-1], h, values[None],
                                           coeffs[None], "table")
        self.r_max = float(radii[-1])
        self.label = label

    def _arrays(self, r, parts: int) -> tuple:
        """The first parts of (value, d1, d2) at a float or a 1-D array."""
        p, t = self.series.at(r)
        h, y0, (_, d0, c2, c3) = self.series.local(p)
        v = y0 + t * (d0 + t * (c2 + t * c3))
        if parts == 1:
            return (v,)
        return v, (d0 + t * (2.0 * c2 + 3.0 * t * c3)) / h, (2.0 * c2 + 6.0 * t * c3) / (h * h)

    def eval_d2(self, r: float) -> Tuple[float, float, float]:
        return self._arrays(float(r), 3)

    def describe(self) -> str:
        return self.label


# ---------------------------------------------------------------------------
# Domain types

@dataclass
class SphereData:
    """Geometric quantities of the centered sphere at coordinate radius rho."""

    rho: float
    area: float
    volume: float
    mean_curvature: float
    hawking_mass: float
    willmore: float
    scalar_curvature: float


class CriticalPoint(NamedTuple):
    """A radius where the area slope a*a' changes sign, and its area."""

    rho: float
    area: float  # 0.0 where a itself changes sign (a pole)
    minimum: bool  # the area falls to rho and rises past it


@dataclass
class HypothesisReport:
    scalar_curvature_nonneg: bool
    worst_scalar_violation: Optional[Tuple[float, float]]  # (value, radius)
    no_interior_minimal: bool
    offending_radii: List[float]
    minimal_boundary: bool
    radial_isoperimetric_constant: float
    probe_grid: List[float]


@dataclass
class RadialMetric:
    """A rotationally symmetric 3-metric given by a radial profile."""

    gauge: Gauge
    profile: object
    domain_start: float
    label: str = ""
    # the area never falls from this radius on (see own_hull); set by the
    # constructors that know it, never by a caller
    _hull_from: float = field(default=math.inf, init=False, repr=False)
    _critical: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not self.label:
            self.label = f"{self.gauge.value}:{self.profile.describe()}"
        if self.gauge is Gauge.AREAL:  # 4*pi*r^2 grows from r = 0 on
            self._hull_from = 0.0

    def own_hull(self, rho: float) -> bool:
        """Whether the sphere at rho is its own outward-minimizing hull
        because the area cannot fall from rho on: an areal sphere at
        r >= 0, any sphere of a ``mass_profile_metric`` (a' >= 0, a0 > 0)
        or of ``to_geodesic`` of an areal metric from r_min >= 0 (a = r
        with a' = sqrt(f) >= 0), and ``scaled`` copies of these.  Each maps
        an area A to its radius exactly: sqrt(A/4pi) in the areal gauge,
        ``_Profile.radius_of`` at a = sqrt(A/4pi) otherwise."""
        return rho >= self._hull_from

    @property
    def r_max(self) -> float:
        return self.profile.r_max

    def critical_points(self, cfg: ToleranceConfig = DEFAULT_CFG
                        ) -> Tuple[List[CriticalPoint], np.ndarray, np.ndarray]:
        """The critical points of the area in increasing radius, the probes
        read for them and the area there (read-only), searched once per cfg:
        the sign changes of a*a' (a = r, a' = 1 in the areal gauge) between
        probes, refined by ``numerics.find_root``.  8192 probes are evenly
        spaced in log rho from max(domain_start, 1e-6) to min(cutoff_radius,
        r_max), after domain_start below 1e-6, and 7 more split each pair
        whose cubic through a and a' turns back although a' keeps its sign.
        a' = 0 counts with the sign before it: a plateau between opposite
        signs is a critical point at its outer end, one between equal signs
        (the cylinder's a' = 0 throughout) none.  A pole (a changes sign)
        has area 0."""
        if cfg not in self._critical:
            self._critical[cfg] = _area_probes(self, cfg)
        return self._critical[cfg]

    def check_start(self, rho: float) -> float:
        """Raise DomainError for a radius that is not finite, or below
        domain_start by more than the rounding slack 1e-12; else return
        max(rho, domain_start)."""
        if not math.isfinite(rho):
            raise DomainError(f"rho={rho} is not finite")
        if rho < self.domain_start - 1e-12:
            raise DomainError(f"rho={rho} below domain start {self.domain_start}")
        return max(rho, self.domain_start)

    def area(self, rho: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Area of the sphere at rho, or of each sphere of a 1-D radius array."""
        if self.gauge is Gauge.AREAL:
            return FOUR_PI * rho * rho
        a = (self.profile.values(rho) if isinstance(rho, np.ndarray)
             else self.profile.eval_d2(rho)[0])
        return FOUR_PI * a * a

    @functools.cached_property
    def _xi_density(self) -> Callable[[np.ndarray], np.ndarray]:
        """Areal gauge: xi -> d(arclength)/d(xi) = 2*xi/sqrt(f) at
        r = domain_start + xi^2, on a 1-D array of xi.

        The density is smooth through a simple zero of f at domain_start (a
        throat): within 1e-5 of it, f = (r-r_min) * f/(r-r_min) with the
        ratio from the quadratic Taylor model, since direct evaluation of f
        cancels catastrophically there.  Where f <= 0 the density is 0.
        Built once per metric.  Raises EvalError when f(domain_start) < 0,
        NonIntegrableThroat when f vanishes at domain_start to order 2 or
        more.
        """
        r_min = self.domain_start
        f0, f0_d1, f0_d2 = self.profile.eval_d2(r_min)
        if f0 < -_THROAT_TOL:
            raise EvalError(f"areal coefficient f({r_min}) = {f0} < 0")
        has_throat = abs(f0) <= _THROAT_TOL
        if has_throat:
            # Check the throat is an integrable inverse square root:
            # f ~ c*(r-r_min)^beta needs beta < 2.
            d1, d2 = 1e-6 * max(1.0, r_min), 2e-6 * max(1.0, r_min)
            f1 = self.profile.eval_d2(r_min + d1)[0]
            f2 = self.profile.eval_d2(r_min + d2)[0]
            if f1 <= 0.0 or f2 <= 0.0:
                raise NonIntegrableThroat("f does not become positive off the throat")
            beta = math.log(f2 / f1) / math.log(2.0)
            if beta >= 1.95:
                raise NonIntegrableThroat(
                    f"f vanishes to order {beta:.2f} >= 2 at r={r_min}")
        taylor_band = 1e-5 * max(1.0, r_min) if has_throat else 0.0

        def density(xi: np.ndarray) -> np.ndarray:
            h = xi * xi
            f = self.profile.values(r_min + h)
            near = np.minimum(h, taylor_band)  # no overflow where unused
            f = np.where(h < taylor_band, (f0_d1 + 0.5 * f0_d2 * near) * near, f)
            return 2.0 * xi / np.sqrt(np.where(f > 0.0, f, np.inf))

        return density

    def volume(self, rho: float, cfg: ToleranceConfig = DEFAULT_CFG) -> float:
        """Volume enclosed between domain_start and rho; see ``volumes``."""
        return self.volumes((rho,), cfg)[0]

    def volumes(self, rhos: Sequence[float],
                cfg: ToleranceConfig = DEFAULT_CFG) -> List[float]:
        """Volume enclosed between domain_start and each radius of rhos.

        A profile with a volume map (``_Profile.volumes``; converted and
        generated metrics and their scaled copies) reads them off it, an
        EvalError past r_max.  Otherwise the volume is integrated in
        t = rho - domain_start (geodesic gauge, density 4*pi*a^2) or
        t = xi (areal gauge, density 4*pi*r^2 * ``_xi_density``) on panels
        with the fixed edges 0, E, 2E, 4E, ... (E = ``_VOLUME_EDGE``): a
        radius' volume is the running sum of the whole panels below its t
        plus the panel from the last edge below t to t.  One
        ``numerics.gauss_legendre`` call, with one ``profile.values`` call,
        sums all panels, each by itself, and ``np.cumsum`` adds the whole
        ones in order, so each volume has the bits of its radius alone,
        whatever the other radii, their order or earlier calls.  A volume
        that overflows, or a density or panel sum on the way to it, raises
        DomainError naming the least radius whose volume does; a quadrature
        that fails past an areal metric's interior minimal sphere raises
        DomainError naming that sphere (``_check_reach``).  The density
        ignores ``profiles.NonSmoothTie``: a value at a min/max tie is
        exact, and only its derivatives are one-sided.
        """
        rhos = [self.check_start(rho) for rho in rhos]
        if self.profile.volumes is not None:
            return self.profile.volumes(rhos)
        t = np.array(rhos, dtype=float) - self.domain_start
        if self.gauge is Gauge.AREAL:
            t = np.sqrt(t)
        inside = t > 0.0
        if not inside.any():
            return [0.0] * len(rhos)
        top = max(math.frexp(float(t.max()) / _VOLUME_EDGE)[1], 0)
        edges = np.append(0.0, _VOLUME_EDGE * 2.0 ** np.arange(top + 1))
        k = np.searchsorted(edges, t[inside])  # edges[k-1] < t <= edges[k]
        whole = int(k.max()) - 1  # the panels below the last partial one
        vols = np.zeros(len(rhos))
        density = self._volume_density()  # f' and f'' at a throat may warn
        try:
            with np.errstate(over="raise"), warnings.catch_warnings():
                warnings.simplefilter("ignore", profiles.NonSmoothTie)
                sums = numerics.gauss_legendre(
                    density, np.append(edges[:whole], edges[k - 1]),
                    np.append(edges[1:whole + 1], t[inside]), cfg)
                below = np.append(0.0, np.cumsum(sums[:whole]))
                vols[inside] = below[k - 1] + sums[whole:]
        except FloatingPointError:
            for rho in sorted(rhos)[:-1]:  # the least radius that overflows
                self.volumes((rho,), cfg)
            raise DomainError(f"volume of the sphere at rho={max(rhos)!r} "
                              "overflows") from None
        except NonConvergence:
            _check_reach(self, max(rhos), cfg)
            raise
        return vols.tolist()

    def _volume_density(self) -> Callable[[np.ndarray], np.ndarray]:
        """The volume density in the variable t of ``volumes``."""
        start = self.domain_start
        if self.gauge is Gauge.GEODESIC:
            def density(t: np.ndarray) -> np.ndarray:
                a = self.profile.values(start + t)
                return FOUR_PI * a * a
            return density
        xi_density = self._xi_density

        def density(t: np.ndarray) -> np.ndarray:
            r = start + t * t
            return FOUR_PI * r * r * xi_density(t)
        return density


# ---------------------------------------------------------------------------
# Per-sphere quantities

def spheres(metric: RadialMetric, radii: Sequence[float],
            cfg: ToleranceConfig = DEFAULT_CFG,
            triples: Optional[Triples] = None) -> List[SphereData]:
    """All SphereData fields of the centered sphere at each radius.

    The profile's (a, a', a'') or (f, f', f'') at the radii come from one
    ``profile.triple`` call, or from ``triples`` when the caller already
    has them, and the volumes from one ``RadialMetric.volumes`` call.  On a
    gauge-converted metric without ``triples``, one solve gives both.  A
    single radius takes ``eval_d2``, with the same bits: numpy's per-call
    overhead makes a one-element array cost more than the scalar path.  An
    areal f at domain_start within _THROAT_TOL below 0 counts as 0 (a
    throat); any other f < 0 raises EvalError.
    """
    radii = [metric.check_start(rho) for rho in radii]
    vols = None
    if triples is None and isinstance(metric.profile, _ConvertedProfile):
        rows, vols = metric.profile.spheres(radii)
    elif triples is None and len(radii) == 1:
        rows = [metric.profile.eval_d2(radii[0])]
    else:
        if triples is None:
            triples = metric.profile.triple(np.array(radii, dtype=float))
        rows = zip(*(x.tolist() for x in triples))
    fields = []  # every field but the volume, each sphere checked first
    for rho, (v, d1, d2) in zip(radii, rows):
        a = v if metric.gauge is Gauge.GEODESIC else rho
        area = FOUR_PI * a * a
        if area == 0.0:
            raise DomainError(f"sphere at rho={rho} has zero area")
        if metric.gauge is Gauge.GEODESIC:
            ap, app = d1, d2
            H = 2.0 * ap / a
            willmore = SIXTEEN_PI * ap * ap
            m_H = 0.5 * a * (1.0 - ap * ap)
            R = 2.0 * (1.0 - ap * ap - 2.0 * a * app) / (a * a)
        else:
            f, fp = v, d1
            if -_THROAT_TOL <= f < 0.0 and rho == metric.domain_start:
                f = 0.0  # a throat, where f rounds below 0
            if f < 0.0:
                raise EvalError(f"areal coefficient f({rho}) = {f} < 0")
            H = 2.0 * math.sqrt(f) / rho
            willmore = SIXTEEN_PI * f
            m_H = 0.5 * rho * (1.0 - f)
            R = 2.0 * (1.0 - f - rho * fp) / (rho * rho)
        fields.append((rho, area, H, m_H, willmore, R))
    if vols is None:
        vols = metric.volumes(radii, cfg)
    return [SphereData(rho, area, vol, H, m_H, willmore, R)
            for (rho, area, H, m_H, willmore, R), vol in zip(fields, vols)]


def sphere_data(metric: RadialMetric, rho: float,
                cfg: ToleranceConfig = DEFAULT_CFG) -> SphereData:
    """All SphereData fields of the centered sphere at radius rho."""
    return spheres(metric, (rho,), cfg)[0]


# ---------------------------------------------------------------------------
# Gauge conversion

# geometric panels of xi between the first offset and the conversion limit,
# about 17 per decade, where the inverse's first guess misses a by < 5e-8
_XI_PANELS = 134


class _ConvertedProfile(_Profile):
    """Geodesic warping a(rho) obtained from an areal coefficient f(r).

    The conversion works in xi = sqrt(r - r_min), the variable of the areal
    metric's ``_xi_density``, which stays smooth through a simple zero of f
    at r_min.  The build splits xi into ``_XI_PANELS`` geometric panels up
    to min(cutoff_radius, r_max), halving those that need it
    (``numerics.legendre_panels``), and keeps two maps of xi, both from one
    set of density samples, as the rows of one ``numerics.PanelSeries``:
    the arclength rho(xi), the integral of that density, and the enclosed
    volume V(xi), the integral of 4*pi*r^2 times it.  Near a throat both
    maps carry the error of the quadratic Taylor band of ``_xi_density``,
    up to about 1e-11 relative, and it cancels because they share their
    samples.

    The sphere at rho has r = a(rho) = r_min + xi^2 where the series'
    ``solve`` inverts the arclength (no quadrature and no profile call),
    and its volume is the other row read there: ``volumes`` and
    ``spheres`` read both, on a Python float for one radius and on an
    array for many, with equal bits.  ``radius_of`` reads rho(xi) forward
    at xi = sqrt(a - r_min).  Derivatives use the closed forms
    a' = sqrt(f(a)), a'' = f'(a)/2, exact along the gauge change, from one
    parent call: ``eval_d2`` for one radius, ``triple`` for many.
    """

    def __init__(self, areal: RadialMetric, cfg: ToleranceConfig):
        self._areal = areal
        r_min = areal.domain_start
        span = min(cfg.cutoff_radius, areal.r_max)
        first = max(1e-8, 1e-8 * max(1.0, r_min))
        if not first < span - r_min:
            raise DomainError(f"domain start {r_min} leaves no range to convert "
                              f"below min(cutoff_radius, r_max) = {span}")
        self._density = areal._xi_density
        offsets = np.geomspace(first, span - r_min, _XI_PANELS)
        xi = np.sqrt(np.concatenate(([r_min], r_min + offsets)) - r_min)
        try:
            panels = numerics.legendre_panels(self._map_density, xi[:-1], xi[1:], cfg)
        except NonConvergence:
            _check_reach(areal, span, cfg)
            raise
        self.series = numerics.PanelSeries.integral(*panels, (0.0, 0.0), "converted")
        if not np.all(np.diff(self.series.nodes[0]) > 0):
            raise NonIntegrableThroat("arclength map is not strictly increasing")
        self.r_max = float(self.series.nodes[0, -1])

    def _map_density(self, xi: np.ndarray) -> np.ndarray:
        """d(rho)/d(xi) and dV/d(xi) at each xi of a 1-D array, as two rows."""
        d = self._density(xi)
        r = self._areal.domain_start + xi * xi
        return np.stack((d, FOUR_PI * r * r * d))

    def _radius(self, rho):
        """a(rho) and the series' piece and t, at a float or a 1-D array."""
        p, t = self.series.solve(rho)
        xi = self.series.point(p, t)
        return self._areal.domain_start + xi * xi, p, t

    def radius_of(self, a: np.ndarray) -> np.ndarray:
        xi = np.sqrt(np.maximum(a - self._areal.domain_start, 0.0))
        return self.series.read(*self.series.at(xi))

    def _arrays(self, rhos: np.ndarray, parts: int) -> Optional[tuple]:
        """``_triple`` at each rho of an array, from one array solve."""
        try:
            return self._triples(self._radius(np.asarray(rhos, dtype=float))[0])[:parts]
        except IsocapError:  # the scalar path raises its first error
            return None

    def _triple(self, r: float) -> Tuple[float, float, float]:
        f, fp = self._areal.profile.eval_d2(r)[:2]
        return r, math.sqrt(max(f, 0.0)), 0.5 * fp

    def _triples(self, r: np.ndarray) -> Triples:
        """``_triple`` at each r of an array, from one parent ``triple``."""
        f, fp = self._areal.profile.triple(r)[:2]
        # np.where keeps max's -0.0, which np.maximum turns into 0.0
        return r, np.sqrt(np.where(f < 0.0, 0.0, f)), 0.5 * fp

    def eval_d2(self, rho: float) -> Tuple[float, float, float]:
        return self._triple(self._radius(float(rho))[0])

    def solve_list(self, rhos: Sequence[float]) -> Tuple[List[float], List[float]]:
        """a(rho) and the enclosed volume at each rho of a list: on Python
        floats for one radius, by one array solve for more.  The volume at
        rho = 0, the inner boundary, is exactly 0."""
        one = len(rhos) == 1
        rho = float(rhos[0]) if one else np.array(rhos, dtype=float)
        r, p, t = self._radius(rho)
        vol = self.series.read(p, t, 1)
        if one:
            return [r], [vol if rho > 0.0 else 0.0]
        return r.tolist(), np.where(rho > 0.0, vol, 0.0).tolist()

    def volumes(self, rhos: Sequence[float]) -> List[float]:
        return self.solve_list(rhos)[1]

    def spheres(self, rhos: Sequence[float]
                ) -> Tuple[List[Tuple[float, float, float]], List[float]]:
        """(a, a', a'') and the enclosed volume at each rho, from one solve
        and, for two or more radii, one parent ``triple`` call."""
        r, vol = self.solve_list(rhos)
        if len(r) == 1:
            return [self._triple(r[0])], vol
        return list(zip(*(x.tolist() for x in self._triples(np.array(r))))), vol

    def describe(self) -> str:
        return f"geodesic({self._areal.profile.describe()})"


def to_geodesic(metric: RadialMetric,
                cfg: ToleranceConfig = DEFAULT_CFG) -> RadialMetric:
    """Convert an areal-gauge metric to the geodesic gauge.

    Raises NonIntegrableThroat when the arclength to the inner boundary
    diverges, DomainError when domain_start leaves no range below
    min(cutoff_radius, r_max) to convert or an interior minimal sphere
    below it puts the spheres past it at infinite distance.
    """
    if metric.gauge is Gauge.GEODESIC:
        return metric
    prof = _ConvertedProfile(metric, cfg)
    out = RadialMetric(gauge=Gauge.GEODESIC, profile=prof, domain_start=0.0,
                       label=f"geodesic<{metric.label}>")
    if metric.own_hull(metric.domain_start):  # rho(r) keeps r's order
        out._hull_from = 0.0
    return out


# ---------------------------------------------------------------------------
# Minimal spheres and hypothesis checks

_AREA_PROBES = 8192  # critical points: sign changes of a*a', one per interval
_PROBES = 256  # curvature, volume and validity probes
SCALAR_CURVATURE_FLOOR = -1e-10  # least R at a probe that counts as R >= 0


def _probe_grid(metric: RadialMetric, cfg: ToleranceConfig,
                n: int) -> np.ndarray:
    lo = max(metric.domain_start, 1e-6)
    hi = min(cfg.cutoff_radius, metric.r_max)
    grid = np.geomspace(lo, hi, n)
    if metric.domain_start < lo:
        grid = np.concatenate(([metric.domain_start], grid))
    return grid


def _turns(x: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The i where the cubic through a and its slope d at x[i] and x[i+1]
    turns back between them although d has one strict sign at both: the
    cubic's slope d0 + b*t + c*t^2 dips below 0 on t in [0, 1] (Fritsch and
    Carlson 1980), which needs d0 + d1 > 3*m, m the secant slope."""
    m = np.diff(a) / np.diff(x)
    i = np.flatnonzero((d[:-1] + d[1:] - 3.0 * m) * d[:-1] > 0.0)
    s = np.sign(d[i])
    d0, d1, m = s * d[i], s * d[i + 1], s * m[i]
    c = 3.0 * (d0 + d1 - 2.0 * m)
    b = d1 - d0 - c
    return i[(d1 > 0.0) & (0.0 < -b) & (-b < 2.0 * c) & (4.0 * c * d0 < b * b)]


def _area_probes(metric: RadialMetric, cfg: ToleranceConfig
                 ) -> Tuple[List[CriticalPoint], np.ndarray, np.ndarray]:
    """``RadialMetric.critical_points``, computed."""
    grid = _probe_grid(metric, cfg, _AREA_PROBES)
    geodesic = metric.gauge is Gauge.GEODESIC
    a, ap = (metric.profile.triple(grid)[:2] if geodesic
             else (grid, np.ones_like(grid)))
    i = _turns(grid, a, ap)  # never where a = r, the areal gauge
    if len(i):  # a neck may hide between these probes: probe inside
        sub = np.ravel(grid[i, None] + (grid[i + 1] - grid[i])[:, None]
                       * np.arange(1.0, 8.0) / 8.0)
        order = np.argsort(np.concatenate((grid, sub)), kind="stable")
        grid, a, ap = (np.concatenate(z)[order] for z in zip(
            (grid, a, ap), (sub, *metric.profile.triple(sub)[:2])))
    sign = np.sign(a * ap)

    def area_slope(x: float) -> float:
        return math.prod(metric.profile.eval_d2(x)[:2]) if geodesic else x
    points, last = [], None  # last: the last probe where a*a' != 0
    for k in np.flatnonzero(sign[:-1] != sign[1:]).tolist():
        last = k if sign[k] else last
        if last is None or sign[k + 1] in (0.0, sign[last]):
            continue
        before = float(sign[last])
        rho = find_root(lambda x: area_slope(x) or before,
                        float(grid[last]), float(grid[k + 1]), cfg)
        pole = (a[last] < 0.0) != (a[k + 1] < 0.0)  # a changes sign, not a'
        points.append(CriticalPoint(rho, 0.0 if pole else metric.area(rho),
                                    before < 0.0))
    areas = FOUR_PI * a * a
    grid.flags.writeable = areas.flags.writeable = False
    return points, grid, areas


def find_minimal_spheres(metric: RadialMetric,
                         cfg: ToleranceConfig = DEFAULT_CFG) -> List[float]:
    """Radii of all centered minimal spheres (H = 0), boundary included.

    One rule (``_is_minimal``) decides at domain_start in both gauges, so
    a metric and its ``to_geodesic`` test the same number f(r_min), and at
    the sign changes of f' between the probes of ``critical_points``,
    where an areal f >= 0 can vanish only tangentially.  A geodesic
    metric's other minimal spheres are its critical points with a != 0.
    """
    start = metric.domain_start
    v, d1 = (float(x[0]) for x in metric.profile.triple(np.array([start]))[:2])
    if metric.gauge is Gauge.GEODESIC:
        roots = [start] if _is_minimal(v, d1 * d1) else []
        roots += [p.rho for p in metric.critical_points(cfg)[0]
                  if p.area != 0.0]
    else:
        roots = [start] if _is_minimal(start, v) else []
        grid = _probe_grid(metric, cfg, _AREA_PROBES)
        grid = grid[grid >= max(start, 1e-12)]
        d1 = metric.profile.triple(grid)[1]
        for i in np.flatnonzero(np.sign(d1[:-1]) * np.sign(d1[1:]) < 0):
            rc = find_root(lambda s: metric.profile.eval_d2(s)[1],
                           float(grid[i]), float(grid[i + 1]), cfg)
            if _is_minimal(rc, metric.profile.eval_d2(rc)[0]):
                roots.append(rc)
    return [r for r, before in zip(roots, [-math.inf] + roots)  # increasing
            if r - before > 1e-6 * max(1.0, r)]


def _check_reach(metric: RadialMetric, reach: float,
                 cfg: ToleranceConfig) -> None:
    """On the error path of a quadrature that reached reach: raise
    DomainError naming an areal metric's first interior minimal sphere at
    or below reach, if it has one.  f vanishes there to order 2 when
    smooth, so the spheres past it lie at infinite distance.  Where the
    search itself fails, the quadrature's error stands."""
    if metric.gauge is not Gauge.AREAL:
        return
    try:
        inner = [r for r in find_minimal_spheres(metric, cfg)
                 if metric.domain_start < r <= reach]
    except IsocapError:
        return
    if inner:
        raise DomainError(f"interior minimal sphere at r={inner[0]!r}: the "
                          "spheres past it lie at infinite distance") from None


def _is_minimal(a: float, h2: float) -> bool:
    """H = 0 on the sphere of area radius a > 0 (a = 0 is a pole) where
    h2 = (H*a/2)^2, a'^2 geodesic and f areal, is within _THROAT_TOL of 0."""
    return a != 0.0 and abs(h2) <= _THROAT_TOL


def check_hypotheses(metric: RadialMetric,
                     cfg: ToleranceConfig = DEFAULT_CFG) -> HypothesisReport:
    """Grid-based certificate for the hypotheses of mass equivalence.

    The boundary is minimal when ``find_minimal_spheres`` finds
    domain_start; any other minimal sphere is interior.  The spheres past
    an areal metric's first interior one, where f vanishes to order 2 when
    smooth, lie at infinite distance: the probes stop before it.  The
    isoperimetric constant is estimated over radial competitors only
    (centered spheres); it is an upper bound certificate, not a proof.
    """
    start = metric.domain_start
    minimal = find_minimal_spheres(metric, cfg)
    interior_minimal = [r for r in minimal if r != start]
    grid = _probe_grid(metric, cfg, _PROBES)
    if metric.gauge is Gauge.AREAL and interior_minimal:
        grid = grid[grid < interior_minimal[0]]
    interior = [s for s in grid if s > start + abs(start) * 1e-9]
    worst: Optional[Tuple[float, float]] = None
    kappa = math.inf
    for data in spheres(metric, interior, cfg):
        if data.scalar_curvature < SCALAR_CURVATURE_FLOOR and \
                (worst is None or data.scalar_curvature < worst[0]):
            worst = (data.scalar_curvature, data.rho)
        if data.volume > 0.0:
            kappa = min(kappa, data.area ** 3 / data.volume ** 2)
    return HypothesisReport(
        scalar_curvature_nonneg=worst is None,
        worst_scalar_violation=worst,
        no_interior_minimal=not interior_minimal,
        offending_radii=interior_minimal,
        minimal_boundary=start in minimal,
        radial_isoperimetric_constant=0.0 if math.isinf(kappa) else kappa,
        probe_grid=[float(s) for s in grid])


def validate_metric(metric: RadialMetric,
                    cfg: ToleranceConfig = DEFAULT_CFG) -> List[str]:
    """Check the structural invariants; returns a list of violations."""
    issues: List[str] = []
    grid = _probe_grid(metric, cfg, _PROBES)
    try:
        vals = metric.profile.values(grid)
    except Exception as exc:  # noqa: BLE001 - report, not crash
        return [f"profile evaluation failed: {exc}"]
    if metric.gauge is Gauge.GEODESIC:
        # a may vanish at a center (domain_start 0), but nowhere past it
        interior = grid > metric.domain_start
        if np.any(vals[interior] <= 0.0):
            issues.append("warping factor must be positive on the probe grid")
        if vals[-1] < 1e3 * max(1.0, float(vals[0])):
            issues.append("warping factor does not grow beyond every bound "
                          "(asymptotic largeness violated)")
    else:
        if metric.domain_start <= 0.0:
            issues.append("areal gauge requires r > 0")
        if np.any(vals < -1e-12):
            issues.append("areal coefficient f must be nonnegative")
    return issues


# ---------------------------------------------------------------------------
# Metric families

def flat() -> RadialMetric:
    """Euclidean space: geodesic gauge, a(rho) = rho."""
    return RadialMetric(Gauge.GEODESIC, ExprProfile("r"), 0.0, label="flat")


def schwarzschild(m: float = 1.0) -> RadialMetric:
    """Schwarzschild spatial slice of mass m in the areal gauge."""
    if m <= 0.0:
        raise ConfigError("schwarzschild mass must be positive")
    return RadialMetric(Gauge.AREAL, ExprProfile("1 - 2*m/r", {"m": m}),
                        2.0 * m, label=f"schwarzschild:m={m:g}")


def cylinder(a: float = 1.0) -> RadialMetric:
    """Round cylinder of sphere radius a (geodesic gauge, constant warping)."""
    if a <= 0.0:
        raise ConfigError("cylinder radius must be positive")
    return RadialMetric(Gauge.GEODESIC, ExprProfile("a", {"a": a}), 0.0,
                        label=f"cylinder:a={a:g}")


def expr_metric(gauge: Gauge, text: str, params: Optional[dict] = None,
                domain_start: float = 0.0) -> RadialMetric:
    prof = ExprProfile(profiles.parse(text), params)
    return RadialMetric(gauge, prof, domain_start)


def table_metric(gauge: Gauge, path: str) -> RadialMetric:
    """Metric from a two-column CSV (radius, profile value)."""
    import csv

    radii, values, header = [], [], False
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                r, v = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if not (radii or header):  # allow one header row
                    header = True
                    continue
                raise ConfigError(f"bad table row {row!r} in {path}") from None
            radii.append(r)
            values.append(v)
    prof = TableProfile(radii, values, label=f"table:{path}")
    return RadialMetric(gauge, prof, radii[0])


def scaled(metric: RadialMetric, lam: float) -> RadialMetric:
    """Homothety g -> lam^2 g, realized on the radial profile; a base with
    a volume map gives one too, lam^3 * V(rho/lam).  Raises ConfigError
    unless lam is finite and positive."""
    if not 0.0 < lam < math.inf:
        raise ConfigError(f"need a finite scale lam > 0, got {lam}")
    base = metric.profile
    # lam*a(rho/lam) in the geodesic gauge, f(r/lam) in the areal one: the
    # value times mul, d1 over div1, d2 over div2; a factor 1.0 is exact
    mul, div1, div2 = ((lam, 1.0, lam) if metric.gauge is Gauge.GEODESIC
                       else (1.0, lam, lam * lam))

    def fn(r: float) -> Tuple[float, float, float]:
        v, d1, d2 = base.eval_d2(r / lam)
        return mul * v, d1 / div1, d2 / div2

    def arrays(rs: np.ndarray, parts: int) -> tuple:
        if parts == 1:
            return (mul * base.values(rs / lam),)
        v, d1, d2 = base.triple(rs / lam)
        return mul * v, d1 / div1, d2 / div2

    volumes = None if base.volumes is None else (  # lam^3 * V(rho/lam)
        lambda rhos: [lam ** 3 * v for v in base.volumes([rho / lam for rho in rhos])])
    radius_of = None if base.radius_of is None else (  # lam * rho(a/lam)
        lambda a: lam * base.radius_of(a / lam))
    prof = FuncProfile(fn, arrays, f"scaled({lam:g})*{base.describe()}",
                       base.r_max * lam, volumes, radius_of)
    out = RadialMetric(metric.gauge, prof, metric.domain_start * lam,
                       label=f"scaled:{lam:g}:{metric.label}")
    out._hull_from = lam * metric._hull_from
    return out


# ---------------------------------------------------------------------------
# Constructive generator of metrics with nonnegative scalar curvature

def mass_profile_metric(mu: Callable[[float], Tuple[float, float]],
                        a0: float, rho_max: float = 1e6,
                        label: str = "generated") -> RadialMetric:
    """Geodesic metric with R >= 0 built from a nondecreasing mass profile.

    mu maps rho to (mass, d mass/d rho) with mass >= 0 and slope >= 0.  The
    warping factor solves a' = sqrt(1 - 2*mu/a) with a(0) = a0 > 2*mu(0),
    which makes the Hawking mass of the sphere at rho exactly mu(rho) and
    the scalar curvature 4*mu'/(a' a^2) >= 0.  a0 and rho_max must be
    finite and positive (ConfigError otherwise); with a0 > 0 and a' >= 0
    the area never falls, so every sphere is its own outward-minimizing
    hull (``RadialMetric.own_hull``).  The ODE is solved once, on
    [0, rho_max], by ``numerics.picard_panels`` from the panels [0, 1e-2]
    and 4 geometric panels per decade beyond, calling mu once per node
    (``tanh_step_mass_metric`` samples its mass as one array instead); an
    error of mu's propagates, a failed solve is a ConfigError.  a(rho),
    increasing from a0, and the volume, the integral of 4*pi*a^2, are the
    two rows of one ``numerics.PanelSeries``, which ``eval_d2``, ``values``
    and ``volumes`` read, with its range rule past rho_max, and whose
    ``solve`` is ``radius_of``; a', a'' come from the ODE.
    The array hook (see ``_Profile``) serves ``triple`` by calling mu once
    per radius on a Python float, as ``eval_d2`` does, and running the a',
    a'' arithmetic in numpy with the same bits; where any radius stalls,
    raises or gives a non-finite result it returns None, so ``eval_d2``
    runs radius by radius and raises the first error.  For ``values``
    (area scans, ``validate_metric``) it relies on mu being
    nondecreasing: it checks the stall 1 - 2*mu/a <= 0 at the outermost
    radius only and calls mu nowhere else, so a mu that dips or raises at
    an inner radius goes unnoticed there, while ``eval_d2`` and ``triple``
    at that radius still raise.
    """
    return _generated(mu, lambda x: np.array([mu(rho)[0] for rho in x.tolist()],
                                             dtype=float), a0, rho_max, label)


def _generated(mu: Callable[[float], Tuple[float, float]],
               sample: Callable[[np.ndarray], np.ndarray],
               a0: float, rho_max: float, label: str) -> RadialMetric:
    """``mass_profile_metric`` with mu's mass at the build's nodes from
    sample, which maps a 1-D array of radii to it."""
    if not 0.0 < a0 < math.inf:
        raise ConfigError(f"need a finite a0 > 0, got {a0}")
    if not 0.0 < rho_max < math.inf:
        raise ConfigError(f"need a finite rho_max > 0, got {rho_max}")
    mu0 = mu(0.0)[0]
    if not a0 > 2.0 * mu0:
        raise ConfigError(f"need a0 > 2*mu(0) = {2 * mu0}")

    edges = np.append(0.0, [rho_max] if rho_max <= 1e-2 else np.geomspace(
        1e-2, rho_max, math.ceil(4.0 * math.log10(rho_max / 1e-2)) + 1))
    try:
        series = numerics.PanelSeries.integral(*numerics.picard_panels(
            sample, lambda m, a: np.sqrt(np.maximum(0.0, 1.0 - 2.0 * m / a)),
            lambda a: FOUR_PI * a * a, a0, edges[:-1], edges[1:]), (a0, 0.0),
            "generated")
    except NonConvergence as exc:
        raise ConfigError(f"mass-profile integration failed: {exc}") from None

    def fn(rho: float) -> Tuple[float, float, float]:
        m, mp = mu(rho)  # before the read: mu's error comes first
        a = series.read(*series.at(rho))
        ap = math.sqrt(max(0.0, 1.0 - 2.0 * m / a))
        if ap <= 0.0:
            raise EvalError(f"warping factor stalls at rho={rho}")
        app = (m * ap / (a * a) - mp / a) / ap
        return a, ap, app

    def arrays(rhos: np.ndarray, parts: int) -> Optional[tuple]:
        # An element where mu or the read raises, that fn would reject or
        # that gives a non-finite value leaves the array to the scalar path.
        try:
            if parts == 1:
                # a' = 0 freezes a while mu cannot decrease: if any node
                # stalls, the outermost one does
                if rhos.size:
                    fn(float(rhos.max()))
                return (series.read(*series.at(rhos)),)
            # mu runs on Python floats, as in fn: np.tanh and math.tanh
            # round differently
            m, mp = np.array([mu(rho) for rho in rhos.tolist()],
                             dtype=float).reshape(-1, 2).T
            a = series.read(*series.at(rhos))
        except (IsocapError, ArithmeticError, ValueError):
            return None
        with np.errstate(all="ignore"):
            ap = np.sqrt(1.0 - 2.0 * m / a)
            app = (m * ap / (a * a) - mp / a) / ap
        if not (np.all(ap > 0.0) and np.isfinite(app).all()):
            return None
        return a, ap, app

    def volumes(rhos: Sequence[float]) -> List[float]:
        # the volume at rho = 0, the inner boundary, is exactly 0
        if len(rhos) == 1:
            return [series.read(*series.at(float(rhos[0])), 1) if rhos[0] > 0.0
                    else 0.0]
        rho = np.array(rhos, dtype=float)
        return np.where(rho > 0.0, series.read(*series.at(rho), 1), 0.0).tolist()

    prof = FuncProfile(fn, arrays, label=label, r_max=rho_max, volumes=volumes,
                       radius_of=lambda a: series.point(*series.solve(a)))
    metric = RadialMetric(Gauge.GEODESIC, prof, 0.0, label=label)
    metric._hull_from = 0.0  # a > 0 and a' >= 0: the area never falls
    return metric


def tanh_step_mass_metric(mass: float, center: float, width: float,
                          a0: Optional[float] = None,
                          rho_max: float = 1e6) -> RadialMetric:
    """R >= 0 metric whose Hawking mass rises smoothly from ~0 to ``mass``."""
    if not (0.0 <= mass < math.inf and 0.0 < width < math.inf
            and math.isfinite(center)):
        raise ConfigError("need finite mass >= 0, center and width > 0, got "
                          f"mass={mass}, center={center}, width={width}")
    if a0 is None:
        a0 = max(1.0, 3.0 * mass)

    base = math.tanh(-center / width)  # anchors mu(0) = 0 and mu(inf) = mass

    def mu(rho: float) -> Tuple[float, float]:
        t = math.tanh((rho - center) / width)
        return (mass * (t - base) / (1.0 - base),
                mass * (1.0 - t * t) / (width * (1.0 - base)))

    def sample(x: np.ndarray) -> np.ndarray:  # mu's mass at the build's nodes
        return mass * (np.tanh((x - center) / width) - base) / (1.0 - base)

    label = f"masstep:m={mass:g},c={center:g},w={width:g}"
    return _generated(mu, sample, a0, rho_max, label)


# ---------------------------------------------------------------------------
# Metric specification strings ("family:key=value:...")

def metric_from_spec(spec: str) -> RadialMetric:
    """Build a metric from a CLI/config specification string.

    Accepted forms: ``flat``, ``schwarzschild:m=1``, ``cylinder:a=2``,
    ``expr:geodesic:<text>[:k=v,...]``, ``table:areal:<path>``.  An expr
    metric starts at ``rho_min`` or ``r_min``, by default at 0 (geodesic)
    or 1 (areal).  A key the metric does not use, a key given twice, both
    start keys and a start below 0 raise ConfigError.
    """
    parts = spec.split(":")
    family = parts[0].strip().lower()
    simple = {"flat": (flat, ()), "schwarzschild": (schwarzschild, ("m",)),
              "cylinder": (cylinder, ("a",))}
    if family in simple:
        build, keys = simple[family]
        return build(**_parse_kv(parts[1:], keys))
    if family == "expr":
        if not 3 <= len(parts) <= 4:
            raise ConfigError("expr metric needs expr:<gauge>:<expression>[:k=v,...]")
        gauge = _parse_gauge(parts[1])
        text = parts[2].strip().strip('"')
        params = _parse_kv(parts[3:], profiles.parse(text).names()
                           | {"rho_min", "r_min"})
        starts = [params.pop(k) for k in ("rho_min", "r_min") if k in params]
        if len(starts) > 1:
            raise ConfigError("give one of rho_min and r_min, not both")
        start = starts[0] if starts else (1.0 if gauge is Gauge.AREAL else 0.0)
        if start < 0.0:
            raise ConfigError(f"rho_min or r_min must be >= 0, got {start}")
        return expr_metric(gauge, text, params, domain_start=start)
    if family == "table":
        if len(parts) < 3:
            raise ConfigError("table metric needs table:<gauge>:<path>")
        return table_metric(_parse_gauge(parts[1]), ":".join(parts[2:]))
    raise ConfigError(f"unknown metric family {family!r}")


def _parse_gauge(text: str) -> Gauge:
    try:
        return Gauge(text.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown gauge {text!r}; "
                          "use geodesic or areal") from None


def _parse_kv(chunks: Sequence[str], known) -> dict:
    """The key=value items of chunks, each key one of known, at most once."""
    out = {}
    for chunk in chunks:
        for item in chunk.split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise ConfigError(f"expected key=value, got {item!r}")
            key, val = item.split("=", 1)
            key = key.strip()
            if key not in known:
                raise ConfigError(f"unused key {key!r}; this metric takes "
                                  f"{sorted(known) or 'none'}")
            if key in out:
                raise ConfigError(f"key {key!r} given twice")
            try:
                value = float(val)
            except ValueError:
                raise ConfigError(f"non-numeric value in {item!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"non-finite value in {item!r}")
            out[key] = value
    return out
