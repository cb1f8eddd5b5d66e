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

Volumes are measured from ``domain_start``: each increment past the nearest
cached radius is summed on fixed Gauss-Legendre panels, in rho (geodesic)
or in xi = sqrt(r - domain_start) (areal), where the density stays smooth
through a throat; see ``RadialMetric.volume``.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from . import numerics, profiles
from .errors import (ConfigError, DomainError, EvalError, IsocapError,
                     NonIntegrableThroat)
from .numerics import DEFAULT_CFG, ToleranceConfig, find_root

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi


class Gauge(enum.Enum):
    GEODESIC = "geodesic"
    AREAL = "areal"


class BoundaryKind(enum.Enum):
    NONE = "none"
    MINIMAL = "minimal"


# ---------------------------------------------------------------------------
# Profiles: anything exposing eval_d2(r) -> (value, d1, d2) at one radius and
# values(rs) -> the value at each radius of a 1-D array, equal to eval_d2's
# value there.  Area scans, volume panels and the conversion's Newton steps
# call values once per array.  Each family computes values on the whole
# array; where some radius fails, values raises the error eval_d2 raises at
# the first failing radius, by running the scalar path through _mapped.


def _mapped(fn: Callable[[float], Tuple[float, float, float]],
            rs: np.ndarray) -> np.ndarray:
    """Values of a scalar (value, d1, d2) callable, one call per radius."""
    return np.array([fn(float(r))[0] for r in rs], dtype=float)


class ExprProfile:
    """Profile backed by a parsed expression plus parameter bindings."""

    def __init__(self, expr: profiles.ProfileExpr, params: Optional[dict] = None,
                 r_max: float = math.inf):
        if isinstance(expr, str):
            expr = profiles.parse(expr)
        self.expr = expr
        self.params = dict(params or {})
        self.r_max = r_max
        unbound = expr.names() - set(self.params)
        if unbound:
            raise ConfigError(f"undeclared parameters: {sorted(unbound)}")
        self._compiled = profiles.compile(expr, self.params)
        self._compiled_array = profiles.compile_array(expr, self.params)

    def eval_d2(self, r: float) -> Tuple[float, float, float]:
        return self._compiled(r)

    def values(self, rs: np.ndarray) -> np.ndarray:
        out = self._compiled_array(rs)
        return _mapped(self.eval_d2, rs) if out is None else out

    def describe(self) -> str:
        text = profiles.to_text(self.expr)
        if self.params:
            binds = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{text}[{binds}]"
        return text


class FuncProfile:
    """Profile backed by a callable returning (value, d1, d2), plus
    ``array_fn``, which maps a 1-D array of radii to the values there."""

    def __init__(self, fn: Callable[[float], Tuple[float, float, float]],
                 array_fn: Callable[[np.ndarray], np.ndarray],
                 label: str = "func", r_max: float = math.inf):
        self.fn = fn
        self.array_fn = array_fn
        self.label = label
        self.r_max = r_max

    def eval_d2(self, r: float) -> Tuple[float, float, float]:
        return self.fn(r)

    def values(self, rs: np.ndarray) -> np.ndarray:
        return self.array_fn(rs)

    def describe(self) -> str:
        return self.label


class TableProfile:
    """Monotone cubic interpolation of tabulated (radius, value) pairs."""

    def __init__(self, radii: Sequence[float], values: Sequence[float],
                 label: str = "table"):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 4:
            raise ConfigError("table profile needs >= 4 (radius, value) rows")
        if np.any(np.diff(radii) <= 0):
            raise ConfigError("table radii must be strictly increasing")
        self._interp = PchipInterpolator(radii, values)
        self._d1 = self._interp.derivative(1)
        self._d2 = self._interp.derivative(2)
        self.r_min = float(radii[0])
        self.r_max = float(radii[-1])
        self.label = label

    def _check_range(self, r: float) -> None:
        if r < self.r_min - 1e-12 or r > self.r_max * (1 + 1e-12):
            raise EvalError(f"radius {r} outside table range "
                            f"[{self.r_min}, {self.r_max}]")

    def eval_d2(self, r: float) -> Tuple[float, float, float]:
        self._check_range(r)
        return float(self._interp(r)), float(self._d1(r)), float(self._d2(r))

    def values(self, rs: np.ndarray) -> np.ndarray:
        if rs.size:
            self._check_range(float(rs.min()))
            self._check_range(float(rs.max()))
        return self._interp(rs)

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
    boundary_kind: BoundaryKind = BoundaryKind.NONE
    label: str = ""
    _vol_rho: List[float] = field(default_factory=list, repr=False)
    _vol_val: List[float] = field(default_factory=list, repr=False)
    _xi: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None,
                                                              repr=False)

    def __post_init__(self):
        if not self.label:
            self.label = f"{self.gauge.value}:{self.profile.describe()}"
        self._vol_rho = [self.domain_start]
        self._vol_val = [0.0]

    @property
    def r_max(self) -> float:
        return getattr(self.profile, "r_max", math.inf)

    def profile_d2(self, rho: float) -> Tuple[float, float, float]:
        return self.profile.eval_d2(rho)

    def area(self, rho: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Area of the sphere at rho, or of each sphere of a 1-D radius array."""
        if self.gauge is Gauge.AREAL:
            return FOUR_PI * rho * rho
        if isinstance(rho, np.ndarray):
            a = self.profile.values(rho)
        else:
            a = self.profile.eval_d2(rho)[0]
        return FOUR_PI * a * a

    def density(self, weight: Callable[[float], float]
                ) -> Callable[[float], float]:
        """s -> weight(area(s)) * d(arclength)/ds, the radial integrand of
        capacities."""
        if self.gauge is Gauge.GEODESIC:
            def g(s: float) -> float:
                a = self.profile.eval_d2(s)[0]
                return weight(FOUR_PI * a * a)
        else:
            def g(s: float) -> float:
                f = self.profile.eval_d2(s)[0]
                if f <= 0.0:
                    # integrable inverse square-root throat: regularize the
                    # isolated zero the quadrature may sample exactly
                    return 0.0
                return weight(FOUR_PI * s * s) / math.sqrt(f)
        return g

    def _xi_density(self) -> Callable[[np.ndarray], np.ndarray]:
        """Areal gauge: xi -> d(arclength)/d(xi) = 2*xi/sqrt(f) at
        r = domain_start + xi^2, on a 1-D array of xi.

        The density is smooth through a simple zero of f at domain_start (a
        throat): within 1e-5 of it, f = (r-r_min) * f/(r-r_min) with the
        ratio from the quadratic Taylor model, since direct evaluation of f
        cancels catastrophically there.  Where f <= 0 the density is 0.
        Built once per metric.  Raises NonIntegrableThroat when f vanishes
        at domain_start to order 2 or more.
        """
        if self._xi is not None:
            return self._xi
        r_min = self.domain_start
        f0, f0_d1, f0_d2 = self.profile_d2(r_min)
        has_throat = abs(f0) <= 1e-10
        if has_throat:
            # Check the throat is an integrable inverse square root:
            # f ~ c*(r-r_min)^beta needs beta < 2.
            d1, d2 = 1e-6 * max(1.0, r_min), 2e-6 * max(1.0, r_min)
            f1 = self.profile_d2(r_min + d1)[0]
            f2 = self.profile_d2(r_min + d2)[0]
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
            f = np.where(h < taylor_band, (f0_d1 + 0.5 * f0_d2 * h) * h, f)
            return 2.0 * xi / np.sqrt(np.where(f > 0.0, f, np.inf))

        self._xi = density
        return density

    def volume(self, rho: float, cfg: ToleranceConfig = DEFAULT_CFG) -> float:
        """Volume enclosed between domain_start and rho (cached anchors).

        The increment from the nearest anchor below rho is integrated in
        t = rho - domain_start (geodesic gauge, density 4*pi*a^2) or in
        t = xi (areal gauge, density 4*pi*r^2 * ``_xi_density``), from t_lo
        at the anchor to t_hi at rho.  It is split at t_hi/2, t_hi/4, ...
        as far as t_lo or t_hi/32, so a density that is smooth at the scale
        of t is resolved from the boundary out, and all panels are summed
        by ``numerics.gauss_legendre`` from one ``profile.values`` call.
        """
        if rho < self.domain_start - 1e-12:
            raise DomainError(f"rho={rho} below domain start {self.domain_start}")
        if rho <= self.domain_start:
            return 0.0
        i = bisect_right(self._vol_rho, rho) - 1
        base_rho, base_val = self._vol_rho[i], self._vol_val[i]
        if rho - base_rho <= 1e-14 * max(1.0, rho):
            return base_val
        start = self.domain_start
        if self.gauge is Gauge.GEODESIC:
            lo, hi = base_rho - start, rho - start

            def density(t: np.ndarray) -> np.ndarray:
                a = self.profile.values(start + t)
                return FOUR_PI * a * a
        else:
            lo, hi = math.sqrt(base_rho - start), math.sqrt(rho - start)
            xi_density = self._xi_density()

            def density(t: np.ndarray) -> np.ndarray:
                r = start + t * t
                return FOUR_PI * r * r * xi_density(t)
        n = math.ceil(math.log2(hi / max(lo, hi / 64.0)))
        edges = hi * 0.5 ** np.arange(n, -1.0, -1.0)
        edges[0] = lo
        inc = numerics.gauss_legendre(density, edges[:-1], edges[1:], cfg)
        val = base_val + float(inc.sum())
        j = bisect_right(self._vol_rho, rho)
        self._vol_rho.insert(j, rho)
        self._vol_val.insert(j, val)
        return val


# ---------------------------------------------------------------------------
# Per-sphere quantities

def sphere_data(metric: RadialMetric, rho: float,
                cfg: ToleranceConfig = DEFAULT_CFG) -> SphereData:
    """All SphereData fields of the centered sphere at radius rho."""
    if rho < metric.domain_start - 1e-12:
        raise DomainError(f"rho={rho} below domain start {metric.domain_start}")
    rho = max(rho, metric.domain_start)
    v, d1, d2 = metric.profile_d2(rho)
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
        if f < 0.0:
            raise EvalError(f"areal coefficient f({rho}) = {f} < 0")
        H = 2.0 * math.sqrt(f) / rho
        willmore = SIXTEEN_PI * f
        m_H = 0.5 * rho * (1.0 - f)
        R = 2.0 * (1.0 - f - rho * fp) / (rho * rho)
    return SphereData(rho=rho, area=area, volume=metric.volume(rho, cfg),
                      mean_curvature=H, hawking_mass=m_H, willmore=willmore,
                      scalar_curvature=R)


# ---------------------------------------------------------------------------
# Gauge conversion

class _ConvertedProfile:
    """Geodesic warping a(rho) obtained from an areal coefficient f(r).

    a(rho) inverts the arclength rho(r), the integral of the areal metric's
    ``_xi_density`` in xi = sqrt(r - r_min), which stays smooth through a
    simple zero of f at r_min.  The panels between arclength nodes, and the
    partial panel up to any r, are summed by ``numerics.gauss_legendre``.
    The nodes are bridged by monotone cubic interpolation and sharpened by
    Newton steps on the exact arclength, run on a whole array of radii at
    once.  Derivatives use the closed forms a' = sqrt(f(a)), a'' = f'(a)/2,
    which are exact along the gauge change.
    """

    def __init__(self, areal: RadialMetric, cfg: ToleranceConfig):
        self._areal = areal
        self._cfg = cfg  # the fixed rule's check and adaptive fallback
        r_min = areal.domain_start
        f0 = areal.profile_d2(r_min)[0]
        if f0 < -1e-10:
            raise EvalError(f"f({r_min}) = {f0} < 0")
        self._density = areal._xi_density()
        span = min(cfg.cutoff_radius, areal.r_max)
        offsets = np.geomspace(max(1e-8, 1e-8 * max(1.0, r_min)),
                               span - r_min, 1200)
        r_nodes = np.concatenate(([r_min], r_min + offsets))
        self._r_nodes = r_nodes
        self._xi_nodes = np.sqrt(r_nodes - r_min)
        panels = numerics.gauss_legendre(self._density, self._xi_nodes[:-1],
                                         self._xi_nodes[1:], cfg)
        rho_nodes = np.concatenate(([0.0], np.cumsum(panels)))
        if not np.all(np.diff(rho_nodes) > 0):
            raise NonIntegrableThroat("arclength map is not strictly increasing")
        self._rho_nodes = rho_nodes
        self._interp = PchipInterpolator(rho_nodes, r_nodes)
        self.r_max = float(rho_nodes[-1])

    def _rho_of_r(self, r: np.ndarray) -> np.ndarray:
        """Node arclength plus the partial panel up to each r."""
        i = np.clip(np.searchsorted(self._r_nodes, r) - 1, 0,
                    self._r_nodes.size - 2)
        xi = np.sqrt(np.maximum(r - self._r_nodes[0], 0.0))
        return self._rho_nodes[i] + numerics.gauss_legendre(
            self._density, self._xi_nodes[i], xi, self._cfg)

    def _radii(self, rhos: np.ndarray) -> np.ndarray:
        """r = a(rho) at each rho of a 1-D array.  Every element takes the
        steps it would take alone, so one radius gets the same bits in any
        array; f is evaluated at every final r."""
        outside = (rhos < 0.0) | (rhos > self.r_max * (1 + 1e-12))
        if np.any(outside):
            raise EvalError(f"rho={float(rhos[outside][0])} outside converted range "
                            f"[0, {self.r_max}]")
        r = self._interp(np.clip(rhos, 0.0, self.r_max))
        r = np.clip(r, self._r_nodes[0], self._r_nodes[-1])
        # Newton iterations on rho(r) = rho; d rho/dr = f^(-1/2)
        live = np.ones(r.shape, dtype=bool)
        for k in range(4):
            f = self._areal.profile.values(r)
            live &= f > 0.0
            if k == 3 or not np.any(live):
                return r
            step = (self._rho_of_r(r) - rhos) * np.sqrt(np.where(live, f, 1.0))
            r = np.where(live, r - step, r)
            live &= np.abs(step) > 1e-14 * np.maximum(1.0, r)

    def values(self, rhos: np.ndarray) -> np.ndarray:
        try:
            return self._radii(np.asarray(rhos, dtype=float))
        except IsocapError:  # the scalar path raises its first error
            return _mapped(self.eval_d2, rhos)

    def eval_d2(self, rho: float) -> Tuple[float, float, float]:
        r = float(self._radii(np.array([rho], dtype=float))[0])
        f, fp = self._areal.profile_d2(r)[:2]
        return r, math.sqrt(max(f, 0.0)), 0.5 * fp

    def describe(self) -> str:
        return f"geodesic({self._areal.profile.describe()})"


def to_geodesic(metric: RadialMetric,
                cfg: ToleranceConfig = DEFAULT_CFG) -> RadialMetric:
    """Convert an areal-gauge metric to the geodesic gauge.

    Raises NonIntegrableThroat when the arclength to the inner boundary
    diverges.
    """
    if metric.gauge is Gauge.GEODESIC:
        return metric
    prof = _ConvertedProfile(metric, cfg)
    return RadialMetric(gauge=Gauge.GEODESIC, profile=prof, domain_start=0.0,
                        boundary_kind=metric.boundary_kind,
                        label=f"geodesic<{metric.label}>")


# ---------------------------------------------------------------------------
# Minimal spheres and hypothesis checks

_MINIMAL_PROBES = 4096  # sign changes of H, one per probe interval
_PROBES = 256  # curvature, volume and validity probes


def _probe_grid(metric: RadialMetric, cfg: ToleranceConfig,
                n: int) -> np.ndarray:
    lo = max(metric.domain_start, 1e-6)
    hi = min(cfg.cutoff_radius, metric.r_max)
    grid = np.geomspace(lo, hi, n)
    if metric.domain_start < lo:
        grid = np.concatenate(([metric.domain_start], grid))
    return grid


def find_minimal_spheres(metric: RadialMetric,
                         cfg: ToleranceConfig = DEFAULT_CFG) -> List[float]:
    """Radii of all centered minimal spheres (H = 0), boundary included."""
    grid = _probe_grid(metric, cfg, _MINIMAL_PROBES)
    grid = grid[grid >= max(metric.domain_start, 1e-12)]
    roots: List[float] = []

    def h_num(s: float) -> float:
        # geodesic: sign of H = sign of a'.  areal: f >= 0 vanishes only
        # tangentially, so scan its critical points instead.
        return metric.profile_d2(s)[1]

    vals = np.array([h_num(s) for s in grid])
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    crossings = [find_root(h_num, grid[i], grid[i + 1], cfg) for i in flips]
    if metric.gauge is Gauge.AREAL:
        f0 = metric.profile_d2(grid[0])[0]
        if abs(f0) <= cfg.root_tol * max(1.0, grid[0]):
            roots.append(float(grid[0]))
        roots += [rc for rc in crossings
                  if metric.profile_d2(rc)[0] <= math.sqrt(cfg.root_tol)]
    else:
        if abs(vals[0]) <= cfg.root_tol:
            roots.append(float(grid[0]))
        roots += crossings

    dedup: List[float] = []
    for r in sorted(roots):
        if not dedup or r - dedup[-1] > 1e-6 * max(1.0, r):
            dedup.append(r)
    return dedup


def check_hypotheses(metric: RadialMetric,
                     cfg: ToleranceConfig = DEFAULT_CFG) -> HypothesisReport:
    """Grid-based certificate for the hypotheses of mass equivalence.

    The isoperimetric constant is estimated over radial competitors only
    (centered spheres); it is an upper bound certificate, not a proof.
    """
    grid = _probe_grid(metric, cfg, _PROBES)
    interior = [s for s in grid if s > metric.domain_start * (1 + 1e-9)
                or metric.domain_start == 0.0]
    worst: Optional[Tuple[float, float]] = None
    kappa = math.inf
    for s in interior:
        if s <= metric.domain_start:
            continue
        data = sphere_data(metric, s, cfg)
        if data.scalar_curvature < -1e-10 and \
                (worst is None or data.scalar_curvature < worst[0]):
            worst = (data.scalar_curvature, s)
        if data.volume > 0.0:
            kappa = min(kappa, data.area ** 3 / data.volume ** 2)

    minimal = find_minimal_spheres(metric, cfg)
    boundary_tol = 1e-6 * max(1.0, metric.domain_start)
    interior_minimal = [r for r in minimal
                        if r > metric.domain_start + boundary_tol]
    has_min_boundary = any(r <= metric.domain_start + boundary_tol
                           for r in minimal)
    minimal_boundary = (metric.boundary_kind is BoundaryKind.MINIMAL
                        and has_min_boundary)
    return HypothesisReport(
        scalar_curvature_nonneg=worst is None,
        worst_scalar_violation=worst,
        no_interior_minimal=not interior_minimal,
        offending_radii=interior_minimal,
        minimal_boundary=minimal_boundary,
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
        if metric.boundary_kind is BoundaryKind.MINIMAL:
            ap = metric.profile_d2(metric.domain_start)[1]
            if abs(ap) > math.sqrt(cfg.root_tol):
                issues.append(f"minimal boundary requires a'(rho_min)=0, got {ap}")
    else:
        if metric.domain_start <= 0.0:
            issues.append("areal gauge requires r > 0")
        if np.any(vals < -1e-12):
            issues.append("areal coefficient f must be nonnegative")
        if metric.boundary_kind is BoundaryKind.MINIMAL:
            f0 = metric.profile_d2(metric.domain_start)[0]
            if abs(f0) > math.sqrt(cfg.root_tol):
                issues.append(f"minimal boundary requires f(r_min)=0, got {f0}")
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
                        2.0 * m, BoundaryKind.MINIMAL,
                        label=f"schwarzschild:m={m:g}")


def cylinder(a: float = 1.0) -> RadialMetric:
    """Round cylinder of sphere radius a (geodesic gauge, constant warping)."""
    if a <= 0.0:
        raise ConfigError("cylinder radius must be positive")
    return RadialMetric(Gauge.GEODESIC, ExprProfile("a", {"a": a}), 0.0,
                        label=f"cylinder:a={a:g}")


def expr_metric(gauge: Gauge, text: str, params: Optional[dict] = None,
                domain_start: float = 0.0,
                boundary_kind: BoundaryKind = BoundaryKind.NONE) -> RadialMetric:
    prof = ExprProfile(profiles.parse(text), params)
    return RadialMetric(gauge, prof, domain_start, boundary_kind)


def table_metric(gauge: Gauge, path: str,
                 boundary_kind: BoundaryKind = BoundaryKind.NONE) -> RadialMetric:
    """Metric from a two-column CSV (radius, profile value)."""
    import csv

    radii, values = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                radii.append(float(row[0]))
                values.append(float(row[1]))
            except (ValueError, IndexError):
                if not radii:  # allow one header row
                    continue
                raise ConfigError(f"bad table row {row!r} in {path}") from None
    prof = TableProfile(radii, values, label=f"table:{path}")
    return RadialMetric(gauge, prof, radii[0], boundary_kind)


def scaled(metric: RadialMetric, lam: float) -> RadialMetric:
    """Homothety g -> lam^2 g, realized on the radial profile."""
    base = metric.profile

    if metric.gauge is Gauge.GEODESIC:
        def fn(rho: float) -> Tuple[float, float, float]:
            v, d1, d2 = base.eval_d2(rho / lam)
            return lam * v, d1, d2 / lam

        def array_fn(rhos: np.ndarray) -> np.ndarray:
            return lam * base.values(rhos / lam)
    else:
        def fn(r: float) -> Tuple[float, float, float]:
            v, d1, d2 = base.eval_d2(r / lam)
            return v, d1 / lam, d2 / (lam * lam)

        def array_fn(rs: np.ndarray) -> np.ndarray:
            return base.values(rs / lam)
    prof = FuncProfile(fn, array_fn, label=f"scaled({lam:g})*{base.describe()}",
                       r_max=getattr(base, "r_max", math.inf) * lam)
    return RadialMetric(metric.gauge, prof, metric.domain_start * lam,
                        metric.boundary_kind,
                        label=f"scaled:{lam:g}:{metric.label}")


# ---------------------------------------------------------------------------
# Constructive generator of metrics with nonnegative scalar curvature

def mass_profile_metric(mu: Callable[[float], Tuple[float, float]],
                        a0: float, rho_max: float = 1e6,
                        label: str = "generated") -> RadialMetric:
    """Geodesic metric with R >= 0 built from a nondecreasing mass profile.

    mu maps rho to (mass, d mass/d rho) with mass >= 0 and slope >= 0.  The
    warping factor solves a' = sqrt(1 - 2*mu/a) with a(0) = a0 > 2*mu(0),
    which makes the Hawking mass of the sphere at rho exactly mu(rho) and
    the scalar curvature 4*mu'/(a' a^2) >= 0.  Array evaluation (area scans,
    ``validate_metric``) relies on mu being nondecreasing: it checks the
    stall 1 - 2*mu/a <= 0 at the outermost radius only and calls mu nowhere
    else, so a mu that dips or raises at an inner radius goes unnoticed
    there, while ``eval_d2`` at that radius still raises.
    """
    mu0 = mu(0.0)[0]
    if a0 <= 2.0 * mu0:
        raise ConfigError(f"need a0 > 2*mu(0) = {2 * mu0}")

    def rhs(rho, y):
        m = mu(rho)[0]
        return [math.sqrt(max(0.0, 1.0 - 2.0 * m / y[0]))]

    sol = solve_ivp(rhs, (0.0, rho_max), [a0], dense_output=True,
                    rtol=1e-11, atol=1e-12, max_step=rho_max)
    if not sol.success:
        raise ConfigError(f"mass-profile integration failed: {sol.message}")
    dense = sol.sol

    def fn(rho: float) -> Tuple[float, float, float]:
        a = float(dense(rho)[0])
        m, mp = mu(rho)
        ap = math.sqrt(max(0.0, 1.0 - 2.0 * m / a))
        if ap <= 0.0:
            raise EvalError(f"warping factor stalls at rho={rho}")
        app = (m * ap / (a * a) - mp / a) / ap
        return a, ap, app

    def array_fn(rhos: np.ndarray) -> np.ndarray:
        # a' = 0 freezes a while mu cannot decrease, so the warping stalls on
        # a half-line: if any node stalls, the outermost one does, and fn
        # then raises at the first stalled node as the scalar path would
        if rhos.size:
            try:
                fn(float(rhos.max()))
            except EvalError:
                return _mapped(fn, rhos)
        return dense(rhos)[0]

    prof = FuncProfile(fn, array_fn, label=label, r_max=rho_max)
    return RadialMetric(Gauge.GEODESIC, prof, 0.0, label=label)


def tanh_step_mass_metric(mass: float, center: float, width: float,
                          a0: Optional[float] = None,
                          rho_max: float = 1e6) -> RadialMetric:
    """R >= 0 metric whose Hawking mass rises smoothly from ~0 to ``mass``."""
    if mass < 0.0 or width <= 0.0:
        raise ConfigError("need mass >= 0 and width > 0")
    if a0 is None:
        a0 = max(1.0, 3.0 * mass)

    base = math.tanh(-center / width)  # anchors mu(0) = 0 and mu(inf) = mass

    def mu(rho: float) -> Tuple[float, float]:
        t = math.tanh((rho - center) / width)
        return (mass * (t - base) / (1.0 - base),
                mass * (1.0 - t * t) / (width * (1.0 - base)))

    label = f"masstep:m={mass:g},c={center:g},w={width:g}"
    return mass_profile_metric(mu, a0=a0, rho_max=rho_max, label=label)


# ---------------------------------------------------------------------------
# Metric specification strings ("family:key=value:...")

def metric_from_spec(spec: str) -> RadialMetric:
    """Build a metric from a CLI/config specification string.

    Accepted forms: ``flat``, ``schwarzschild:m=1``, ``cylinder:a=2``,
    ``expr:geodesic:<text>[:k=v,...]``, ``table:areal:<path>``.
    """
    parts = spec.split(":")
    family = parts[0].strip().lower()
    if family == "flat":
        return flat()
    if family in ("schwarzschild", "cylinder"):
        kv = _parse_kv(parts[1:])
        if family == "schwarzschild":
            return schwarzschild(kv.pop("m", 1.0))
        return cylinder(kv.pop("a", 1.0))
    if family == "expr":
        if len(parts) < 3:
            raise ConfigError("expr metric needs expr:<gauge>:<expression>")
        gauge = _parse_gauge(parts[1])
        text = parts[2].strip().strip('"')
        params = _parse_kv(parts[3:4]) if len(parts) > 3 else {}
        start = params.pop("rho_min", params.pop("r_min", 0.0))
        if gauge is Gauge.AREAL and start <= 0.0:
            start = 1.0
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


def _parse_kv(chunks: Sequence[str]) -> dict:
    out = {}
    for chunk in chunks:
        for item in chunk.split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise ConfigError(f"expected key=value, got {item!r}")
            key, val = item.split("=", 1)
            try:
                out[key.strip()] = float(val)
            except ValueError:
                raise ConfigError(f"non-numeric value in {item!r}") from None
    return out
