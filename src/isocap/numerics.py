"""Deterministic numerics shared by every other module.

Quadrature over arrays of panels: a fixed Gauss-Legendre rule, and one
adaptive refinement behind it, which halves the panels the fixed rule
flags level by level on the 21-point Gauss-Kronrod rule, one integrand
call per level for all of them, within ``ToleranceConfig.max_subdivisions``
pieces per panel; ``integrate`` is that refinement on one finite interval.
Antiderivatives as per-panel Legendre series and their inverse, piecewise
cubic Hermite interpolation with monotone (PCHIP) slopes, a scalar
Runge-Kutta ODE solver with dense output, bracketed root finding (Brent
1973) and a safeguarded Newton pass over many brackets at once, and Aitken
limit extrapolation.  All routines are pure functions of their inputs;
there is no shared mutable state, and none needs more than numpy.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigError, DomainError, InsufficientData, NoBracket,
                     NonConvergence)

__all__ = ["ToleranceConfig", "integrate", "gauss_legendre",
           "gauss_legendre_err", "legendre_panels", "legendre_integral",
           "legendre", "legendre_inverse", "hermite", "HermiteSpline", "pchip_slopes",
           "dormand_prince", "DenseSolution",
           "find_root", "newton_roots",
           "extrapolate_limit"]


@dataclass(frozen=True)
class ToleranceConfig:
    """Bundle of tolerances threaded through every numerical operation."""

    quad_rel_tol: float = 1e-10
    quad_abs_tol: float = 1e-12
    root_tol: float = 1e-12
    max_subdivisions: int = 60
    """Budget of the adaptive refinement (``_refine``): the most pieces it
    halves one panel into, an integer >= 1.  On an exhausted budget the
    panel's value stands if finite and its error estimate is within 1e3
    times its allowance, max(quad_abs_tol, quad_rel_tol*|value|) for
    ``integrate``; otherwise NonConvergence."""
    extrap_terms: int = 6
    cutoff_radius: float = 1e8

    def __post_init__(self):
        if not all(map(math.isfinite, (self.quad_rel_tol, self.quad_abs_tol,
                                       self.root_tol, self.cutoff_radius))):
            raise ValueError("tolerances and cutoff_radius must be finite")
        if min(self.quad_rel_tol, self.quad_abs_tol, self.root_tol) <= 0.0:
            raise ValueError("tolerances must be strictly positive")
        for name, least in (("max_subdivisions", 1), ("extrap_terms", 3)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        if self.cutoff_radius <= 1.0:
            raise ValueError("cutoff_radius must exceed 1")


DEFAULT_CFG = ToleranceConfig()


# Gauss-Legendre nodes on [-1, 1], 10 points then 5, and their weights, as
# numpy.polynomial.legendre.leggauss gives them; written out because
# leggauss starts LAPACK, which costs 0.9 MB resident.
_GL_X = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
    -0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
    0.906179845938664])
_GL10_W = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814])
_GL5_W = np.array([0.23692688505618928, 0.4786286704993663,
                   0.5688888888888887, 0.4786286704993663,
                   0.23692688505618928])
# The 21-point Gauss-Kronrod rule on [-1, 1] (Piessens et al. 1983): the
# 10 Gauss nodes of _GL_X first, then the 11 Kronrod nodes, each weight in
# the order of its node; the embedded Gauss rule has the weights _GL10_W.
# Each half is written out, outermost node first.
_GK_GAUSS_W = np.array([
    0.032558162307964725, 0.07503967481091996, 0.10938715880229764,
    0.13470921731147334, 0.14773910490133849])
_GK_KRONROD_X = np.array([
    0.9956571630258081, 0.9301574913557082, 0.7808177265864169,
    0.5627571346686047, 0.2943928627014602])
_GK_KRONROD_W = np.array([
    0.011694638867371874, 0.054755896574351995, 0.0931254545836976,
    0.12349197626206584, 0.14277593857706009])
_GK_X = np.concatenate((_GL_X[:10], -_GK_KRONROD_X, [0.0],
                        _GK_KRONROD_X[::-1]))
_GK_W = np.concatenate((_GK_GAUSS_W, _GK_GAUSS_W[::-1], _GK_KRONROD_W,
                        [0.1494455540029169], _GK_KRONROD_W[::-1]))
_EPS = float(np.finfo(float).eps)


def integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              cfg: ToleranceConfig = DEFAULT_CFG) -> Tuple[float, float]:
    """Integrate f, which maps a 1-D array of points to the integrand there,
    over the finite interval (lo, hi), one panel of ``_refine`` with the
    allowance max(quad_abs_tol, quad_rel_tol*|value|); returns the value
    and the summed error estimate.  A tail out to infinity is left to the
    caller, as ``capacity`` integrates its tail in closed form: a map of
    [lo, inf) onto a finite range resolves one scale only, and misses a
    tail that lives far from it.  Raises ConfigError when a bound is
    infinite; NonConvergence as ``_refine`` does; DomainError when
    lo >= hi."""
    if math.isinf(lo) or math.isinf(hi):
        raise ConfigError(f"integration bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise DomainError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    *_, total, err = _refine(f, np.array([float(lo)]), np.array([float(hi)]),
                             np.zeros((1, 1)), cfg)
    return float(total[0, 0]), float(err[0, 0])


def _gauss_kronrod(density: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                   hi: np.ndarray) -> tuple:
    """21-point Gauss-Kronrod sums (Piessens et al. 1983) over the pieces
    [lo[k], hi[k]] from one call of density (1-D points to one row or a 2-D
    array of rows): the samples at ``_GK_X``, shape (pieces, rows, 21), and
    each row's sum, estimate, and whether the estimate is inf or above its
    floor, 50 ulp of the integral of |g|.  The estimate is inf where the
    difference d from the 10-point Gauss rule is not finite, else the larger
    of d and QUADPACK's resasc*min(1, (200*d/resasc)^1.5), resasc being the
    integral of |g - mean g|: at a kink both rules err alike."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X
    y = np.reshape(density(nodes.ravel()), (-1,) + nodes.shape).swapaxes(0, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = half[:, None, None] * y
        sums = (scaled * _GK_W).sum(axis=-1)
        diff = np.abs(sums - (scaled[..., :10] * _GL10_W).sum(axis=-1))
        resasc = (np.abs(scaled - 0.5 * sums[..., None]) * _GK_W).sum(axis=-1)
        rough = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
        floor = 50.0 * _EPS * (np.abs(scaled) * _GK_W).sum(axis=-1)
    est = np.where(np.isfinite(diff), np.fmax(np.fmax(diff, rough), floor), np.inf)
    return y, sums, est, (est > floor) | np.isinf(est)


def _refine(density: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
            hi: np.ndarray, scale: np.ndarray, cfg: ToleranceConfig,
            rows: Optional[np.ndarray] = None) -> tuple:
    """Adaptive ``_gauss_kronrod`` sums over the panels [lo[k], hi[k]], in
    the rows of each that the boolean array rows marks (all by default;
    rows and scale have shape (rows, panels)).  A panel's allowance in a
    row is max(quad_abs_tol, quad_rel_tol*max(scale, |sum|)), what is not
    finite counting as 0.  Level by level, in one density call, a panel
    whose summed estimates exceed its allowance in a marked row halves
    each piece whose estimate exceeds, in a marked row, its floor and the
    allowance over the panel's piece count, the largest relative to the
    allowance first, up to max_subdivisions pieces.  A panel with no piece
    to halve stands if, in every marked row, its sum is finite and its
    summed estimates are within 1e3 allowances; else NonConvergence.
    Returns the pieces' edges and samples at ``_GK_X``, shape
    (pieces, rows, 21), and the panel sums and estimates, (rows, panels)."""
    n = lo.size
    scale = np.where(np.isfinite(scale), scale, 0.0)
    rows = np.ones(scale.shape, dtype=bool) if rows is None else rows
    owner, count, p_lo, p_hi = np.arange(n), np.ones(n, dtype=int), lo, hi
    y, sums, est, above = _gauss_kronrod(density, lo, hi)
    while True:
        total, err = (np.array([np.bincount(owner, weights=row, minlength=n)
                                for row in v.T]) for v in (sums, est))
        size = np.fmax(scale, np.abs(np.where(np.isfinite(total), total, 0.0)))
        allow = np.maximum(cfg.quad_abs_tol, cfg.quad_rel_tol * size)
        with np.errstate(over="ignore"):
            excess = np.max(np.where(rows[:, owner].T & above,
                                     est / allow[:, owner].T, 0.0), axis=1)
        done = np.all((err <= allow) | ~rows, axis=0)
        split = ~done[owner] & (excess * count[owner] > 1.0)
        # panel by panel, the pieces to halve first, largest excess first
        pick = np.lexsort((-excess, ~split, owner))
        rank = np.arange(pick.size) - np.searchsorted(owner[pick], owner[pick])
        split[pick[rank >= (cfg.max_subdivisions - count)[owner[pick]]]] = False
        grow = np.bincount(owner[split], minlength=n)
        stands = np.all(((err <= 1e3 * allow) & np.isfinite(total)) | ~rows, axis=0)
        for k in np.flatnonzero((grow == 0) & ~stands):
            raise NonConvergence(
                f"quadrature failed on [{lo[k]}, {hi[k]}]: values "
                f"{total[rows[:, k], k].tolist()}, error estimates "
                f"{err[rows[:, k], k].tolist()} after {count[k]} pieces")
        if not split.any():
            return p_lo, p_hi, y, total, err
        count += grow
        a, b = p_lo[split], p_hi[split]
        mid = 0.5 * (a + b)
        new_lo, new_hi = np.concatenate((a, mid)), np.concatenate((mid, b))
        new = (np.tile(owner[split], 2), new_lo, new_hi,
               *_gauss_kronrod(density, new_lo, new_hi))
        owner, p_lo, p_hi, y, sums, est, above = (
            np.concatenate((v[~split], w))
            for v, w in zip((owner, p_lo, p_hi, y, sums, est, above), new))


def gauss_legendre_err(density: Callable[[np.ndarray], np.ndarray], lo, hi,
                       cfg: ToleranceConfig = DEFAULT_CFG,
                       group: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Integral of density over each panel [lo[k], hi[k]] of two 1-D arrays,
    and an error estimate of each.

    density maps a 1-D array of points to the integrand there, or to a 2-D
    array with one row per integrand, and then the sums and estimates have
    one row per integrand too; one call serves every node of every panel.
    Each panel is summed by the 10-point Gauss-Legendre rule, its estimate
    being the difference from the 5-point rule.  Where that is not within
    quad_rel_tol of the panel's |sum|, or, when ``group`` maps each panel
    to the index of a total it is added into, of that total's sum of
    |panel sums|, that row of the panel takes the sum and estimate of
    ``_refine``, as a panel of its own refined in that row alone.  Without
    ``group`` a panel's sum depends on that panel alone, bit for bit; with
    it, on its group too.  A row's sums never depend on the other rows.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = (0.5 * (hi - lo))[:, None]
    nodes = (0.5 * (lo + hi))[:, None] + half * _GL_X
    y = density(nodes.ravel())
    one_row = y.ndim == 1
    y = half * y.reshape((-1,) + nodes.shape)
    # row sums by numpy's reduction, not a matrix product: BLAS may sum a
    # row in an order that depends on the number of rows
    sums = (y[..., :10] * _GL10_W).sum(axis=-1)
    errs = np.abs(sums - (y[..., 10:] * _GL5_W).sum(axis=-1))
    scale = np.abs(sums)
    if group is not None:
        scale = np.array([np.bincount(group, weights=row)[group] for row in scale])
    row, k = np.nonzero(~(errs <= cfg.quad_rel_tol * scale))
    if k.size:
        item, shape = np.arange(k.size), (sums.shape[0], k.size)
        own, mark = np.zeros(shape), np.zeros(shape, dtype=bool)
        own[row, item], mark[row, item] = scale[row, k], True
        *_, total, err = _refine(density, lo[k], hi[k], own, cfg, mark)
        sums[row, k], errs[row, k] = total[row, item], err[row, item]
    return (sums[0], errs[0]) if one_row else (sums, errs)


def gauss_legendre(density: Callable[[np.ndarray], np.ndarray], lo, hi,
                   cfg: ToleranceConfig = DEFAULT_CFG) -> np.ndarray:
    """The panel sums of ``gauss_legendre_err``."""
    return gauss_legendre_err(density, lo, hi, cfg)[0]


def _legendre_integral_matrix() -> np.ndarray:
    """The 10x11 matrix from the samples of a density at the nodes
    _GL_X[:10] to the Legendre coefficients of its antiderivative from -1.
    The samples fix the degree-9 interpolant sum_n c_n P_n, with
    c_n = (2n+1)/2 * sum_j w_j P_n(x_j) y_j (the 10-point rule is exact on
    P_n times the interpolant, of degree <= 18); its antiderivative is
    c_0 (P_0 + P_1) plus c_n (P_{n+1} - P_{n-1})/(2n+1) for n >= 1."""
    x = _GL_X[:10]
    p = [np.ones_like(x), x]
    for n in range(1, 9):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    to_c = np.array([(n + 0.5) * _GL10_W * p[n] for n in range(10)]).T
    integral = np.zeros((10, 11))
    integral[0, :2] = 1.0
    for n in range(1, 10):
        integral[n, n + 1], integral[n, n - 1] = 1 / (2 * n + 1), -1 / (2 * n + 1)
    return np.einsum("jn,nk->jk", to_c, integral)


_LEG_INT = _legendre_integral_matrix()
# the recurrences P_{n+1} = (2n+1)/(n+1) t P_n - n/(n+1) P_{n-1} and
# P'_{n+1} = P'_{n-1} + (2n+1) P_n, for n = 1 to 9
_LEG_REC = [((2 * n + 1) / (n + 1), n / (n + 1), 2.0 * n + 1.0)
            for n in range(1, 10)]
_NEWTON_STEPS = 5
_SLOPE_FLOOR = 1e-10  # of the series' total, added to every Newton slope


def legendre_integral(y: np.ndarray) -> np.ndarray:
    """Legendre coefficients on [-1, 1] of the antiderivative from -1 of
    the degree-9 interpolant of samples at the 10-point Gauss nodes: the
    last axis of y, 10 samples, becomes 11 coefficients.  Exact for a
    density of degree <= 9.  By einsum, not a matrix product: BLAS may sum
    a row in an order that depends on the number of rows, and its buffers
    cost resident memory."""
    return np.einsum("...j,jk->...k", y, _LEG_INT)


def legendre(t, c, slope=True):
    """The Legendre series sum_n c[n]*P_n(t), 2 to 11 terms, and its
    derivative in t, by the three-term recurrence: on a Python float t with
    a sequence of floats c, or on an array t with a sequence of arrays c,
    with the same operations, so with the same bits.  With slope false, the
    value alone, with the same bits, and the derivative is not formed."""
    p0, p1, d0, d1 = 1.0, t, 0.0, 1.0
    value, d = c[0] + c[1] * t, c[1]
    for (a, b, k), cn in zip(_LEG_REC, c[2:]):
        if slope:
            d0, d1 = d1, d0 + k * p1
            d = d + cn * d1
        p0, p1 = p1, a * t * p1 - b * p0
        value = value + cn * p1
    return (value, d) if slope else value


def legendre_inverse(q, total, mid, slope0, slope_mid, c):
    """The t in [-1, 1] where the increasing series c, 0 at t = -1, takes
    the value q: on a Python float q with a sequence of floats c, or on an
    array q with a sequence of arrays c, with the same bits.  total and
    mid are the series at t = 1 and t = 0, slope0 >= 0 and
    slope_mid >= 0 its slopes at -1 and 0.  The first guess inverts, on
    the half [-1, 0] or [0, 1] that holds q, the quadratic with the
    half's start value and slope and its end value: exact where the
    density is linear in t, also where it starts from 0, and otherwise off
    by about the cube of the panel width, an eighth of what the quadratic
    across the whole panel misses.  Up to five Newton steps follow: they
    settle to rounding a density exp(t), which changes by a factor of 7.4
    across [-1, 1], while exp(a*t) passes the check of ``legendre_panels``
    only for a below 0.9, a factor of 6.  Every slope is raised by 1e-10 of
    total: that leaves the root where it is and barely slows the steps,
    but keeps them finite where the density vanishes.

    A step is a function of t alone, so the steps stop, with the t that
    all five would end on, once each t repeats: a step that returns its
    own t (a fixed point) or the t before it (a 2-cycle, whose two points
    alternate, so the parity of the steps left picks one).  An array stops
    when every element has repeated.  No step makes -0.0 from anything
    but -0.0, so equal iterates have equal bits."""
    if isinstance(q, np.ndarray):
        sqrt, pick, every = np.sqrt, np.where, np.all
    else:
        sqrt, pick, every = math.sqrt, (lambda upper, a, b: a if upper else b), bool
    upper = q > mid
    start, s = pick(upper, mid, 0.0), pick(upper, slope_mid, slope0)
    rise = pick(upper, total - mid, mid)
    floor = _SLOPE_FLOOR * total
    part = q - start
    u = 2.0 * part / (s + sqrt(abs(s * s + 4.0 * (rise - s) * part)) + floor)
    t = u + pick(upper, 0.0, -1.0)
    before = math.nan  # the t before the current one; equal to no t
    for left in range(_NEWTON_STEPS - 1, -1, -1):
        value, slope = legendre(t, c)
        step = t - (value - q) / (slope + floor)
        if every((step == t) | (step == before)):
            return t if left % 2 else step
        before, t = t, step
    return t


def legendre_panels(density: Callable[[np.ndarray], np.ndarray], lo, hi,
                    cfg: ToleranceConfig = DEFAULT_CFG
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Antiderivatives of density, panel by panel, as Legendre series.

    density maps a 1-D array of points to a 2-D array with one row per
    integrand.  Each panel [lo[k], hi[k]] is sampled at the 15 nodes of
    ``gauss_legendre_err`` and passes, as there, where in every row the
    10-point sum is within quad_rel_tol of itself from the 5-point one.
    The panels that fail go to ``_refine`` together, with their |10-point
    sums| as scale; the first 10 of a refined piece's 21 nodes are the
    Gauss nodes.  Returns the pieces sorted by lo: their edges lo and hi,
    each row's antiderivative from lo as 11 coefficients in the local
    t = (2x - lo - hi)/(hi - lo), ``legendre_integral`` of the 10 Gauss
    samples times the half width, shape (rows, pieces, 11), and the
    10-point sums of the same samples, shape (rows, pieces).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X
    y = density(nodes.ravel())
    y = y.reshape(y.shape[:-1] + nodes.shape)
    sums = half * np.einsum("...j,j->...", y[..., :10], _GL10_W)
    errs = np.abs(sums - half * np.einsum("...j,j->...", y[..., 10:], _GL5_W))
    good = np.all(errs <= cfg.quad_rel_tol * np.abs(sums), axis=0)
    if good.all():
        return lo, hi, half[:, None] * legendre_integral(y[..., :10]), sums
    coeffs = half[good, None] * legendre_integral(y[:, good, :10])
    p_lo, p_hi, p_y, _, _ = _refine(density, lo[~good], hi[~good],
                                    np.abs(sums[:, ~good]), cfg)
    half, p_y = 0.5 * (p_hi - p_lo), p_y[..., :10].swapaxes(0, 1)
    lo, hi = np.concatenate((lo[good], p_lo)), np.concatenate((hi[good], p_hi))
    coeffs = np.concatenate((coeffs, half[:, None] * legendre_integral(p_y)), axis=1)
    sums = np.concatenate((sums[:, good], half * np.einsum("...j,j->...", p_y, _GL10_W)),
                          axis=1)
    order = np.argsort(lo)
    return lo[order], hi[order], coeffs[:, order], sums[:, order]


def hermite(x, y0, d0, c2, c3):
    """The cubic y0 + x*(d0 + x*(c2 + x*c3)) and its first and second
    derivatives in x, on Python floats or numpy arrays alike."""
    return (y0 + x * (d0 + x * (c2 + x * c3)),
            d0 + x * (2.0 * c2 + 3.0 * x * c3),
            2.0 * c2 + 6.0 * x * c3)


class HermiteSpline:
    """Piecewise cubic Hermite interpolant of nodes t_i, values y_i and
    slopes s_i.  On interval i, with width h, x = (t - t_i)/h, d0 = h*s_i,
    d1 = h*s_{i+1} and dy = y_{i+1} - y_i, the cubic is ``hermite`` with
    c2 = 3*dy - 2*d0 - d1 and c3 = d0 + d1 - 2*dy.  A t at a node takes the
    interval that starts there; a t outside [t_0, t_n] extends the first or
    last cubic.  The scalar call, which returns (y, y', y''), ``values``
    and ``triple`` run the same operations on the same coefficients, so
    they agree bit for bit."""

    def __init__(self, t: np.ndarray, y: np.ndarray, slopes: np.ndarray):
        self._t = t
        self._h = np.diff(t)
        dy = np.diff(y)
        d0, d1 = self._h * slopes[:-1], self._h * slopes[1:]
        self._c = (y[:-1], d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy)

    @functools.cached_property
    def _lists(self) -> tuple:
        """The same numbers as lists, which the scalar call indexes faster;
        built on the first scalar call."""
        return (self._t.tolist(), self._h.tolist(),
                list(zip(*(c.tolist() for c in self._c))))

    def __call__(self, t: float) -> Tuple[float, float, float]:
        t = float(t)
        ts, hs, cs = self._lists
        i = min(max(bisect_right(ts, t) - 1, 0), len(hs) - 1)
        h = hs[i]
        v, d1, d2 = hermite((t - ts[i]) / h, *cs[i])
        return v, d1 / h, d2 / (h * h)

    def _local(self, ts: np.ndarray) -> tuple:
        """``hermite`` at each t of an array, in its interval's x, and the
        interval widths."""
        i = np.clip(np.searchsorted(self._t, ts, side="right") - 1, 0,
                    self._h.size - 1)
        h = self._h[i]
        return hermite((ts - self._t[i]) / h, *(c[i] for c in self._c)), h

    def values(self, ts: np.ndarray) -> np.ndarray:
        return self._local(ts)[0][0]

    def triple(self, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y, y', y'') at each t of a 1-D array."""
        (v, d1, d2), h = self._local(ts)
        return v, d1 / h, d2 / (h * h)


def pchip_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone piecewise cubic through (t_i, y_i): the
    weighted harmonic mean of the adjacent secant slopes where they share a
    sign, else 0 (Fritsch and Carlson 1980; Fritsch and Butland 1984), and
    at each end the one-sided three-point estimate, set to 0 where its sign
    differs from the end secant's and limited to 3 times that secant where
    the first two secants differ in sign (Moler, Numerical Computing with
    MATLAB, 2004, Sec. 3.6).  Needs at least 3 nodes."""
    h = np.diff(t)
    m = np.diff(y) / h
    slopes = np.zeros_like(y)
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    w1 = (2.0 * h[1:] + h[:-1])[inner]
    w2 = (h[1:] + 2.0 * h[:-1])[inner]
    slopes[1:-1][inner] = 1.0 / ((w1 / m[:-1][inner] + w2 / m[1:][inner])
                                 / (w1 + w2))
    for k, j in ((0, 1), (-1, -2)):  # each end secant and its neighbour
        d = ((2.0 * h[k] + h[j]) * m[k] - h[k] * m[j]) / (h[k] + h[j])
        if np.sign(d) != np.sign(m[k]):
            d = 0.0
        elif np.sign(m[k]) != np.sign(m[j]) and abs(d) > 3.0 * abs(m[k]):
            d = 3.0 * m[k]
        slopes[k] = d
    return slopes


# Dormand-Prince RK5(4) tableau (Dormand & Prince 1980): stage nodes, stage
# rows, the 5th-order weights, the error weights (5th minus 4th order; the
# last multiplies the first-same-as-last stage), and Shampine's (1986)
# quartic dense-output coefficients, one row of four per stage.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)  # b2 = 0
_DP_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
         1 / 40)  # e2 = 0
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


class DenseSolution:
    """Dense output of ``dormand_prince``: on step i, from node t_i with
    y_i and width h_i, y(t) = y_i + h_i*x*(q0 + x*(q1 + x*(q2 + x*q3)))
    with x = (t - t_i)/h_i.  A t at a node takes the step that ends there;
    a t outside [t0, t1] extends the first or last step.  The scalar call
    and ``values`` run the same operations on the same coefficients, so
    they agree bit for bit."""

    def __init__(self, ts: list, ys: list, stages: list):
        self._t = np.array(ts)
        self._y = np.array(ys)
        self._h = np.diff(self._t)
        self._q = (np.array(stages) @ _DP_P).T
        # the same numbers as lists, which the scalar call indexes faster
        self._ts, self._ys, self._hs = ts, ys, self._h.tolist()
        self._qs = list(zip(*self._q.tolist()))
        self.steps = len(stages)

    def __call__(self, t: float) -> float:
        i = min(max(bisect_left(self._ts, t) - 1, 0), self.steps - 1)
        h = self._hs[i]
        x = (t - self._ts[i]) / h
        q0, q1, q2, q3 = self._qs[i]
        return self._ys[i] + h * x * (q0 + x * (q1 + x * (q2 + x * q3)))

    def values(self, ts: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self._t, ts) - 1, 0, self.steps - 1)
        h = self._h[i]
        x = (ts - self._t[i]) / h
        q0, q1, q2, q3 = self._q[:, i]
        return self._y[i] + h * x * (q0 + x * (q1 + x * (q2 + x * q3)))


def dormand_prince(fun: Callable[[float, float], float], t0: float,
                   t1: float, y0: float, rtol: float,
                   atol: float) -> DenseSolution:
    """Solve the scalar ODE y' = fun(t, y), y(t0) = y0, on [t0, t1], t1 > t0.

    Dormand-Prince RK5(4) on Python floats, with the step control of the
    RK45 method of ``solve_ivp`` (Hairer, Norsett and Wanner, Sec. II.4):
    the same initial-step rule, the local error of a step measured against
    atol + rtol*max(|y|, |y_new|), step factors 0.9*err^(-1/5) limited to
    [0.2, 10], and no growth right after a rejection.  Raises
    NonConvergence when the step falls below ten times the spacing of
    floats at t or is not finite (a NaN y0 or error estimate), DomainError
    unless t0 < t1 are finite.
    """
    if not -math.inf < t0 < t1 < math.inf:
        raise DomainError(f"need finite t0 < t1, got [{t0}, {t1}]")
    c2, c3, c4, c5 = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, b3, b4, b5, b6 = _DP_B
    e1, e3, e4, e5, e6, e7 = _DP_E
    length = t1 - t0
    f = fun(t0, y0)
    scale = atol + abs(y0) * rtol
    d0, d1 = abs(y0 / scale), abs(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    d2 = abs((fun(t0 + h0, y0 + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, length)

    t, y = t0, y0
    ts, ys, stages = [t], [y], []
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not min_step <= h_abs < math.inf:  # false for a NaN step
                raise NonConvergence(f"step size {h_abs} is not finite or less "
                                     f"than the spacing between numbers at t={t}")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            k2 = fun(t + c2 * h, y + (a21 * f) * h)
            k3 = fun(t + c3 * h, y + (a31 * f + a32 * k2) * h)
            k4 = fun(t + c4 * h, y + (a41 * f + a42 * k2 + a43 * k3) * h)
            k5 = fun(t + c5 * h,
                     y + (a51 * f + a52 * k2 + a53 * k3 + a54 * k4) * h)
            k6 = fun(t + h, y + (a61 * f + a62 * k2 + a63 * k3 + a64 * k4
                                 + a65 * k5) * h)
            y_new = y + h * (b1 * f + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
            f_new = fun(t_new, y_new)
            err = (e1 * f + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6
                   + e7 * f_new) * h
            err = abs(err / (atol + max(abs(y), abs(y_new)) * rtol))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        stages.append((f, k2, k3, k4, k5, k6, f_new))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return DenseSolution(ts, ys, stages)


_ROOT_RTOL = 8.9e-16  # relative step floor of root finding, about 4 ulp
_ROOT_MAX_ITER = 100


def find_root(f: Callable[[float], float], lo: float, hi: float,
              cfg: ToleranceConfig = DEFAULT_CFG) -> float:
    """Locate a root of f inside the bracket [lo, hi].

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps
    while they shrink the bracket fast enough, bisection otherwise, to a
    bracket of root_tol plus 4 ulp.  The returned point always lies inside
    the initial bracket.  Raises NoBracket when f(lo) and f(hi) have the
    same strict sign, NonConvergence after 100 iterations.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise NoBracket(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    # cur: best iterate; blk: the other end of the bracket; pre: the
    # previous iterate; scur and spre: the last two steps
    xpre, fpre, xcur, fcur = lo, flo, hi, fhi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (cfg.root_tol + _ROOT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return min(max(xcur, lo), hi)
        stry = math.inf  # bisect unless interpolation is taken below
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NonConvergence(f"root finding on [{lo}, {hi}] did not converge")


def newton_roots(fdf: Callable[[np.ndarray, np.ndarray],
                               Tuple[np.ndarray, np.ndarray]],
                 x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 cfg: ToleranceConfig = DEFAULT_CFG) -> np.ndarray:
    """Roots of many functions at once, one in each bracket [lo_k, hi_k]
    where f_k(lo_k) <= 0 <= f_k(hi_k), from the starts x_k in the brackets.

    fdf(xs, ks) returns f and f' at the points xs of the elements ks (an
    index array); the last point it sees of an element is the root
    returned.  A safeguarded Newton iteration on every element (rtsafe,
    Press et al., Numerical Recipes, 3rd ed., Sec. 9.4): each element
    keeps its bracket and bisects it where the Newton step would leave it,
    or would not halve the step before last.  An element stops at a point
    where f = 0, or where the next step is at most half of ``find_root``'s
    tolerance, root_tol + 8.9e-16*|x|.  Raises NonConvergence after 100
    iterations.
    """
    x, lo, hi = (np.array(v, dtype=float) for v in (x, lo, hi))
    last = hi - lo  # the step before last; the bracket, at the start
    todo = np.arange(x.size)
    for _ in range(_ROOT_MAX_ITER):
        xs = x[todo]
        f, df = fdf(xs, todo)
        lo[todo] = np.where(f < 0.0, xs, lo[todo])
        hi[todo] = np.where(f > 0.0, xs, hi[todo])
        a, b = lo[todo], hi[todo]
        with np.errstate(all="ignore"):  # df = 0 gives no Newton step
            newton = xs - f / df
            slow = np.abs(2.0 * f) > np.abs(last[todo] * df)
        bisect = slow | ~((newton >= a) & (newton <= b))
        nxt = np.where(bisect, 0.5 * (a + b), newton)
        step = nxt - xs
        done = (f == 0.0) | (np.abs(step)
                             <= 0.5 * (cfg.root_tol + _ROOT_RTOL * np.abs(xs)))
        x[todo] = np.where(done, xs, nxt)
        last[todo] = step
        todo = todo[~done]
        if not todo.size:
            return x
    raise NonConvergence(f"Newton iteration on {todo.size} brackets did not "
                         f"converge in {_ROOT_MAX_ITER} steps")


def _aitken_stage(seq: Sequence[float]) -> list:
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        denom = (c - b) - (b - a)
        # A vanishing second difference means the tail is (locally) exact.
        if abs(denom) <= 1e-300 + 1e-14 * (abs(a) + abs(b) + abs(c)):
            out.append(c)
        else:
            out.append(c - (c - b) ** 2 / denom)
    return out


def _aitken_limit(values: Sequence[float]) -> Tuple[float, float]:
    """Iterated Aitken delta-squared; returns (limit, last inter-stage diff)."""
    raw_diff = abs(values[-1] - values[-2])
    stage = list(values)
    prev_last = values[-1]
    err = raw_diff
    while len(stage) >= 3:
        nxt = _aitken_stage(stage)
        if not all(math.isfinite(v) for v in nxt):
            return values[-1], raw_diff
        step = abs(nxt[-1] - prev_last)
        if step > 10.0 * max(raw_diff, abs(values[-1]) + 1.0):
            # Acceleration is blowing up; fall back to the raw tail.
            return values[-1], raw_diff
        err = step
        prev_last = nxt[-1]
        stage = nxt
    return prev_last, err


def _neville_limit(params: Sequence[float], values: Sequence[float]) -> Tuple[float, float]:
    """Polynomial extrapolation in 1/parameter toward 0 (Neville's scheme)."""
    x = [1.0 / p for p in params]
    col = list(values)
    prev = col[-1]
    err = abs(col[-1] - col[-2])
    n = len(col)
    for k in range(1, n):
        nxt = []
        for i in range(n - k):
            denom = x[i] - x[i + k]
            nxt.append((0.0 - x[i + k]) / denom * col[i]
                       + (x[i] - 0.0) / denom * col[i + 1])
        if not all(math.isfinite(v) for v in nxt):
            return prev, math.inf
        err = abs(nxt[-1] - prev)
        prev = nxt[-1]
        col = nxt
    return prev, err


def extrapolate_limit(seq: Sequence[Tuple[float, float]],
                      cfg: ToleranceConfig = DEFAULT_CFG) -> Tuple[float, float]:
    """Estimate the limit of a sequence of (parameter, value) pairs.

    Two accelerators run side by side: iterated Aitken delta-squared (exact
    on geometrically converging tails, no rate assumption) and Neville
    polynomial extrapolation in the inverse parameter (exact on power-law
    tails such as 1/n).  The better self-certified result wins; the error
    estimate is that accelerator's last inter-stage difference.  If both
    diverge, the raw final value is returned with the last raw difference.
    Raises InsufficientData unless the parameters increase strictly from
    above 0, where their inverses are finite.
    """
    if len(seq) < cfg.extrap_terms:
        raise InsufficientData(
            f"need at least {cfg.extrap_terms} terms, got {len(seq)}")
    params = [float(s[0]) for s in seq]
    if any(b <= a for a, b in zip(params, params[1:])):
        raise InsufficientData("parameters must be strictly increasing")
    if params[0] <= 0.0:
        raise InsufficientData(f"parameters must be positive, got {params[0]}")

    values = [float(s[1]) for s in seq]
    lim_a, err_a = _aitken_limit(values)
    lim_n, err_n = _neville_limit(params, values)
    # Trust the polynomial route only when it clearly certifies itself
    # better; wild alternating Neville columns can fake small diffs.
    spread = max(values) - min(values)
    if err_n < 0.1 * err_a and abs(lim_n - values[-1]) <= 2.0 * spread + err_a:
        return lim_n, err_n
    return lim_a, err_a
