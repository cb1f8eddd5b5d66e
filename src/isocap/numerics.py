"""Deterministic numerics shared by every other module.

Quadrature over arrays of panels: a fixed Gauss-Legendre rule, and one
adaptive refinement behind it, which halves the panels the fixed rule
flags level by level on the 21-point Gauss-Kronrod rule, one integrand
call per level for all of them, within ``ToleranceConfig.max_subdivisions``
pieces per panel; ``integrate`` is that refinement on one finite interval.
Antiderivatives as per-panel series, built from Legendre coefficients and
kept as monomial ones read by Horner's rule, their inverse and ODE
solutions as such series by Picard iteration, held with the monotone
(PCHIP) cubics of tables by one piecewise-polynomial type ``PanelSeries``,
bracketed root finding (Brent 1973), a safeguarded Newton pass over many
brackets at once, and Aitken limit extrapolation.  All routines are pure
functions of their inputs, with no shared mutable state, and need only numpy.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigError, DomainError, EvalError, InsufficientData,
                     NoBracket, NonConvergence)

__all__ = ["ToleranceConfig", "integrate", "gauss_legendre",
           "gauss_legendre_err", "legendre_panels", "legendre_integral",
           "horner", "legendre_inverse", "picard_panels", "PanelSeries",
           "pchip_slopes",
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


def _legendre_matrices() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four constant matrices of the degree-10 series on [-1, 1]:

    * 10x11, from the samples of a density at the nodes _GL_X[:10] to the
      Legendre coefficients of its antiderivative from -1.  The samples fix
      the degree-9 interpolant sum_n c_n P_n, with
      c_n = (2n+1)/2 * sum_j w_j P_n(x_j) y_j (the 10-point rule is exact
      on P_n times the interpolant, of degree <= 18); its antiderivative is
      c_0 (P_0 + P_1) plus c_n (P_{n+1} - P_{n-1})/(2n+1) for n >= 1.
    * 15x17, one Picard sweep from the samples at the 15 nodes _GL_X: the
      10-point weights, the 5-point weights, and that antiderivative at the
      15 nodes (the first matrix, then P_0 to P_10 there), with zero rows
      for the 5-point samples.
    * 10x30, from the 10 samples to that antiderivative at the 15 nodes of
      each half, [-1, 0] then [0, 1], in the variable of [-1, 1].
    * 11x11, row n the monomial coefficients of P_n, all exact (dyadic
      rationals, each step's quotient representable).

    Each by the recurrence P_{n+1} = ((2n+1) t P_n - n P_{n-1})/(n+1)."""
    x = np.concatenate((_GL_X, 0.5 * _GL_X - 0.5, 0.5 * _GL_X + 0.5))
    p = [np.ones_like(x), x]
    mono = [np.eye(11)[0], np.eye(11)[1]]
    for n in range(1, 10):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
        mono.append(((2 * n + 1) * np.roll(mono[n], 1) - n * mono[n - 1]) / (n + 1))
    to_c = np.array([(n + 0.5) * _GL10_W * p[n][:10] for n in range(10)]).T
    integral = np.zeros((10, 11))
    integral[0, :2] = 1.0
    for n in range(1, 10):
        integral[n, n + 1], integral[n, n - 1] = 1 / (2 * n + 1), -1 / (2 * n + 1)
    to_int = np.einsum("jn,nk->jk", to_c, integral)
    at = np.einsum("jn,nk->jk", to_int, np.array(p))
    sweep = np.zeros((15, 17))
    sweep[:10, 0], sweep[10:, 1], sweep[:10, 2:] = _GL10_W, _GL5_W, at[:, :15]
    return to_int, sweep, at[:, 15:], np.array(mono)


_LEG_INT, _LEG_SWEEP, _LEG_TO_HALVES, _LEG_TO_MONO = _legendre_matrices()
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


def _antiderivative(half: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 11 monomial coefficients in t of ``legendre_integral`` of the
    samples y times the half widths: Legendre first, then the constant
    11x11 change of basis.  Folded into one matrix on the samples, the
    change of basis, with entries up to 427 of alternating sign, would
    cost digits."""
    return np.einsum("...j,jk->...k", half[:, None] * legendre_integral(y),
                     _LEG_TO_MONO)


def horner(t, c, slope=True):
    """The polynomial sum_k c[k]*t^k, 2 to 11 terms, and its derivative in
    t, by Horner's rule: on a Python float t with a sequence of floats c,
    or on an array t with a sequence of arrays c, with the same operations,
    so with the same bits.  With slope false, the value alone, with the
    same bits, and the derivative is not formed."""
    value, d = c[-1], 0.0
    for k, ck in enumerate(c[-2::-1]):
        if slope:
            d = d * t + value if k else value
        value = value * t + ck
    return (value, d) if slope else value


def legendre_inverse(q, total, slope0, slope_mid, slope1, c):
    """The t in [-1, 1] where the increasing series c (monomial
    coefficients in t, read by ``horner``), 0 at t = -1, takes the value q:
    on a Python float q with a sequence of floats c, or on an array q with
    a sequence of arrays c, with the same bits.  total is the series at
    t = 1, c[0] its middle value, slope0, slope_mid and slope1 >= 0 its
    slopes at -1, 0 (c[1]) and 1, each raised to 0.  The first guess
    inverts, on the half [-1, 0] or [0, 1] that holds q, the quadratic with
    the half's start value and slope and its end value, then takes one
    Newton step on the half's cubic Hermite model, which adds the end
    slope, unless the step is longer than u*(1 - u) in the half's variable
    u in [0, 1], where the two models part.  It reads no series, and it is
    exact where the density is quadratic in t but for that step's
    residual, of second order in the quadratic's miss, and otherwise off
    by about the fourth power of the panel width.  Up to five Newton steps
    on the series follow: they settle to rounding a density exp(t), which
    changes by a factor of 7.4 across [-1, 1], while exp(a*t) passes the
    check of ``legendre_panels`` only for a below 0.9, a factor of 6.
    Every slope is raised by 1e-10 of total: that leaves the root where it
    is and barely slows the steps, but keeps them finite where the density
    vanishes.

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
    mid = c[0]
    upper = q > mid
    start, s = pick(upper, mid, 0.0), pick(upper, slope_mid, slope0)
    rise = pick(upper, total - mid, mid)
    floor = _SLOPE_FLOOR * total
    part = q - start
    u = 2.0 * part / (s + sqrt(abs(s * s + 4.0 * (rise - s) * part)) + floor)
    # the Hermite cubic exceeds that quadratic by cubic * u^2 * (u - 1)
    cubic = s + pick(upper, slope1, slope_mid) - 2.0 * rise
    rate = s + u * (2.0 * (rise - s) + cubic * (3.0 * u - 2.0)) + floor
    step = u - cubic * u * u * (u - 1.0) / rate
    t = pick(abs(cubic) * u <= rate, step, u) + pick(upper, 0.0, -1.0)
    before = math.nan  # the t before the current one; equal to no t
    for left in range(_NEWTON_STEPS - 1, -1, -1):
        value, slope = horner(t, c)
        step = t - (value - q) / (slope + floor)
        if every((step == t) | (step == before)):
            return t if left % 2 else step
        before, t = t, step
    return t


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Half widths of the panels [lo[k], hi[k]] and their 15 nodes, the
    10-point Gauss nodes then the 5-point ones, shape (panels, 15)."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X


def _panel_sums(half: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 10-point sums of samples y at the nodes of ``_panel_nodes`` (the
    last axis) and their distances from the 5-point sums."""
    sums = half * np.einsum("...j,j->...", y[..., :10], _GL10_W)
    return sums, np.abs(sums - half * np.einsum("...j,j->...", y[..., 10:], _GL5_W))


def legendre_panels(density: Callable[[np.ndarray], np.ndarray], lo, hi,
                    cfg: ToleranceConfig = DEFAULT_CFG
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Antiderivatives of density, panel by panel, as polynomial series.

    density maps a 1-D array of points to a 2-D array with one row per
    integrand.  Each panel [lo[k], hi[k]] is sampled at the 15 nodes of
    ``gauss_legendre_err`` and passes, as there, where in every row the
    10-point sum is within quad_rel_tol of itself from the 5-point one.
    The panels that fail go to ``_refine`` together, with their |10-point
    sums| as scale; the first 10 of a refined piece's 21 nodes are the
    Gauss nodes.  Returns the pieces sorted by lo: their edges lo and hi,
    each row's antiderivative from lo as 11 monomial coefficients in the
    local t = (2x - lo - hi)/(hi - lo), ``legendre_integral`` of the 10
    Gauss samples times the half width converted once (read them by
    ``horner``), shape (rows, pieces, 11), and the 10-point sums of the
    same samples, shape (rows, pieces).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half, nodes = _panel_nodes(lo, hi)
    y = density(nodes.ravel())
    y = y.reshape(y.shape[:-1] + nodes.shape)
    sums, errs = _panel_sums(half, y)
    good = np.all(errs <= cfg.quad_rel_tol * np.abs(sums), axis=0)
    if good.all():
        return lo, hi, _antiderivative(half, y[..., :10]), sums
    coeffs = _antiderivative(half[good], y[:, good, :10])
    p_lo, p_hi, p_y, _, _ = _refine(density, lo[~good], hi[~good],
                                    np.abs(sums[:, ~good]), cfg)
    half, p_y = 0.5 * (p_hi - p_lo), p_y[..., :10].swapaxes(0, 1)
    lo, hi = np.concatenate((lo[good], p_lo)), np.concatenate((hi[good], p_hi))
    coeffs = np.concatenate((coeffs, _antiderivative(half, p_y)), axis=1)
    sums = np.concatenate((sums[:, good], half * np.einsum("...j,j->...", p_y, _GL10_W)),
                          axis=1)
    order = np.argsort(lo)
    return lo[order], hi[order], coeffs[:, order], sums[:, order]


_PICARD_RTOL, _PICARD_ATOL = 1e-11, 1e-12
_PICARD_SWEEPS = 200


def picard_panels(sample: Callable[[np.ndarray], np.ndarray],
                  rate: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  density: Callable[[np.ndarray], np.ndarray],
                  y0: float, lo, hi
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve y' = rate(d, y), y(lo[0]) = y0, by Picard iteration on
    per-panel polynomial series over the contiguous panels [lo[k], hi[k]],
    and integrate density(y) alongside.

    sample maps a 1-D array of points to the data d there; it is called
    once on the nodes of ``_panel_nodes`` of every panel.  From the guess
    y = y0 + x - lo[0], each sweep sets y at every node to y0 plus the
    integral of y': the antiderivative of the degree-9 interpolant of its
    panel's 10 Gauss samples (``legendre_integral``) plus the running sum
    of the 10-point sums of the panels before: one contraction of the 15
    samples of y' with the constant 15x17 matrix of ``_legendre_matrices``
    gives both sums and the new y.  It halves each panel whose 10-point
    sum of y' is off its 5-point one by more than 1e-11*|y| + 1e-12, y at
    the panel's end.  (Relative to the panel's increment, the test would
    halve without end where y' falls to 0 like a square root.)  The halves
    take the panel's place in the arrays, and y at their nodes is the
    panel's series there, one contraction of its 10 Gauss samples with the
    constant 10x30 matrix; only their new nodes are sampled.  The sweeps
    end when none halves and none moves a node by more than 4 ulp.
    Returns, as ``legendre_panels`` does, the panels' edges, sorted, and
    for y - y0 and the integral of density(y) the 11 monomial coefficients
    of each panel's increase in its local variable t = (2x - lo - hi) /
    (hi - lo), converted once from ``legendre_integral``, shape (2, panels,
    11), and the panels' 10-point sums, shape (2, panels).  Raises
    NonConvergence where a rate is not finite, a panel to halve has no
    float inside, or 200 sweeps do not settle.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half, x = _panel_nodes(lo, hi)
    data, y = sample(x.ravel()).reshape(x.shape), y0 + (x - lo[0])
    for _ in range(_PICARD_SWEEPS):
        r = rate(data, y)
        if not np.isfinite(r).all():
            raise NonConvergence("a rate is not finite")
        sweep = half[:, None] * np.einsum("pj,jk->pk", r, _LEG_SWEEP)
        sums, errs = sweep[:, 0], np.abs(sweep[:, 0] - sweep[:, 1])
        edges = np.cumsum(np.concatenate(([y0], sums)))  # y at each lo, hi[-1]
        split = errs > _PICARD_RTOL * np.abs(edges[1:]) + _PICARD_ATOL
        new = edges[:-1, None] + sweep[:, 2:]
        if not split.any():
            if np.all(np.abs(new - y) <= 4.0 * _EPS * np.abs(new)):
                v = density(new)
                return (lo, hi, _antiderivative(half, np.stack((r, v))[..., :10]),
                        np.stack((sums, _panel_sums(half, v)[0])))
            y = new
            continue
        k = np.flatnonzero(split)
        mid = 0.5 * (lo[k] + hi[k])
        if not np.all((lo[k] < mid) & (mid < hi[k])):
            raise NonConvergence(f"no float inside [{lo[k][0]}, {hi[k][0]}] to halve at")
        # the halves' nodes on the parent's series, left half then right
        start = edges[k, None] + half[k, None] * np.einsum(
            "pj,jk->pk", r[k, :10], _LEG_TO_HALVES)
        # each panel halved in place: its index taken twice, the left
        # half ending and the right half starting at mid
        take, left = np.repeat(np.arange(lo.size), split + 1), k + np.arange(k.size)
        lo, hi, data, y, fresh = lo[take], hi[take], data[take], new[take], split[take]
        hi[left], lo[left + 1] = mid, mid
        half, x = _panel_nodes(lo, hi)
        data[fresh] = sample(x[fresh].ravel()).reshape(-1, 15)
        y[fresh] = start.reshape(-1, 15)
    raise NonConvergence(f"{_PICARD_SWEEPS} Picard sweeps did not settle")


_RANGE_SLACK = 1e-12  # of max(1, |end|): how far past an end a series reads


class PanelSeries:
    """A piecewise polynomial in rows on contiguous pieces, the one format
    of tables, gauge conversions and generated metrics.  Piece k is
    [edges[k], edges[k+1]], with the local variable t = (x - origin[k]) /
    scale[k] (its middle and half width for the series of
    ``legendre_panels`` and ``picard_panels``, its left edge and width for
    a table's cubic); row r there is nodes[r, k] + sum_j coeffs[r, k, j]*t^j,
    read by ``horner``, nodes[r] being the row's values at the edges.  A
    point on an inner edge takes the piece that starts there.  Given
    totals, the increase of row 0 across each piece, row 0 is increasing
    and 0 at t = -1, and ``solve`` inverts it; the totals and the slopes at
    t = -1, 0 and 1, raised to 0, are added to the pieces on the first
    solve, so a series never solved does not pay for them.

    ``at`` and ``solve`` return a piece p and t: p is the piece's numbers
    as a Python list for a float (made on the piece's first read), or the
    numbers of each element's piece as the rows of a 2-D array for a 1-D
    array; ``read``, ``point`` and ``local`` run the same operations on
    either, with the same bits.  One range rule: a point within
    1e-12*max(1, |end|) past an end of [edges[0], edges[-1]] (of
    [nodes[0, 0], nodes[0, -1]] for ``solve``) is read on the end piece;
    any other, NaN too, raises EvalError naming it, an array's first."""

    def __init__(self, edges, origin, scale, nodes, coeffs, label: str,
                 totals=None):
        self.edges, self.nodes, self.label = edges, nodes, label
        rows, n = nodes.shape[0], coeffs.shape[-1]
        # one column per piece: origin, scale, each row's start and
        # coefficients (their column and slice here), after a solve the guide
        self._rows = [(s, slice(s + 1, s + 1 + n)) for s in range(2, 2 + rows * (n + 1), n + 1)]
        self._cols = np.concatenate([origin[None], scale[None]] + [
            b for r in range(rows) for b in (nodes[r:r + 1, :-1], coeffs[r].T)])
        self._pieces = [None] * (edges.size - 1)
        self._x, self._totals = self._axis(edges), totals

    @classmethod
    def integral(cls, lo, hi, coeffs, sums, first, label: str) -> "PanelSeries":
        """The solvable series of ``legendre_panels`` or ``picard_panels``
        output, row r running from first[r] by the sums."""
        nodes = np.cumsum(np.column_stack((first, sums)), axis=1)
        return cls(np.append(lo, hi[-1]), 0.5 * (lo + hi), 0.5 * (hi - lo),
                   nodes, coeffs, label, sums[0])

    @staticmethod
    def _axis(nodes: np.ndarray) -> list:
        """Range with slack, ends, inner nodes (array; list once needed)."""
        lo, hi = float(nodes[0]), float(nodes[-1])
        return [lo - _RANGE_SLACK * max(1.0, abs(lo)),
                hi + _RANGE_SLACK * max(1.0, abs(hi)), lo, hi, nodes[1:-1], None]

    @functools.cached_property
    def _y(self) -> list:
        """The axis of row 0's values; adds the guide of ``solve``."""
        c = self._cols[self._rows[0][1]]
        first, last = horner(np.array([[-1.0], [1.0]]), c)[1]
        self._cols = np.concatenate((self._cols, self._totals[None],
                                     np.maximum((first, c[1], last), 0.0)))
        self._pieces = [None] * len(self._pieces)
        return self._axis(self.nodes[0])

    def _find(self, x, axis: list):
        lo, hi, end0, end1, inner, listed = axis
        if isinstance(x, np.ndarray):
            if not x.size or lo <= x.min() and x.max() <= hi:
                return np.take(self._cols, np.searchsorted(inner, x, side="right"), axis=1)
            x = x[~((x >= lo) & (x <= hi))][0]
        elif lo <= x <= hi:
            if listed is None:
                listed = axis[5] = inner.tolist()
            k = bisect_right(listed, x)
            p = self._pieces[k]
            if p is None:
                p = self._pieces[k] = self._cols[:, k].tolist()
            return p
        raise EvalError(f"radius {float(x)} outside {self.label} range [{end0}, {end1}]")

    def at(self, x):
        """The piece p of x and t there."""
        p = self._find(x, self._x)
        return p, (x - p[0]) / p[1]

    def solve(self, y):
        """The piece p and t where row 0 is y, by ``legendre_inverse``."""
        p = self._find(y, self._y)
        start, c = self._rows[0]
        return p, legendre_inverse(y - p[start], *p[-4:], p[c])

    def read(self, p, t, row: int = 0):
        """The row's value at t of the piece p."""
        start, c = self._rows[row]
        return p[start] + horner(t, p[c], slope=False)

    def point(self, p, t):
        """The x at t of the piece p."""
        return p[0] + p[1] * t

    def local(self, p, row: int = 0) -> tuple:
        """The piece's scale, and the row's start value and coefficients."""
        start, c = self._rows[row]
        return p[1], p[start], p[c]


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
