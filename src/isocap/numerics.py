"""Deterministic numerics shared by every other module.

Adaptive quadrature on finite and semi-infinite intervals, fixed-rule
quadrature over arrays of panels, bracketed root finding, and Aitken limit
extrapolation.  All routines are pure functions of their inputs; there is
no shared mutable state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
import scipy.integrate
import scipy.optimize

from .errors import DomainError, InsufficientData, NoBracket, NonConvergence

__all__ = ["ToleranceConfig", "integrate", "gauss_legendre", "find_root",
           "extrapolate_limit"]


@dataclass(frozen=True)
class ToleranceConfig:
    """Bundle of tolerances threaded through every numerical operation."""

    quad_rel_tol: float = 1e-10
    quad_abs_tol: float = 1e-12
    root_tol: float = 1e-12
    max_subdivisions: int = 60
    extrap_terms: int = 6
    cutoff_radius: float = 1e8

    def __post_init__(self):
        if min(self.quad_rel_tol, self.quad_abs_tol, self.root_tol) <= 0.0:
            raise ValueError("tolerances must be strictly positive")
        if self.extrap_terms < 3:
            raise ValueError("extrap_terms must be at least 3")
        if self.cutoff_radius <= 1.0:
            raise ValueError("cutoff_radius must exceed 1")


DEFAULT_CFG = ToleranceConfig()


def integrate(f: Callable[[float], float], lo: float, hi: float,
              cfg: ToleranceConfig = DEFAULT_CFG) -> Tuple[float, float]:
    """Integrate f over (lo, hi); hi may be ``math.inf``.

    The semi-infinite range is mapped to [0, 1) by the rational substitution
    s = lo + u/(1-u), never truncated at a hard cutoff.  Returns the value
    and an error estimate.

    Raises NonConvergence when the subdivision budget is exhausted without
    reaching the requested accuracy, DomainError when lo >= hi.
    """
    if not lo < hi:
        raise DomainError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")

    if math.isinf(hi):
        def g(u: float) -> float:
            w = 1.0 - u
            if w <= 0.0:  # subdivision rounded onto the endpoint
                return math.inf
            return f(lo + u / w) / (w * w)
        lo_t, hi_t = 0.0, 1.0
    else:
        g, lo_t, hi_t = f, lo, hi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        value, abserr, info, *tail = scipy.integrate.quad(
            g, lo_t, hi_t,
            epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol,
            limit=cfg.max_subdivisions, full_output=True)
    if tail:  # quad appended an error message: the estimate is unreliable
        budget = max(cfg.quad_abs_tol, cfg.quad_rel_tol * abs(value))
        if not math.isfinite(value) or abserr > 1e3 * budget:
            raise NonConvergence(f"quadrature failed on [{lo}, {hi}]: {tail[0]}")
    return value, abserr


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


def gauss_legendre(density: Callable[[np.ndarray], np.ndarray], lo, hi,
                   cfg: ToleranceConfig = DEFAULT_CFG) -> np.ndarray:
    """Integral of density over each panel [lo[k], hi[k]] of two 1-D arrays.

    density maps a 1-D array of points to the integrand there; one call
    serves every node of every panel.  Each panel is summed by the 10-point
    Gauss-Legendre rule.  Where the 5-point rule disagrees by more than
    quad_rel_tol relative, say at a kink or on a panel too wide for the
    rule, or where a sum is not finite, the panel is integrated by
    ``integrate`` instead.  A panel's sum depends on that panel alone, bit
    for bit, whatever the other panels.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = (0.5 * (hi - lo))[:, None]
    nodes = (0.5 * (lo + hi))[:, None] + half * _GL_X
    y = half * density(nodes.ravel()).reshape(nodes.shape)
    # row sums by numpy's reduction, not a matrix product: BLAS may sum a
    # row in an order that depends on the number of rows
    sums = (y[:, :10] * _GL10_W).sum(axis=1)
    coarse = (y[:, 10:] * _GL5_W).sum(axis=1)
    for k in np.flatnonzero(~(np.abs(sums - coarse) <= cfg.quad_rel_tol * np.abs(sums))):
        sums[k] = integrate(lambda t: float(density(np.array([t]))[0]),
                            lo[k], hi[k], cfg)[0]
    return sums


def find_root(f: Callable[[float], float], lo: float, hi: float,
              cfg: ToleranceConfig = DEFAULT_CFG) -> float:
    """Locate a root of f inside the bracket [lo, hi].

    Bisection with inverse interpolation (Brent); the returned point always
    lies inside the initial bracket.  Raises NoBracket when f(lo) and f(hi)
    have the same strict sign.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoBracket(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    x = scipy.optimize.brentq(f, lo, hi, xtol=cfg.root_tol, rtol=8.9e-16)
    return min(max(x, lo), hi)


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
    """
    if len(seq) < cfg.extrap_terms:
        raise InsufficientData(
            f"need at least {cfg.extrap_terms} terms, got {len(seq)}")
    params = [float(s[0]) for s in seq]
    if any(b <= a for a, b in zip(params, params[1:])):
        raise InsufficientData("parameters must be strictly increasing")

    values = [float(s[1]) for s in seq]
    lim_a, err_a = _aitken_limit(values)
    lim_n, err_n = _neville_limit(params, values)
    # Trust the polynomial route only when it clearly certifies itself
    # better; wild alternating Neville columns can fake small diffs.
    spread = max(values) - min(values)
    if err_n < 0.1 * err_a and abs(lim_n - values[-1]) <= 2.0 * spread + err_a:
        return lim_n, err_n
    return lim_a, err_a
