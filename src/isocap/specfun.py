"""Gauss hypergeometric function on the capacity-bound parameter line.

Only the one-parameter family F(1/2, (3-p)/(p-1), 2/(p-1); x) for
p in (1, 3) is supported.  On this line c - a - b = 1/2, so the value is
finite up to x = 1 and the connection formula at 1 - x never needs a
logarithmic branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import BadExponent, NonConvergence
from .numerics import DEFAULT_CFG, ToleranceConfig

P_LOW = 1.0 + 1e-3
P_HIGH = 3.0 - 1e-3

_MAX_TERMS = 100_000


def check_p(p: float) -> None:
    """Raise BadExponent unless P_LOW <= p <= P_HIGH."""
    if not P_LOW <= p <= P_HIGH:
        raise BadExponent(f"p={p} outside [{P_LOW}, {P_HIGH}]")


@dataclass(frozen=True)
class F21Params:
    """Parameters (a, b, c) of the capacity-bound hypergeometric family."""

    a: float
    b: float
    c: float

    @classmethod
    def from_p(cls, p: float) -> "F21Params":
        check_p(p)
        return cls(0.5, (3.0 - p) / (p - 1.0), 2.0 / (p - 1.0))


def _series(a: float, b: float, c: float, x: float, abs_tol: float) -> float:
    """Power series sum_k (a)_k (b)_k / (c)_k x^k / k!, |x| <= 1/2."""
    term = 1.0
    total = 1.0
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) * x / ((c + k) * (k + 1.0))
        total += term
        if abs(term) < abs_tol * max(1.0, abs(total)):
            return total
    raise NonConvergence(f"hypergeometric series stalled at x={x}")


def _f21_family(a: float, b: float, c: float, x: float, abs_tol: float) -> float:
    if x > 1.0:
        raise BadExponent(f"argument x={x} > 1 unsupported")
    if x < 0.0:
        # Pfaff transformation to argument x/(x-1) in [0, 1); the direct
        # series still converges there (slowly as x -> -inf), and avoids
        # gamma poles the 1-x connection would hit at integer b-a.
        y = x / (x - 1.0)
        return (1.0 - x) ** (-a) * _series(a, c - b, c, y, abs_tol)
    # On this family c = b + 1, so the term ratio is below x for every k:
    # the direct series is cancellation-free and geometric even for the
    # large b of p near 1.  The 1-x connection, conversely, loses ~b*(1-x)
    # digits to cancellation.  Pick whichever side is safe.
    if x <= 0.9 or (x < 1.0 and b * (1.0 - x) > 2.0
                    and 40.0 / (1.0 - x) < _MAX_TERMS):
        return _series(a, b, c, x, abs_tol)
    # Connection at 1-x; c-a-b = 1/2 is never an integer on this family.
    # Gamma ratios go through lgamma: c = 2/(p-1) overflows gamma for p
    # close to 1.  Signs: all arguments positive except gamma(-1/2) < 0.
    s = c - a - b
    lg = math.lgamma
    first = (math.exp(lg(c) + lg(s) - lg(c - a) - lg(c - b))
             * _series(a, b, 1.0 - s, 1.0 - x, abs_tol))
    if x == 1.0:
        return first
    second = ((1.0 - x) ** s
              * math.gamma(-s) * math.exp(lg(c) - lg(a) - lg(b))
              * _series(c - a, c - b, 1.0 + s, 1.0 - x, abs_tol))
    return first + second


def gauss_2f1(p: float, x: float, cfg: ToleranceConfig = DEFAULT_CFG) -> float:
    """F(1/2, (3-p)/(p-1), 2/(p-1); x) for p in (1, 3), x <= 1."""
    prm = F21Params.from_p(p)
    return _f21_family(prm.a, prm.b, prm.c, float(x), cfg.quad_abs_tol)


def expansion_check(p: float, x_grid: Sequence[float],
                    cfg: ToleranceConfig = DEFAULT_CFG
                    ) -> Tuple[float, list]:
    """Quadratic-remainder certificate for F(x) = 1 + (3-p)/4 * x + O(x^2).

    Returns the uniform bound on |F(x) - 1 - (3-p)/4 * x| / x^2 over the
    grid, plus the per-point ratios.
    """
    slope = (3.0 - p) / 4.0
    rows = []
    bound = 0.0
    for x in x_grid:
        if not -0.1 <= x <= 0.1 or x == 0.0:
            raise BadExponent(f"expansion grid point {x} outside [-0.1, 0.1]\\{{0}}")
        ratio = abs(gauss_2f1(p, x, cfg) - 1.0 - slope * x) / (x * x)
        rows.append((x, ratio))
        bound = max(bound, ratio)
    return bound, rows
