import math

import numpy as np
import pytest
import scipy.integrate

from isocap import numerics
from isocap.errors import DomainError, InsufficientData, NoBracket, NonConvergence
from isocap.numerics import (DEFAULT_CFG, ToleranceConfig, extrapolate_limit,
                             find_root, gauss_legendre, integrate)


def simpson_oracle(f, lo, hi, n=1_000_001):
    xs = np.linspace(lo, hi, n)
    return float(scipy.integrate.simpson([f(x) for x in xs], x=xs))


class TestIntegrate:
    def test_polynomial_exact(self):
        val, err = integrate(lambda x: 3 * x * x, 0.0, 2.0)
        assert val == pytest.approx(8.0, abs=1e-12)
        assert err < 1e-10

    def test_semi_infinite_exponential(self):
        val, _ = integrate(lambda x: math.exp(-x), 0.0, math.inf)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_semi_infinite_power(self):
        # integral of s^-2 from 3 to inf is 1/3
        val, _ = integrate(lambda s: s ** -2, 3.0, math.inf)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_offset_lower_bound(self):
        val, _ = integrate(lambda s: math.exp(-(s - 5.0)), 5.0, math.inf)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_against_simpson(self):
        f = lambda x: math.sin(x) * math.exp(-0.3 * x)
        val, _ = integrate(f, 0.0, 10.0)
        assert val == pytest.approx(simpson_oracle(f, 0.0, 10.0, 200_001), rel=1e-8)

    def test_integrable_endpoint_singularity(self):
        val, _ = integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 2.0, 2.0)

    def test_divergent_raises(self):
        with pytest.raises(NonConvergence):
            integrate(lambda s: 1.0 / (1.0 + s), 0.0, math.inf)


class TestGaussLegendre:
    def test_constant_rules_match_leggauss(self):
        x10, w10 = np.polynomial.legendre.leggauss(10)
        x5, w5 = np.polynomial.legendre.leggauss(5)
        for got, want in ((numerics._GL_X, np.concatenate((x10, x5))),
                          (numerics._GL10_W, w10), (numerics._GL5_W, w5)):
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_polynomials_exact(self):
        # degree 19 is the 10-point rule's limit; the 5-point rule agrees
        # up to degree 9, so no panel falls back
        lo, hi = np.array([0.0, 1.0, -2.0]), np.array([1.0, 3.0, 2.0])
        got = gauss_legendre(lambda x: x ** 9 + 1.0, lo, hi)
        want = (hi ** 10 - lo ** 10) / 10.0 + (hi - lo)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_flagged_panel_falls_back(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[1:3])
            return integrate(*args)
        monkeypatch.setattr(numerics, "integrate", counting)
        # |x - 0.3| has its kink inside the second panel only
        got = gauss_legendre(lambda x: np.abs(x - 0.3), np.array([-2.0, 0.0]),
                             np.array([-1.0, 1.0]))
        assert calls == [(0.0, 1.0)]
        assert got == pytest.approx([1.8, 0.29], rel=1e-12)

    def test_panel_sum_independent_of_other_panels(self):
        rng = np.random.default_rng(7)
        lo = rng.uniform(0.0, 5.0, 300)
        hi = lo + rng.uniform(0.0, 2.0, 300)
        density = lambda x: np.exp(-x) * x ** 2.5  # noqa: E731
        together = gauss_legendre(density, lo, hi)
        alone = [gauss_legendre(density, lo[k:k + 1], hi[k:k + 1])[0]
                 for k in range(lo.size)]
        assert np.array_equal(together, alone)


class TestFindRoot:
    def test_simple(self):
        x = find_root(lambda v: v * v - 2.0, 0.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_endpoint_root(self):
        assert find_root(lambda v: v - 1.0, 1.0, 2.0) == 1.0

    def test_inside_bracket(self):
        x = find_root(lambda v: math.cos(v), 0.0, 3.0)
        assert 0.0 <= x <= 3.0
        assert x == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root(lambda v: v * v + 1.0, -1.0, 1.0)


class TestExtrapolate:
    def test_power_law_tail(self):
        seq = [(n, 1.0 + 1.0 / n) for n in (1, 2, 4, 8, 16, 32)]
        lim, err = extrapolate_limit(seq)
        assert lim == pytest.approx(1.0, abs=1e-6)

    def test_geometric_tail(self):
        seq = [(n, 5.0 + 0.5 ** n) for n in range(1, 9)]
        lim, err = extrapolate_limit(seq)
        assert lim == pytest.approx(5.0, abs=1e-9)

    def test_constant(self):
        lim, err = extrapolate_limit([(n, 7.0) for n in range(1, 7)])
        assert lim == 7.0
        assert err == 0.0

    def test_second_order_tail(self):
        seq = [(n, 2.0 + 3.0 / n - 1.0 / n ** 2) for n in (2, 4, 8, 16, 32, 64)]
        lim, _ = extrapolate_limit(seq)
        assert lim == pytest.approx(2.0, abs=1e-6)

    def test_too_few_terms(self):
        with pytest.raises(InsufficientData):
            extrapolate_limit([(1, 1.0), (2, 2.0)])

    def test_non_monotone_params(self):
        with pytest.raises(InsufficientData):
            extrapolate_limit([(1, 0.0), (3, 0.0), (2, 0.0),
                               (4, 0.0), (5, 0.0), (6, 0.0)])


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.quad_rel_tol == 1e-10
        assert cfg.cutoff_radius == 1e8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(quad_rel_tol=0.0)

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            ToleranceConfig(cutoff_radius=0.5)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CFG.root_tol = 1.0
