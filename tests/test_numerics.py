import math
import random

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.optimize
from numpy.polynomial import legendre, polynomial

from isocap import numerics
from isocap.errors import (ConfigError, DomainError, EvalError, InsufficientData,
                           NoBracket, NonConvergence)
from isocap.geometry import (TableProfile, mass_profile_metric, metric_from_spec,
                             tanh_step_mass_metric)
from isocap.numerics import (DEFAULT_CFG, ToleranceConfig, extrapolate_limit,
                             find_root, gauss_legendre, gauss_legendre_err,
                             integrate, newton_roots)


def simpson_oracle(f, lo, hi, n=1_000_001):
    xs = np.linspace(lo, hi, n)
    return float(scipy.integrate.simpson([f(x) for x in xs], x=xs))


class TestIntegrate:
    def test_polynomial_exact(self):
        val, err = integrate(lambda x: 3 * x * x, 0.0, 2.0)
        assert val == pytest.approx(8.0, abs=1e-12)
        assert err < 1e-10

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0),
                                        (math.inf, math.inf)])
    def test_infinite_bound_raises(self, lo, hi):
        with pytest.raises(ConfigError):
            integrate(lambda x: np.exp(-x * x), lo, hi)

    def test_offset_lower_bound(self):
        # exp(-(s-5)) over [5, 65] is 1 - e^-60
        val, _ = integrate(lambda s: np.exp(-(s - 5.0)), 5.0, 65.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_against_simpson(self):
        f = lambda x: np.sin(x) * np.exp(-0.3 * x)
        val, _ = integrate(f, 0.0, 10.0)
        assert val == pytest.approx(simpson_oracle(f, 0.0, 10.0, 200_001), rel=1e-8)

    def test_integrable_endpoint_singularity(self):
        val, _ = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 2.0, 2.0)

    def test_divergent_raises(self):
        # 1/x on (0, 1] diverges: each bisection toward 0 adds log 2
        with pytest.raises(NonConvergence):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)

    @pytest.mark.parametrize("fill", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_raises(self, fill):
        with pytest.raises(NonConvergence):
            integrate(lambda x: np.full_like(x, fill), 0.0, 1.0)

    def test_tolerance_below_rounding(self):
        # quad_rel_tol under the 50-ulp floor of the estimates: a piece at its
        # floor is not halved, so the budget goes to the kink alone and the
        # panel stands
        cfg = ToleranceConfig(quad_rel_tol=1e-15, quad_abs_tol=1e-30)
        sizes = []
        val, err = integrate(lambda x: sizes.append(x.size) or np.abs(x - 0.3),
                             0.0, 1.0, cfg)
        assert abs(val - 0.29) <= err <= 1e-14
        assert len(sizes) < cfg.max_subdivisions / 2
        # the volume panel [1, 2] of the kinked areal metric, in
        # xi = sqrt(r - 2), raised NonConvergence when every piece was halved
        spec = "expr:areal:min(1-2/r,0.5+0.01*r):r_min=2"
        tight = metric_from_spec(spec).volumes([8.125], ToleranceConfig(quad_rel_tol=1e-14))
        assert tight == pytest.approx([metric_from_spec(spec).volume(8.125)], rel=1e-10)

    def test_kronrod_rule(self):
        # the 10 Gauss nodes come first, and the 21-point rule is exact to
        # degree 31 and no further, which fixes its nodes and weights
        assert np.array_equal(numerics._GK_X[:10], numerics._GL_X[:10])
        moments = [np.sum(numerics._GK_W * numerics._GK_X ** k)
                   - (2.0 / (k + 1) if k % 2 == 0 else 0.0) for k in range(33)]
        assert np.max(np.abs(moments[:32])) <= 1e-15
        assert abs(moments[32]) > 1e-13

    def test_one_density_call_per_bisection(self):
        sizes = []

        def density(x):
            sizes.append(x.size)
            return np.abs(x - 0.3)
        got = gauss_legendre(density, np.array([0.0]), np.array([1.0]))
        assert got == pytest.approx([0.29], rel=1e-12)
        # the fixed rule's 15 nodes flag the panel; then the 21 nodes of
        # the whole panel, and one call per level of the refinement, on both
        # halves of each piece it halves: here the piece at the kink alone
        assert sizes[:2] == [15, 21]
        assert 2 < len(sizes) <= 1 + DEFAULT_CFG.max_subdivisions
        assert set(sizes[2:]) == {42}


class TestIntegrateOracle:
    """``integrate``, so the adaptive refinement, against mpmath: the value
    within the requested accuracy and the error estimate no smaller than
    the true error."""

    with mpmath.workdps(30):
        W = mpmath.mpf("1e-3")
        CASES = {
            "endpoint x^-1/2": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                                mpmath.mpf(2)),
            "kink |x-0.3|": (lambda x: np.abs(x - 0.3), 0.0, 1.0,
                             mpmath.mpf("0.29")),
            "tanh step of width 1e-3": (
                lambda x: np.tanh((x - 0.4) / 1e-3), 0.0, 1.0,
                W * (mpmath.log(mpmath.cosh(mpmath.mpf("0.6") / W))
                     - mpmath.log(mpmath.cosh(mpmath.mpf("0.4") / W)))),
        }
        # long finite ranges: exp(-s) over [lo, lo + 60], s^-2 over six
        # decades from lo, most of each integral next to lo
        for lo in (0.0, 0.5, 3.0, 40.0):
            CASES[f"exp(-s) from {lo}"] = (
                lambda s: np.exp(-s), lo, lo + 60.0,
                mpmath.exp(-mpmath.mpf(lo)) - mpmath.exp(-mpmath.mpf(lo + 60.0)))
        for lo in (0.5, 3.0, 40.0, 1e3):
            CASES[f"s^-2 from {lo}"] = (lambda s: s ** -2.0, lo, 1e6 * lo,
                                        1 / mpmath.mpf(lo) - 1 / mpmath.mpf(1e6 * lo))

    @pytest.mark.parametrize("name", list(CASES))
    def test_against_mpmath(self, name):
        f, lo, hi, want = self.CASES[name]
        val, err = integrate(f, lo, hi)
        true = abs(mpmath.mpf(val) - want)
        assert true <= err
        budget = max(DEFAULT_CFG.quad_abs_tol,
                     DEFAULT_CFG.quad_rel_tol * abs(val))
        if name.startswith("endpoint"):
            # the rule never samples the singularity, which may spend the
            # budget: the estimate stands within 1e3 budgets
            assert err <= 1e3 * budget
            assert true <= 1e-10 * want
        else:
            assert err <= budget

    def test_flagged_neck_volume_panels(self, monkeypatch):
        # the volume panels [1, 2] and [2, 3] of the neck, on the flank of
        # its bump, fail the 5-point check
        panels = []
        core = numerics._refine

        def spy(density, lo, hi, scale, cfg, rows=None):
            out = core(density, lo, hi, scale, cfg, rows)
            panels.extend(zip(lo.tolist(), hi.tolist(), out[-2][0], out[-1][0]))
            return out
        monkeypatch.setattr(numerics, "_refine", spy)
        metric = metric_from_spec("expr:geodesic:r+1.5*exp(-4*(r-3)^2)")
        volume = metric.volume(3.0)
        assert [(lo, hi) for lo, hi, _, _ in panels] == [(1.0, 2.0), (2.0, 3.0)]
        with mpmath.workdps(30):
            def density(t):
                a = t + 1.5 * mpmath.exp(-4 * (t - 3) ** 2)
                return 4 * mpmath.pi * a * a
            for lo, hi, val, err in panels:
                want = mpmath.quad(density, [lo, hi])
                assert abs(val - want) <= err <= 1e-10 * want
            total = mpmath.quad(density, [0, 1, 2, 3])
        assert volume == pytest.approx(float(total), rel=1e-12)

    def test_oscillating_volume_uses_the_whole_budget(self):
        # the volume panel [256, 512] of r*(1 + 0.3*sin(r)) needs more
        # pieces than a power of two within the budget of 60: it converges
        # by halving its largest estimates first; [512, 1024] needs more
        # than 60 and raises
        metric = metric_from_spec("expr:geodesic:r*(1+0.3*sin(r))")
        with mpmath.workdps(30):
            want = mpmath.quad(lambda t: 4 * mpmath.pi * (t * (1 + 0.3 * mpmath.sin(t))) ** 2,
                               mpmath.linspace(0, 700, 201))
        assert metric.volume(700.0) == pytest.approx(float(want), rel=1e-10)
        with pytest.raises(NonConvergence, match=r"\[512.0, 1024.0\].*after 60 pieces"):
            metric_from_spec("expr:geodesic:r*(1+0.3*sin(r))").volume(1600.0)

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

    def test_flagged_panel_falls_back(self, refined):
        # |x - 0.3| has its kink inside the second panel only
        got = gauss_legendre(lambda x: np.abs(x - 0.3), np.array([-2.0, 0.0]),
                             np.array([-1.0, 1.0]))
        assert refined == [[((0,), 0.0, 1.0)]]
        assert got == pytest.approx([1.8, 0.29], rel=1e-12)

    def test_error_is_the_rules_difference(self):
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.5])
        sums, errs = gauss_legendre_err(np.exp, lo, hi)
        assert np.allclose(sums, np.exp(hi) - np.exp(lo), rtol=1e-15, atol=0.0)
        assert np.all(errs > 0.0)
        assert np.all(errs <= 1e-10 * sums)
        assert np.all(errs >= np.abs(sums - (np.exp(hi) - np.exp(lo))))

    def test_nan_density_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(NonConvergence):
            gauss_legendre_err(lambda x: np.sqrt(x - 0.5), np.array([0.0]),
                               np.array([1.0]))

    def test_group_checks_against_its_total(self, refined):
        density = lambda x: np.exp(-20.0 * x)  # noqa: E731
        lo, hi = np.array([0.0, 1.0]), np.array([0.05, 2.0])
        alone, _ = gauss_legendre_err(density, lo, hi)
        assert refined == [[((0,), 1.0, 2.0)]]  # too wide for the 5-point rule
        refined.clear()
        grouped, errs = gauss_legendre_err(density, lo, hi, group=np.array([0, 0]))
        assert refined == []  # but negligible against the first panel
        assert grouped[0] == alone[0]
        assert grouped[1] == pytest.approx(alone[1], rel=1e-12)
        assert errs[1] <= 1e-10 * grouped.sum()

    def test_rows_integrate_like_one_integrand_each(self, refined):
        smooth = lambda x: np.exp(-x) * (1.0 + x * x)  # noqa: E731
        kinked = lambda x: np.abs(x - 0.3)  # noqa: E731
        lo, hi = np.array([-2.0, 0.0]), np.array([-1.0, 1.0])
        sums, errs = gauss_legendre_err(
            lambda x: np.stack((smooth(x), kinked(x))), lo, hi)
        assert refined == [[((1,), 0.0, 1.0)]]  # only the kinked row's second panel
        for row, density in enumerate((smooth, kinked)):
            alone, alone_errs = gauss_legendre_err(density, lo, hi)
            assert np.array_equal(sums[row], alone)
            assert np.array_equal(errs[row], alone_errs)
        # grouped, each row is checked against its own row's total: the
        # steep row's wide panel is negligible there, the faint late kink is
        # not, though it would be against the steep row's total
        steep = lambda x: 1e6 * np.exp(-20.0 * x)  # noqa: E731
        late = lambda x: 1e-6 * np.abs(x - 1.3)  # noqa: E731
        lo, hi, group = np.array([0.0, 1.0]), np.array([0.05, 2.0]), np.array([0, 0])
        refined.clear()
        sums, errs = gauss_legendre_err(
            lambda x: np.stack((steep(x), late(x))), lo, hi, group=group)
        assert refined == [[((1,), 1.0, 2.0)]]  # only the late row's second panel
        for row, density in enumerate((steep, late)):
            refined.clear()
            alone, alone_errs = gauss_legendre_err(density, lo, hi, group=group)
            assert refined == [[((0,), 1.0, 2.0)]] * row
            assert np.array_equal(sums[row], alone)
            assert np.array_equal(errs[row], alone_errs)

    def test_infinite_part_raises(self, refined):
        # a density inf on part of a panel has no finite sum, whether the
        # panel is checked alone, against its group's inf total, or in one
        # row of two
        inf_part = lambda x: np.where(x < 0.5, np.inf, np.exp(-x))  # noqa: E731
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        for density, group in ((inf_part, None), (inf_part, np.array([0, 0])),
                               (lambda x: np.stack((np.exp(-x), inf_part(x))), None)):
            refined.clear()
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NonConvergence, match="after 60 pieces"):
                gauss_legendre_err(density, lo, hi, group=group)
            assert refined[0][0] == ((0,) if group is not None or density is inf_part
                                     else (1,), 0.0, 1.0)
        with np.errstate(invalid="ignore"), pytest.raises(NonConvergence):
            numerics.legendre_panels(lambda x: inf_part(x)[None], lo, hi)

    def test_panel_sum_independent_of_other_panels(self):
        rng = np.random.default_rng(7)
        lo = rng.uniform(0.0, 5.0, 300)
        hi = lo + rng.uniform(0.0, 2.0, 300)
        density = lambda x: np.exp(-x) * x ** 2.5  # noqa: E731
        together = gauss_legendre(density, lo, hi)
        alone = [gauss_legendre(density, lo[k:k + 1], hi[k:k + 1])[0]
                 for k in range(lo.size)]
        assert np.array_equal(together, alone)


class TestLegendreSeries:
    """``horner``, ``legendre_integral`` and ``legendre_inverse`` against
    numpy.polynomial, and ``legendre_panels``."""

    def test_horner_matches_polyval(self):
        rng = np.random.default_rng(5)
        t = np.concatenate(([-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 500)))
        for n in range(2, 12):
            c = rng.normal(size=n)
            value, slope = numerics.horner(t, c)
            size = np.abs(c).sum()
            assert np.all(np.abs(value - polynomial.polyval(t, c)) <= 1e-14 * size)
            assert np.all(np.abs(slope - polynomial.polyval(t, polynomial.polyder(c)))
                          <= 1e-14 * n * n * size)

    def test_monomial_matrix(self):
        # row n holds the coefficients of P_n exactly, each an integer over
        # a power of 2 up to 2^10, where numpy's leg2poly rounds
        mono = numerics._LEG_TO_MONO
        for n in range(11):
            want = legendre.leg2poly(np.eye(11)[n])
            assert np.all(np.abs(mono[n, :n + 1] - want) <= 1e-15 * np.abs(want).sum())
            assert not mono[n, n + 1:].any()
        assert np.array_equal(mono * 2.0 ** 10, np.round(mono * 2.0 ** 10))

    def test_float_and_array_bits(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(-1.0, 1.0, 300)
        c = rng.normal(size=(11, t.size))  # one series per point
        got = numerics.horner(t, c)
        assert np.array_equal(numerics.horner(t, c, slope=False), got[0])
        for i in range(t.size):
            one = numerics.horner(float(t[i]), c[:, i].tolist())
            assert (got[0][i], got[1][i]) == one
            assert all(type(v) is float for v in one)
            assert numerics.horner(float(t[i]), c[:, i].tolist(), False) == one[0]
        q = rng.uniform(0.0, 2.0, t.size)
        coeffs = self.series(rng.uniform(0.5, 2.0, (t.size, 10))).T
        guide = self.guide(coeffs)
        many = numerics.legendre_inverse(q * guide[0] / 2.0, *guide, coeffs)
        for i in range(t.size):
            assert many[i] == numerics.legendre_inverse(
                float(q[i] * guide[0][i] / 2.0), *(float(g[i]) for g in guide),
                coeffs[:, i].tolist())

    @staticmethod
    def series(y):
        """The monomial series of the antiderivative of each row of y, 10
        samples at the Gauss nodes, on [-1, 1], as the builds keep it."""
        return numerics._antiderivative(np.ones(len(y)), y)

    @staticmethod
    def guide(c):
        """The total and start, middle and end slopes of the series c (one
        per column), as ``legendre_inverse`` takes them."""
        total, end = numerics.horner(1.0, c)
        return total, numerics.horner(-1.0, c)[1], c[1], end

    def test_half_panel_guess_bits(self, monkeypatch):
        # the first guess alone, on floats and on arrays, at the ends of the
        # series and exactly at its middle value, where the lower half's
        # quadratic ends; densities exp(k*t) with |k| < 0.9, as panels that
        # pass their check, so each half's quadratic increases to its end,
        # which it meets up to the slope floor of 1e-10 of the total
        monkeypatch.setattr(numerics, "_NEWTON_STEPS", 0)
        k = np.random.default_rng(9).uniform(-0.9, 0.9, (50, 1))
        coeffs = self.series(np.exp(k * numerics._GL_X[:10])).T
        guide = self.guide(coeffs)
        for q, want in ((np.zeros(50), -1.0), (coeffs[0], 0.0), (guide[0], 1.0)):
            many = numerics.legendre_inverse(q, *guide, coeffs)
            one = [numerics.legendre_inverse(
                float(q[i]), *(float(g[i]) for g in guide), coeffs[:, i].tolist())
                for i in range(50)]
            assert np.array_equal(many, one)
            assert all(type(t) is float for t in one)
            assert np.all(np.abs(many - want) <= 1e-9)

    @pytest.mark.parametrize("b", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_cubic_guess(self, b, monkeypatch):
        # the first guess alone on series of degree 3, densities 1 + a*t +
        # b*t^2, where the half's cubic Hermite model is exact: what is left
        # is the residual of the one Newton step on it, of second order in
        # b where the quadratic misses by first order, and the slope floor's
        # 1e-10; on both halves, with the same bits on floats and arrays
        rng = np.random.default_rng(10)
        x = numerics._GL_X[:10]
        a = rng.uniform(-0.5, 0.5, (100, 1))
        b = b * rng.choice([-1.0, 1.0], (100, 1))
        coeffs = self.series(1.0 + a * x + b * x * x).T
        guide = self.guide(coeffs)
        q = rng.uniform(0.0, 1.0, 100) * guide[0]
        assert np.any(q < coeffs[0]) and np.any(q > coeffs[0])
        root = numerics.legendre_inverse(q, *guide, coeffs)
        monkeypatch.setattr(numerics, "_NEWTON_STEPS", 0)
        many = numerics.legendre_inverse(q, *guide, coeffs)
        one = [numerics.legendre_inverse(
            float(q[i]), *(float(g[i]) for g in guide), coeffs[:, i].tolist())
            for i in range(100)]
        assert np.array_equal(many, one)
        assert np.all(np.abs(many - root) <= 0.01 * b[:, 0] ** 2 + 1e-9)

    def test_transform_exact_to_degree_9(self):
        rng = np.random.default_rng(8)
        for degree in range(10):
            c = rng.normal(size=degree + 1)
            y = legendre.legval(numerics._GL_X[:10], c)
            want = np.zeros(11)
            want[:degree + 2] = legendre.legint(c, lbnd=-1)
            got = numerics.legendre_integral(y)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(c).sum())

    @pytest.mark.parametrize("density", [
        lambda x: 1.0 + 0.5 * np.sin(3.0 * x), lambda x: x + 1.0,
        lambda x: np.exp(x), lambda x: 1.0 / (1.0 + 4.0 * x * x),
        lambda x: (x + 1.0) * np.exp(1.5 * x)],
        ids=["wavy", "from-zero", "exp", "bump", "from-zero-steep"])
    def test_inverse(self, density):
        # the root of each value, also where the density starts from 0, on
        # densities that change by more than those of panels that pass
        c = self.series(density(numerics._GL_X[:10])[None])[0]
        total = polynomial.polyval(1.0, c)
        slopes = (max(polynomial.polyval(t, polynomial.polyder(c)), 0.0)
                  for t in (-1.0, 0.0, 1.0))
        q = np.concatenate(([0.0, 1e-300, 1e-12 * total, c[0], total],
                            np.linspace(0.0, total, 1001)))
        t = numerics.legendre_inverse(q, total, *slopes, c)
        assert np.all(np.abs(polynomial.polyval(t, c) - q) <= 1e-14 * total)
        # where the density starts from 0 the series is flat at t = -1, so
        # its rounding there moves the root by up to about sqrt(eps)
        assert np.all(np.abs(t) <= 1.0 + 1e-7)

    def test_panels_smooth(self):
        calls = []
        lo, hi = np.array([0.0, 0.1, 0.2]), np.array([0.1, 0.2, 0.25])
        pieces = numerics.legendre_panels(
            lambda x: calls.append(x.size) or np.stack((np.exp(x), 1.0 / (1.0 + x))),
            lo, hi)
        assert calls == [45]  # no panel is halved
        p_lo, p_hi, coeffs, sums = pieces
        assert np.array_equal(p_lo, lo) and np.array_equal(p_hi, hi)
        t = np.linspace(-1.0, 1.0, 101)
        x = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t
        for row, exact in enumerate((lambda v: np.exp(v), lambda v: np.log1p(v))):
            want = exact(x) - exact(lo)[:, None]
            got = np.array([polynomial.polyval(t, c) for c in coeffs[row]])
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max())
            assert np.allclose(sums[row], want[:, -1], rtol=1e-14, atol=0.0)

    def test_panels_halve_at_a_kink(self, refined):
        calls = []
        kink = lambda x: np.abs(x - 0.3)  # noqa: E731
        lo, hi, coeffs, sums = numerics.legendre_panels(
            lambda x: calls.append(x.size) or np.stack((np.exp(-x), kink(x))),
            np.array([-2.0, 0.0]), np.array([-1.0, 1.0]))
        # the first panel passes; the second is refined in both rows, halved
        # level by level, the halves of each level in one call
        assert refined == [[((0, 1), 0.0, 1.0)]]
        assert lo[0] == -2.0 and hi[0] == -1.0 and 1 < len(calls) < 40
        assert lo[1] == 0.0 and hi[-1] == 1.0 and np.array_equal(lo[2:], hi[1:-1])
        assert sums[1, 0] == pytest.approx(1.8, rel=1e-14)
        assert sums[1, 1:].sum() == pytest.approx(0.29, rel=1e-12)
        # the antiderivative within each piece
        t = np.linspace(-1.0, 1.0, 41)
        for k in range(1, lo.size):
            x = 0.5 * (lo[k] + hi[k]) + 0.5 * (hi[k] - lo[k]) * t
            exact = lambda v: np.where(v < 0.3, 0.3 * v - 0.5 * v * v,  # noqa: E731
                                       0.045 + 0.5 * (v - 0.3) ** 2)
            got = polynomial.polyval(t, coeffs[1, k])
            assert np.all(np.abs(got - (exact(x) - exact(lo[k]))) <= 1e-12)

    def test_panels_exhausted_budget(self):
        kink = lambda x: np.abs(x - 0.3)[None]  # noqa: E731
        lo, hi = np.array([0.0]), np.array([1.0])
        # 14 pieces, estimated to miss by 2e-9, within 1e3 times the
        # tolerance: they stand, as integrate's do on the same budget
        cfg = ToleranceConfig(max_subdivisions=14)
        got_lo, _, _, sums = numerics.legendre_panels(kink, lo, hi, cfg)
        assert got_lo.size == 14
        assert sums.sum() == pytest.approx(0.29, rel=1e-9)
        assert integrate(lambda x: kink(x)[0], 0.0, 1.0, cfg)[1] > 1e-10 * 0.29
        # 8 and 12 pieces, estimated to miss by 8e-6 and 3.2e-8, beyond 1e3
        # times the tolerance 2.9e-11: NonConvergence, as integrate raises
        for budget in (8, 12):
            cfg = ToleranceConfig(max_subdivisions=budget)
            for run in (lambda: numerics.legendre_panels(kink, lo, hi, cfg),
                        lambda: integrate(lambda x: kink(x)[0], 0.0, 1.0, cfg)):
                with pytest.raises(NonConvergence, match=f"after {budget} pieces"):
                    run()
        with np.errstate(invalid="ignore"), pytest.raises(NonConvergence):
            numerics.legendre_panels(lambda x: np.sqrt(x - 0.5)[None], lo, hi)


class TestFindRoot:
    def test_simple(self):
        x = find_root(lambda v: v * v - 2.0, 0.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_endpoint_root(self):
        assert find_root(lambda v: v - 1.0, 1.0, 2.0) == 1.0

    def test_upper_endpoint_root(self):
        # f(hi) = 0 returns hi after the two endpoint evaluations
        calls = []
        assert find_root(lambda v: calls.append(v) or v - 2.0, 0.0, 2.0) == 2.0
        assert calls == [0.0, 2.0]

    def test_inside_bracket(self):
        x = find_root(lambda v: math.cos(v), 0.0, 3.0)
        assert 0.0 <= x <= 3.0
        assert x == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root(lambda v: v * v + 1.0, -1.0, 1.0)

    def test_no_bracket_when_the_product_underflows(self):
        with pytest.raises(NoBracket):
            find_root(lambda v: 1e-200, 0.0, 1.0)

    def test_matches_scipy_brentq(self):
        # the same algorithm: the same evaluation points and root, bit for
        # bit, each endpoint evaluated once
        rng = random.Random(3)
        for _ in range(300):
            a, b, c = rng.uniform(-3, 3), rng.uniform(0.1, 5), rng.uniform(-2, 2)
            for f in (lambda x: math.tanh(b * (x - a)) + 0.1 * c,
                      lambda x: (x - a) ** 3 + c * (x - a),
                      lambda x: math.exp(b * x) - math.exp(b * a)):
                if f(-4.0) * f(4.5) >= 0.0:
                    continue
                ours, theirs = [], []
                x = find_root(lambda v: ours.append(v) or f(v), -4.0, 4.5)
                want = scipy.optimize.brentq(
                    lambda v: theirs.append(v) or f(v), -4.0, 4.5,
                    xtol=DEFAULT_CFG.root_tol, rtol=8.9e-16)
                assert x == want
                assert ours == theirs


class TestNewtonRoots:
    @staticmethod
    def cubic(c, calls=None):
        """fdf of x^3 - c_k, recording each call's element count."""
        def fdf(x, k):
            if calls is not None:
                calls.append(len(k))
            return x ** 3 - c[k], 3.0 * x * x
        return fdf

    def test_roots_within_the_find_root_tolerance(self):
        c = np.geomspace(1e-6, 1e6, 41)
        lo, hi = np.cbrt(c) * 0.9, np.cbrt(c) * 1.2
        calls = []
        x = newton_roots(self.cubic(c, calls), lo, lo, hi)
        ref = [find_root(lambda v, ck=ck: v ** 3 - ck, a, b)
               for ck, a, b in zip(c.tolist(), lo.tolist(), hi.tolist())]
        tol = 2.0 * (DEFAULT_CFG.root_tol + 8.9e-16 * np.abs(x))
        assert np.all(np.abs(x - ref) <= tol)
        # solved elements drop out of the later calls
        assert calls[0] == 41 and calls == sorted(calls, reverse=True)

    def test_zero_at_the_start_is_taken_as_is(self):
        x = newton_roots(lambda x, k: (x - 2.0, np.ones_like(x)),
                         np.array([2.0]), np.array([2.0]), np.array([3.0]))
        assert x.tolist() == [2.0]

    def test_flat_start_bisects_without_nan(self):
        # f' = 0 at the start: no Newton step, a bisection instead
        seen = []

        def fdf(x, k):
            seen.extend(x.tolist())
            return x * x - 1.0, 2.0 * x
        x = newton_roots(fdf, np.array([0.0]), np.array([0.0]), np.array([3.0]))
        assert abs(x[0] - 1.0) <= DEFAULT_CFG.root_tol
        assert seen[1] == 1.5 and all(map(math.isfinite, seen))

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 2)
        c = np.array([2.0])
        with pytest.raises(NonConvergence, match="did not converge"):
            newton_roots(self.cubic(c), np.array([0.0]), np.array([0.0]),
                         np.array([10.0]))


def schwarzschild_rho(a, m):
    """Arclength of the Schwarzschild slice from its horizon a = 2m."""
    return (mpmath.sqrt(a * (a - 2 * m)) + 2 * m * mpmath.log(
        (mpmath.sqrt(a) + mpmath.sqrt(a - 2 * m)) / mpmath.sqrt(2 * m)))


class TestPicardPanels:
    """``picard_panels`` through ``mass_profile_metric``: the warping a(rho)
    against closed forms and mpmath, and builds that end."""

    RADII = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 1999)))

    @pytest.mark.parametrize("m, a0", [(0.5, 1.5), (1.0, 3.0), (2.0, 6.0),
                                       (1.0, 2.01)])
    def test_schwarzschild_closed_form(self, m, a0):
        # constant mu = m: a(rho) inverts rho(a) - rho(a0)
        M = mass_profile_metric(lambda rho: (m, 0.0), a0=a0)
        rs = self.RADII[::10]
        got = M.profile.values(rs)
        with mpmath.workdps(30):
            start = schwarzschild_rho(mpmath.mpf(a0), m)
            for rho, a in zip(rs.tolist(), got.tolist()):
                want = mpmath.findroot(
                    lambda x: schwarzschild_rho(x, m) - start - rho, a)
                assert abs(a / float(want) - 1.0) <= 1e-12, rho

    @pytest.mark.parametrize("mass, center, width", [
        (1.0, 5.0, 1.0), (0.4, 2.5, 0.6), (1.8, 7.0, 2.2)])
    def test_tanh_steps_match_odefun(self, mass, center, width):
        # mpmath's Taylor-series solver at 18 digits
        M = tanh_step_mass_metric(mass, center, width)
        rs = np.linspace(0.0, 30.0, 31)[1:]
        with mpmath.workdps(18):
            base = mpmath.tanh(-mpmath.mpf(center) / width)

            def rhs(rho, a):
                mu = mass * (mpmath.tanh((rho - center) / width) - base) / (1 - base)
                return mpmath.sqrt(1 - 2 * mu / a)
            sol = mpmath.odefun(rhs, 0, mpmath.mpf(max(1.0, 3.0 * mass)))
            want = np.array([float(sol(rho)) for rho in rs.tolist()])
        assert np.max(np.abs(M.profile.values(rs) / want - 1.0)) <= 1e-12

    @pytest.mark.parametrize("build", [
        # the stall: a' falls to 0 like a square root near rho = 0.4
        "mass_profile_metric(lambda rho: (rho, 1.0), a0=1.0, rho_max=50.0)",
        "tanh_step_mass_metric(1.0, 5.0, 1.0, a0=2.01)",
        # the custom profile of test_geometry: a ramp with a kink at 2
        "mass_profile_metric(lambda rho: (0.25 * rho, 0.25) if rho < 2.0\n"
        "                    else (0.5, 0.0), a0=2.0)",
    ], ids=["stall", "near-stall", "kinked-ramp"])
    def test_builds_end(self, run_isolated, build):
        # a build that halves or sweeps without end fails at the timeout;
        # each sweep makes one rate call.  These builds take 41 to 46
        # panels and 10 to 21 sweeps.
        out = run_isolated(
            "from isocap import numerics\n"
            "from isocap.geometry import mass_profile_metric, tanh_step_mass_metric\n"
            "sweeps, panels = [], []\n"
            "solve = numerics.picard_panels\n"
            "numerics.picard_panels = lambda sample, rate, *a: (\n"
            "    lambda out: panels.append(out[0].size) or out)(solve(\n"
            "        sample, lambda *b: sweeps.append(1) or rate(*b), *a))\n"
            f"{build}\n"
            "print(panels[0], len(sweeps))\n", timeout=60)
        panels, sweeps = map(int, out.split())
        assert panels <= 60 and 0 < sweeps <= 30

    def test_halves_in_place(self):
        # kinks in the first, the last and two adjacent panels of five:
        # the panels that hold them halve round by round.  Each round's
        # panels, halved in place, are the sorted concatenation of the
        # panels kept and the halves, and y at the halves' nodes is the
        # parent's series there read by Horner's rule, to 4 ulp of |y|
        kinks = np.array([0.3, 2.3, 3.6, 4.7])
        calls = []

        def rate(x, y):
            calls.append((x.copy(), y.copy(), 1.0 + 0.1 * np.abs(
                x[..., None] - kinks).sum(axis=-1)))
            return calls[-1][2]
        lo, hi = np.arange(5.0), np.arange(1.0, 6.0)
        got = numerics.picard_panels(lambda x: x, rate, lambda y: y, 1.0, lo, hi)
        t = np.concatenate((0.5 * numerics._GL_X - 0.5, 0.5 * numerics._GL_X + 0.5))
        halved = []
        for (x0, _, r), (x1, y1, _) in zip(calls, calls[1:]):
            k = ~np.array([(row == x1).all(axis=1).any() for row in x0])
            if not k.any():
                continue
            halved.append(np.flatnonzero(k).tolist())
            half = 0.5 * (hi - lo)
            sums = numerics._panel_sums(half, r)[0]
            c = numerics._antiderivative(half[k], r[k, :10])
            c[:, 0] += np.cumsum(np.concatenate(([1.0], sums)))[:-1][k]
            want = numerics.horner(t, c.T[:, :, None], slope=False).reshape(-1, 15)
            mid = 0.5 * (lo[k] + hi[k])
            order = np.argsort(np.concatenate((lo[~k], lo[k], mid)))
            lo, hi = (np.concatenate(v)[order] for v in (
                (lo[~k], lo[k], mid), (hi[~k], mid, hi[k])))
            assert np.array_equal(numerics.panel_nodes(lo, hi)[1], x1)
            y = y1[order >= (~k).sum()]
            assert np.all(np.abs(y - want) <= 4.0 * numerics._EPS * np.abs(y))
        assert halved[0] == [0, 2, 3, 4] and len(halved) > 5
        assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)

    def test_tanh_step_build_reads_no_series(self, monkeypatch):
        # the halves start from a constant matrix, not from Horner reads
        calls, series = [], numerics.horner
        monkeypatch.setattr(numerics, "horner",
                            lambda *a, **k: calls.append(1) or series(*a, **k))
        tanh_step_mass_metric(1.0, 5.0, 1.0)
        assert calls == []

    def test_non_finite_rate_ends(self, run_isolated):
        # mu = -inf past rho = 1 makes every rate past it infinite
        out = run_isolated(
            "import math\n"
            "from isocap.errors import ConfigError\n"
            "from isocap.geometry import mass_profile_metric\n"
            "try:\n"
            "    mass_profile_metric(lambda rho: (0.0 if rho < 1.0 else -math.inf,\n"
            "                                     0.0), a0=2.0, rho_max=10.0)\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n", timeout=60)
        assert out.startswith("mass-profile integration failed: ")


def pchip_tables():
    """(radii, values) of the Schwarzschild f = 1 - 2/r on 2000 geometric
    radii, of 300 random samples, and of a table with flat runs, sign
    changes and one-sided ends."""
    r = np.geomspace(2.0, 1e6, 2000)
    yield "schwarzschild", r, 1.0 - 2.0 / r
    rng = np.random.default_rng(7)
    yield "random", np.cumsum(rng.uniform(1e-3, 1.0, 300)), rng.normal(size=300)
    yield "runs", np.cumsum(rng.uniform(0.9, 1.1, 24)), np.array(
        [0, 1, -8, -8, -8, 1, 2, 2, 2, 1, 0, -1, -1, 3, 3, 0.5, 0.2, 0, 0,
         -2, -1, 1, 5, 5.5], dtype=float)


class TestPchip:
    """``pchip_slopes`` and the table's cubics on a ``PanelSeries`` against
    scipy's ``PchipInterpolator``, the same algorithm with other rounding."""

    @pytest.mark.parametrize("name, t, y", [
        pytest.param(*table, id=table[0]) for table in pchip_tables()])
    def test_matches_scipy(self, name, t, y):
        ref = scipy.interpolate.PchipInterpolator(t, y)
        # scipy keeps the slope at each interval's left node in c[2]; the
        # last node's slope is the mirrored table's first, negated
        mirrored = scipy.interpolate.PchipInterpolator(-t[::-1], y[::-1])
        want = np.append(ref.c[2], -mirrored.c[2][0])
        slopes = numerics.pchip_slopes(t, y)
        assert np.all(np.abs(slopes - want) <= 1e-15 * np.abs(want))
        if name == "runs":  # flat runs, extrema, and both limited end slopes
            m = np.diff(y) / np.diff(t)
            assert (slopes[1:-1] == 0.0).sum() == 14
            assert slopes[0] == 3.0 * m[0] and slopes[-1] == 0.0

        table = TableProfile(t, y)
        rng = np.random.default_rng(11)
        pts = np.concatenate((rng.uniform(t[0], t[-1], 100_000), t))
        got = np.array([table.eval_d2(s) for s in pts]).T
        assert np.array_equal(got, table.triple(pts))
        # scipy's cubic in s = x - t_i: c0 s^3 + c1 s^2 + c2 s + c3
        i = np.clip(np.searchsorted(t, pts, side="right") - 1, 0, t.size - 2)
        h = np.diff(t)[i]
        size = sum(np.abs(ref.c[3 - k, i]) * h ** k for k in range(4))
        for k in range(3):
            err = np.abs(got[k] - ref(pts, nu=k))
            assert np.all(err <= 1e-14 * size / h ** k), (k, np.max(err))

    def test_table_scalar_and_array_agree(self):
        for _, t, y in pchip_tables():
            T = TableProfile(t, y)
            grid = np.sort(np.concatenate(
                (t, np.linspace(t[0], t[-1], 5000),
                 [t[0] - 1e-13, t[-1] * (1 + 1e-13)])))
            scalar = np.array([T.eval_d2(s)[0] for s in grid])
            assert np.array_equal(T.values(grid), scalar)
            assert np.array_equal(T.values(t), y)

    def test_monotone_data_stay_monotone(self):
        t = np.array([0.0, 1.0, 1.1, 3.0, 3.05, 8.0])
        y = np.array([0.0, 0.1, 5.0, 5.1, 5.1, 9.0])
        v = TableProfile(t, y).values(np.linspace(0.0, 8.0, 20001))
        assert np.all(np.diff(v) >= 0.0)
        assert v.min() == 0.0 and v.max() == 9.0


class TestPanelSeries:
    """``PanelSeries``: the same bits on floats and arrays, one range rule
    and one error on both paths."""

    @staticmethod
    def series(seed):
        """A two-row integral series on 30 random contiguous panels: row 0
        the arclength of a positive density, row 1 another integral."""
        rng = np.random.default_rng(seed)
        edges = np.cumsum(np.concatenate(([rng.uniform(-3.0, 3.0)],
                                          rng.uniform(0.05, 1.0, 30))))
        a, b = rng.uniform(0.5, 3.0, 2)

        def density(x):
            return np.stack((1.5 + np.sin(a * x), x * x * np.cos(b * x)))
        return numerics.PanelSeries.integral(
            *numerics.legendre_panels(density, edges[:-1], edges[1:]),
            (rng.normal(), rng.normal()), "test")

    @staticmethod
    def points(lo, hi, nodes, rng):
        """Random points of [lo, hi], the nodes, and both ends with the
        points just inside their slack."""
        slack = [0.5e-12 * max(1.0, abs(end)) for end in (lo, hi)]
        return np.concatenate((rng.uniform(lo, hi, 500), nodes,
                               [lo, hi, lo - slack[0], hi + slack[1]]))

    @staticmethod
    def same(array, floats):
        assert np.asarray(array).tobytes() == np.array(floats).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_float_and_array_bits(self, seed):
        s = self.series(seed)
        rng = np.random.default_rng(seed + 10)
        for find, nodes in ((s.at, s.edges), (s.solve, s.nodes[0])):
            x = self.points(nodes[0], nodes[-1], nodes, rng)
            p, t = find(x)
            one = [find(v) for v in x.tolist()]
            assert all(type(u) is float for _, u in one)
            self.same(t, [u for _, u in one])
            self.same(s.point(p, t), [s.point(q, u) for q, u in one])
            for row in (0, 1):
                self.same(s.read(p, t, row), [s.read(q, u, row) for q, u in one])
            h, start, c = s.local(p, 1)
            for (hq, sq, cq), (q, _) in zip(zip(h, start, np.transpose(c)), one):
                assert (hq, sq, list(cq)) == s.local(q, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_inverts_row_0(self, seed):
        s = self.series(seed)
        y = np.linspace(s.nodes[0, 0], s.nodes[0, -1], 1000)
        p, t = s.solve(y)
        assert np.all(np.abs(t) <= 1.0 + 1e-12)
        x, q = s.point(p, t), s.at(s.point(p, t))
        assert np.allclose(s.read(*q), y, rtol=0.0, atol=1e-13 * s.nodes[0, -1])
        # at the nodes, the piece that starts there
        p, t = s.solve(s.nodes[0, :-1])
        assert np.array_equal(p, s.at(s.edges[:-1])[0])

    def test_knots_take_the_piece_that_starts_there(self):
        # the last edge takes the last piece
        s = self.series(0)
        p, t = s.at(s.edges)
        mids = 0.5 * (s.edges[:-1] + s.edges[1:])
        assert np.array_equal(s.point(p, 0.0), np.append(mids, mids[-1]))
        assert np.allclose(t, np.append(np.full(mids.size, -1.0), 1.0),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("which", ["at", "solve"])
    def test_range_rule(self, which):
        s = self.series(1)
        find = getattr(s, which)
        lo, hi = (s.edges if which == "at" else s.nodes[0])[[0, -1]].tolist()
        inside = [lo - 0.9e-12 * max(1.0, abs(lo)), hi + 0.9e-12 * max(1.0, abs(hi))]
        outside = [lo - 2e-12 * max(1.0, abs(lo)), hi + 2e-12 * max(1.0, abs(hi)),
                   math.nan, math.inf, -math.inf]
        find(np.array(inside))
        for x in inside:
            find(x)
        for x in outside:
            with pytest.raises(EvalError) as one:
                find(x)
            assert str(one.value) == (f"radius {x} outside test range "
                                      f"[{lo}, {hi}]")
            # the array names its first element out of range
            for xs in ([0.5 * (lo + hi), x, outside[0]], [x, math.nan]):
                with pytest.raises(EvalError) as many:
                    find(np.array(xs))
                assert str(many.value) == str(one.value)
        find(np.array([]))

    @pytest.mark.parametrize("name, t, y", [
        pytest.param(*table, id=table[0]) for table in pchip_tables()])
    def test_table_nodes_and_horner_read(self, name, t, y):
        # the table's cubic is exact at its nodes, and reading it by
        # Horner's rule, from the start value y_i and the coefficients
        # (0, d0, c2, c3), runs the cubic's own operations
        T = TableProfile(t, y)
        assert np.array_equal(T.values(t), y)
        assert [T.eval_d2(x)[0] for x in t.tolist()] == y.tolist()
        pts = np.concatenate((t, np.linspace(t[0], t[-1], 5001)))
        assert np.array_equal(T.series.read(*T.series.at(pts)), T.values(pts))


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

    def test_nan_term_gives_the_raw_tail(self):
        # a NaN makes the first Aitken stage and Neville column non-finite:
        # the last term stands, with the last raw difference as its error
        vals = [1.0, math.nan, 1.5, 1.25, 1.125, 1.0625]
        assert extrapolate_limit(list(zip(range(1, 7), vals))) == (1.0625,
                                                                   0.0625)

    def test_aitken_blow_up_gives_the_raw_tail(self):
        # a second difference of 1e-10 on a linear sequence puts the first
        # Aitken stage at -1e10, past ten times the raw tail; Neville's
        # extrapolation to 20 does not certify itself tenfold better
        vals = [0.0, 1.0, 2.0 + 1e-10, 3.0, 4.0, 5.0]
        assert extrapolate_limit(list(zip(range(1, 7), vals))) == (5.0, 1.0)

    def test_neville_overflow_leaves_aitken(self):
        # the first Neville column doubles 1.5e308 past the largest float;
        # Aitken takes the constant tail as exact
        seq = [(n, 1.5e308) for n in range(1, 7)]
        assert extrapolate_limit(seq) == (1.5e308, 0.0)

    def test_non_monotone_params(self):
        with pytest.raises(InsufficientData):
            extrapolate_limit([(1, 0.0), (3, 0.0), (2, 0.0),
                               (4, 0.0), (5, 0.0), (6, 0.0)])

    @pytest.mark.parametrize("first", [0.0, -1.0])
    def test_rejects_params_from_zero_down(self, first):
        # Neville extrapolates in 1/parameter; at 0 that was ZeroDivisionError
        with pytest.raises(InsufficientData, match="must be positive"):
            extrapolate_limit([(first, 1.0)] + [(n, 1.0 + 1.0 / n) for n in range(1, 6)])


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.quad_rel_tol == 1e-10
        assert cfg.cutoff_radius == 1e8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(quad_rel_tol=0.0)

    @pytest.mark.parametrize("budget", [0, -3, 2.5, 60.0, True])
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ValueError, match="max_subdivisions"):
            ToleranceConfig(max_subdivisions=budget)

    @pytest.mark.parametrize("terms", [2, -1, 3.5, 6.0, True])
    def test_rejects_bad_extrap_terms(self, terms):
        # 3.5 was accepted, then total_mass raised TypeError
        with pytest.raises(ValueError, match="extrap_terms must be an integer"):
            ToleranceConfig(extrap_terms=terms)

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            ToleranceConfig(cutoff_radius=0.5)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CFG.root_tol = 1.0
