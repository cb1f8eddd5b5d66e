import math
import random

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.optimize
from numpy.polynomial import legendre

from isocap import numerics
from isocap.errors import (ConfigError, DomainError, InsufficientData, NoBracket,
                           NonConvergence)
from isocap.geometry import TableProfile, metric_from_spec
from isocap.numerics import (DEFAULT_CFG, ToleranceConfig, dormand_prince,
                             extrapolate_limit, find_root, gauss_legendre,
                             gauss_legendre_err, integrate, newton_roots)


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
        # the volume panel [1.24, 2.47] of the kinked areal metric, in
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
        # the volume panels [0.75, 1.5] and [1.5, 3] of the neck, on the
        # flank of its bump, fail the 5-point check
        panels = []
        core = numerics._refine

        def spy(density, lo, hi, scale, cfg, rows=None):
            out = core(density, lo, hi, scale, cfg, rows)
            panels.extend(zip(lo.tolist(), hi.tolist(), out[-2][0], out[-1][0]))
            return out
        monkeypatch.setattr(numerics, "_refine", spy)
        metric = metric_from_spec("expr:geodesic:r+1.5*exp(-4*(r-3)^2)")
        volume = metric.volume(3.0)
        assert [(lo, hi) for lo, hi, _, _ in panels] == [(0.75, 1.5), (1.5, 3.0)]
        with mpmath.workdps(30):
            def density(t):
                a = t + 1.5 * mpmath.exp(-4 * (t - 3) ** 2)
                return 4 * mpmath.pi * a * a
            for lo, hi, val, err in panels:
                want = mpmath.quad(density, [lo, hi])
                assert abs(val - want) <= err <= 1e-10 * want
            total = mpmath.quad(density, [0, 0.75, 1.5, 3])
        assert volume == pytest.approx(float(total), rel=1e-12)

    def test_oscillating_volume_uses_the_whole_budget(self):
        # the volume panel [300, 600] of r*(1 + 0.3*sin(r)) needs more
        # pieces than a power of two within the budget of 60: it converges
        # by halving its largest estimates first; [400, 800] needs more than
        # 60 and raises
        metric = metric_from_spec("expr:geodesic:r*(1+0.3*sin(r))")
        with mpmath.workdps(30):
            want = mpmath.quad(lambda t: 4 * mpmath.pi * (t * (1 + 0.3 * mpmath.sin(t))) ** 2,
                               mpmath.linspace(0, 600, 201))
        assert metric.volume(600.0) == pytest.approx(float(want), rel=1e-10)
        with pytest.raises(NonConvergence, match=r"\[400.0, 800.0\].*after 60 pieces"):
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
    """``legendre``, ``legendre_integral`` and ``legendre_inverse`` against
    numpy.polynomial.legendre, and ``legendre_panels``."""

    def test_series_matches_legval(self):
        rng = np.random.default_rng(5)
        t = np.concatenate(([-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 500)))
        for n in range(2, 12):
            c = rng.normal(size=n)
            value, slope = numerics.legendre(t, c)
            size = np.abs(c).sum()
            assert np.all(np.abs(value - legendre.legval(t, c)) <= 1e-14 * size)
            assert np.all(np.abs(slope - legendre.legval(t, legendre.legder(c)))
                          <= 1e-14 * n * n * size)

    def test_float_and_array_bits(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(-1.0, 1.0, 300)
        c = rng.normal(size=(11, t.size))  # one series per point
        got = numerics.legendre(t, c)
        assert np.array_equal(numerics.legendre(t, c, slope=False), got[0])
        for i in range(t.size):
            one = numerics.legendre(float(t[i]), c[:, i].tolist())
            assert (got[0][i], got[1][i]) == one
            assert all(type(v) is float for v in one)
            assert numerics.legendre(float(t[i]), c[:, i].tolist(), False) == one[0]
        q = rng.uniform(0.0, 2.0, t.size)
        coeffs = numerics.legendre_integral(rng.uniform(0.5, 2.0, (t.size, 10))).T
        guide = self.guide(coeffs)
        many = numerics.legendre_inverse(q * guide[0] / 2.0, *guide, coeffs)
        for i in range(t.size):
            assert many[i] == numerics.legendre_inverse(
                float(q[i] * guide[0][i] / 2.0), *(float(g[i]) for g in guide),
                coeffs[:, i].tolist())

    @staticmethod
    def guide(c):
        """The total, middle value and start and middle slopes of the series
        c (one per column), as ``legendre_inverse`` takes them."""
        total = numerics.legendre(1.0, c)[0]
        mid, slope_mid = numerics.legendre(0.0, c)
        return total, mid, numerics.legendre(-1.0, c)[1], slope_mid

    def test_half_panel_guess_bits(self, monkeypatch):
        # the first guess alone, on floats and on arrays, at the ends of the
        # series and exactly at its middle value, where the lower half's
        # quadratic ends; densities exp(k*t) with |k| < 0.9, as panels that
        # pass their check, so each half's quadratic increases to its end,
        # which it meets up to the slope floor of 1e-10 of the total
        monkeypatch.setattr(numerics, "_NEWTON_STEPS", 0)
        k = np.random.default_rng(9).uniform(-0.9, 0.9, (50, 1))
        coeffs = numerics.legendre_integral(np.exp(k * numerics._GL_X[:10])).T
        total, mid, slope0, slope_mid = self.guide(coeffs)
        for q, want in ((np.zeros(50), -1.0), (mid, 0.0), (total, 1.0)):
            many = numerics.legendre_inverse(q, total, mid, slope0, slope_mid, coeffs)
            one = [numerics.legendre_inverse(
                float(q[i]), float(total[i]), float(mid[i]), float(slope0[i]),
                float(slope_mid[i]), coeffs[:, i].tolist()) for i in range(50)]
            assert np.array_equal(many, one)
            assert all(type(t) is float for t in one)
            assert np.all(np.abs(many - want) <= 1e-9)

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
        lambda x: np.exp(x), lambda x: 1.0 / (1.0 + 4.0 * x * x)],
        ids=["wavy", "from-zero", "exp", "bump"])
    def test_inverse(self, density):
        # the root of each value, also where the density starts from 0, on
        # densities that change by more than those of panels that pass
        c = numerics.legendre_integral(density(numerics._GL_X[:10]))
        total, mid = legendre.legval(1.0, c), legendre.legval(0.0, c)
        slope0, slope_mid = (max(legendre.legval(t, legendre.legder(c)), 0.0)
                             for t in (-1.0, 0.0))
        q = np.concatenate(([0.0, 1e-300, 1e-12 * total, mid, total],
                            np.linspace(0.0, total, 1001)))
        t = numerics.legendre_inverse(q, total, mid, slope0, slope_mid, c)
        assert np.all(np.abs(legendre.legval(t, c) - q) <= 1e-14 * total)
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
            got = np.array([legendre.legval(t, c) for c in coeffs[row]])
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
            got = legendre.legval(t, coeffs[1, k])
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


def warping_rhs(mass, center, width):
    """a' = sqrt(1 - 2 mu/a) for the tanh-step mass profile of
    ``geometry.tanh_step_mass_metric``."""
    base = math.tanh(-center / width)

    def rhs(rho, a):
        mu = mass * (math.tanh((rho - center) / width) - base) / (1.0 - base)
        return math.sqrt(max(0.0, 1.0 - 2.0 * mu / a))
    return rhs


def schwarzschild_rho(a, m):
    """Arclength of the Schwarzschild slice from its horizon a = 2m."""
    return (mpmath.sqrt(a * (a - 2 * m)) + 2 * m * mpmath.log(
        (mpmath.sqrt(a) + mpmath.sqrt(a - 2 * m)) / mpmath.sqrt(2 * m)))


class TestDormandPrince:
    RADII = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 1999)))

    def test_matches_scipy_rk45(self):
        # the same method and step control as solve_ivp's RK45.  scipy sums
        # the stages by BLAS dot products (fused multiply-add here), and
        # where a' is close to 1 the error estimate is a cancellation whose
        # rounding moves later steps by up to 5e-4 relative; the dense
        # outputs then differ by up to 5.5e-13 (120 metrics), 200 times
        # below the 7e-11 error both carry against a DOP853 reference
        rng = random.Random(9)
        for _ in range(30):
            mass, center = rng.uniform(0.3, 2.0), rng.uniform(2.0, 8.0)
            rhs = warping_rhs(mass, center, rng.uniform(0.5, 2.5))
            a0 = max(1.0, 3.0 * mass)
            ours = dormand_prince(rhs, 0.0, 1e6, a0, rtol=1e-11, atol=1e-12)
            sol = scipy.integrate.solve_ivp(
                lambda rho, y: [rhs(rho, y[0])], (0.0, 1e6), [a0],
                method="RK45", rtol=1e-11, atol=1e-12, dense_output=True)
            assert ours.steps == sol.t.size - 1
            want = sol.sol(self.RADII)[0]
            assert np.max(np.abs(ours.values(self.RADII) - want) / want) <= 1e-12

    @pytest.mark.parametrize("m, a0", [(0.5, 1.5), (1.0, 3.0), (2.0, 6.0),
                                       (1.0, 2.01)])
    def test_schwarzschild_closed_form(self, m, a0):
        # constant mu = m: a(rho) inverts rho(a) - rho(a0)
        dense = dormand_prince(lambda rho, a: math.sqrt(1.0 - 2.0 * m / a),
                               0.0, 1e6, a0, rtol=1e-11, atol=1e-12)
        with mpmath.workdps(30):
            start = schwarzschild_rho(mpmath.mpf(a0), m)
            for rho in self.RADII[::10]:
                a = dense(float(rho))
                want = mpmath.findroot(
                    lambda x: schwarzschild_rho(x, m) - start - rho, a)
                assert abs(a / float(want) - 1.0) <= 1e-10, rho

    def test_scalar_and_array_bit_identical(self):
        dense = dormand_prince(warping_rhs(1.0, 5.0, 1.0), 0.0, 1e6, 3.0,
                               rtol=1e-11, atol=1e-12)
        nodes = np.array(dense._ts)
        rs = np.concatenate((self.RADII, nodes, [-1.0, 2e6]))
        scalar = np.array([dense(float(r)) for r in rs])
        assert np.array_equal(dense.values(rs), scalar)
        # the quartic of each step ends on the next node's y
        assert np.allclose(dense.values(nodes), dense._ys, rtol=1e-15, atol=0.0)

    def test_too_small_step(self):
        def rhs(t, y):
            return 1.0 if t < 1.0 else math.nan
        with pytest.raises(NonConvergence, match="spacing between numbers"):
            dormand_prince(rhs, 0.0, 10.0, 1.0, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("t1, y0, error", [
        ("10.0", "math.nan", "NonConvergence"),
        ("math.inf", "1.0", "DomainError"), ("math.nan", "1.0", "DomainError"),
        ("0.0", "1.0", "DomainError")])
    def test_non_finite_arguments(self, run_isolated, t1, y0, error):
        # a NaN step never fell below the floor, and an infinite end never
        # came: both looped for good, and a run that hangs again fails at
        # the timeout; an empty interval made no step to build output from
        out = run_isolated(
            "import math\n"
            "from isocap.errors import IsocapError\n"
            "from isocap.numerics import dormand_prince\n"
            "try:\n"
            f"    dormand_prince(lambda t, y: 1.0, 0.0, {t1}, {y0},\n"
            "                   rtol=1e-11, atol=1e-12)\n"
            "except IsocapError as exc:\n"
            "    print(type(exc).__name__)\n", timeout=60)
        assert out.strip() == error


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
    """``pchip_slopes`` and ``HermiteSpline`` against scipy's
    ``PchipInterpolator``, the same algorithm with other rounding."""

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

        spline = numerics.HermiteSpline(t, y, slopes)
        rng = np.random.default_rng(11)
        pts = np.concatenate((rng.uniform(t[0], t[-1], 100_000), t))
        got = np.array([spline(s) for s in pts]).T
        assert np.array_equal(got[0], spline.values(pts))
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
        v = numerics.HermiteSpline(t, y, numerics.pchip_slopes(t, y)).values(
            np.linspace(0.0, 8.0, 20001))
        assert np.all(np.diff(v) >= 0.0)
        assert v.min() == 0.0 and v.max() == 9.0


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
