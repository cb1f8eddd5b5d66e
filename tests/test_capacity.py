import math
import re

import mpmath
import numpy as np
import pytest

from isocap import capacity, numerics
from isocap.capacity import (_capacities, _tail_past, capacitary_potential,
                             one_capacity, p_capacity, verify_flux_holder)
from isocap.errors import (BadExponent, ConfigError, DomainError,
                           NonConvergence, ParabolicMetric)
from isocap.geometry import (ExprProfile, Gauge, cylinder, expr_metric, flat,
                             metric_from_spec, scaled, schwarzschild,
                             table_metric, to_geodesic)
from isocap.masses import default_r_grid
from isocap.numerics import DEFAULT_CFG
from isocap.specfun import P_HIGH, P_LOW

NECK = "r + 1.5*exp(-4*(r-3)^2)"
EXPONENTS = (P_LOW, 1.5, 2.0, 2.5, P_HIGH)


def schw_ncap2(m, r0):
    """Closed form: normalized 2-capacity of the r0 sphere, mass m."""
    return m / (1.0 - math.sqrt(1.0 - 2.0 * m / r0))


class TestFlatClosedForm:
    @pytest.mark.parametrize("p", np.linspace(1.001, 2.999, 10))
    @pytest.mark.parametrize("rho0", [0.5, 1.0, 2.0, 100.0])
    def test_ncap_power_law(self, p, rho0):
        res = p_capacity(flat(), rho0, float(p))
        assert not res.parabolic
        assert res.ncap == pytest.approx(rho0 ** (3.0 - p), rel=1e-10)

    def test_flux_p2(self):
        # at p=2 the flux is 4*pi*ncap
        res = p_capacity(flat(), 3.0, 2.0)
        assert res.flux == pytest.approx(12 * math.pi, rel=1e-12)


class TestSchwarzschildClosedForm:
    @pytest.mark.parametrize("rho0", [2.0, 2.5, 3.0, 5.0, 10.0, 100.0])
    def test_p2_all_radii(self, rho0):
        res = p_capacity(schwarzschild(1.0), rho0, 2.0)
        assert res.ncap == pytest.approx(schw_ncap2(1.0, rho0), rel=1e-10)

    @pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
    def test_horizon_capacity_equals_mass(self, m):
        res = p_capacity(schwarzschild(m), 2.0 * m, 2.0)
        assert res.ncap == pytest.approx(m, rel=1e-10)


def schw_ncap_oracle(p, r0):
    """Schwarzschild (m = 1) normalized p-capacity by mpmath quadrature.

    With q = 2/(p-1), the substitution s = r0 * t^(-1/(q-1)) turns
    I_p = int_{r0}^inf (4 pi s^2)^(-1/(p-1)) (1 - 2/s)^(-1/2) ds into
    (4 pi r0^2)^(-1/(p-1)) * r0/(q-1) * int_0^1 (1 - (2/r0) t^(1/(q-1)))^(-1/2) dt.
    """
    with mpmath.workdps(30):
        p, r0 = mpmath.mpf(p), mpmath.mpf(r0)
        q = 2 / (p - 1)
        rescaled = r0 / (q - 1) * mpmath.quad(
            lambda t: (1 - 2 / r0 * t ** (1 / (q - 1))) ** -0.5, [0, 1])
        return float(((p - 1) / (3 - p)) ** (p - 1) * r0 ** 2
                     * rescaled ** (1 - p))


class TestSchwarzschildOracle:
    @pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 2.0, 2.5, 2.9, 2.99, 2.999])
    @pytest.mark.parametrize("rho0", [2.0, 3.0, 10.0])
    def test_mpmath_quadrature(self, p, rho0):
        # rho0 = 2 is the throat; p = 2.999 puts 98% of I_p past the tail
        # anchor cutoff_radius
        res = p_capacity(schwarzschild(1.0), rho0, p)
        oracle = schw_ncap_oracle(p, rho0)
        assert res.ncap == pytest.approx(oracle, rel=1e-11)
        assert res.err_estimate >= abs(res.ncap - oracle)

    def test_oracle_matches_p2_closed_form(self):
        assert schw_ncap_oracle(2.0, 3.0) == pytest.approx(
            schw_ncap2(1.0, 3.0), rel=1e-14)


def rn_ncap_oracle(p, r0, m, q):
    """Reissner-Nordstrom normalized p-capacity by mpmath quadrature, as
    ``schw_ncap_oracle``; at r0 = r_+ the float r0 is taken as the exact
    horizon, as the throat model of the library does."""
    with mpmath.workdps(30):
        p, r0, m, q = map(mpmath.mpf, (p, r0, m, q))
        f0 = lambda s: 1 - 2 * m / s + q * q / (s * s)  # noqa: E731
        shift = f0(r0) if abs(f0(r0)) < 1e-10 else 0
        k = 2 / (p - 1) - 1
        rescaled = r0 / k * mpmath.quad(
            lambda t: abs(f0(r0 * t ** (-1 / k)) - shift) ** -0.5, [0, 1])
        return float(((p - 1) / (3 - p)) ** (p - 1) * r0 ** 2
                     * rescaled ** (1 - p))


class TestReissnerNordstromOracle:
    """Capacities of a whole radius sequence, as ``total_mass`` takes them."""

    M, Q = 1.9497356, 0.5

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 2.9])
    def test_mass_grid(self, p):
        r_plus = self.M + math.sqrt(self.M ** 2 - self.Q ** 2)
        metric = expr_metric(Gauge.AREAL, "1 - 2*m/r + q^2/r^2",
                             {"m": self.M, "q": self.Q}, domain_start=r_plus)
        radii = [r_plus] + [400.0 * 2.0 ** k for k in range(6)]
        for res in _capacities(metric, radii, [p], DEFAULT_CFG)[0]:
            oracle = rn_ncap_oracle(p, res.rho0, self.M, self.Q)
            # the parent's semi-infinite tail quadrature was off by up to
            # 9e-10 here at p = 2.5, which total_mass amplifies 1e4-fold
            assert res.ncap == pytest.approx(oracle, rel=1e-12)
            assert res.err_estimate >= abs(res.ncap - oracle)


class TestCapacityQuadrature:
    @pytest.mark.parametrize("p", [1.001, 1.01, 1.1, 1.5, 2.0, 2.5, 2.999])
    def test_no_adaptive_fallback(self, monkeypatch, p):
        # every panel passes the fixed rule's check: no adaptive refinement
        def refuse(density, lo, hi, scale, cfg):
            raise AssertionError(f"refinement called on {lo}, {hi}")
        monkeypatch.setattr(numerics, "_refine", refuse)
        for metric, radii in ((schwarzschild(1.0), [2.0, 3.0, 6.0, 12.0]),
                              (schwarzschild(1.0), [100.0 * 2 ** k for k in range(6)]),
                              (flat(), [0.5, 1.0, 1000.0])):
            _capacities(metric, radii, [p], DEFAULT_CFG)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_refined_kinks_honest(self, refined, p):
        # the panels holding the kinks of f = min(1 - 2/r, 0.5 + 0.01*r) at
        # r = 4.38 and 45.6 are refined; against a run at 1e-12, err bounds
        # the capacity's error, where the bare 21- vs 10-point difference
        # understates it 10-fold at p = 2 from r = 2
        metric = expr_metric(Gauge.AREAL, "min(1-2/r, 0.5+0.01*r)", domain_start=2.0)
        tight = numerics.ToleranceConfig(quad_rel_tol=1e-12, quad_abs_tol=1e-20,
                                         max_subdivisions=200)
        for r0 in (2.0, 3.0):
            refined.clear()
            res = p_capacity(metric, r0, p)
            assert refined
            ref = p_capacity(metric, r0, p, cfg=tight)
            assert abs(res.ncap - ref.ncap) <= res.err_estimate
            assert ref.err_estimate <= 1e-11 * ref.ncap

    @pytest.mark.parametrize("p", [1.05, 1.8, 2.999])
    def test_tail_exact_on_two_terms(self, p):
        # g = (s/big)^-q (A + B big/s) is integrated exactly and both fits
        # agree; at p = 1.05 big^q = 1e320 would overflow
        big, A, B = 1e8, 3.0, 0.25
        q = 2.0 / (p - 1.0)
        g = [2.0 ** (k * q) * (A + B * 2.0 ** k) for k in range(3)]
        tail, err = _tail_past(g, big, q, (3.0 - p) / (p - 1.0))
        exact = big * (A / (q - 1.0) + B / q)
        assert tail == pytest.approx(exact, rel=1e-12)
        assert err <= 1e-12 * tail

    def test_converted_err_is_finite(self):
        res = p_capacity(to_geodesic(schwarzschild(1.0)), 10.0, 2.0)
        assert 0.0 < res.err_estimate < 1e-9 * res.ncap


class TestOtherFamilies:
    """Tabulated and gauge-converted Schwarzschild against the areal one."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    @pytest.mark.parametrize("rho0", [3.0, 10.0, 100.0])
    def test_table(self, schwarzschild_csv, p, rho0):
        table = table_metric(Gauge.AREAL, schwarzschild_csv)
        assert p_capacity(table, rho0, p).ncap == pytest.approx(
            p_capacity(schwarzschild(1.0), rho0, p).ncap, rel=1e-7)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_to_geodesic(self, p):
        S = schwarzschild(1.0)
        G = to_geodesic(S)
        r = math.sqrt(G.area(10.0) / (4.0 * math.pi))
        assert p_capacity(G, 10.0, p).ncap == pytest.approx(
            p_capacity(S, r, p).ncap, rel=1e-8)

    def test_table_holder(self, schwarzschild_csv):
        table = table_metric(Gauge.AREAL, schwarzschild_csv)
        rep = verify_flux_holder(table, 3.0, 2.0, n_samples=20)
        assert rep.all_pass
        assert rep.max_rel_gap <= 1e-8


class TestScalingCovariance:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_ncap_scales(self, lam, p):
        S = schwarzschild(1.0)
        L = scaled(S, lam)
        base = p_capacity(S, 3.0, p).ncap
        assert p_capacity(L, lam * 3.0, p).ncap == pytest.approx(
            lam ** (3.0 - p) * base, rel=1e-8)


class TestOneCapacity:
    def test_flat(self):
        res = one_capacity(flat(), 3.0)
        assert res.ncap == pytest.approx(9.0, rel=1e-12)
        assert res.rho_star == pytest.approx(3.0)

    def test_schwarzschild_horizon(self):
        res = one_capacity(schwarzschild(1.0), 2.0)
        assert res.ncap == pytest.approx(4.0, rel=1e-12)

    def test_neck_sees_outer_minimum(self):
        M = expr_metric(Gauge.GEODESIC, NECK)
        res = one_capacity(M, 3.0)
        # oracle: dense scan of area/4pi = a^2 beyond rho0
        rho = np.linspace(3.0, 20.0, 1_000_001)
        a = rho + 1.5 * np.exp(-4 * (rho - 3) ** 2)
        assert res.ncap == pytest.approx(float((a ** 2).min()), rel=1e-8)
        assert res.rho_star == pytest.approx(float(rho[(a ** 2).argmin()]),
                                             abs=1e-4)

    def test_grid_scan_oracle_inside_neck(self):
        M = expr_metric(Gauge.GEODESIC, NECK)
        res = one_capacity(M, 0.5)
        assert res.ncap == pytest.approx(0.25, rel=1e-8)


class TestParabolic:
    def test_cylinder_flagged(self):
        res = p_capacity(cylinder(2.0), 1.0, 2.0)
        assert res.parabolic
        assert res.ncap == 0.0

    def test_cylinder_all_p(self):
        for p in (1.1, 2.9) + EXPONENTS:
            assert p_capacity(cylinder(1.0), 0.5, p).parabolic

    def test_flat_not_flagged_near_p3(self):
        for metric, rho0 in ((flat(), 1.0), (schwarzschild(1.0), 3.0)):
            for p in EXPONENTS:
                assert not p_capacity(metric, rho0, p).parabolic

    def test_potential_raises(self):
        with pytest.raises(ParabolicMetric):
            capacitary_potential(cylinder(1.0), 1.0, 2.0)


class TestErrors:
    def test_bad_exponent(self):
        for p in (0.5, 1.0, 3.0, 4.0):
            with pytest.raises(BadExponent):
                p_capacity(flat(), 1.0, p)

    def test_deep_neck_near_p1_is_not_parabolic(self):
        # the area falls 20-fold into the neck, and (1/20)^-1000 overflows:
        # a typed failure, not a silent I_p = inf
        M = expr_metric(Gauge.GEODESIC, "r*(1 - 0.9*exp(-(r-3)^2))")
        with pytest.raises(NonConvergence):
            p_capacity(M, 2.0, 1.001)
        # mpmath: sqrt(1/3) / (4 pi sqrt(int_2^inf (4 pi a^2)^-2 d rho))
        assert p_capacity(M, 2.0, 1.5).ncap == pytest.approx(
            0.08873789782334478, rel=1e-12)

    def test_radius_zero_of_positive_area(self, monkeypatch):
        # a = r + 2 is flat space outside a ball of radius 2, whose
        # capacity is 2^(3-p): from rho0 = 0 the panels run in
        # y = log(s + a(0)), where log s has no start
        M = expr_metric(Gauge.GEODESIC, "r + 2")
        for p in (1.1, 1.5, 2.0, 2.5, 2.9):
            cap = p_capacity(M, 0.0, p)
            assert abs(cap.ncap - 2.0 ** (3.0 - p)) <= cap.err_estimate, p
        # below 0 there is no shift: a typed failure, where the panel
        # offsets of an infinite span once grew without bound
        def refuse(*args):
            raise AssertionError("panel offsets from log of a negative radius")
        with monkeypatch.context() as patch:
            patch.setattr(capacity, "_offsets", refuse)
            M = expr_metric(Gauge.GEODESIC, "r + 2", domain_start=-1.0)
            for p in (1.5, 2.0):
                with pytest.raises(DomainError, match="rho=-0.5 needs rho > 0"):
                    p_capacity(M, -0.5, p)

        # a p-parabolic end's panels are sampled with the probes, never summed
        def no_sums(*args):
            raise AssertionError("panels of a divergent p summed")
        monkeypatch.setattr(numerics, "gauss_legendre_sampled", no_sums)
        assert p_capacity(cylinder(1.0), 0.0, 2.0).parabolic

    def test_below_domain(self):
        with pytest.raises(DomainError):
            p_capacity(schwarzschild(1.0), 1.0, 2.0)
        with pytest.raises(DomainError):
            one_capacity(schwarzschild(1.0), 1.0)


class TestPotential:
    def test_flat_p2_is_inverse_radius(self):
        pot = capacitary_potential(flat(), 2.0, 2.0, n_samples=60)
        for rho, u in zip(pot.rhos, pot.u):
            assert u == pytest.approx(2.0 / rho, rel=1e-9)

    def test_schwarzschild_p2_closed_form(self):
        # u(r) = I2(r)/I2(r0) with I2(r) = (1 - sqrt(1-2/r))/(4 pi)
        pot = capacitary_potential(schwarzschild(1.0), 3.0, 2.0, n_samples=50)
        i0 = 1.0 - math.sqrt(1.0 - 2.0 / 3.0)
        for rho, u in zip(pot.rhos, pot.u):
            exact = (1.0 - math.sqrt(1.0 - 2.0 / rho)) / i0
            assert u == pytest.approx(exact, rel=1e-8)

    def test_normalization_and_monotonicity(self):
        pot = capacitary_potential(schwarzschild(1.0), 2.0, 1.5, n_samples=40)
        assert pot.u[0] == 1.0
        assert pot.w[0] == 0.0
        assert np.all(np.diff(pot.u) < 0)
        assert np.all(np.diff(pot.w) > 0)


class TestFluxHolder:
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    @pytest.mark.parametrize("rho0", [2.0, 3.0])
    def test_schwarzschild_gap(self, p, rho0):
        rep = verify_flux_holder(schwarzschild(1.0), rho0, p, n_samples=50)
        assert rep.all_pass
        assert rep.max_rel_gap <= 1e-8

    def test_row_shape(self):
        rep = verify_flux_holder(flat(), 1.0, 2.0, n_samples=10)
        assert len(rep.rows) == 10
        assert rep.rows[0].t == pytest.approx(1.0)
        assert all(r.lhs == pytest.approx(r.rhs, rel=1e-10) for r in rep.rows)


class TestContinuityTowardOne:
    @pytest.mark.parametrize("make,rho0", [(flat, 2.0),
                                           (lambda: schwarzschild(1.0), 3.0)])
    def test_gap_shrinks(self, make, rho0):
        metric = make()
        base = one_capacity(metric, rho0).ncap
        gaps = [abs(p_capacity(metric, rho0, p).ncap - base)
                for p in (1.5, 1.25, 1.1, 1.05)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def _rn_spec(m, q):
    r_plus = m + math.sqrt(m * m - q * q)
    return f"expr:areal:1-2*m/r+q^2/r^2:m={m!r},q={q!r},r_min={r_plus!r}"


class TestOneSamplingPass:
    """``_capacity_tails`` samples the tail probes and every panel node of
    every p in one pass, with the bits and the errors of the probes-first,
    group-by-group reference in conftest."""

    SPECS = {
        "rn-q0": _rn_spec(1.0, 0.0),
        "rn-q0.8m": _rn_spec(1.0, 0.8),
        "schwarzschild": "schwarzschild:m=1",
        "flat": "flat",
        "shifted": "expr:geodesic:r+2",
        "cylinder": "cylinder:a=2",
        "kinks": "expr:areal:min(1-2/r,0.5+0.01*r):r_min=2",
        "neck": "expr:geodesic:" + NECK,
    }
    P_GRIDS = [(1.5, 2.0, 2.5), (1.05, 1.2, 1.5, 2.9), (1.01, 2.99)]

    @staticmethod
    def radii(metric, kind):
        start = metric.domain_start
        if kind == "default":
            return default_r_grid(metric)
        grid = np.geomspace(max(2.0 * start, 1.0), 1e4, 50)
        return grid if kind == "geomspace" else np.append(start, grid)

    @staticmethod
    def outcome(tails, *args):
        try:
            return [tuple(a.tobytes() for a in row) for row in tails(*args)]
        except Exception as exc:
            return type(exc), str(exc)

    def check(self, metric, ps, kind, reference):
        radii = self.radii(metric, kind)
        got = self.outcome(capacity._capacity_tails, metric, radii, list(ps),
                           DEFAULT_CFG)
        assert got == self.outcome(reference, metric, radii, list(ps), DEFAULT_CFG)
        return got

    @pytest.mark.parametrize("kind", ["default", "geomspace", "start"])
    @pytest.mark.parametrize("ps", P_GRIDS)
    @pytest.mark.parametrize("name", [*SPECS, "table"])
    def test_bits_and_errors_of_the_reference(self, name, ps, kind, table_400,
                                              reference_capacity_tails):
        spec = self.SPECS.get(name, f"table:areal:{table_400}")
        self.check(metric_from_spec(spec), ps, kind, reference_capacity_tails)

    @pytest.mark.parametrize("kind", ["default", "geomspace", "start"])
    def test_divergent_p_in_a_group_of_its_own(self, kind, refined,
                                               reference_capacity_tails):
        # area ~ r^0.6: p = 1.2 converges, p = 2.5 diverges, and their first
        # panels differ in width
        metric = metric_from_spec("expr:geodesic:r^0.3:rho_min=1")
        got = self.check(metric, (1.2, 2.5), kind, reference_capacity_tails)
        assert isinstance(got, list)
        assert np.isinf(np.frombuffer(got[1][1])).all()
        assert np.isfinite(np.frombuffer(got[0][1])).all()

    def test_one_profile_evaluation(self, monkeypatch):
        metric = metric_from_spec(_rn_spec(1.3, 0.6))
        radii = default_r_grid(metric)
        calls = []
        values = ExprProfile.values
        monkeypatch.setattr(ExprProfile, "values",
                            lambda self, x: calls.append(x.size) or values(self, x))
        capacity._capacity_tails(metric, radii, [1.5, 2.0, 2.5], DEFAULT_CFG)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho, where", [(1e160, 1e160), (1e152, 1e154)])
    def test_overflowing_area(self, rho, where):
        # past about 3.8e153 the area 4 pi r^2 leaves the floats; at 1e152
        # the radius is fine but its tail anchor 100 times out is not
        message = f"area of the sphere at rho={where!r} overflows"
        with pytest.raises(DomainError, match=re.escape(message)):
            p_capacity(schwarzschild(1.0), rho, 2.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cutoff_radius(self):
        # the anchor is the configured cutoff_radius, not a radius passed in
        cfg = numerics.ToleranceConfig(cutoff_radius=1e160)
        with pytest.raises(ConfigError, match=r"^cutoff_radius = 1e\+160 puts the "
                           r"capacity tail anchor where the area of the sphere "
                           r"overflows$"):
            p_capacity(schwarzschild(1.0), 2.0, 2.0, cfg)
