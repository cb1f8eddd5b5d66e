import math

import mpmath
import numpy as np
import pytest

from isocap.capacity import (capacitary_potential, one_capacity, p_capacity,
                             verify_flux_holder)
from isocap.errors import BadExponent, DomainError, ParabolicMetric
from isocap.geometry import (Gauge, cylinder, expr_metric, flat, scaled,
                             schwarzschild, table_metric, to_geodesic)
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
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.5, 2.9])
    @pytest.mark.parametrize("rho0", [2.0, 3.0, 10.0])
    def test_mpmath_quadrature(self, p, rho0):
        # 1e-8: near p = 3 the power-law tail residual past cutoff_radius
        # is resolved only to about 1e-8 of the capacity
        assert p_capacity(schwarzschild(1.0), rho0, p).ncap == pytest.approx(
            schw_ncap_oracle(p, rho0), rel=1e-8)

    def test_oracle_matches_p2_closed_form(self):
        assert schw_ncap_oracle(2.0, 3.0) == pytest.approx(
            schw_ncap2(1.0, 3.0), rel=1e-14)


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
