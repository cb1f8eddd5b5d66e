import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from isocap import flow, geometry, numerics
from isocap.errors import ConfigError, EvalError, NonIntegrableThroat
from isocap.geometry import (BoundaryKind, FuncProfile, Gauge,
                             check_hypotheses, cylinder,
                             expr_metric, find_minimal_spheres, flat,
                             mass_profile_metric, metric_from_spec, scaled,
                             schwarzschild, sphere_data, table_metric,
                             tanh_step_mass_metric, to_geodesic,
                             validate_metric)

NECK = "r + 1.5*exp(-4*(r-3)^2)"


def simpson_volume(metric, rho, n=400_001):
    """Independent volume oracle: composite Simpson on the radial measure."""
    lo = metric.domain_start
    xs = np.linspace(lo, rho, n)
    if metric.gauge is Gauge.GEODESIC:
        ys = [4 * math.pi * metric.profile_d2(x)[0] ** 2 for x in xs]
    else:
        ys = []
        for x in xs:
            f = metric.profile_d2(x)[0]
            ys.append(4 * math.pi * x * x / math.sqrt(f) if f > 0 else 0.0)
    return float(scipy.integrate.simpson(ys, x=xs))


class TestFlat:
    def test_sphere_data(self):
        d = sphere_data(flat(), 2.0)
        assert d.area == pytest.approx(16 * math.pi, rel=1e-14)
        assert d.volume == pytest.approx(32 * math.pi / 3, rel=1e-12)
        assert d.mean_curvature == pytest.approx(1.0, rel=1e-14)
        assert d.hawking_mass == pytest.approx(0.0, abs=1e-14)
        assert d.willmore == pytest.approx(16 * math.pi, rel=1e-14)
        assert d.scalar_curvature == pytest.approx(0.0, abs=1e-14)

    def test_no_minimal_spheres(self):
        assert find_minimal_spheres(flat()) == []

    def test_validates(self):
        assert validate_metric(flat()) == []


class TestSchwarzschild:
    def test_hawking_mass_exact_at_all_radii(self):
        S = schwarzschild(1.0)
        for r in (2.0, 3.0, 10.0, 1e4):
            assert sphere_data(S, r).hawking_mass == pytest.approx(1.0, abs=1e-10)

    def test_mass_parameter_scaling(self):
        for m in (0.5, 2.0, 7.0):
            S = schwarzschild(m)
            assert sphere_data(S, 5.0 * m).hawking_mass == pytest.approx(m, rel=1e-12)

    def test_horizon_is_minimal(self):
        S = schwarzschild(1.0)
        d = sphere_data(S, 2.0)
        assert d.mean_curvature == pytest.approx(0.0, abs=1e-12)
        assert find_minimal_spheres(S) == pytest.approx([2.0], abs=1e-9)

    def test_scalar_flat(self):
        S = schwarzschild(1.0)
        for r in (2.5, 4.0, 50.0):
            assert sphere_data(S, r).scalar_curvature == pytest.approx(0.0, abs=1e-12)

    def test_volume_against_simpson(self):
        # substitute xi = sqrt(r-2) so the horizon singularity cancels:
        # dV = 4 pi r^2 f^(-1/2) dr = 8 pi r^(5/2) d(xi)
        S = schwarzschild(1.0)
        v = sphere_data(S, 6.0).volume
        xs = np.linspace(0.0, 2.0, 400_001)
        ys = 8 * math.pi * (2.0 + xs ** 2) ** 2.5
        oracle = float(scipy.integrate.simpson(ys, x=xs))
        assert v == pytest.approx(oracle, rel=1e-10)

    def test_willmore_closed_form(self):
        # 16*pi*f(r) in the areal gauge
        S = schwarzschild(1.0)
        d = sphere_data(S, 8.0)
        assert d.willmore == pytest.approx(16 * math.pi * 0.75, rel=1e-12)

    def test_validates(self):
        assert validate_metric(schwarzschild(1.0)) == []


class TestCylinder:
    def test_constant_area(self):
        C = cylinder(2.0)
        for r in (0.5, 10.0, 1e5):
            assert sphere_data(C, r).area == pytest.approx(16 * math.pi, rel=1e-14)

    def test_fails_largeness(self):
        issues = validate_metric(cylinder(2.0))
        assert any("largeness" in msg for msg in issues)


class TestNeck:
    def test_area_at_bump(self):
        M = expr_metric(Gauge.GEODESIC, NECK)
        assert sphere_data(M, 3.0).area == pytest.approx(4 * math.pi * 4.5 ** 2,
                                                         rel=1e-12)

    def test_two_interior_minimal_spheres(self):
        roots = find_minimal_spheres(expr_metric(Gauge.GEODESIC, NECK))
        assert len(roots) == 2
        # oracle: dense scan of a'(rho) sign changes
        rho = np.linspace(0.5, 6.0, 1_000_001)
        a = rho + 1.5 * np.exp(-4 * (rho - 3) ** 2)
        ap = np.diff(a)
        flips = np.flatnonzero(np.sign(ap[:-1]) * np.sign(ap[1:]) < 0)
        oracle = rho[flips + 1]
        assert roots == pytest.approx(list(oracle), abs=1e-4)

    def test_hypotheses_flag_interior_minimal(self):
        rep = check_hypotheses(expr_metric(Gauge.GEODESIC, NECK))
        assert not rep.no_interior_minimal
        assert len(rep.offending_radii) == 2


class TestGaugeConversion:
    def test_geodesic_schwarzschild_matches(self):
        S = schwarzschild(1.0)
        G = to_geodesic(S)
        assert G.gauge is Gauge.GEODESIC
        # arclength from the horizon to r=4, against an adaptive oracle
        rho4, _ = scipy.integrate.quad(
            lambda r: 1.0 / math.sqrt(1.0 - 2.0 / r), 2.0, 4.0,
            epsabs=1e-13, epsrel=1e-13, points=[2.0])
        a, ap, app = G.profile_d2(rho4)
        assert a == pytest.approx(4.0, rel=1e-8)
        assert ap == pytest.approx(math.sqrt(1.0 - 2.0 / 4.0), rel=1e-8)

    def test_hawking_mass_gauge_invariant(self):
        S = schwarzschild(1.0)
        G = to_geodesic(S)
        for rho in (0.5, 2.0, 10.0, 100.0):
            d = sphere_data(G, rho)
            assert d.hawking_mass == pytest.approx(1.0, abs=1e-8)

    def test_throat_vanishing_order_rejected(self):
        # f ~ (r-1)^2 near the throat: infinite distance, not convertible
        M = expr_metric(Gauge.AREAL, "(1 - 1/r)^2", domain_start=1.0,
                        boundary_kind=BoundaryKind.MINIMAL)
        with pytest.raises(NonIntegrableThroat):
            to_geodesic(M)


def rn_arclength(r, m, q):
    """Closed-form arclength from the outer horizon r+ of the areal
    Reissner-Nordstrom f = 1 - 2m/r + q^2/r^2 (Schwarzschild at q = 0):
    rho = s + m*ln((s + r - m)/(r+ - m)), s = sqrt((r - r+)(r - r-))."""
    d = math.sqrt(m * m - q * q)
    rp, rm = m + d, m - d
    s = math.sqrt((r - rp) * (r - rm))
    return s + m * math.log1p((s + r - rp) / (rp - m))


def kinked_arclength(r):
    """Piecewise closed-form arclength of f = min(1 - 2/r, 0.5 + 0.01*r)
    from r = 2: the linear piece holds between the two crossings."""
    r1, r2 = (50.0 - math.sqrt(1700.0)) / 2, (50.0 + math.sqrt(1700.0)) / 2
    schw = lambda x: rn_arclength(x, 1.0, 0.0)  # noqa: E731
    lin = lambda x: 200.0 * math.sqrt(0.5 + 0.01 * x)  # noqa: E731
    if r <= r1:
        return schw(r)
    if r <= r2:
        return schw(r1) + lin(r) - lin(r1)
    return schw(r1) + lin(r2) - lin(r1) + schw(r) - schw(r2)


def arclength_nodes(metric):
    """(r, rho) at the arclength nodes of a converted metric."""
    return metric.profile._r_nodes, metric.profile._rho_nodes


class TestGaugeConversionAccuracy:
    """Arclength nodes and Newton-refined a(rho) against independent oracles."""

    @pytest.mark.parametrize("m, q", [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0),
                                      (1.0, 0.6), (0.5, 0.3), (2.0, 1.5)])
    def test_closed_form(self, m, q):
        if q == 0.0:
            areal = schwarzschild(m)
        else:
            areal = expr_metric(Gauge.AREAL, "1 - 2*m/r + q^2/r^2",
                                {"m": m, "q": q},
                                domain_start=m + math.sqrt(m * m - q * q),
                                boundary_kind=BoundaryKind.MINIMAL)
        G = to_geodesic(areal)
        rs, rhos = arclength_nodes(G)
        exact = np.array([rn_arclength(r, m, q) for r in rs[1:]])
        assert rhos[0] == 0.0
        assert np.max(np.abs(rhos[1:] - exact) / exact) <= 2e-11
        for k in range(20):  # the radii of the gauge-convert benchmark
            rho = m * 1e-2 * 1e5 ** (k / 19)
            r = G.profile_d2(rho)[0]
            assert rn_arclength(r, m, q) == pytest.approx(rho, rel=2e-11)

    def test_no_throat_matches_mpmath(self):
        G = to_geodesic(expr_metric(Gauge.AREAL, "1/(1+1/r)", domain_start=1.0))
        rs, rhos = arclength_nodes(G)
        with mpmath.workdps(30):
            for i in range(1, len(rs), 40):
                exact = float(mpmath.quad(lambda x: mpmath.sqrt(1 + 1 / x),
                                          [1, rs[i]]))
                assert rhos[i] == pytest.approx(exact, rel=1e-13, abs=0.0)
                assert G.profile_d2(exact)[0] == pytest.approx(rs[i], rel=1e-13)

    def test_kinked_profile_falls_back(self):
        # The 10-point rule alone misses the kinks at r = 4.38 and 45.6 by
        # 8e-8 relative; the panels holding them go to adaptive quadrature.
        G = to_geodesic(expr_metric(Gauge.AREAL, "min(1-2/r, 0.5+0.01*r)",
                                    domain_start=2.0,
                                    boundary_kind=BoundaryKind.MINIMAL))
        rs, rhos = arclength_nodes(G)
        exact = np.array([kinked_arclength(r) for r in rs[1:]])
        assert np.max(np.abs(rhos[1:] - exact) / exact) <= 1e-10
        for r in (3.0, 4.3, 4.4, 10.0, 45.0, 46.0, 1e3):
            assert G.profile_d2(kinked_arclength(r))[0] == pytest.approx(r, rel=1e-10)

    def test_quadrature_count(self, monkeypatch):
        calls = {"converted": 0, "expr": 0, "integrate": 0}

        def counting(owner, name, key):
            orig = getattr(owner, name)

            def counted(*args):
                calls[key] += 1
                return orig(*args)
            monkeypatch.setattr(owner, name, counted)
        counting(geometry._ConvertedProfile, "eval_d2", "converted")
        counting(geometry.ExprProfile, "eval_d2", "expr")
        counting(numerics, "integrate", "integrate")
        G = to_geodesic(schwarzschild(1.0))
        for k in range(20):
            sphere_data(G, 1e-2 * 1e5 ** (k / 19))
        # one scalar evaluation per sphere; the volumes go through values
        assert calls["converted"] <= 20
        assert calls["integrate"] == 0
        assert calls["expr"] < 200


def schwarzschild_volume(m, xi):
    """Volume inside xi = sqrt(r - 2m) of Schwarzschild, in mpmath:
    dV = 4 pi r^2 f^(-1/2) dr = 8 pi (2m + xi^2)^(5/2) d(xi)."""
    return 4 * mpmath.pi * mpmath.quad(
        lambda x: 2 * (2 * m + x * x) ** mpmath.mpf(2.5), [0, xi])


class TestVolumeOracles:
    @pytest.mark.parametrize("offset", [1e-6, 1e-4, 1e-2, 1.0, 100.0])
    def test_areal_from_the_throat(self, offset):
        r = 2.0 + offset
        got = schwarzschild(1.0).volume(r)
        with mpmath.workdps(30):
            want = schwarzschild_volume(1, mpmath.sqrt(mpmath.mpf(r) - 2))
            assert abs(got - want) <= 1e-11 * want

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_converted(self, m):
        # rho(xi) = integral of 2 sqrt(2m + x^2) from 0 to xi, solved for xi
        G = to_geodesic(schwarzschild(m))
        with mpmath.workdps(30):
            mm = mpmath.mpf(m)
            for k in range(20):  # the radii of the gauge-convert benchmark
                rho = m * 1e-2 * 1e5 ** (k / 19)
                xi = mpmath.findroot(
                    lambda x: x * mpmath.sqrt(2 * mm + x * x) + 2 * mm
                    * mpmath.asinh(x / mpmath.sqrt(2 * mm)) - rho,
                    mpmath.sqrt(rho))
                want = schwarzschild_volume(mm, xi)
                got = sphere_data(G, rho).volume
                assert abs(got - want) <= 1e-12 * want, rho


class TestScaled:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_homothety_covariance(self, lam):
        S = schwarzschild(1.0)
        L = scaled(S, lam)
        for rho in (2.0, 5.0):
            d0 = sphere_data(S, rho)
            d1 = sphere_data(L, lam * rho)
            assert d1.area == pytest.approx(lam ** 2 * d0.area, rel=1e-10)
            assert d1.volume == pytest.approx(lam ** 3 * d0.volume, rel=1e-8)
            assert d1.mean_curvature == pytest.approx(d0.mean_curvature / lam,
                                                      rel=1e-10)
            assert d1.hawking_mass == pytest.approx(lam * d0.hawking_mass,
                                                    rel=1e-8)
            assert d1.willmore == pytest.approx(d0.willmore, rel=1e-10)


class TestTableMetric:
    def test_csv_round_trip(self, tmp_path):
        rs = np.linspace(2.0, 200.0, 600)
        path = tmp_path / "schw.csv"
        with open(path, "w") as fh:
            fh.write("# schwarzschild f(r) samples\n")
            for r in rs:
                fh.write(f"{r:.17g},{1.0 - 2.0 / r:.17g}\n")
        T = table_metric(Gauge.AREAL, str(path),
                         boundary_kind=BoundaryKind.MINIMAL)
        d = sphere_data(T, 50.0)
        assert d.area == pytest.approx(4 * math.pi * 2500, rel=1e-12)
        assert d.hawking_mass == pytest.approx(1.0, abs=1e-4)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,1\n2,1\n3,1\n")
        with pytest.raises(ConfigError):
            table_metric(Gauge.AREAL, str(path))

    def test_outside_range_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("".join(f"{r},{r}\n" for r in (1.0, 2.0, 3.0, 4.0)))
        T = table_metric(Gauge.GEODESIC, str(path))
        with pytest.raises(EvalError):
            sphere_data(T, 10.0)


class TestMassProfileGenerator:
    def test_hawking_mass_tracks_profile(self):
        # mu nondecreasing -> m_H(rho) = mu(rho) along the generated metric
        M = tanh_step_mass_metric(1.0, 5.0, 1.0)
        base = math.tanh(-5.0)
        for rho in (1.0, 5.0, 12.0, 40.0):
            mu = (math.tanh(rho - 5.0) - base) / (1.0 - base)
            assert sphere_data(M, rho).hawking_mass == pytest.approx(mu, abs=1e-9)

    def test_scalar_curvature_nonnegative(self):
        M = tanh_step_mass_metric(1.5, 4.0, 0.8)
        for rho in np.linspace(0.3, 30.0, 200):
            assert sphere_data(M, float(rho)).scalar_curvature >= -1e-10

    def test_custom_profile(self):
        # linear ramp mass: mu' >= 0 on [0, 2]
        def mu(rho):
            if rho < 2.0:
                return 0.25 * rho, 0.25
            return 0.5, 0.0

        M = mass_profile_metric(mu, a0=2.0)
        assert sphere_data(M, 30.0).hawking_mass == pytest.approx(0.5, abs=1e-9)


class TestArrayValues:
    """profile.values against the scalar eval_d2 it stands for."""

    @staticmethod
    def scalar(metric, rs):
        return np.array([metric.profile_d2(float(r))[0] for r in rs])

    @pytest.mark.parametrize("metric, lo, hi, n", [
        (expr_metric(Gauge.GEODESIC, NECK), 0.0, 12.0, 2000),
        (schwarzschild(1.0), 2.0, 1e6, 2000),
        (scaled(expr_metric(Gauge.GEODESIC, NECK), 2.0), 0.0, 24.0, 2000),
        (scaled(schwarzschild(1.0), 0.5), 1.0, 1e5, 2000),
        (to_geodesic(schwarzschild(1.0)), 0.0, 1e4, 40),
    ], ids=["expr", "expr-areal", "scaled-expr", "scaled-areal", "converted"])
    def test_bit_identical(self, metric, lo, hi, n):
        rs = np.geomspace(max(lo, 1e-6), hi, n)
        rs[0] = lo
        assert np.array_equal(metric.profile.values(rs), self.scalar(metric, rs))

    def test_table_bit_identical(self, schwarzschild_csv):
        T = table_metric(Gauge.AREAL, schwarzschild_csv)
        rs = np.geomspace(2.0, 1e6, 8192)
        assert np.array_equal(T.profile.values(rs), self.scalar(T, rs))
        with pytest.raises(EvalError, match="outside table range"):
            T.profile.values(np.array([3.0, 2e6]))

    def test_generated_within_an_ulp(self):
        M = tanh_step_mass_metric(1.2, 4.0, 1.5)
        rs = np.geomspace(0.5, 200.0, 8192)
        ref = self.scalar(M, rs)
        rel = np.abs(M.profile.values(rs) - ref) / ref
        assert rel.max() <= 4.5e-16

    def test_stalled_warping_raises_like_scalar(self):
        # mu = rho outgrows a/2 near rho = 0.4 and the warping stalls for good
        M = mass_profile_metric(lambda rho: (rho, 1.0), a0=1.0, rho_max=50.0)
        rs = np.geomspace(0.01, 20.0, 512)
        first = None
        for r in rs:
            try:
                M.area(float(r))
            except EvalError as exc:
                first = str(exc)
                break
        assert first is not None and "stalls" in first
        with pytest.raises(EvalError) as info:
            M.area(rs)
        assert str(info.value) == first

    def test_generated_scan_makes_no_scalar_calls(self, monkeypatch):
        calls = []
        eval_d2 = FuncProfile.eval_d2

        def counted(self, r):
            calls.append(r)
            return eval_d2(self, r)
        monkeypatch.setattr(FuncProfile, "eval_d2", counted)
        for M in (tanh_step_mass_metric(1.0, 5.0, 1.0),
                  scaled(tanh_step_mass_metric(1.0, 5.0, 1.0), 2.0)):
            grid, areas = flow._area_grid(M, 0.5, 100.0)
            assert len(areas) == len(grid)
        assert calls == []


class TestMetricSpec:
    def test_families(self):
        assert metric_from_spec("flat").label == "flat"
        assert metric_from_spec("schwarzschild:m=2").domain_start == 4.0
        assert metric_from_spec("cylinder:a=3").gauge is Gauge.GEODESIC
        M = metric_from_spec("expr:geodesic:r + 0.1*r")
        assert sphere_data(M, 1.0).area == pytest.approx(4 * math.pi * 1.21)

    def test_expr_with_params(self):
        M = metric_from_spec("expr:areal:1 - 2*m/r:m=0.5")
        assert sphere_data(M, 2.0).willmore == pytest.approx(8 * math.pi)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            metric_from_spec("torus")

    def test_bad_gauge(self):
        with pytest.raises(ConfigError):
            metric_from_spec("expr:polar:r")
