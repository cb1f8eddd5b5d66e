import dataclasses
import gc
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate

from isocap import geometry, numerics
from isocap.capacity import p_capacity
from isocap.errors import (ConfigError, DomainError, EvalError,
                           NonIntegrableThroat)
from isocap.geometry import (FuncProfile, Gauge, TableProfile,
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
        ys = [4 * math.pi * metric.profile.eval_d2(x)[0] ** 2 for x in xs]
    else:
        ys = []
        for x in xs:
            f = metric.profile.eval_d2(x)[0]
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


class TestValidateMetric:
    @pytest.mark.parametrize("gauge, text, start, issue", [
        (Gauge.GEODESIC, "r + log(r-5)", 0.0,
         "profile evaluation failed: log of non-positive value -5.0"),
        (Gauge.GEODESIC, "r - 5", 0.0,
         "warping factor must be positive on the probe grid"),
        (Gauge.GEODESIC, "2", 0.0,
         "warping factor does not grow beyond every bound "
         "(asymptotic largeness violated)"),
        (Gauge.AREAL, "1", 0.0, "areal gauge requires r > 0"),
        (Gauge.AREAL, "1 - 2/r", 1.0, "areal coefficient f must be nonnegative"),
    ], ids=["evaluation", "positive", "largeness", "areal-start", "areal-sign"])
    def test_each_issue(self, gauge, text, start, issue):
        M = geometry.RadialMetric(gauge, geometry.ExprProfile(text), start)
        assert validate_metric(M) == [issue]


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

    def test_plateau_has_no_critical_point(self):
        # a' = 0 everywhere: the slope never changes sign
        assert cylinder(1.0).critical_points()[0] == []

    def test_cached_probes_are_read_only(self):
        _, probes, areas = cylinder(1.0).critical_points()
        for arr in (probes, areas):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestStartSphere:
    """A geodesic metric reports domain_start itself as a minimal sphere
    when a' there is within root_tol."""

    @pytest.mark.parametrize("make", [
        lambda: cylinder(1.0),
        lambda: metric_from_spec("expr:geodesic:1+r^2"),
        lambda: to_geodesic(schwarzschild(1.0)),  # the horizon
    ], ids=["cylinder", "1+r^2", "converted"])
    def test_reports_domain_start(self, make):
        metric = make()
        assert find_minimal_spheres(metric) == [metric.domain_start] == [0.0]
        rep = check_hypotheses(metric)
        assert rep.no_interior_minimal and rep.offending_radii == []
        assert rep.minimal_boundary

    @pytest.mark.parametrize("text, start", [("r", 0.0), ("r + 1", 0.0),
                                             ("1 + (r-1)^2", 2.0)])
    def test_sloped_start_is_not_minimal(self, text, start):
        metric = expr_metric(Gauge.GEODESIC, text, domain_start=start)
        assert find_minimal_spheres(metric) == []


# an areal Reissner-Nordstrom slice whose f at r_min rounds to 1.4e-16, so
# that a' = sqrt(f) at its converted start is 1.2e-8
RN_ROUNDED = ("expr:areal:1-2*m/r+q^2/r^2:m=1.7999450475864174,"
              "q=0.8423764169447919,r_min=3.3906065912550023")


class TestMinimalRule:
    """One rule decides H = 0: |f| in the areal gauge, a'^2 in the
    geodesic one, within 1e-10, on a sphere of positive area."""

    @pytest.mark.parametrize("spec, minimal", [
        (RN_ROUNDED, True), ("expr:areal:1-2/r+5e-11:r_min=2", True),
        ("expr:areal:1-2/r+1e-9:r_min=2", False)],
        ids=["rounded", "within", "beyond"])
    def test_both_gauges_agree_at_the_start(self, spec, minimal):
        M = metric_from_spec(spec)
        for metric in (M, to_geodesic(M)):
            roots = find_minimal_spheres(metric)
            assert roots == ([metric.domain_start] if minimal else [])
            assert check_hypotheses(metric).minimal_boundary is minimal

    def test_declared_and_expression_schwarzschild_agree(self):
        rep = check_hypotheses(schwarzschild(1.0))
        assert rep.minimal_boundary and rep.no_interior_minimal
        assert check_hypotheses(
            metric_from_spec("expr:areal:1-2*m/r:m=1,r_min=2")) == rep

    @pytest.mark.parametrize("spec", ["expr:geodesic:r^2",
                                      "expr:areal:r^2:r_min=0"])
    def test_zero_area_start_is_a_pole(self, spec):
        # H = 0 by the numbers, but a sphere of zero area is not minimal
        assert find_minimal_spheres(metric_from_spec(spec)) == []

    def test_areal_interior_double_zero(self):
        # f = (1 - 1/r)^2 touches 0 at r = 1, found between the probes
        M = metric_from_spec("expr:areal:(1-1/r)^2:r_min=0.5")
        roots = find_minimal_spheres(M)
        assert roots == pytest.approx([1.0], abs=1e-9)
        rep = check_hypotheses(M)
        assert not rep.minimal_boundary
        assert rep.offending_radii == roots and not rep.no_interior_minimal
        # the spheres past r = 1 lie at infinite distance: no probe there
        assert max(rep.probe_grid) < 1.0
        assert rep.scalar_curvature_nonneg
        assert rep.radial_isoperimetric_constant > 0.0

    def test_areal_interior_near_miss(self):
        # f dips to 1e-6 > 1e-10: H = 2e-3/r there, not a minimal sphere
        M = metric_from_spec("expr:areal:(1-1/r)^2+1e-6:r_min=0.5")
        assert find_minimal_spheres(M) == []


class TestNeck:
    def test_area_at_bump(self):
        M = expr_metric(Gauge.GEODESIC, NECK)
        assert sphere_data(M, 3.0).area == pytest.approx(4 * math.pi * 4.5 ** 2,
                                                         rel=1e-12)

    def test_two_interior_minimal_spheres(self):
        roots = find_minimal_spheres(expr_metric(Gauge.GEODESIC, NECK))
        assert len(roots) == 2 and all(type(r) is float for r in roots)
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
    def test_geodesic_metric_is_its_own_conversion(self):
        M = expr_metric(Gauge.GEODESIC, NECK)
        assert to_geodesic(M) is M

    def test_geodesic_schwarzschild_matches(self):
        S = schwarzschild(1.0)
        G = to_geodesic(S)
        assert G.gauge is Gauge.GEODESIC
        # arclength from the horizon to r=4, against an adaptive oracle
        rho4, _ = scipy.integrate.quad(
            lambda r: 1.0 / math.sqrt(1.0 - 2.0 / r), 2.0, 4.0,
            epsabs=1e-13, epsrel=1e-13, points=[2.0])
        a, ap, app = G.profile.eval_d2(rho4)
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
        M = expr_metric(Gauge.AREAL, "(1 - 1/r)^2", domain_start=1.0)
        with pytest.raises(NonIntegrableThroat):
            to_geodesic(M)

    def test_negative_f_at_the_inner_boundary_rejected(self):
        # f(1) = -1: no slice starts there; volumes, capacities and the
        # gauge change all refuse it, as check_hypotheses does
        M = metric_from_spec("expr:areal:1-2/r")
        with pytest.raises(EvalError, match=r"f\(1\.0\) = -1\.0 < 0"):
            M.volume(3.0)
        with pytest.raises(EvalError):
            p_capacity(M, 3.0, 2.0)
        with pytest.raises(EvalError):
            to_geodesic(M)

    @pytest.mark.parametrize("start", [1e8, 2e8])
    def test_start_at_or_past_the_cutoff_rejected(self, start, recwarn):
        # the conversion spans domain_start to min(cutoff_radius, r_max)
        M = expr_metric(Gauge.AREAL, "1-2/r", {}, domain_start=start)
        with pytest.raises(DomainError, match="no range to convert"):
            to_geodesic(M)
        assert len(recwarn) == 0


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
    """(r, rho) at the arclength nodes of a converted metric: the edges of
    its series in xi = sqrt(r - r_min) and the arclength row there."""
    series = metric.profile.series
    return metric.profile._areal.domain_start + series.edges ** 2, series.nodes[0]


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
                                domain_start=m + math.sqrt(m * m - q * q))
        G = to_geodesic(areal)
        rs, rhos = arclength_nodes(G)
        exact = np.array([rn_arclength(r, m, q) for r in rs[1:]])
        assert rhos[0] == 0.0
        assert np.max(np.abs(rhos[1:] - exact) / exact) <= 2e-11
        for k in range(20):  # the radii of the gauge-convert benchmark
            rho = m * 1e-2 * 1e5 ** (k / 19)
            r = G.profile.eval_d2(rho)[0]
            assert rn_arclength(r, m, q) == pytest.approx(rho, rel=2e-11)

    def test_schwarzschild_inner_sphere_and_rho_10(self):
        # the horizon exactly; the sphere at rho = 10 to 1e-12
        G = to_geodesic(schwarzschild(1.0))
        inner = sphere_data(G, 0.0)
        assert inner.area == 16 * math.pi and inner.volume == 0.0
        r = math.sqrt(sphere_data(G, 10.0).area / (4 * math.pi))
        assert abs(rn_arclength(r, 1.0, 0.0) - 10.0) <= 1e-12 * 10.0

    def test_no_throat_matches_mpmath(self):
        G = to_geodesic(expr_metric(Gauge.AREAL, "1/(1+1/r)", domain_start=1.0))
        rs, rhos = arclength_nodes(G)
        with mpmath.workdps(30):
            for i in range(1, len(rs), 40):
                exact = float(mpmath.quad(lambda x: mpmath.sqrt(1 + 1 / x),
                                          [1, rs[i]]))
                assert rhos[i] == pytest.approx(exact, rel=1e-13, abs=0.0)
                assert G.profile.eval_d2(exact)[0] == pytest.approx(rs[i], rel=1e-13)

    def test_kinked_profile_falls_back(self):
        # The 10-point rule alone misses the kinks at r = 4.38 and 45.6 by
        # 8e-8 relative; the panels holding them are halved until each
        # piece's series resolves its part.
        G = to_geodesic(kinked())
        rs, rhos = arclength_nodes(G)
        exact = np.array([kinked_arclength(r) for r in rs[1:]])
        assert np.max(np.abs(rhos[1:] - exact) / exact) <= 1e-10
        for r in (3.0, 4.3, 4.4, 10.0, 45.0, 46.0, 1e3):
            assert G.profile.eval_d2(kinked_arclength(r))[0] == pytest.approx(r, rel=1e-10)

    def test_kinked_against_mpmath(self):
        # the refined panels at the kinks, against mpmath in xi = sqrt(r - 2)
        # with breakpoints at the kinks: the radius at the arclength of r,
        # and the volume there
        G = to_geodesic(kinked())
        with mpmath.workdps(30):
            def arclength(xi):  # 2*xi/sqrt(f), where 1 - 2/r = xi^2/r
                r = 2 + xi * xi
                linear = mpmath.mpf("0.5") + r / 100
                if 1 - 2 / r <= linear:
                    return 2 * mpmath.sqrt(r)
                return 2 * xi / mpmath.sqrt(linear)

            def volume(xi):
                return 4 * mpmath.pi * (2 + xi * xi) ** 2 * arclength(xi)
            kinks = [mpmath.sqrt((50 + s * mpmath.sqrt(1700)) / 2 - 2) for s in (-1, 1)]
            for r in (4.0, 4.4, 20.0, 46.0, 1e3):
                xi = mpmath.sqrt(mpmath.mpf(r) - 2)
                points = [0] + [k for k in kinks if k < xi] + [xi]
                rho = float(mpmath.quad(arclength, points))
                want = float(mpmath.quad(volume, points))
                assert G.profile.eval_d2(rho)[0] == pytest.approx(r, rel=1e-10)
                assert G.volume(rho) == pytest.approx(want, rel=1e-10)

    @staticmethod
    def counting(monkeypatch, owner, name, calls):
        """Count the calls of owner.name under calls[name]."""
        orig = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args)
        monkeypatch.setattr(owner, name, counted)

    def test_quadrature_count(self, monkeypatch, schwarzschild_csv, refined):
        calls, sizes = {}, []
        density = geometry._ConvertedProfile._map_density
        monkeypatch.setattr(geometry._ConvertedProfile, "_map_density",
                            lambda self, xi: sizes.append(xi.size) or density(self, xi))
        for make in (kinked, lambda: table_metric(Gauge.AREAL, schwarzschild_csv)):
            sizes.clear()
            refined.clear()
            to_geodesic(make())
            # the flagged panels of a build are refined together, in both rows
            assert len(refined) == 1 and len(sizes) > 1
            assert all(rows == (0, 1) for rows, _, _ in refined[0])
        sizes.clear()
        refined.clear()
        G = to_geodesic(schwarzschild(1.0))
        # one density call on the 15 nodes of each of the 134 panels, and
        # no panel refined
        assert sizes == [2010]
        assert refined == []
        for owner, name in ((numerics, "gauss_legendre_err"),
                            (numerics, "gauss_legendre"),
                            (numerics, "legendre_panels"),
                            (geometry.ExprProfile, "values"),
                            (geometry.ExprProfile, "eval_d2")):
            self.counting(monkeypatch, owner, name, calls)
        # one solve on floats per call, then a' and a'' from one parent call
        for k in range(20):  # the radii of the gauge-convert benchmark
            rho = 1e-2 * 1e5 ** (k / 19)
            for call, parent_calls in ((lambda: sphere_data(G, rho), 1),
                                       (lambda: G.profile.eval_d2(rho), 1),
                                       (lambda: G.volume(rho), 0)):
                calls.clear()
                call()
                assert calls == ({"eval_d2": 1} if parent_calls else {})
        # the Horner reads of the 20 sphere_data calls: at most the 70 of a
        # quadratic first guess on 400 panels
        reads, series = [], numerics.horner
        monkeypatch.setattr(numerics, "horner", lambda t, c, slope=True: reads.append(
            slope) or series(t, c, slope))
        for k in range(20):
            sphere_data(G, 1e-2 * 1e5 ** (k / 19))
        assert len(reads) <= 70

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_in_panel_guess(self, m, monkeypatch):
        # the guess before any Newton step, against the converged radii
        G = to_geodesic(schwarzschild(m))
        rhos = np.geomspace(1e-2 * m, 1e3 * m, 2000)
        r = G.profile.values(rhos)
        monkeypatch.setattr(numerics, "_NEWTON_STEPS", 0)
        assert np.max(np.abs(G.profile.values(rhos) - r) / r) <= 1e-7

    def test_newton_steps(self, monkeypatch):
        # five steps settle every radius: more change r by rounding only,
        # also at rho = 0, where a metric without a throat has density 0
        for areal in (schwarzschild(1.0), rn_factored(), no_throat(), kinked()):
            G = to_geodesic(areal)
            rhos = np.concatenate(([0.0, 1e-300, 1e-12],
                                   np.geomspace(1e-9, G.profile.r_max, 4000)))
            r = G.profile.values(rhos)
            assert r[0] == areal.domain_start
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_NEWTON_STEPS", 8)
                assert np.max(np.abs(G.profile.values(rhos) - r) / r) <= 1e-15

    @pytest.mark.parametrize("make", [
        lambda: schwarzschild(1.0), lambda: rn_factored(), lambda: no_throat(),
        lambda: kinked()], ids=["schwarzschild", "rn", "no-throat", "kinked"])
    def test_early_exit_bits(self, make, monkeypatch):
        # the exit on a repeated iterate against all five Newton steps from
        # the same first guess, on floats and on arrays
        G = to_geodesic(make())
        rhos = np.concatenate(([0.0, 1e-300, 1e-12],
                               np.geomspace(1e-9, G.profile.r_max, 4000)))
        calls = []
        inverse = numerics.legendre_inverse
        monkeypatch.setattr(numerics, "legendre_inverse", lambda *args: calls.append(
            (args, inverse(*args))) or calls[-1][1])
        G.profile.values(rhos)
        for rho in rhos.tolist():
            G.profile.eval_d2(rho)
        assert len(calls) == 1 + rhos.size
        cycles = {float: 0, np.ndarray: 0}
        for args, got in calls:
            q, total, *_, c = args
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_NEWTON_STEPS", 0)
                ts = [inverse(*args)]
            for _ in range(5):
                value, slope = numerics.horner(ts[-1], c)
                ts.append(ts[-1] - (value - q) / (slope + numerics._SLOPE_FLOOR * total))
            assert type(got) is type(ts[-1])
            assert np.asarray(got).tobytes() == np.asarray(ts[-1]).tobytes()
            cycles[type(got)] += np.sum((ts[-1] == ts[-3]) & (ts[-1] != ts[-2]))
        # on Horner's rule 182 (no throat) to 366 (rn) of the 4003 radii end
        # in a 2-cycle, on either path
        assert min(cycles.values()) >= 100

    def test_newton_count(self, monkeypatch):
        # the 20 radii of the gauge-convert benchmark: 5 Newton steps each
        # without the exit, and value-only volume reads
        G = to_geodesic(schwarzschild(1.0))
        calls = []
        series = numerics.horner
        monkeypatch.setattr(numerics, "horner", lambda t, c, slope=True: calls.append(
            slope) or series(t, c, slope))
        for k in range(20):
            sphere_data(G, 1e-2 * 1e5 ** (k / 19))
        assert calls.count(False) == 20 and calls.count(True) <= 60

    @pytest.mark.parametrize("make", [
        lambda: schwarzschild(1.0), lambda: rn_factored(), lambda: no_throat()],
        ids=["schwarzschild", "rn", "no-throat"])
    def test_panel_count_converged(self, make, monkeypatch):
        # twice the panels move a(rho) and the volume by rounding only
        rhos = np.geomspace(1e-6, 1e7, 300).tolist()
        coarse = to_geodesic(make()).profile.solve_list(rhos)
        monkeypatch.setattr(geometry, "_XI_PANELS", 2 * geometry._XI_PANELS)
        fine = to_geodesic(make()).profile.solve_list(rhos)
        for got, want in zip(fine, coarse):
            assert np.max(np.abs(np.subtract(got, want)) / want) <= 1e-13

    def test_one_solve_per_call(self, monkeypatch):
        # one radius runs on Python floats, a list on one array
        G = to_geodesic(schwarzschild(1.0))
        calls = []
        solve = numerics.PanelSeries.solve
        monkeypatch.setattr(numerics.PanelSeries, "solve",
                            lambda self, rho: calls.append(rho) or solve(self, rho))
        radii = [1e-2 * 1e5 ** (k / 19) for k in range(20)]
        for rho in radii:
            sphere_data(G, rho)
        assert calls == radii and all(type(rho) is float for rho in calls)
        calls.clear()
        geometry.spheres(G, radii)
        assert len(calls) == 1 and np.array_equal(calls[0], radii)

    def test_table_matches_quad(self, schwarzschild_csv):
        # arclength of the tabulated f = 1 - 2/r: the table's monotone
        # cubic, scipy's PchipInterpolator, integrated by quad between the
        # table radii; the first interval, which holds the throat at r = 2,
        # in u = sqrt(r - 2)
        T = table_metric(Gauge.AREAL, schwarzschild_csv)
        G = to_geodesic(T)
        radii = np.loadtxt(schwarzschild_csv, delimiter=",", skiprows=1)[:, 0]
        ref = scipy.interpolate.PchipInterpolator(radii, 1.0 - 2.0 / radii)
        targets = np.geomspace(2.0 + 1e-6, 1e5, 20)
        cut = np.searchsorted(radii, targets[-1])

        def piece(i, s):  # arclength over radii[i] .. radii[i] + s
            c3, c2, c1, c0 = ref.c[:, i]
            if i == 0:
                return scipy.integrate.quad(
                    lambda u: 2.0 / math.sqrt(c1 + u * u * (c2 + u * u * c3)),
                    0.0, math.sqrt(s), epsabs=0.0, epsrel=1e-13)[0]
            return scipy.integrate.quad(
                lambda x: 1.0 / math.sqrt(c0 + x * (c1 + x * (c2 + x * c3))),
                0.0, s, epsabs=0.0, epsrel=1e-13)[0]
        nodes = np.cumsum([0.0] + [piece(i, radii[i + 1] - radii[i])
                                   for i in range(cut)])
        for r in targets:
            i = np.searchsorted(radii, r) - 1
            rho = nodes[i] + piece(i, r - radii[i])
            assert G.profile.eval_d2(rho)[0] == pytest.approx(r, rel=1e-10)
        rhos = np.geomspace(1e-6, G.profile.r_max, 2000)
        assert np.array_equal(G.profile.values(rhos),
                              [G.profile.eval_d2(float(x))[0] for x in rhos])


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

    def test_areal_schwarzschild_9(self):
        # 30 digits: at 15 the inverse square root at r = 2 costs 2.6e-11
        got = schwarzschild(1.0).volume(9.0)
        with mpmath.workdps(30):
            want = float(mpmath.quad(
                lambda r: 4 * mpmath.pi * r ** 2 / mpmath.sqrt(1 - 2 / r), [2, 9]))
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("m, q", [(1.0, 0.0), (1.0, 0.6), (1.3, 0.6),
                                      (2.0, 1.9)])
    def test_reissner_nordstrom_panels(self, m, q):
        # f = (r - rp)(r - rm)/r^2, whose zero is the float horizon rp; in
        # xi = sqrt(r - rp), dV = 8 pi (rp + xi^2)^3 / sqrt(xi^2 + rp - rm)
        s = math.sqrt(m * m - q * q)
        rp, rm = m + s, m - s
        M = expr_metric(Gauge.AREAL, "(r-rp)*(r-rm)/r^2", {"rp": rp, "rm": rm},
                        domain_start=rp)
        radii = [rp + x for x in (1e-6, 1e-4, 1e-2, 1.0)] + [1e2, 1e4, 1e6, 1e8]
        with mpmath.workdps(30):
            p, d = mpmath.mpf(rp), mpmath.mpf(rp) - mpmath.mpf(rm)
            for r, got in zip(radii, M.volumes(radii)):
                xi = mpmath.sqrt(mpmath.mpf(r) - p)
                cuts = [x for x in (mpmath.mpf(10) ** k for k in range(-3, 5))
                        if x < xi]
                want = 8 * mpmath.pi * mpmath.quad(
                    lambda x: (p + x * x) ** 3 / mpmath.sqrt(x * x + d),
                    [0] + cuts + [xi])
                # within 1e-2 of the horizon the throat model of
                # _xi_density (its Taylor band, and f rounded just past it)
                # costs up to 1e-11, whatever the panels
                tol = 1e-11 if r - rp <= 1e-2 else 1e-12
                assert abs(got - want) <= tol * want, r

    def test_neck_panels(self):
        M = expr_metric(Gauge.GEODESIC, NECK)
        radii = [0.01, 0.5, 2.0, 2.9, 3.0, 3.3, 4.0, 6.0, 50.0, 1e4, 1e8]
        with mpmath.workdps(30):
            def density(t):
                return 4 * mpmath.pi * (t + 1.5 * mpmath.exp(-4 * (t - 3) ** 2)) ** 2
            for rho, got in zip(radii, M.volumes(radii)):
                want = mpmath.quad(density, [0] + [c for c in (2, 3, 4, 8)
                                                   if c < rho] + [rho])
                assert abs(got - want) <= 1e-12 * want, rho

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


    def test_converted_rn(self):
        # f = (r - rp)(r - rm)/r^2 with the throat rp = 1.8 as a float in
        # both; in xi = sqrt(r - rp), with d = rp - rm:
        # rho = xi sqrt(xi^2 + d) + (rp + rm) asinh(xi/sqrt(d)) and
        # dV = 8 pi (rp + xi^2)^3 / sqrt(xi^2 + d) d(xi)
        G = to_geodesic(rn_factored())
        with mpmath.workdps(30):
            rp, rm = mpmath.mpf(1.8), mpmath.mpf(0.2)
            d = rp - rm
            for k in range(20):
                rho = 1e-2 * 1e5 ** (k / 19)
                xi = mpmath.findroot(
                    lambda x: x * mpmath.sqrt(x * x + d) + (rp + rm)
                    * mpmath.asinh(x / mpmath.sqrt(d)) - rho, mpmath.sqrt(rho))
                want = 8 * mpmath.pi * mpmath.quad(
                    lambda x: (rp + x * x) ** 3 / mpmath.sqrt(x * x + d), [0, xi])
                got = sphere_data(G, rho).volume
                assert abs(got - want) <= 1e-12 * want, rho

    def test_converted_no_throat(self):
        # f = r/(r + 1) from r = 1: rho = sqrt(r(r+1)) + asinh(sqrt(r))
        # - sqrt(2) - asinh(1), dV = 4 pi r^2 sqrt(1 + 1/r) dr
        G = to_geodesic(no_throat())
        with mpmath.workdps(30):
            arc = lambda r: (mpmath.sqrt(r * (r + 1)) + mpmath.asinh(  # noqa: E731
                mpmath.sqrt(r)) - mpmath.sqrt(2) - mpmath.asinh(1))
            for k in range(20):
                rho = 1e-2 * 1e5 ** (k / 19)
                r = mpmath.findroot(lambda x: arc(x) - rho, 1 + rho)
                want = 4 * mpmath.pi * mpmath.quad(
                    lambda x: x * x * mpmath.sqrt(1 + 1 / x), [1, r])
                got = sphere_data(G, rho).volume
                assert abs(got - want) <= 1e-12 * want, rho

    @pytest.mark.parametrize("make, m", [
        (lambda: schwarzschild(0.5), 0.5), (lambda: schwarzschild(2.0), 2.0),
        (lambda: rn_factored(), 1.0), (lambda: no_throat(), 1.0)],
        ids=["schwarzschild-0.5", "schwarzschild-2", "rn", "no-throat"])
    def test_converted_gauge_invariant(self, make, m):
        # the volume inside a sphere does not depend on the gauge
        G, areal = to_geodesic(make()), make()
        for k in range(20):
            rho = m * 1e-2 * 1e5 ** (k / 19)
            if rho < m:
                continue
            d = sphere_data(G, rho)
            want = areal.volume(math.sqrt(d.area / (4 * math.pi)))
            assert abs(d.volume - want) <= 1e-13 * want, rho


def rn_factored():
    """The Reissner-Nordstrom slice m = 1, q = 0.6 with f in factored form."""
    return expr_metric(Gauge.AREAL, "(r-rp)*(r-rm)/r^2", {"rp": 1.8, "rm": 0.2},
                       domain_start=1.8)


def no_throat():
    return expr_metric(Gauge.AREAL, "1/(1+1/r)", domain_start=1.0)


def kinked():
    return expr_metric(Gauge.AREAL, "min(1-2/r, 0.5+0.01*r)", domain_start=2.0)


def walk(metric, radii, cfg=numerics.DEFAULT_CFG):
    """A quadrature reference for the volume maps, on panels of its own:
    the distinct radii in ascending order, each adding its increment from
    the one before with one ``gauss_legendre`` call per increment."""
    start = metric.domain_start
    radii = [max(rho, start) for rho in radii]
    anchors, vals = [start], [0.0]
    for rho in sorted(set(radii)):
        if rho - anchors[-1] <= 1e-14 * max(1.0, rho):
            continue
        lo, hi = anchors[-1] - start, rho - start
        if metric.gauge is Gauge.AREAL:
            lo, hi = math.sqrt(lo), math.sqrt(hi)
        n = math.ceil(math.log2(hi / max(lo, hi / 64.0)))
        edges = hi * 0.5 ** np.arange(n, -1.0, -1.0)
        edges[0] = lo
        vals.append(vals[-1] + float(numerics.gauss_legendre(
            metric._volume_density(), edges[:-1], edges[1:], cfg).sum()))
        anchors.append(rho)
    return [vals[max(i for i, x in enumerate(anchors) if x <= rho)]
            for rho in radii]


class TestSphereErrors:
    @pytest.mark.parametrize("make, radii, error", [
        (flat, [1.0, 0.0], DomainError),  # the pole has zero area
        (lambda: expr_metric(Gauge.AREAL, "1 - 2/r", domain_start=1.0),
         [3.0, 1.5], EvalError),  # f(1.5) < 0
    ], ids=["zero-area", "negative-f"])
    def test_raised_before_any_volume(self, make, radii, error):
        metric = make()

        def refuse(*args):
            raise AssertionError("volume work before the sphere checks")
        metric.volumes = refuse
        with pytest.raises(error):
            geometry.spheres(metric, radii)


@pytest.fixture(scope="module")
def neck_csv(tmp_path_factory):
    """The geodesic neck a = r + 1.5*exp(-4*(r-3)^2) tabulated in 201 rows
    on [0, 1e4].  With 2000 rows its knots, each a jump of a'', take more
    than the refinement's 60 pieces on the volume panel [2, 4]."""
    path = tmp_path_factory.mktemp("tables") / "neck.csv"
    radii = np.append(0.0, np.geomspace(1e-3, 1e4, 200)).tolist()
    path.write_text("".join(f"{r!r},{r + 1.5 * math.exp(-4 * (r - 3) ** 2)!r}\n"
                            for r in radii))
    return str(path)


class TestBatchedVolumes:
    FAMILIES = {
        "flat": flat,
        "schwarzschild": lambda: schwarzschild(1.0),
        "cylinder": lambda: cylinder(1.0),
        "rn": rn_factored,
        "neck": lambda: expr_metric(Gauge.GEODESIC, NECK),
        "kinked": kinked,
        "scaled": lambda: scaled(schwarzschild(1.0), 2.0),
        "scaled-neck": lambda: scaled(expr_metric(Gauge.GEODESIC, NECK), 0.5),
        "generated": lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
        "converted": lambda: to_geodesic(schwarzschild(1.0)),
    }
    # unsorted, a repeat, a near repeat, the domain start and just below
    # it, one next to the boundary and one far past the others
    OFFSETS = (4.0, 1.0, 1.0, 0.0, -1e-13, 0.5, 4.0 + 1e-15, 1e-4, 9.0,
               2.0, 2e3, 3.0)
    # three lists that ended V(400) in three different bits on Schwarzschild
    LISTS = ([400.0], [100.0, 200.0, 400.0], [399.0, 400.0])

    def check(self, make):
        metric = make()
        start = metric.domain_start
        for radii in ([start + x for x in self.OFFSETS], *self.LISTS):
            got = metric.volumes(radii)
            assert [v.hex() for v in got] == [make().volume(r).hex() for r in radii]

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_equal_to_one_radius_per_call(self, family):
        self.check(self.FAMILIES[family])

    def test_table_equal_to_one_radius_per_call(self, schwarzschild_csv,
                                                neck_csv):
        for gauge, path in ((Gauge.AREAL, schwarzschild_csv),
                            (Gauge.GEODESIC, neck_csv)):
            self.check(lambda: table_metric(gauge, path))

    @pytest.mark.parametrize("family", list(FAMILIES) + ["table"])
    def test_independent_of_call_history_and_order(self, family,
                                                   schwarzschild_csv):
        make = {"table": lambda: table_metric(Gauge.AREAL, schwarzschild_csv),
                **self.FAMILIES}[family]
        M = make()
        start = M.domain_start
        radii = [start + x for x in self.OFFSETS]
        want = make().volumes(radii)
        M.volume(start + 2.5)
        M.volumes([start + 7.0, start + 0.25])
        sphere_data(M, start + 6.0)
        geometry.spheres(M, [start + 1.5, start + 3.5])
        check_hypotheses(M)
        assert M.volumes(radii) == want
        M.volume(start + 3.2)
        assert M.volumes(radii) == want
        order = [7, 2, 11, 0, 5, 9, 1, 3, 10, 4, 8, 6]
        assert M.volumes([radii[k] for k in order]) == [want[k] for k in order]

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "flat"]
                             + ["table", "converted-rn"])
    def test_zero_at_the_inner_boundary(self, family, schwarzschild_csv):
        # flat is left out: its sphere at 0 has no area
        M = {"table": lambda: table_metric(Gauge.AREAL, schwarzschild_csv),
             "converted-rn": lambda: to_geodesic(rn_factored()),
             **self.FAMILIES}[family]()
        start = M.domain_start
        assert sphere_data(M, start).volume == 0.0
        assert [d.volume for d in geometry.spheres(M, [start, start + 1.0])][0] == 0.0

    def test_converted_spheres_equal_bits(self):
        # every field of a list, from one solve and one parent triple call,
        # against each radius alone on Python floats, sign of zero included
        radii = [0.0] + [1e-2 * 1e5 ** (k / 19) for k in range(20)][::-1]
        fields = [f.name for f in dataclasses.fields(geometry.SphereData)]
        # -(2-r)/r is -0.0 at r = 2, where the sphere's H = 2*a'/a is -0.0
        for areal in (schwarzschild(1.0), rn_factored(), kinked(),
                      expr_metric(Gauge.AREAL, "-(2-r)/r", domain_start=2.0)):
            G = to_geodesic(areal)
            want = G.volumes(radii)
            assert [G.volume(r) for r in radii] == want
            assert [d.volume for d in geometry.spheres(G, radii)] == want
            assert [sphere_data(G, r).volume for r in radii] == want
            assert G.volumes(radii) == want
            assert (hex_rows([[getattr(d, f) for f in fields]
                              for d in geometry.spheres(G, radii)])
                    == hex_rows([[getattr(sphere_data(G, r), f) for f in fields]
                                 for r in radii]))

    def test_one_panel_call(self, monkeypatch):
        M = schwarzschild(1.0)
        calls = []
        rule = numerics.gauss_legendre
        monkeypatch.setattr(numerics, "gauss_legendre",
                            lambda *a: calls.append(a[1].size) or rule(*a))
        radii = [2.0 + 1.5 ** k for k in range(40)]
        vols = M.volumes(radii)
        assert len(calls) == 1 and calls[0] <= 6 * 40
        assert M.volumes(radii[::-1]) == vols[::-1]
        assert len(calls) == 2 and calls[1] == calls[0]
        assert M.volumes([2.0, 2.0 - 1e-13]) == [0.0, 0.0]
        assert len(calls) == 2  # no radius past the start integrates nothing

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    @pytest.mark.parametrize("family", ["schwarzschild", "converted"])
    def test_non_finite_radius_raises(self, family, rho):
        M = self.FAMILIES[family]()
        with pytest.raises(DomainError, match="not finite"):
            M.volume(rho)
        with pytest.raises(DomainError, match="not finite"):
            sphere_data(M, rho)

    def test_below_domain_raises_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("volume work before the domain check")
        S = schwarzschild(1.0)
        monkeypatch.setattr(numerics, "gauss_legendre", refuse)
        with pytest.raises(DomainError):
            S.volumes([3.0, 1.0])


class TestScaled:
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scale_is_a_config_error(self, lam):
        # lam = 0 built a metric whose sphere data divided by zero
        with pytest.raises(ConfigError, match="lam > 0"):
            scaled(schwarzschild(1.0), lam)

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
        T = table_metric(Gauge.AREAL, str(path))
        d = sphere_data(T, 50.0)
        assert d.area == pytest.approx(4 * math.pi * 2500, rel=1e-12)
        assert d.hawking_mass == pytest.approx(1.0, abs=1e-4)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,1\n2,1\n3,1\n")
        with pytest.raises(ConfigError):
            table_metric(Gauge.AREAL, str(path))

    @pytest.mark.parametrize("radii", [[1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0]],
                             ids=["repeated", "falling"])
    def test_radii_must_increase_strictly(self, radii):
        with pytest.raises(ConfigError, match="strictly increasing"):
            TableProfile(radii, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("where, bad", [
        (0, math.nan), (1, math.nan), (0, math.inf), (1, -math.inf)])
    def test_non_finite_rows_are_config_errors(self, where, bad):
        # np.diff(radii) <= 0 is False at a NaN: the table was accepted
        radii = np.geomspace(2.0, 1e3, 50)
        columns = [radii, 1.0 - 2.0 / radii]
        columns[where][20] = bad
        with pytest.raises(ConfigError, match="must be finite"):
            TableProfile(*columns)

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

    @pytest.mark.parametrize("make", [
        lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
        lambda: tanh_step_mass_metric(1.8, 7.0, 2.2, a0=3.7),
        lambda: mass_profile_metric(lambda rho: (1.0, 0.0), a0=2.01),
    ])
    def test_volume_row_against_the_walk(self, make):
        # the volume series against the quadrature walk over a(rho)
        M = make()
        radii = [0.0, 1e-3, 0.5, 3.0, 5.0, 7.5, 20.0, 1e3, 1e6]
        got, want = M.volumes(radii), walk(M, radii)
        assert got[0] == want[0] == 0.0
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("make", [
        lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
        lambda: mass_profile_metric(lambda rho: (1.0, 0.0), a0=2.01),
        lambda: to_geodesic(schwarzschild(1.0))], ids=["tanh", "constant", "converted"])
    def test_scaled_volume_map_against_the_walk(self, make):
        # lam^3 * V(rho/lam) of the base's map against the quadrature walk
        # over the scaled a(rho)
        M = scaled(make(), 2.0)
        assert M.profile.volumes is not None
        radii = [0.0, 2e-3, 1.0, 6.0, 10.0, 15.0, 40.0, 2e3, 2e5]
        got, want = M.volumes(radii), walk(M, radii)
        assert got[0] == want[0] == 0.0
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        with pytest.raises(EvalError):
            M.volumes([1.0, M.profile.r_max * 1.01])

    @staticmethod
    def tanh_mu(calls):
        """The scalar mu of ``tanh_step_mass_metric(1, 5, 1)``, bit for bit,
        recording each call."""
        base = math.tanh(-5.0)

        def mu(rho):
            calls.append(rho)
            t = math.tanh(rho - 5.0)
            return (t - base) / (1.0 - base), (1.0 - t * t) / (1.0 - base)
        return mu

    def test_tanh_step_samples_mu_as_one_array(self, monkeypatch):
        # the tanh step's build samples its mass at every node by one numpy
        # expression: math.tanh runs for the anchor tanh(-center/width) and
        # for the mu(0) check alone; the same scalar mu given to
        # mass_profile_metric runs for mu(0) and once per node
        nodes, calls, tanh = [], [], math.tanh
        solve = numerics.picard_panels
        monkeypatch.setattr(numerics, "picard_panels", lambda sample, *args: solve(
            lambda x: nodes.append(x.size) or sample(x), *args))
        monkeypatch.setattr(math, "tanh", lambda x: calls.append(x) or tanh(x))
        tanh_step_mass_metric(1.0, 5.0, 1.0)
        assert calls == [-5.0, -5.0] and sum(nodes) > 500
        monkeypatch.setattr(math, "tanh", tanh)
        nodes.clear()
        calls.clear()
        mass_profile_metric(self.tanh_mu(calls), a0=3.0)
        assert len(calls) == 1 + sum(nodes) and sum(nodes) > 500

    def test_tanh_step_array_and_scalar_builds_agree(self):
        # the tanh step's nodes sampled by np.tanh against math.tanh per node:
        # a(rho) of the two builds agrees to rounding
        rhos = np.geomspace(1e-3, 1e6, 500)
        got = tanh_step_mass_metric(1.0, 5.0, 1.0).profile.values(rhos)
        want = mass_profile_metric(self.tanh_mu([]), a0=3.0).profile.values(rhos)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-15

    def test_freed_by_refcount(self):
        # a reference cycle would keep each dead metric's series until the
        # cycle collector ran, and grow the peak memory of a long run
        gc.collect()
        gc.disable()
        try:
            sphere_data(tanh_step_mass_metric(1.0, 5.0, 1.0), 3.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_past_rho_max_raises(self):
        M = tanh_step_mass_metric(1.0, 5.0, 1.0, rho_max=50.0)
        assert M.volume(50.0) > 0.0 and sphere_data(M, 50.0).area > 0.0
        for form in (lambda rho: M.volumes([1.0, rho]),
                     lambda rho: M.area(np.array([1.0, rho])),
                     lambda rho: M.profile.eval_d2(rho)):
            with pytest.raises(EvalError, match="outside generated range"):
                form(50.001)

    def test_integration_failure_is_a_config_error(self):
        # mu = -inf past rho = 1 makes every step past it non-finite
        def mu(rho):
            return (0.0 if rho < 1.0 else -math.inf), 0.0
        with pytest.raises(ConfigError, match="mass-profile integration failed"):
            mass_profile_metric(mu, a0=2.0, rho_max=10.0)

    @pytest.mark.parametrize("args, kwargs", [
        ((math.nan, 5.0, 1.0), {}), ((math.inf, 5.0, 1.0), {}),
        ((-1.0, 5.0, 1.0), {}), ((1.0, math.nan, 1.0), {}),
        ((1.0, -math.inf, 1.0), {}), ((1.0, 5.0, 0.0), {}),
        ((1.0, 5.0, math.nan), {}), ((1.0, 5.0, math.inf), {}),
        ((1.0, 5.0, 1.0), {"a0": 0.0}), ((1.0, 5.0, 1.0), {"a0": -2.0}),
        ((1.0, 5.0, 1.0), {"a0": math.inf}),
        ((1.0, 5.0, 1.0), {"rho_max": -1.0}), ((1.0, 5.0, 1.0), {"rho_max": 0.0}),
        ((1.0, 5.0, 1.0), {"rho_max": math.nan}),
    ])
    def test_bad_arguments_are_config_errors(self, args, kwargs):
        with pytest.raises(ConfigError):
            tanh_step_mass_metric(*args, **kwargs)

    def test_negative_mass_at_zero_start(self):
        # a0 = 0 passed a0 > 2*mu(0) = -2 and divided by a = 0
        with pytest.raises(ConfigError, match="a0 > 0"):
            mass_profile_metric(lambda rho: (-1.0, 0.0), a0=0.0)

    @pytest.mark.parametrize("kwargs", ["a0=math.nan", "rho_max=math.inf"])
    def test_non_finite_start_or_end_returns(self, run_isolated, kwargs):
        # both looped for good in numerics.dormand_prince: a run that hangs
        # again fails at the timeout
        out = run_isolated(
            "import math\n"
            "from isocap.errors import ConfigError\n"
            "from isocap.geometry import tanh_step_mass_metric\n"
            "try:\n"
            f"    tanh_step_mass_metric(1.0, 5.0, 1.0, {kwargs})\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n", timeout=60)
        assert "need a finite" in out

    @pytest.mark.parametrize("make", [
        lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
        lambda: mass_profile_metric(lambda rho: (0.25, 0.0), a0=1.0),
        lambda: scaled(tanh_step_mass_metric(1.0, 5.0, 1.0), 3.0),
    ])
    def test_own_hulls(self, make):
        # a > 0 and a' >= 0: the area never falls, from the start on
        M = make()
        assert M.own_hull(M.domain_start) and M.own_hull(50.0)
        assert not M.own_hull(-1e-13)


def hex_rows(rows):
    return [[x.hex() for x in np.asarray(row, dtype=float).tolist()]
            for row in rows]


class TestArrayValues:
    """profile.values and profile.triple against the scalar eval_d2 they
    stand for: 0 ulp, sign of zero included, and the same first error."""

    @staticmethod
    def scalar(metric, rs):
        return list(zip(*(metric.profile.eval_d2(r) for r in rs.tolist())))

    def check_bits(self, metric, rs):
        want = self.scalar(metric, rs)
        assert hex_rows([metric.profile.values(rs)]) == hex_rows(want[:1])
        assert hex_rows(metric.profile.triple(rs)) == hex_rows(want)

    @staticmethod
    def check_first_error(metric, rs):
        first = None
        for r in rs.tolist():
            try:
                metric.profile.eval_d2(r)
            except EvalError as exc:
                first = str(exc)
                break
        assert first is not None
        for form in (metric.profile.values, metric.profile.triple):
            with pytest.raises(EvalError) as info:
                form(rs)
            assert str(info.value) == first
        return first

    @pytest.mark.parametrize("metric, lo, hi, n", [
        (expr_metric(Gauge.GEODESIC, NECK), 0.0, 12.0, 2000),
        (schwarzschild(1.0), 2.0, 1e6, 2000),
        (expr_metric(Gauge.AREAL, "1 - 2/r + 0.36/r^2", domain_start=1.8),
         1.8, 1e6, 2000),
        (scaled(expr_metric(Gauge.GEODESIC, NECK), 2.0), 0.0, 24.0, 2000),
        (scaled(schwarzschild(1.0), 0.5), 1.0, 1e5, 2000),
        (to_geodesic(schwarzschild(1.0)), 0.0, 1e4, 40),
    ], ids=["expr", "expr-areal", "expr-rn", "scaled-expr", "scaled-areal",
            "converted"])
    def test_bit_identical(self, metric, lo, hi, n):
        rs = np.geomspace(max(lo, 1e-6), hi, n)
        rs[0] = lo
        self.check_bits(metric, rs)

    def test_table_bit_identical(self, schwarzschild_csv):
        T = table_metric(Gauge.AREAL, schwarzschild_csv)
        self.check_bits(T, np.geomspace(2.0, 1e6, 8192))
        # the radius past the end comes first; the one below the start is
        # the array's minimum
        first = self.check_first_error(T, np.array([3.0, 2e6, 1.0]))
        assert "radius 2000000.0 outside table range" in first

    def test_generated_bit_identical(self):
        M = tanh_step_mass_metric(1.2, 4.0, 1.5)
        rs = np.concatenate(([0.0], np.geomspace(0.5, 200.0, 8190), [1e6]))
        self.check_bits(M, rs)
        self.check_bits(scaled(M, 3.0), rs * 3.0)

    def test_stalled_warping_raises_like_scalar(self):
        # mu = rho outgrows a/2 near rho = 0.4 and the warping stalls for good
        M = mass_profile_metric(lambda rho: (rho, 1.0), a0=1.0, rho_max=50.0)
        rs = np.geomspace(0.01, 20.0, 512)
        assert "stalls" in self.check_first_error(M, rs)
        with pytest.raises(EvalError, match="stalls"):
            M.area(rs)
        self.check_first_error(scaled(M, 2.0), rs * 2.0)

    def test_mass_profile_error_after_a_stall(self):
        # mu raises past rho = 5 and the warping stalls near 0.4: the stall
        # at the smaller radius comes first, as on the scalar path
        def mu(rho):
            if rho > 5.0:
                raise EvalError(f"mu undefined at {rho}")
            return rho, 1.0
        M = mass_profile_metric(mu, a0=1.0, rho_max=5.0)
        assert "stalls" in self.check_first_error(M, np.array([1.0, 6.0, 0.1]))
        assert "mu undefined" in self.check_first_error(M, np.array([0.1, 6.0]))

    def test_converted_outside_range_raises_like_scalar(self):
        G = to_geodesic(schwarzschild(1.0))
        first = self.check_first_error(
            G, np.array([1.0, 2.0 * G.profile.r_max, -1.0]))
        assert "outside converted range" in first

    def test_generated_scan_makes_no_scalar_calls(self, monkeypatch):
        calls = []
        eval_d2 = FuncProfile.eval_d2

        def counted(self, r):
            calls.append(r)
            return eval_d2(self, r)
        monkeypatch.setattr(FuncProfile, "eval_d2", counted)
        for M in (tanh_step_mass_metric(1.0, 5.0, 1.0),
                  scaled(tanh_step_mass_metric(1.0, 5.0, 1.0), 2.0)):
            grid = np.geomspace(0.5, 100.0, 256)
            assert len(M.area(grid)) == len(grid)
            assert find_minimal_spheres(M) == []
        assert calls == []


class TestArrayHypotheses:
    """check_hypotheses with one triple call per probe grid reports what
    the scalar profile calls report."""

    @pytest.mark.parametrize("make", [
        lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
        lambda: expr_metric(Gauge.GEODESIC, NECK),
        lambda: to_geodesic(schwarzschild(1.0)),
    ], ids=["generated", "neck", "converted"])
    def test_report_equal_to_scalar_probes(self, make, monkeypatch):
        got = check_hypotheses(make())
        metric = make()
        monkeypatch.setattr(metric.profile, "triple",
                            lambda rs: geometry._mapped(metric.profile.eval_d2, rs))
        assert got == check_hypotheses(metric)


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
