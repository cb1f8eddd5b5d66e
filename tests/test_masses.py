import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap import capacity, numerics
from isocap.errors import (BadExponent, ConfigError, DomainError,
                           InsufficientData)
from isocap.geometry import (ExprProfile, Gauge, cylinder, expr_metric, flat,
                             metric_from_spec, scaled, schwarzschild,
                             table_metric, tanh_step_mass_metric, to_geodesic)
from isocap.masses import (CONVERGED, DIVERGENT,
                           asymptotic_isoperimetric_check, bmx_bound_check,
                           equivalence_report, huisken_mass,
                           mass_report_to_csv, mass_report_to_json,
                           quasilocal_mass, total_mass, total_masses)
from isocap.masses import INDETERMINATE, MassReport, _diverges, _num

GRID = [50.0 * 2.0 ** k for k in range(6)]


class TestFlatIsNull:
    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 2.5, 2.9])
    @pytest.mark.parametrize("rho", [1.0, 10.0, 100.0])
    def test_quasilocal_zero(self, p, rho):
        assert quasilocal_mass(flat(), rho, p) == pytest.approx(0.0, abs=1e-9)

    def test_huisken_zero(self):
        for rho in (1.0, 10.0, 100.0):
            assert huisken_mass(flat(), rho) == pytest.approx(0.0, abs=1e-12)

    def test_total_zero(self):
        rep = total_mass(flat(), 2.0, [1.0 * 2 ** k for k in range(6)])
        assert rep.extrapolated_mass == pytest.approx(0.0, abs=1e-9)


class TestSchwarzschild:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5])
    def test_quasilocal_approaches_mass(self, p):
        vals = [quasilocal_mass(schwarzschild(1.0), r, p) for r in GRID]
        assert all(v > 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 2.5, 2.9])
    def test_total_mass(self, p):
        rep = total_mass(schwarzschild(1.0), p, GRID)
        assert rep.verdict == CONVERGED
        assert rep.extrapolated_mass == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("p", [1.001, 1.25, 1.5, 2.0, 2.5, 2.9])
    def test_one_pass_matches_per_radius(self, p):
        S = schwarzschild(1.0)
        rep = total_mass(S, p, GRID)
        for r, v in zip(GRID, rep.quasilocal):
            assert v == pytest.approx(quasilocal_mass(S, r, p), abs=1e-9)

    def test_p1_sequence_scans_once(self, searches):
        # an areal sphere, a converted one and a generated one are their own
        # hulls: no search; another geodesic metric reads every hull of the
        # sequence off one critical-point search
        for make, n in [(lambda: schwarzschild(1.0), 0),
                        (lambda: to_geodesic(schwarzschild(1.0)), 0),
                        (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0), 0),
                        (lambda: expr_metric(Gauge.GEODESIC, "r+1"), 1)]:
            searches.clear()
            total_mass(make(), 1.0, GRID)
            assert len(searches) == n

    def test_default_grid_overflow(self):
        cfg = numerics.ToleranceConfig(extrap_terms=2000)
        with pytest.raises(ConfigError, match="largest float"):
            total_mass(flat(), None, cfg=cfg)

    @pytest.mark.parametrize("p", [1.0, 2.0, None])
    def test_empty_grid(self, p):
        with pytest.raises(InsufficientData):
            total_mass(schwarzschild(1.0), p, [])

    @pytest.mark.parametrize("p", [None, 1.0, 1.5, 2.0, 2.9])
    def test_zero_area_radius(self, p):
        # the sphere at rho = 0 of flat space is a point: no quasilocal mass
        with pytest.raises(DomainError, match="rho=0.0 has zero"):
            total_mass(flat(), p, [0.0, 1.0, 2.0])
        with pytest.raises(DomainError, match="rho=0.0 has zero"):
            if p is None:
                huisken_mass(flat(), 0.0)
            else:
                quasilocal_mass(flat(), 0.0, p)

    def test_huisken_sequence(self):
        rep = total_mass(schwarzschild(1.0), None, GRID)
        assert rep.p is None
        assert rep.extrapolated_mass == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("make", [flat, lambda: schwarzschild(1.0),
                                      lambda: to_geodesic(schwarzschild(1.0))])
    def test_huisken_sequence_one_volumes_call(self, make):
        # the masses take their volumes from one call on the whole grid
        M, calls = make(), []
        volumes = M.volumes
        M.volumes = lambda *a: calls.append(list(a[0])) or volumes(*a)
        rep = total_mass(M, None, GRID)
        assert calls == [GRID]
        areas = [M.area(r) for r in GRID]
        assert rep.quasilocal == [
            (2.0 / a) * (v - a ** 1.5 / (6.0 * math.sqrt(math.pi)))
            for a, v in zip(areas, make().volumes(GRID))]
        fresh = make()
        assert rep.quasilocal == pytest.approx(
            [huisken_mass(fresh, r) for r in GRID], rel=1e-12, abs=1e-12)

    def test_huisken_zero_area_before_volumes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("volume work before the area check")
        monkeypatch.setattr(numerics, "gauss_legendre", refuse)
        with pytest.raises(DomainError, match="rho=0.0 has zero"):
            total_mass(flat(), None, [0.0, 1.0, 2.0])

    def test_equivalence(self):
        verdict = equivalence_report(schwarzschild(1.0),
                                     [1.0, 1.5, 2.0, 2.5], GRID)
        assert verdict.passed
        assert verdict.max_pairwise_gap <= 5e-3

    def test_mass_scaling(self):
        # homothety by lam multiplies every total mass by lam
        L = scaled(schwarzschild(1.0), 2.0)
        rep = total_mass(L, 2.0, [2 * r for r in GRID])
        assert rep.extrapolated_mass == pytest.approx(2.0, abs=1e-2)


def _reissner_nordstrom(m, q):
    r_plus = m + math.sqrt(m * m - q * q)
    return lambda: expr_metric(Gauge.AREAL, "1 - 2*m/r + q^2/r^2",
                               {"m": m, "q": q}, domain_start=r_plus)


class TestTotalMasses:
    """One capacity pass for a whole p-grid, with the bits of one
    ``total_mass`` call per entry."""

    METRICS = {
        "flat": flat,
        "schwarzschild": lambda: schwarzschild(1.0),
        "rn-0.5": _reissner_nordstrom(1.0, 0.5),
        "rn-1.95": _reissner_nordstrom(1.9497356, 0.5),
        "rn-0.7": _reissner_nordstrom(0.7, 0.55),
        "bump": lambda: metric_from_spec("expr:geodesic:r+1.5*exp(-4*(r-3)^2)"),
        "converted": lambda: to_geodesic(schwarzschild(1.0)),
        "cylinder": cylinder,
    }

    @pytest.mark.parametrize("p_grid", [
        [1.0, 1.5, 2.0, 2.5, None],
        [1.001, 1.2, 1.3, 2.0, 2.999],  # several groups of panel edges
        [2.0, 2.0, None, None],
    ])
    @pytest.mark.parametrize("name", [*METRICS, "table"])
    def test_bits_of_one_call_per_p(self, name, p_grid, table_400):
        make = self.METRICS.get(
            name, lambda: table_metric(Gauge.AREAL, table_400))
        reports = total_masses(make(), p_grid)
        assert reports == [total_mass(make(), p) for p in p_grid]
        assert [rep.p for rep in reports] == p_grid
        if name == "cylinder":
            assert {rep.verdict for rep in reports} == {DIVERGENT}

    @pytest.mark.parametrize("name", ["schwarzschild", "rn-0.5", "table"])
    def test_areal_p_grid_makes_no_scan(self, name, table_400, scan_read,
                                        monkeypatch, searches):
        make = self.METRICS.get(
            name, lambda: table_metric(Gauge.AREAL, table_400))
        # the reference scan reads two hull lists: the default grid's
        # boundary hull and the p = 1 row
        p_grid, reads = [1.0, 1.5, 2.0, 2.5, None], []
        with monkeypatch.context() as mp:
            mp.setattr(capacity, "_outward_hulls",
                       lambda *a: reads.append(a[1]) or scan_read(*a))
            scanned = total_masses(make(), p_grid)
        assert len(reads) == 2
        assert total_masses(make(), p_grid) == scanned
        assert searches == []

    def test_one_volumes_call(self):
        M, calls = schwarzschild(1.0), []
        volumes = M.volumes
        M.volumes = lambda *a: calls.append(list(a[0])) or volumes(*a)
        total_masses(M, [1.0, 1.5, 2.0, None], GRID)
        assert calls == [GRID]

    def test_two_profile_evaluations(self, monkeypatch):
        # one pass samples the capacity probes and panels of every p > 1,
        # one the volumes; the default grid and the p = 1 hulls read the
        # areal area in closed form
        calls = []
        values = ExprProfile.values
        monkeypatch.setattr(ExprProfile, "values",
                            lambda self, x: calls.append(x.size) or values(self, x))
        total_masses(_reissner_nordstrom(1.3, 0.6)(), [1.0, 1.5, 2.0, 2.5, None])
        assert len(calls) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p_grid, grid, message", [
        ([2.0, None], [1e150 * 2.0 ** k for k in range(6)],
         "volume of a ball of the area of the sphere at rho=1e+150 overflows"),
        ([1.0], [1e100 * 10.0 ** k for k in range(6)],
         "volume of a ball of the area of the sphere at rho=1e+103 overflows"),
        ([None], [1e160 * 2.0 ** k for k in range(6)],
         "area of the sphere at rho=1e+160 overflows"),
    ])
    def test_overflowing_grid(self, p_grid, grid, message):
        with pytest.raises(DomainError) as info:
            total_masses(schwarzschild(1.0), p_grid, grid)
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mass", [
        lambda M, rho: huisken_mass(M, rho),
        lambda M, rho: quasilocal_mass(M, rho, 2.0),
        lambda M, rho: quasilocal_mass(M, rho, 1.0),
    ], ids=["iso", "p=2", "p=1"])
    def test_overflowing_quasilocal_mass(self, mass):
        # the same refusal as total_masses, not an OverflowError of a ** 1.5
        with pytest.raises(DomainError) as info:
            mass(schwarzschild(1.0), 2e102)
        assert str(info.value) == ("volume of a ball of the area of the sphere "
                                   "at rho=2e+102 overflows")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_volume(self):
        # the area and its ball stay finite, the volume 2*pi*rho^2 does not
        M = metric_from_spec("expr:geodesic:sqrt(r):rho_min=1")
        with pytest.raises(DomainError) as info:
            huisken_mass(M, 1e160)
        assert str(info.value) == "volume of the sphere at rho=1e+160 overflows"
        with pytest.raises(DomainError) as info:  # the least that overflows
            M.volumes([1e150, 1e155, 1e154, 3e153])
        assert str(info.value) == "volume of the sphere at rho=1e+154 overflows"
        assert M.volumes([3e153])[0] == pytest.approx(2 * math.pi * 9e306, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_default_grid(self):
        cfg = numerics.ToleranceConfig(extrap_terms=1000)
        with pytest.raises(ConfigError, match=r"^extrap_terms = 1000 takes the "
                           r"default radius grid to rho=\S+, where the volume of "
                           r"a ball of the area of the sphere overflows$"):
            total_masses(schwarzschild(1.0), [2.0], cfg=cfg)

    @pytest.mark.parametrize("p_grid, bad", [
        ([1.0, 2.0, 3.0], "p=3.0"),
        ([None, 2.0, 3.5, 0.5], "p=3.5"),  # the first bad p in grid order
        ([0.5, 3.5], "p=0.5"),
    ])
    def test_every_p_checked_before_any_work(self, monkeypatch, p_grid, bad):
        def refuse(*args):
            raise AssertionError("capacity work before the p check")
        monkeypatch.setattr(capacity, "_outward_hulls", refuse)
        monkeypatch.setattr(capacity, "_capacity_tails", refuse)
        with pytest.raises(BadExponent, match=bad + " outside"):
            total_masses(schwarzschild(1.0), p_grid)


class TestOtherFamilies:
    """Tabulated and gauge-converted Schwarzschild: total mass 1."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_table(self, schwarzschild_csv, p):
        rep = total_mass(table_metric(Gauge.AREAL, schwarzschild_csv), p, GRID)
        assert rep.verdict == CONVERGED
        assert rep.extrapolated_mass == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_to_geodesic(self, p):
        rep = total_mass(to_geodesic(schwarzschild(1.0)), p, GRID)
        assert rep.verdict == CONVERGED
        assert rep.extrapolated_mass == pytest.approx(1.0, abs=5e-3)


class TestDivergent:
    def test_cylinder_parabolic_masses(self):
        rep = total_mass(cylinder(2.0), 2.0, [1.0 * 2 ** k for k in range(6)])
        assert rep.verdict == DIVERGENT
        assert math.isinf(rep.extrapolated_mass)
        assert all(math.isinf(v) for v in rep.quasilocal)

    @pytest.mark.parametrize("p", [1.0, None])
    def test_cylinder_growing_masses(self, p):
        # hull and Huisken masses grow linearly in r; the accelerators alone
        # took the sequence for exact and reported a negative limit
        rep = total_mass(cylinder(1.0), p, GRID)
        assert rep.quasilocal[-1] > rep.quasilocal[-2] > rep.quasilocal[-3] > 0
        assert rep.verdict == DIVERGENT
        assert math.isinf(rep.extrapolated_mass)

    @pytest.mark.parametrize("p", [1.0, 2.0, None])
    def test_uneven_grid_converging(self, p):
        # the raw last step (80 -> 81 -> 400) grows sixtyfold, but per unit
        # of log r it shrinks, as it does for every m + c/r sequence
        rep = total_mass(schwarzschild(1.0), p, [10.0, 20.0, 40.0, 80.0,
                                                81.0, 400.0])
        assert rep.verdict == CONVERGED
        assert math.isfinite(rep.extrapolated_mass)

    def test_ends_far_above_the_median(self):
        # the Huisken masses fall toward 1, then a mass step of 500 about
        # r = 1500 lifts the last one to 392: the growth rule passes a last
        # step against the sign of the one before, the median rule does not
        M = expr_metric(Gauge.AREAL, "1 - 2*(1 + 250*(1 + tanh((r-1500)/50)))/r",
                        domain_start=3.0)
        rep = total_mass(M, None, [50.0, 100.0, 200.0, 400.0, 800.0, 2000.0])
        vals = rep.quasilocal
        assert vals[-2] < vals[-3] < 1.02 and vals[-1] > 390.0
        assert rep.verdict == DIVERGENT
        assert math.isinf(rep.extrapolated_mass)

    def test_two_radii_reach_the_extrapolation(self):
        # too short for the growth rule, so the extrapolation's own length
        # check refuses the sequence
        with pytest.raises(InsufficientData, match="got 2"):
            total_mass(schwarzschild(1.0), None, [10.0, 20.0])

    @pytest.mark.parametrize("vals, expected", [
        ([1.00, 1.05, 0.99], False),   # oscillates: the steps change sign
        ([1.00, 0.95, 1.01], False),
        ([1.00, 1.05, 1.06], False),   # slows down
        ([1.00, 2.00, 3.00], True),    # logarithmic growth
        ([1.00, 3.00, 7.00], True),    # linear growth
        ([7.00, 5.00, 3.00], True),    # falls without bound
        ([1.00, 1.002, 1.004], False),  # below the report tolerance
    ])
    def test_growth_rule(self, vals, expected):
        assert _diverges([1.0, 2.0, 4.0], vals, 1e-2) is expected


class TestBmxBound:
    @pytest.mark.parametrize("rho", [2.0, 3.0, 5.0, 10.0, 100.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_schwarzschild_grid(self, rho, p):
        res = bmx_bound_check(schwarzschild(1.0), rho, p)
        assert res.passed

    def test_equality_horizon_p2(self):
        res = bmx_bound_check(schwarzschild(1.0), 2.0, 2.0)
        assert abs(res.slack) / res.rhs <= 1e-6

    def test_equality_schwarzschild_p2_every_radius(self):
        # at p=2 the bound saturates on every centered Schwarzschild sphere
        for rho in (2.0, 3.0, 10.0):
            res = bmx_bound_check(schwarzschild(1.0), rho, 2.0)
            assert abs(res.slack) / res.rhs <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(mass=st.floats(0.3, 2.0), center=st.floats(2.0, 8.0),
           width=st.floats(0.5, 2.5))
    def test_tanh_step_property(self, mass, center, width):
        # R >= 0 and the area grows on these metrics (Bray and Miao 2008)
        M = tanh_step_mass_metric(mass, center, width)
        for rho in (0.5, 3.0, 10.0, 50.0):
            for p in (1.5, 2.0, 2.5):
                res = bmx_bound_check(M, rho, p)
                assert res.passed, (rho, p, res.slack)

    @pytest.mark.parametrize("rho", [1.0, 5.0, 50.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_equality_flat(self, rho, p):
        res = bmx_bound_check(flat(), rho, p)
        assert abs(res.slack) / res.rhs <= 1e-9
        assert res.x == pytest.approx(0.0, abs=1e-12)


class TestIsoperimetric:
    def test_above_mass_eventually_passes(self):
        grid = [2.5 * 2.0 ** k for k in range(12)]
        rep = asymptotic_isoperimetric_check(schwarzschild(1.0), 1.1, grid)
        assert rep.threshold is not None
        tail = [r for r in rep.rows if r.rho >= rep.threshold]
        assert all(r.passed for r in tail)

    def test_below_mass_keeps_failing(self):
        grid = [100.0 * 2.0 ** k for k in range(10)]
        rep = asymptotic_isoperimetric_check(schwarzschild(1.0), 0.9, grid)
        assert rep.threshold is None
        assert not any(r.passed for r in rep.rows)

    def test_flat_any_positive_margin(self):
        grid = [1.0 * 2.0 ** k for k in range(8)]
        rep = asymptotic_isoperimetric_check(flat(), 0.01, grid)
        assert rep.threshold == grid[0]


class TestExport:
    def make_report(self):
        return total_mass(schwarzschild(1.0), 2.0, GRID)

    def test_json_schema(self):
        rep = self.make_report()
        obj = json.loads(mass_report_to_json(rep))
        assert list(obj) == ["metric", "p", "radii", "quasilocal",
                             "extrapolated", "err", "verdict"]
        assert obj["metric"] == "schwarzschild:m=1"
        assert obj["p"] == 2.0
        assert obj["radii"] == GRID
        assert obj["verdict"] == CONVERGED

    def test_json_infinity_sentinel(self):
        rep = total_mass(cylinder(1.0), 2.0, [1, 2, 4, 8, 16, 32])
        obj = json.loads(mass_report_to_json(rep))
        assert obj["extrapolated"] == "+inf"
        assert obj["quasilocal"][0] == "+inf"

    def test_csv_twin(self):
        rep = self.make_report()
        buf = io.StringIO()
        mass_report_to_csv(rep, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "metric,p,radius,quasilocal,extrapolated,err,verdict"
        assert len(lines) == 1 + len(GRID)
        row = lines[1].split(",")
        assert float(row[2]) == GRID[0]
        assert float(row[3]) == rep.quasilocal[0]

    @pytest.mark.parametrize("report", [
        MassReport('a "label" \u00e9', None, [], [], math.nan, math.inf,
                   INDETERMINATE),
        MassReport("schwarzschild:m=1", 2.0, [1, 2.0, 1e300, 5e-324],
                   [math.inf, -math.inf, math.nan, -0.0], -math.inf, 0.0,
                   CONVERGED),
        MassReport("m", 1.5, [math.inf, -math.inf, math.nan], [1.0 / 3.0],
                   0.1, math.nan, DIVERGENT),
    ])
    def test_json_bytes(self, report):
        """The direct writer prints the bytes of json.dumps(obj, indent=2)."""
        obj = {"metric": report.metric, "p": report.p, "radii": report.radii,
               "quasilocal": [_num(v) for v in report.quasilocal],
               "extrapolated": _num(report.extrapolated_mass),
               "err": _num(report.err_estimate), "verdict": report.verdict}
        assert mass_report_to_json(report) == json.dumps(obj, indent=2)

    def test_json_bytes_of_a_real_report(self):
        rep = total_mass(cylinder(1.0), 2.0, [1, 2, 4, 8, 16, 32])
        obj = {"metric": rep.metric, "p": rep.p, "radii": rep.radii,
               "quasilocal": [_num(v) for v in rep.quasilocal],
               "extrapolated": _num(rep.extrapolated_mass),
               "err": _num(rep.err_estimate), "verdict": rep.verdict}
        assert mass_report_to_json(rep) == json.dumps(obj, indent=2)

    def test_huisken_p_field(self):
        rep = total_mass(schwarzschild(1.0), None, GRID)
        obj = json.loads(mass_report_to_json(rep))
        assert obj["p"] is None
