import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap import flow, numerics
from isocap.errors import (DomainError, EvalError, InsufficientData,
                           NoBracket, NonConvergence)
from isocap.flow import (Jump, SmoothSegment, _outward_hulls, flow_to_csv,
                         geroch_check, outward_hull, weak_imcf, willmore_limit)
from isocap.geometry import (CriticalPoint, FuncProfile, Gauge, RadialMetric,
                             check_hypotheses, expr_metric,
                             find_minimal_spheres, flat, mass_profile_metric,
                             metric_from_spec, scaled, schwarzschild, spheres,
                             table_metric, tanh_step_mass_metric, to_geodesic)
from isocap.numerics import DEFAULT_CFG

NECK = "r + 1.5*exp(-4*(r-3)^2)"
FAR_NECK = "r - 45*exp(-((r-60)/3)^2)"


def neck_metric():
    return expr_metric(Gauge.GEODESIC, NECK)


def neck_area(rho):
    a = rho + 1.5 * np.exp(-4 * (rho - 3) ** 2)
    return 4 * math.pi * a ** 2


class TestOutwardHull:
    def test_flat_is_identity(self):
        rho, area = outward_hull(flat(), 2.0)
        assert rho == 2.0
        assert area == pytest.approx(16 * math.pi, rel=1e-12)

    def test_neck_from_inside(self):
        rho, area = outward_hull(neck_metric(), 3.0)
        # oracle: one-million-point scan of the area profile
        grid = np.linspace(3.0, 30.0, 1_000_001)
        areas = neck_area(grid)
        i = areas.argmin()
        assert rho == pytest.approx(grid[i], abs=1e-4)
        assert area == pytest.approx(float(areas[i]), rel=1e-9)

    def test_idempotent(self):
        rho1, area1 = outward_hull(neck_metric(), 3.0)
        rho2, area2 = outward_hull(neck_metric(), rho1)
        assert rho2 == pytest.approx(rho1, abs=1e-9)
        assert area2 == pytest.approx(area1, rel=1e-12)

    def test_minimality(self):
        rho_star, hull = outward_hull(neck_metric(), 3.0)
        grid = np.linspace(3.0, 50.0, 1_000_001)
        assert hull <= neck_area(grid).min() * (1 + 1e-9)

    def test_below_domain(self):
        with pytest.raises(DomainError):
            outward_hull(schwarzschild(1.0), 0.5)

    def test_second_hull_probes_nothing(self, searches, monkeypatch):
        metric = neck_metric()
        first = outward_hull(metric, 3.0)
        monkeypatch.setattr(metric.profile, "triple", None)  # no probe grid
        assert outward_hull(metric, 3.0) == first
        assert outward_hull(metric, 3.0, DEFAULT_CFG) == first
        assert searches == [metric]


class TestNeckBottoms:
    """Hull and landing radii at a neck bottom against mpmath's root of a'."""

    TWO_NECKS = "r + 1.5*exp(-4*(r-3)^2) + 3*exp(-2*(r-9)^2)"

    @staticmethod
    def bottom(rho):
        """The root of a' near rho, for NECK and TWO_NECKS."""
        def slope(r):
            return (1 - 12 * (r - 3) * mpmath.exp(-4 * (r - 3) ** 2)
                    - 12 * (r - 9) * mpmath.exp(-2 * (r - 9) ** 2))
        with mpmath.workdps(40):
            return float(mpmath.findroot(slope, rho))

    def test_hull(self):
        rho, area = outward_hull(neck_metric(), 3.0)
        want = self.bottom(rho)
        assert abs(rho - want) <= 1e-13 * want
        assert area == neck_metric().area(rho)

    @pytest.mark.parametrize("text, rho0, t_max, n_jumps", [
        (NECK, 2.0, 3.0, 1), (TWO_NECKS, 1.0, 6.0, 2)])
    def test_jump_landings(self, text, rho0, t_max, n_jumps):
        track = weak_imcf(expr_metric(Gauge.GEODESIC, text), rho0, t_max,
                          n_samples=20)
        jumps = [j for j in track.jumps if j.t > 0.0]
        assert len(jumps) == n_jumps
        for jump in jumps:
            want = self.bottom(jump.rho_after)
            assert abs(jump.rho_after - want) <= 1e-13 * want


def _between_nodes(scan_grid, metric, lo, k):
    """Midpoint of nodes k and k+1 of the reference scan from lo."""
    nodes = scan_grid(metric, lo)[0]
    return float(0.5 * (nodes[k] + nodes[k + 1]))


def _close_hulls(got, want):
    """Hulls within the root tolerance of a reference's: a radius within
    2 * root_tol plus 8 ulp, an area within 1e-13 relative."""
    return all(abs(rho - rho1) <= 2.0 * DEFAULT_CFG.root_tol + 1.8e-15 * rho1
               and abs(area - area1) <= 1e-13 * area1
               for (rho, area), (rho1, area1) in zip(got, want, strict=True))


class TestMultiRadiusHull:
    """The hulls of many radii against those of one radius at a time and
    against the reference scan."""

    @pytest.mark.parametrize("make,radii,k", [
        (flat, [0.5, 1.0, 3.7, 10.0, 1e7], 700),
        (lambda: schwarzschild(1.0), [2.0, 2.5, 10.0, 100.0], 300),
        (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
         [0.5, 1.0, 4.0, 6.0, 20.0], 2500),
    ])
    def test_growing_area_bit_identical(self, make, radii, k, scan_grid):
        metric = make()
        radii = sorted(radii + [_between_nodes(scan_grid, metric, radii[0], k)])
        assert _outward_hulls(metric, radii, DEFAULT_CFG) == [
            outward_hull(metric, r) for r in radii]

    def test_neck(self, scan_grid, scan_read):
        # inside the bump, across it, in the dip (one radius between scan
        # nodes) and past it
        metric = neck_metric()
        radii = sorted([0.5, 1.0, 2.0, 2.9, 3.0, 3.3, 3.5, 3.7, 4.0, 10.0,
                        _between_nodes(scan_grid, metric, 0.5, 846)])
        hulls = _outward_hulls(metric, radii, DEFAULT_CFG)
        assert any(rho != r for r, (rho, _) in zip(radii, hulls))
        assert hulls == [outward_hull(metric, r) for r in radii]
        assert _close_hulls(hulls, scan_read(metric, radii))

    @pytest.mark.parametrize("text", [NECK, "r + 1.5*exp(-4*(r-3)^2) + "
                                      "3*exp(-2*(r-9)^2)", FAR_NECK,
                                      "max(2,(r-3)^2)"])
    def test_against_the_scan_read(self, text, scan_read):
        # 23 start radii across every bump, dip, plateau and rising piece
        metric = expr_metric(Gauge.GEODESIC, text)
        radii = np.geomspace(0.5, 80.0, 23).tolist()
        assert _close_hulls([outward_hull(metric, r) for r in radii],
                            [scan_read(metric, [r])[0] for r in radii])

    def test_below_domain(self):
        with pytest.raises(DomainError):
            _outward_hulls(schwarzschild(1.0), [1.5, 3.0], DEFAULT_CFG)


def _hex(hulls):
    return [(float(rho).hex(), float(area).hex()) for rho, area in hulls]


class TestArealHull:
    """A sphere whose area cannot fall (an areal sphere at r >= 0, a
    generated metric, a conversion from r_min >= 0, scaled copies) is its
    own hull: no critical-point search, and the bits of the reference
    scan read."""

    METRICS = {
        "schwarzschild": lambda: schwarzschild(1.0),
        "rn-throat": lambda: expr_metric(
            Gauge.AREAL, "1 - 2*m/r + q^2/r^2", {"m": 1.3, "q": 0.6},
            domain_start=1.3 + math.sqrt(1.3 ** 2 - 0.6 ** 2)),
        "expr-spec": lambda: metric_from_spec("expr:areal:1"),
        "from-zero": lambda: expr_metric(Gauge.AREAL, "1", domain_start=0.0),
        "tanh-step": lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
        "scaled-tanh-step": lambda: scaled(tanh_step_mass_metric(1.0, 5.0, 1.0),
                                           2.0),
        "converted": lambda: to_geodesic(schwarzschild(1.0)),
    }

    def radii(self, metric, first, scan_grid):
        """The domain start (or first), a radius between scan nodes, one
        just below the scan limit and two at or past it: an areal area
        needs no profile there, a geodesic profile ends just past it."""
        limit = min(DEFAULT_CFG.cutoff_radius, metric.r_max)
        nodes = scan_grid(metric, first)[0]
        past = (2.0 * limit if metric.gauge is Gauge.AREAL
                else float(np.nextafter(limit, math.inf)))
        return [first, float(0.5 * (nodes[1234] + nodes[1235])),
                float(np.nextafter(limit, 0.0)), limit, past]

    @pytest.mark.parametrize("name", [*METRICS, "table"])
    def test_bits_of_the_scan_read(self, name, table_400, scan_grid,
                                   scan_read, searches):
        make = self.METRICS.get(name, lambda: table_metric(Gauge.AREAL, table_400))
        metric = make()
        firsts = [metric.domain_start]
        if name == "from-zero":
            firsts.append(-1e-13)  # below 0 within the start slack: searched
        for first in firsts:
            radii = self.radii(metric, first, scan_grid)
            want = scan_read(metric, radii, DEFAULT_CFG)
            assert [rho for rho, _ in want] == radii  # nothing dips
            singles = [scan_read(metric, [r], DEFAULT_CFG)[0]
                       for r in radii if r < radii[-2]]
            searches.clear()
            hulls = _outward_hulls(metric, radii, DEFAULT_CFG)
            lone = [outward_hull(metric, r) for r in radii[:-2]]
            assert _hex(hulls) == _hex(want)
            assert _hex(lone) == _hex(singles)
            # below 0 the list searches, and the lone radii read its points
            assert len(searches) == (first < 0.0)

    def test_negative_start_scans(self, searches):
        # the area 4*pi*r^2 falls on [-1, 0]: the hull of r = -1 is the
        # point sphere at 0, a minimum of area 0 of the one search
        metric = expr_metric(Gauge.AREAL, "1", domain_start=-1.0)
        (rho, area), (rho2, area2) = _outward_hulls(metric, [-1.0, 2.0],
                                                    DEFAULT_CFG)
        assert searches == [metric]
        assert abs(rho) < 1e-12 and area == 0.0
        assert (rho2, area2) == (2.0, 16.0 * math.pi)

    def test_converted_negative_start_scans(self, searches):
        # converted from r_min = -1, a = r falls to 0 at rho = 1: the hull
        # of rho = 0 is that pole, a minimum of area 0
        metric = to_geodesic(expr_metric(Gauge.AREAL, "1", domain_start=-1.0))
        assert not metric.own_hull(0.0)
        (rho, area), = _outward_hulls(metric, [0.0], DEFAULT_CFG)
        assert searches == [metric]
        assert abs(rho - 1.0) < 1e-6 and area == 0.0
        assert find_minimal_spheres(metric) == []  # a pole is not minimal

    @pytest.mark.parametrize("convert", [False, True], ids=["areal", "converted"])
    def test_flow_from_a_zero_area_hull_raises(self, convert):
        # the hulls of the two tests above are points: no flow starts there
        metric = expr_metric(Gauge.AREAL, "1", domain_start=-1.0)
        if convert:
            metric = to_geodesic(metric)
        with pytest.raises(DomainError, match="zero area"):
            weak_imcf(metric, metric.domain_start, 1.0, n_samples=3)

    def test_stalled_generated_flow_raises(self):
        # mu = rho outgrows a/2 near rho = 0.4: the warping stalls there,
        # and the flow's check of the area at the end meets the stall
        for rho_max in (10.0, 50.0):
            metric = mass_profile_metric(lambda rho: (rho, 1.0), a0=1.0,
                                         rho_max=rho_max)
            assert metric.own_hull(0.1)
            with pytest.raises(EvalError, match=f"stalls at rho={rho_max}"):
                weak_imcf(metric, 0.1, 2.0, n_samples=10)


NECK_FAMILY = "r - 2*w*exp(-((r-R)/w)^2)"


class TestResolution:
    """The resolution contract on r - 2w*exp(-((r-R)/w)^2).  Its area
    falls on R + x*w for x in (-1.277, -0.269), a stretch of 1.008*w/R in
    log rho; the probes are 3.9e-3 apart there, and a pair of them whose
    cubic through a and a' turns back is split in 8.  A neck from
    w/R = 2e-3 up is found wherever R falls between the probes, which
    covers every neck the 8192-node hull scan of a flow jumps over from
    rho0 = 2 or from rho0 = R/8; the hull, the flow's jumps and
    check_hypotheses see a neck alike, or none of them does."""

    RATIOS = [1e-3, 1.5e-3, 2e-3, 2.78e-3, 5e-3, 1e-2]

    @staticmethod
    def metric(R, ratio):
        return expr_metric(Gauge.GEODESIC, NECK_FAMILY,
                           {"w": ratio * R, "R": R})

    @staticmethod
    def roots(R, w):
        """The bump top and the neck bottom: the roots of a' by mpmath."""
        def slope(x):
            return 1 + 4 * x * mpmath.exp(-x * x)
        with mpmath.workdps(40):
            return [float(R + w * mpmath.findroot(slope, x0))
                    for x0 in (-1.3, -0.27)]

    @pytest.mark.parametrize("R", [10.0, 1000.0])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_hull_jumps_and_hypotheses_agree(self, R, ratio):
        metric, w = self.metric(R, ratio), ratio * R
        rep = check_hypotheses(metric)
        track = weak_imcf(metric, 2.0, 2.0 * math.log(R), n_samples=5)
        jumps = [j for j in track.jumps if j.t > 0.0]
        inside = R - 0.8 * w  # on the falling side
        rho, area = outward_hull(metric, inside)
        if ratio >= 2e-3:
            assert rep.offending_radii
        if not rep.offending_radii:
            assert rep.no_interior_minimal
            assert jumps == []
            assert (rho, area) == (inside, metric.area(inside))
            return
        top, bottom = rep.offending_radii
        for got, want in zip((top, bottom), self.roots(R, w), strict=True):
            assert abs(got - want) <= 2.0 * DEFAULT_CFG.root_tol + 1.8e-15 * want
        (jump,) = jumps
        assert jump.rho_after == bottom == rho
        assert area == metric.area(bottom)
        assert jump.rho_before < top
        assert jump.t == math.log(area / track.initial_area)

    @pytest.mark.parametrize("ratio", [2e-3, 2.78e-3])
    @pytest.mark.parametrize("start", ["2", "R/8"])
    def test_every_grid_phase(self, ratio, start, scan_jumps):
        # 25 values of R put the neck at 25 phases of the probe grid: the
        # flow jumps it at each, wherever the reference scan does or not,
        # and lands on mpmath's bottom, as the hull from the falling side
        tol = 2.0 * DEFAULT_CFG.root_tol
        for R in np.geomspace(10.0, 1e4, 25).tolist():
            metric, w = self.metric(R, ratio), ratio * R
            top, bottom = self.roots(R, w)
            rho0 = 2.0 if start == "2" else R / 8.0
            t_max = 2.0 * math.log(R / rho0)
            (jump,) = [j for j in weak_imcf(metric, rho0, t_max, 3).jumps
                       if j.t > 0.0]
            assert len(scan_jumps(metric, rho0, t_max)) <= 1
            assert abs(jump.rho_after - bottom) <= tol + 1.8e-15 * bottom
            assert jump.rho_before < top
            assert metric.area(jump.rho_before) == pytest.approx(
                metric.area(jump.rho_after), rel=1e-12)
            assert outward_hull(metric, R - 0.8 * w)[0] == jump.rho_after

    @pytest.mark.parametrize("make", [
        neck_metric,
        lambda: expr_metric(Gauge.GEODESIC, FAR_NECK),
        lambda: TestResolution.metric(1000.0, 2.78e-3),
    ], ids=["neck", "far-neck", "family"])
    def test_fresh_and_searched_metrics_agree(self, make):
        # every read of the critical points has the same bits on a fresh
        # metric and on one that has already searched them
        def results(metric):
            track = weak_imcf(metric, 2.0, 5.0, n_samples=7)
            return repr((outward_hull(metric, 2.0), outward_hull(metric, 3.2),
                         track.events, track.samples,
                         find_minimal_spheres(metric),
                         check_hypotheses(metric)))
        warm = make()
        warm.critical_points()
        check_hypotheses(warm)
        assert results(warm) == results(make())


class TestPlateaus:
    """Runs of a' = 0 exactly, as min and max give them: one between
    opposite slopes is one critical point, at its outer end."""

    BASIN = "max(2,(r-3)^2)"  # area 16*pi on [3 - sqrt 2, 3 + sqrt 2]
    RIDGE = "min(r,3)-0.5*max(0,r-5)+max(0,r-7)"  # a = 3 on [3, 5], 2 at 7

    def test_hull_at_the_outer_end_of_a_basin(self):
        metric = expr_metric(Gauge.GEODESIC, self.BASIN)
        rho, area = outward_hull(metric, 0.5)
        assert abs(rho - (3.0 + math.sqrt(2.0))) <= 2.0 * DEFAULT_CFG.root_tol
        assert area == 16.0 * math.pi
        (jump, _) = weak_imcf(metric, 0.5, 1.0, n_samples=3).events
        assert jump == Jump(t=0.0, rho_before=0.5, rho_after=rho)

    def test_ridge_then_neck(self, scan_jumps):
        metric = expr_metric(Gauge.GEODESIC, self.RIDGE)
        top, bottom = metric.critical_points()[0]
        assert (top.minimum, bottom.minimum) == (False, True)
        for got, want in ((top.rho, 5.0), (bottom.rho, 7.0)):
            assert abs(got - want) <= 2.0 * DEFAULT_CFG.root_tol
        (jump,) = weak_imcf(metric, 1.0, 3.0, n_samples=5).jumps
        assert jump.t == pytest.approx(math.log(4.0), abs=DEFAULT_CFG.root_tol)
        assert abs(jump.rho_before - 2.0) <= 2.0 * DEFAULT_CFG.root_tol
        assert jump.rho_after == bottom.rho
        (ref,) = scan_jumps(metric, 1.0, 3.0)
        assert abs(jump.t - ref.t) <= 1e-13

    def test_no_maximum_to_leave_from_raises(self):
        # a landing with no maximum before it: the area never rose past
        # the hull, so no sphere can jump onto it
        metric = expr_metric(Gauge.GEODESIC, "r")
        land = CriticalPoint(3.0, metric.area(3.0), True)
        with pytest.raises(NoBracket):
            flow._find_jumps(metric, [land], 1.0, metric.area(1.0), 5.0,
                             DEFAULT_CFG)


class TestAreaLaw:
    @pytest.mark.parametrize("make,rho0", [
        (flat, 2.0),
        (lambda: schwarzschild(1.0), 2.0),
        (neck_metric, 2.0),
    ])
    def test_exponential(self, make, rho0):
        track = weak_imcf(make(), rho0, 5.0, n_samples=80)
        for t, d in track.samples:
            target = track.initial_area * math.exp(t)
            assert abs(d.area - target) / d.area <= 1e-10

    def test_radius_growth_flat(self):
        track = weak_imcf(flat(), 1.0, 4.0, n_samples=50)
        for t, d in track.samples:
            assert d.rho == pytest.approx(math.exp(t / 2.0), rel=1e-10)


class TestJumps:
    def test_neck_jump_structure(self):
        track = weak_imcf(neck_metric(), 2.0, 3.0, n_samples=60)
        assert [type(e) for e in track.events] == [SmoothSegment, Jump,
                                                   SmoothSegment]
        (jump,) = track.jumps

        # jump preserves area across the skipped region
        m = neck_metric()
        assert m.area(jump.rho_before) == pytest.approx(m.area(jump.rho_after),
                                                        rel=1e-9)
        assert jump.rho_after > jump.rho_before
        # jump time consistent with the area law
        assert m.area(jump.rho_after) == pytest.approx(
            track.initial_area * math.exp(jump.t), rel=1e-9)

    def test_initial_jump_to_hull(self):
        # starting inside the bump, the flow first jumps to the outer neck
        track = weak_imcf(neck_metric(), 3.0, 2.0, n_samples=30)
        first = track.events[0]
        assert isinstance(first, Jump)
        assert first.t == 0.0
        assert first.rho_before == 3.0
        assert first.rho_after > 3.5

    def test_no_jump_on_flat(self):
        track = weak_imcf(flat(), 1.0, 3.0)
        assert track.jumps == []

    def test_jump_beyond_tmax_dropped(self):
        track = weak_imcf(neck_metric(), 2.0, 0.5, n_samples=20)
        assert track.jumps == []

    def test_far_neck(self):
        # the area first reaches its t = 5 value at rho ~ 24.4, but the neck
        # at rho ~ 60 dips below it, so the flow must jump there
        track = weak_imcf(expr_metric(Gauge.GEODESIC, FAR_NECK), 2.0, 5.0,
                          n_samples=60)
        (jump,) = track.jumps
        # oracle: one-million-point scan of a(rho) across the neck
        rho = np.linspace(55.0, 65.0, 1_000_001)
        a_min = float((rho - 45.0 * np.exp(-((rho - 60.0) / 3.0) ** 2)).min())
        assert a_min == pytest.approx(14.949972171, abs=1e-9)
        assert jump.t == pytest.approx(2.0 * math.log(a_min / 2.0), abs=1e-9)
        assert jump.rho_after == pytest.approx(59.8999, abs=1e-4)
        t, d = track.samples[-1]
        assert t == 5.0 and d.rho > jump.rho_after
        assert abs(d.area - track.initial_area * math.exp(t)) <= 1e-10 * d.area


class TestOneScan:
    # (searches, scans) by (rho0, t_max): a flow from its own hull (the
    # generated metric) reads its radii off the inverse of the area and
    # scans nothing; any other reads the probes
    COUNTS = {(1.0, 3.0): (1, []), (3.0, 2.0): (1, []),
              (2.0, 5.0): (1, []), (0.5, 6.0): (0, [])}

    @pytest.mark.parametrize("make, rho0, t_max", [
        (flat, 1.0, 3.0),
        (neck_metric, 3.0, 2.0),
        (lambda: expr_metric(Gauge.GEODESIC, FAR_NECK), 2.0, 5.0),
        (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0), 0.5, 6.0),
    ])
    def test_one_area_scan_per_flow(self, make, rho0, t_max, searches):
        # one critical-point search, or none and no scan from an own hull
        metric, sizes = make(), []
        area = metric.area
        metric.area = lambda rho: (isinstance(rho, np.ndarray)
                                   and sizes.append(rho.size)) or area(rho)
        weak_imcf(metric, rho0, t_max, n_samples=20)
        n_searches, scans = self.COUNTS[rho0, t_max]
        assert len(searches) == n_searches
        assert sizes == scans


class TestFindJumps:
    TWO_NECKS = "r + 1.5*exp(-4*(r-3)^2) + 3*exp(-2*(r-9)^2)"

    @pytest.mark.parametrize("text, rho0, t_max, n_jumps", [
        (TWO_NECKS, 1.0, 6.0, 2), (TWO_NECKS, 1.0, 1.0, 0),
        (NECK, 2.0, 3.0, 1), ("r", 1.0, 3.0, 0)])
    def test_equal_to_node_loop(self, text, rho0, t_max, n_jumps, scan_jumps):
        # the critical-point jumps against the skipped runs of the
        # reference scan, found node by node
        metric = expr_metric(Gauge.GEODESIC, text)
        track = weak_imcf(metric, rho0, t_max, n_samples=5)
        got = [j for j in track.jumps if j.t > 0.0]
        want = scan_jumps(metric, rho0, t_max)
        assert len(got) == len(want) == n_jumps
        for jump, ref in zip(got, want):
            assert abs(jump.t - ref.t) <= 1e-13
            for x, y in ((jump.rho_before, ref.rho_before),
                         (jump.rho_after, ref.rho_after)):
                assert abs(x - y) <= 2.0 * DEFAULT_CFG.root_tol + 1.8e-15 * y

    def test_lands_on_the_lowest_later_minimum(self, scan_jumps):
        # two necks, the outer one lower: the flow leaves the rising piece
        # before the inner bump and lands past both on the outer bottom
        metric = expr_metric(Gauge.GEODESIC, "r*(1 - 0.5*exp(-4*(r-3)^2) - "
                             "0.9*exp(-2*(r-9)^2))")
        points = metric.critical_points()[0]
        assert [p.minimum for p in points] == [False, True, False, True]
        assert points[3].area < points[1].area
        (jump,) = weak_imcf(metric, 0.5, 6.0, n_samples=5).jumps
        assert jump.rho_after == points[3].rho
        assert 0.5 < jump.rho_before < points[0].rho
        assert metric.area(jump.rho_before) == pytest.approx(points[3].area,
                                                             rel=1e-12)
        (ref,) = scan_jumps(metric, 0.5, 6.0)
        assert abs(jump.rho_before - ref.rho_before) <= 2.1e-12


class TestSampleVolumes:
    def test_one_panel_call_for_all_samples(self, monkeypatch):
        # a generated metric and its scaled copy read all their sample
        # volumes off the generated volume series at once, with no panel call
        M = tanh_step_mass_metric(1.0, 5.0, 1.0)
        calls, reads = [], []
        rule, series = numerics.gauss_legendre, M.profile.volumes
        monkeypatch.setattr(numerics, "gauss_legendre",
                            lambda *a: calls.append(a[1].size) or rule(*a))
        M.profile.volumes = lambda rhos: reads.append(len(rhos)) or series(rhos)
        for metric, rho0 in ((scaled(M, 2.0), 1.0), (M, 0.5)):
            reads.clear()
            track = weak_imcf(metric, rho0, 6.0, n_samples=40)
            assert calls == [] and reads == [40]
            assert len(track.samples) == 40

    @settings(max_examples=25, deadline=None)
    @given(mass=st.floats(0.3, 2.0), center=st.floats(2.0, 8.0),
           width=st.floats(0.5, 2.5), rho0=st.floats(0.1, 3.0))
    def test_tanh_step_flow_properties(self, mass, center, width, rho0):
        # R >= 0, so the Hawking mass cannot drop along the weak flow
        # (Geroch; Huisken and Ilmanen 2001)
        M = tanh_step_mass_metric(mass, center, width)
        track = weak_imcf(M, rho0, 6.0, n_samples=40)
        rep = geroch_check(track)
        assert rep.monotone, rep.worst_drop
        rhos = [d.rho for _, d in track.samples]
        vols = [d.volume for _, d in track.samples]
        for t, d in track.samples:
            assert abs(d.area - track.initial_area * math.exp(t)) <= 1e-10 * d.area
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert all(b >= a for a, b in zip(vols, vols[1:]))
        fresh = tanh_step_mass_metric(mass, center, width)
        assert vols == fresh.volumes(rhos)


def brent_radii(metric, grid, areas, envelope, targets, cfg):
    """Reference for ``_sample_radii``: one scalar Brent solve per target
    on the same bracketing scan nodes."""
    nodes = np.minimum(np.searchsorted(envelope, targets, side="right") - 1,
                       len(grid) - 2).tolist()
    return [numerics.find_root(lambda r, a=a: metric.area(r) - a,
                               float(grid[k]), float(grid[k + 1]), cfg)
            for a, k in zip(targets.tolist(), nodes)]


FLOW_CASES = {
    "flat": (flat, 1.0, 5.0),
    "neck": (neck_metric, 2.0, 4.0),
    "two-necks": (lambda: expr_metric(Gauge.GEODESIC, TestFindJumps.TWO_NECKS),
                  1.0, 6.0),
    "far-neck": (lambda: expr_metric(Gauge.GEODESIC, FAR_NECK), 2.0, 5.0),
    "schwarzschild": (lambda: schwarzschild(1.0), 2.0, 8.0),
    "converted": (lambda: to_geodesic(schwarzschild(1.0)), 0.0, 6.0),
    "tanh-step": (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0), 0.5, 6.0),
    "scaled-tanh-step": (lambda: scaled(tanh_step_mass_metric(1.0, 5.0, 1.0),
                                        2.0), 1.0, 6.0),
    "oscillating": (lambda: expr_metric(Gauge.GEODESIC, "r*(1+0.3*sin(r))"),
                    1.0, 6.0),
}


class TestOwnHullFlows:
    """A flow from its own hull against the same flow through the critical
    points, with the own-hull predicate patched off: geodesic metrics only,
    as an areal flow has no such path (see ``flow._sample_radii``)."""

    @pytest.mark.parametrize("name", ["converted", "scaled-tanh-step",
                                      "tanh-step"])
    def test_samples_match_the_hull_scan(self, name, monkeypatch, searches):
        make, rho0, t_max = FLOW_CASES[name]
        track = weak_imcf(make(), rho0, t_max, n_samples=40)
        assert searches == []
        monkeypatch.setattr(RadialMetric, "own_hull", lambda self, rho: False)
        ref = weak_imcf(make(), rho0, t_max, n_samples=40)
        assert len(searches) == 1
        assert (track.rho0, track.initial_area) == (ref.rho0, ref.initial_area)
        assert track.jumps == ref.jumps == []
        got = np.array([d.rho for _, d in track.samples])
        want = np.array([d.rho for _, d in ref.samples])
        close = np.abs(got - want) <= DEFAULT_CFG.root_tol + 8.9e-16 * want
        # on the converted metric a' = 0 at rho0 = 0, and the area stays at
        # the hull's to rounding up to about 5e-8: at t = 0 each path stops
        # at an exact root of that plateau
        first, ref_first = track.samples[0][1], ref.samples[0][1]
        close[0] |= first.area == ref_first.area == track.initial_area
        assert close.all()
        end, ref_end = track.events[-1].rho_end, ref.events[-1].rho_end
        assert abs(end - ref_end) <= DEFAULT_CFG.root_tol + 8.9e-16 * ref_end

    def test_benchmark_operations_search_nothing(self, searches, capsys):
        # one operation of each benchmark workload: an areal
        # Reissner-Nordstrom mass, a tanh-step flow, converted spheres
        from isocap.cli import main
        spec = ("expr:areal:1-2*m/r+q^2/r^2:m=1.3,q=0.6,"
                "r_min=2.4532562594670795")
        assert main(["mass", "--metric", spec,
                     "--p-grid", "1,1.5,2,2.5,iso"]) == 0
        track = weak_imcf(tanh_step_mass_metric(1.0, 5.0, 1.0), 0.5, 6.0,
                          n_samples=40)
        assert geroch_check(track).monotone
        metric = to_geodesic(schwarzschild(1.0))
        spheres(metric, [1e-2 * 1e5 ** (k / 19) for k in range(20)])
        assert searches == []


def schwarzschild_arclength(r, m=1.0):
    """The geodesic radius of the areal sphere r of Schwarzschild, from the
    horizon r = 2m."""
    return (math.sqrt(r * (r - 2.0 * m)) + 2.0 * m * math.log(
        (math.sqrt(r) + math.sqrt(r - 2.0 * m)) / math.sqrt(2.0 * m)))


class TestAreaInverse:
    """A flow from its own hull reads every radius off the inverse of the
    area: no Newton pass, no array area call."""

    def run(self, monkeypatch, metric, rho0, t_max):
        """The flow's track and its radii, rho_end last."""
        calls = []
        newton, area = flow.newton_roots, RadialMetric.area

        def counted_area(self, rho):
            if isinstance(rho, np.ndarray):
                calls.append("scan")
            return area(self, rho)
        monkeypatch.setattr(flow, "newton_roots",
                            lambda *a: calls.append("newton") or newton(*a))
        monkeypatch.setattr(RadialMetric, "area", counted_area)
        track = weak_imcf(metric, rho0, t_max, n_samples=40)
        assert calls == []
        return track, ([d.rho for _, d in track.samples]
                       + [track.events[-1].rho_end])

    def test_areal_radius_is_the_square_root(self, monkeypatch):
        track, radii = self.run(monkeypatch, schwarzschild(1.0), 3.0, 6.0)
        times = [t for t, _ in track.samples] + [6.0]
        for t, rho in zip(times, radii):
            assert abs(rho - 3.0 * math.exp(0.5 * t)) <= 1e-15 * rho

    def test_converted_matches_the_closed_form(self, monkeypatch):
        # from the horizon, the sphere at time t has r = 2*exp(t/2)
        track, radii = self.run(monkeypatch, to_geodesic(schwarzschild(1.0)),
                                0.0, 6.0)
        times = [t for t, _ in track.samples] + [6.0]
        assert radii[0] == 0.0
        for t, rho in zip(times[1:], radii[1:]):
            want = schwarzschild_arclength(2.0 * math.exp(0.5 * t))
            assert abs(rho - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", ["tanh-step", "scaled-tanh-step",
                                      "scaled-converted", "table"])
    def test_radii_match_brent(self, name, monkeypatch, table_400):
        make, rho0 = {
            "tanh-step": (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0), 0.5),
            "scaled-tanh-step": (lambda: scaled(
                tanh_step_mass_metric(1.0, 5.0, 1.0), 2.0), 1.0),
            "scaled-converted": (lambda: scaled(
                to_geodesic(schwarzschild(1.0)), 2.0), 0.5),
            "table": (lambda: table_metric(Gauge.AREAL, table_400), 2.0),
        }[name]
        metric = make()
        track, radii = self.run(monkeypatch, metric, rho0, 6.0)
        limit = min(DEFAULT_CFG.cutoff_radius, metric.r_max)
        for t, rho in zip([t for t, _ in track.samples] + [6.0], radii):
            target = track.initial_area * math.exp(t)
            want = numerics.find_root(lambda r: metric.area(r) - target,
                                      rho0, limit)
            assert abs(rho - want) <= DEFAULT_CFG.root_tol + 8.9e-16 * want

    @pytest.mark.parametrize("rho0", [0.0, 0.5])
    @pytest.mark.parametrize("make", [
        lambda: tanh_step_mass_metric(1.0, 5.0, 1.0, a0=2.01),
        lambda: mass_profile_metric(lambda rho: (1.0, 0.0), a0=2.01),
    ], ids=["tanh-step", "constant-mass"])
    def test_near_stall(self, make, rho0):
        # a0 = 2.01 against a mass of 1: the near-stall build of
        # TestPicardPanels, and a constant mass whose a' starts at 0.07
        track = weak_imcf(make(), rho0, 6.0, n_samples=40)
        assert geroch_check(track).monotone
        for t, d in track.samples:
            assert abs(d.area - track.initial_area * math.exp(t)) <= 1e-13 * d.area


class TestNewtonSamples:
    """All sample radii of a flow from one ``numerics.newton_roots`` pass."""

    @pytest.mark.parametrize("name", sorted(FLOW_CASES))
    def test_radii_match_brent(self, name, monkeypatch):
        make, rho0, t_max = FLOW_CASES[name]
        seen = []
        solve = flow._sample_radii
        monkeypatch.setattr(flow, "_sample_radii",
                            lambda *a: seen.append(a) or solve(*a))
        metric = make()
        track = weak_imcf(metric, rho0, t_max, n_samples=40)
        if metric.own_hull(rho0):
            # read off the inverse of the area, with no Newton pass; Brent
            # brackets each target on [rho0, limit], where the area rises
            assert seen == []
            grid = np.array([rho0, min(DEFAULT_CFG.cutoff_radius, metric.r_max)])
            targets = track.initial_area * np.exp(
                [t for t, _ in track.samples] + [t_max])
            args = (metric, grid, None, metric.area(grid), targets, DEFAULT_CFG)
        else:
            (args,) = seen
        want = np.array(brent_radii(*args))
        got = np.array([d.rho for _, d in track.samples])
        tol = 2.0 * (DEFAULT_CFG.root_tol + 8.9e-16 * want[:-1])
        assert np.all(np.abs(got - want[:-1]) <= tol)
        assert track.events[-1].rho_end == pytest.approx(want[-1], abs=tol[-1])
        for t, d in track.samples:
            assert abs(d.area - track.initial_area * math.exp(t)) <= 1e-10 * d.area

    @pytest.mark.parametrize("name", sorted(FLOW_CASES))
    def test_sphere_data_from_the_newton_triples(self, name):
        # the samples carry the bits spheres computes at their radii
        make, rho0, t_max = FLOW_CASES[name]
        track = weak_imcf(make(), rho0, t_max, n_samples=40)
        fresh = make()
        want = spheres(fresh, [d.rho for _, d in track.samples])
        assert [d for _, d in track.samples] == want

    @pytest.mark.parametrize("make, rho0", [
        (flat, 1.0), (neck_metric, 3.0),
        (lambda: to_geodesic(schwarzschild(1.0)), 0.0)])
    def test_first_sample_at_the_hull(self, make, rho0, monkeypatch):
        # the t = 0 target is the hull's own area: the secant start is a
        # node of that area, accepted without a step.  On the converted
        # Schwarzschild metric a' = 0 at rho0 = 0, and the area stays at the
        # hull's to rounding up to the scan node the flow starts from.
        metric = make()
        seen = []
        triple = metric.profile.triple
        monkeypatch.setattr(metric.profile, "triple",
                            lambda rs: seen.append(rs.copy()) or triple(rs))
        rho_star, hull = outward_hull(make(), rho0)
        with np.errstate(all="raise"):
            track = weak_imcf(metric, rho0, 3.0, n_samples=20)
        t0, first = track.samples[0]
        assert t0 == 0.0 and first.area == hull
        if rho0 > 0.0:
            assert first.rho == rho_star
        else:
            assert first.rho < 1e-7 and first.mean_curvature == 0.0
        assert all(np.isfinite(rs).all() for rs in seen)
        assert all(math.isfinite(v) for _, d in track.samples
                   for v in vars(d).values())

    def test_iteration_cap_raises(self, monkeypatch):
        # the neck's critical points are searched at the default cap; short
        # of its jump, the Newton pass is the flow's only root solve
        metric = neck_metric()
        metric.critical_points()
        monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 1)
        with pytest.raises(NonConvergence,
                           match="Newton iteration .* did not converge"):
            weak_imcf(metric, 2.0, 0.5, n_samples=40)

    def test_tanh_step_flow_counts(self, monkeypatch):
        calls = {"find_root": 0, "newton_roots": 0, "triple": 0, "eval_d2": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        for name in ("find_root", "newton_roots"):
            monkeypatch.setattr(flow, name, counted(name, getattr(flow, name)))
        for name in ("triple", "eval_d2"):
            monkeypatch.setattr(FuncProfile, name,
                                counted(name, getattr(FuncProfile, name)))
        metric = tanh_step_mass_metric(1.0, 5.0, 1.0)
        track = weak_imcf(metric, 0.5, 6.0, n_samples=40)
        assert geroch_check(track).monotone
        assert calls["find_root"] == calls["newton_roots"] == 0
        assert calls["triple"] == 1  # the samples' sphere data
        assert calls["eval_d2"] <= 5


class TestGeroch:
    def test_schwarzschild_constant_mass(self):
        track = weak_imcf(schwarzschild(1.0), 2.0, 10.0, n_samples=100)
        rep = geroch_check(track)
        assert rep.monotone
        assert all(m == pytest.approx(1.0, abs=1e-9) for m in rep.masses)

    def test_generated_metric_monotone(self):
        M = tanh_step_mass_metric(1.0, 5.0, 1.0)
        rep = geroch_check(weak_imcf(M, 0.5, 7.0, n_samples=60))
        assert rep.monotone
        assert rep.masses[-1] > rep.masses[0]

    def test_neck_metric_not_monotone(self):
        # the neck profile has R < 0 regions, so monotonicity may fail
        rep = geroch_check(weak_imcf(neck_metric(), 2.0, 3.0, n_samples=60))
        assert not rep.monotone


class TestWillmore:
    def test_flat_limit(self):
        track = weak_imcf(flat(), 1.0, 10.0, n_samples=120)
        lim, err = willmore_limit(track)
        assert lim == pytest.approx(16 * math.pi, rel=1e-10)

    def test_schwarzschild_limit(self):
        track = weak_imcf(schwarzschild(1.0), 2.0, 20.0, n_samples=300)
        lim, err = willmore_limit(track)
        assert lim == pytest.approx(16 * math.pi, rel=1e-3)

    def test_insufficient_data(self):
        track = weak_imcf(flat(), 1.0, 1.0, n_samples=4)
        with pytest.raises(InsufficientData):
            willmore_limit(track)

    def test_tail_from_t0(self):
        # six samples, the fewest it takes, start at t = 0, where the
        # extrapolation in 1/t raised ZeroDivisionError
        track = weak_imcf(schwarzschild(1.0), 2.0, 1.0, n_samples=6)
        with pytest.raises(InsufficientData, match="must be positive"):
            willmore_limit(track)


class TestCsvExport:
    def test_columns_and_formatting(self):
        track = weak_imcf(schwarzschild(1.0), 2.0, 2.0, n_samples=5)
        buf = io.StringIO()
        flow_to_csv(track, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,rho,area,volume,H,m_H,willmore,R,jump_flag"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert len(first) == 9
        assert float(first[1]) == 2.0
        # machine precision round trip
        assert float(first[2]) == track.samples[0][1].area

    def test_jump_flag_marks_first_sample_after_jump(self):
        track = weak_imcf(neck_metric(), 2.0, 3.0, n_samples=40)
        buf = io.StringIO()
        flow_to_csv(track, buf)
        lines = buf.getvalue().splitlines()[1:]
        flags = [int(l.split(",")[-1]) for l in lines]
        assert sum(flags) == 1
        (jump,) = track.jumps
        ts = [float(l.split(",")[0]) for l in lines]
        marked = ts[flags.index(1)]
        assert marked >= jump.t
        assert marked - jump.t < ts[1] - ts[0] + 1e-12

    def test_deterministic(self):
        bufs = []
        for _ in range(2):
            track = weak_imcf(neck_metric(), 2.0, 3.0, n_samples=25)
            buf = io.StringIO()
            flow_to_csv(track, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


class TestArguments:
    def test_bad_tmax(self):
        with pytest.raises(DomainError):
            weak_imcf(flat(), 1.0, -1.0)

    @pytest.mark.parametrize("t_max, n_samples", [
        (0.0, 10), (math.nan, 10), (1.0, 0), (1.0, -3)])
    def test_bad_tmax_or_samples(self, t_max, n_samples):
        with pytest.raises(DomainError):
            weak_imcf(flat(), 1.0, t_max, n_samples=n_samples)

    def test_one_sample(self):
        track = weak_imcf(flat(), 1.0, 2.0, n_samples=1)
        assert [(t, d.rho) for t, d in track.samples] == [(0.0, 1.0)]
        assert track.events[-1].rho_end == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("make, rho0, t_max", [
        (flat, 1.0, 40.0),  # area 4pi e^40 lies past the cutoff radius 1e8
        (flat, 2e8, 1.0),   # rho0 past the cutoff radius
        (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0), 0.5, 40.0),
    ])
    def test_domain_ends_first(self, make, rho0, t_max):
        with pytest.raises(DomainError, match="domain ends"):
            weak_imcf(make(), rho0, t_max)
