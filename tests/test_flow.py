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
from isocap.flow import (_SCAN_POINTS, Jump, SmoothSegment, _outward_hulls,
                         flow_to_csv, geroch_check, outward_hull, weak_imcf,
                         willmore_limit)
from isocap.geometry import (FuncProfile, Gauge, RadialMetric, expr_metric,
                             flat, mass_profile_metric, metric_from_spec,
                             scaled, schwarzschild, spheres, table_metric,
                             tanh_step_mass_metric, to_geodesic)
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


def _between_nodes(metric, lo, k):
    """Midpoint of nodes k and k+1 of the hull scan that starts at lo."""
    hi = min(DEFAULT_CFG.cutoff_radius, metric.r_max)
    nodes = np.geomspace(lo, hi, _SCAN_POINTS)
    return float(0.5 * (nodes[k] + nodes[k + 1]))


class TestMultiRadiusHull:
    """One scan for many radii against one scan per radius."""

    @pytest.mark.parametrize("make,radii,k", [
        (flat, [0.5, 1.0, 3.7, 10.0, 1e7], 700),
        (lambda: schwarzschild(1.0), [2.0, 2.5, 10.0, 100.0], 300),
        (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0),
         [0.5, 1.0, 4.0, 6.0, 20.0], 2500),
    ])
    def test_growing_area_bit_identical(self, make, radii, k):
        metric = make()
        radii = sorted(radii + [_between_nodes(metric, radii[0], k)])
        assert _outward_hulls(metric, radii, DEFAULT_CFG) == [
            outward_hull(metric, r) for r in radii]

    def test_neck(self):
        # inside the bump, across it, in the dip (one radius between scan
        # nodes) and past it
        metric = neck_metric()
        radii = sorted([0.5, 1.0, 2.0, 2.9, 3.0, 3.3, 3.5, 3.7, 4.0, 10.0,
                        _between_nodes(metric, 0.5, 846)])
        hulls = _outward_hulls(metric, radii, DEFAULT_CFG)
        assert any(rho != r for r, (rho, _) in zip(radii, hulls))
        for r, (rho, area) in zip(radii, hulls):
            rho1, area1 = outward_hull(metric, r)
            assert rho == pytest.approx(rho1, abs=1e-8)
            assert area == pytest.approx(area1, rel=1e-12)

    def test_below_domain(self):
        with pytest.raises(DomainError):
            _outward_hulls(schwarzschild(1.0), [1.5, 3.0], DEFAULT_CFG)


def _hex(hulls):
    return [(float(rho).hex(), float(area).hex()) for rho, area in hulls]


class TestArealHull:
    """A sphere whose area cannot fall (an areal sphere at r >= 0, a
    generated metric, a conversion from r_min >= 0, scaled copies) is its
    own hull: no scan, and the bits of the scan read."""

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

    def radii(self, metric, first):
        """The domain start (or first), a radius between scan nodes, one
        just below the scan limit and two at or past it: an areal area
        needs no profile there, a geodesic profile ends just past it."""
        limit = min(DEFAULT_CFG.cutoff_radius, metric.r_max)
        nodes = flow._area_grid(metric, first, limit)[0]
        past = (2.0 * limit if metric.gauge is Gauge.AREAL
                else float(np.nextafter(limit, math.inf)))
        return [first, float(0.5 * (nodes[1234] + nodes[1235])),
                float(np.nextafter(limit, 0.0)), limit, past]

    @pytest.mark.parametrize("name", [*METRICS, "table"])
    def test_bits_of_the_scan_read(self, name, table_400, scan_read,
                                   monkeypatch):
        make = self.METRICS.get(name, lambda: table_metric(Gauge.AREAL, table_400))
        metric, area_grid = make(), flow._area_grid
        firsts = [metric.domain_start]
        if name == "from-zero":
            firsts.append(-1e-13)  # below 0 within the start slack: scanned
        for first in firsts:
            radii = self.radii(metric, first)
            want = scan_read(metric, radii, DEFAULT_CFG)
            assert [rho for rho, _ in want] == radii  # nothing dips
            singles = [scan_read(metric, [r], DEFAULT_CFG)[0]
                       for r in radii if r < radii[-2]]
            scans = []
            with monkeypatch.context() as mp:
                mp.setattr(flow, "_area_grid",
                           lambda *a: scans.append(a[1]) or area_grid(*a))
                hulls = _outward_hulls(metric, radii, DEFAULT_CFG)
                lone = [outward_hull(metric, r) for r in radii[:-2]]
            assert _hex(hulls) == _hex(want)
            assert _hex(lone) == _hex(singles)
            # below 0 both the list and the lone first radius are scanned
            assert scans == ([] if first >= 0.0 else [first, first])

    def test_negative_start_scans(self, monkeypatch):
        # the area 4*pi*r^2 falls on [-1, 0]: the hull of r = -1 is the
        # point sphere at 0, found by the scan
        metric = expr_metric(Gauge.AREAL, "1", domain_start=-1.0)
        scans, area_grid = [], flow._area_grid
        monkeypatch.setattr(flow, "_area_grid",
                            lambda *a: scans.append(a[1]) or area_grid(*a))
        (rho, area), (rho2, area2) = _outward_hulls(metric, [-1.0, 2.0],
                                                    DEFAULT_CFG)
        assert scans == [-1.0]
        assert abs(rho) < 1e-6 and area < 1e-10
        assert (rho2, area2) == (2.0, 16.0 * math.pi)

    def test_converted_negative_start_scans(self, monkeypatch):
        # converted from r_min = -1, a = r falls to 0 at rho = 1: the hull
        # of rho = 0 is found by the scan
        metric = to_geodesic(expr_metric(Gauge.AREAL, "1", domain_start=-1.0))
        assert not metric.own_hull(0.0)
        scans, area_grid = [], flow._area_grid
        monkeypatch.setattr(flow, "_area_grid",
                            lambda *a: scans.append(a[1]) or area_grid(*a))
        (rho, area), = _outward_hulls(metric, [0.0], DEFAULT_CFG)
        assert scans == [0.0]
        assert abs(rho - 1.0) < 1e-6 and area < 1e-10

    def test_stalled_generated_flow_raises(self):
        # mu = rho outgrows a/2 near rho = 0.4: the warping stalls there,
        # and the flow's scan meets the stall
        metric = mass_profile_metric(lambda rho: (rho, 1.0), a0=1.0,
                                     rho_max=10.0)
        assert metric.own_hull(0.1)
        with pytest.raises(EvalError, match="stalls"):
            weak_imcf(metric, 0.1, 2.0, n_samples=10)


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
    @pytest.mark.parametrize("make, rho0, t_max", [
        (flat, 1.0, 3.0),
        (neck_metric, 3.0, 2.0),
        (lambda: expr_metric(Gauge.GEODESIC, FAR_NECK), 2.0, 5.0),
        (lambda: tanh_step_mass_metric(1.0, 5.0, 1.0), 0.5, 6.0),
    ])
    def test_one_area_scan_per_flow(self, monkeypatch, make, rho0, t_max):
        calls = []
        scan = flow._area_grid

        def counted(*a):
            grid, areas = scan(*a)
            calls.append((a[1], a[2], len(grid)))
            return grid, areas
        monkeypatch.setattr(flow, "_area_grid", counted)
        metric = make()
        weak_imcf(metric, rho0, t_max, n_samples=20)
        # a generated metric is its own hull: its one scan has 256 nodes
        points = (flow._OWN_HULL_POINTS if metric.label.startswith("masstep")
                  else _SCAN_POINTS)
        assert calls == [(rho0, min(DEFAULT_CFG.cutoff_radius, metric.r_max),
                          points)]


def find_jumps_loop(metric, grid, areas, hull_area, t_max, cfg):
    """Reference for ``_find_jumps``: the skipped runs found node by node."""
    envelope = flow._suffix_min(areas)
    skipped = areas > envelope * (1.0 + 1e-10)
    jumps, n, i = [], len(grid), 0
    while i < n:
        if not skipped[i]:
            i += 1
            continue
        j = i
        while j < n and skipped[j]:
            j += 1
        # the neck bottom: the root of the area's slope a*a' on the
        # bracket of the node before the run's end and the node after it
        s2 = flow.find_root(lambda r: math.prod(metric.profile.eval_d2(r)[:2]),
                            float(grid[j - 1]), float(grid[min(j + 1, n - 1)]),
                            cfg)
        area_j = metric.area(s2)
        t_j = math.log(area_j / hull_area)
        if 0.0 < t_j <= t_max:
            try:
                s1 = flow.find_root(lambda r: metric.area(r) - area_j,
                                    float(grid[max(i - 2, 0)]),
                                    float(grid[i]), cfg)
            except NoBracket:
                s1 = float(grid[i])
            jumps.append(Jump(t=t_j, rho_before=s1, rho_after=s2))
        i = j
    return jumps


class TestFindJumps:
    TWO_NECKS = "r + 1.5*exp(-4*(r-3)^2) + 3*exp(-2*(r-9)^2)"

    def scan(self, text, rho0):
        metric = expr_metric(Gauge.GEODESIC, text)
        rho_star, hull = outward_hull(metric, rho0)
        grid, areas = flow._area_grid(metric, rho_star, 40.0)
        return metric, grid, areas, hull

    @pytest.mark.parametrize("text, rho0, t_max, n_jumps", [
        (TWO_NECKS, 1.0, 6.0, 2), (TWO_NECKS, 1.0, 1.0, 0),
        (NECK, 2.0, 3.0, 1), ("r", 1.0, 3.0, 0)])
    def test_equal_to_node_loop(self, text, rho0, t_max, n_jumps):
        metric, grid, areas, hull = self.scan(text, rho0)
        got = flow._find_jumps(metric, grid, areas, flow._suffix_min(areas),
                               hull, t_max, DEFAULT_CFG)
        want = find_jumps_loop(metric, grid, areas, hull, t_max, DEFAULT_CFG)
        assert got == want
        assert len(got) == n_jumps

    def test_root_errors(self, monkeypatch):
        metric, grid, areas, hull = self.scan(NECK, 2.0)
        run = list(np.flatnonzero(areas > flow._suffix_min(areas) * (1 + 1e-10)))
        # the takeoff solve brackets the run's first node and the node two
        # before it; the neck bottom's solve goes through unpatched
        takeoff = (float(grid[max(run[0] - 2, 0)]), float(grid[run[0]]))
        find_root = flow.find_root

        def failing(error):
            def solve(f, lo, hi, cfg):
                if (lo, hi) == takeoff:
                    raise error
                return find_root(f, lo, hi, cfg)
            return solve
        monkeypatch.setattr(flow, "find_root",
                            failing(NoBracket("no sign change")))
        envelope = flow._suffix_min(areas)
        (jump,) = flow._find_jumps(metric, grid, areas, envelope, hull, 3.0,
                                   DEFAULT_CFG)
        assert jump.rho_before == grid[run[0]]
        assert jump.rho_after > grid[run[-1]]

        # a programming error is not a missing bracket
        monkeypatch.setattr(flow, "find_root", failing(ZeroDivisionError))
        with pytest.raises(ZeroDivisionError):
            flow._find_jumps(metric, grid, areas, envelope, hull, 3.0,
                             DEFAULT_CFG)


class TestSampleVolumes:
    def test_one_panel_call_for_all_samples(self, monkeypatch):
        M = tanh_step_mass_metric(1.0, 5.0, 1.0)
        calls = []
        rule = numerics.gauss_legendre
        monkeypatch.setattr(numerics, "gauss_legendre",
                            lambda *a: calls.append(a[1].size) or rule(*a))
        track = weak_imcf(M, 0.5, 6.0, n_samples=40)
        assert len(calls) == 1
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
    """A flow from its own hull against the same flow on the 8192-node hull
    scan, with the own-hull predicate patched off."""

    @pytest.mark.parametrize("name", ["converted", "scaled-tanh-step",
                                      "schwarzschild", "tanh-step"])
    def test_samples_match_the_hull_scan(self, name, monkeypatch):
        make, rho0, t_max = FLOW_CASES[name]
        sizes = []
        scan = flow._area_grid

        def counted(*a):
            grid, areas = scan(*a)
            sizes.append(len(grid))
            return grid, areas
        monkeypatch.setattr(flow, "_area_grid", counted)
        track = weak_imcf(make(), rho0, t_max, n_samples=40)
        monkeypatch.setattr(RadialMetric, "own_hull", lambda self, rho: False)
        ref = weak_imcf(make(), rho0, t_max, n_samples=40)
        assert sizes == [flow._OWN_HULL_POINTS, _SCAN_POINTS]
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
        monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 1)
        with pytest.raises(NonConvergence, match="did not converge"):
            weak_imcf(tanh_step_mass_metric(1.0, 5.0, 1.0), 0.5, 6.0,
                      n_samples=40)

    def test_tanh_step_flow_counts(self, monkeypatch):
        calls = {"find_root": 0, "triple": 0, "eval_d2": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(flow, "find_root",
                            counted("find_root", flow.find_root))
        for name in ("triple", "eval_d2"):
            monkeypatch.setattr(FuncProfile, name,
                                counted(name, getattr(FuncProfile, name)))
        metric = tanh_step_mass_metric(1.0, 5.0, 1.0)
        track = weak_imcf(metric, 0.5, 6.0, n_samples=40)
        assert geroch_check(track).monotone
        assert calls["find_root"] == 0
        assert 1 <= calls["triple"] <= 5
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
