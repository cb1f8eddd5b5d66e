import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isocap import geometry, numerics
from isocap.capacity import _DENSITY_REL, _offsets, _tail_past, _variable
from isocap.errors import DomainError, NonConvergence
from isocap.flow import Jump
from isocap.geometry import Gauge
from isocap.specfun import check_p


def pytest_terminal_summary(terminalreporter):
    # surface the one-line acceptance criterion results in every run,
    # regardless of capture mode
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def schwarzschild_csv(tmp_path_factory):
    """Areal Schwarzschild f = 1 - 2/r (m = 1) tabulated on [2, 1e6]."""
    path = tmp_path_factory.mktemp("tables") / "schwarzschild.csv"
    radii = np.geomspace(2.0, 1e6, 2000)
    rows = "".join(f"{r!r},{1.0 - 2.0 / r!r}\n" for r in radii.tolist())
    path.write_text("r,f\n" + rows)
    return str(path)


@pytest.fixture(scope="session")
def table_400(tmp_path_factory):
    """Areal Schwarzschild f = 1 - 2/r (m = 1) tabulated in 400 rows."""
    path = tmp_path_factory.mktemp("tables") / "schwarzschild_400.csv"
    radii = np.geomspace(2.0, 1e6, 400)
    path.write_text("r,f\n" + "".join(f"{r!r},{1.0 - 2.0 / r!r}\n"
                                       for r in radii.tolist()))
    return str(path)


# The reference hull scan: the area on 8192 geometric nodes from the first
# radius to the scan limit, read through its suffix minimum, the least area
# still reachable outward from each node.  Hulls, necks and jumps read off
# it check the critical-point reads of ``flow``.
SCAN_POINTS = 8192


def _scan_grid(metric, lo, cfg=numerics.DEFAULT_CFG):
    """The scan's nodes from lo and the areas there."""
    hi = min(cfg.cutoff_radius, metric.r_max)
    grid = np.geomspace(max(lo, 1e-12), hi, SCAN_POINTS)
    grid[0] = lo
    return grid, metric.area(grid)


def _suffix_min(areas):
    return np.minimum.accumulate(areas[::-1])[::-1]


def _area_slope(metric, x):
    if metric.gauge is Gauge.GEODESIC:
        return math.prod(metric.profile.eval_d2(x)[:2])
    return x


def _refine_min(metric, lo, hi, cfg):
    """(rho, area) of the least area on [lo, hi] about a neck bottom: the
    root of the area's slope where it rises through 0, a slope of 0
    counting as falling, so that a plateau gives its outer end; else the
    end of smaller area."""
    s_lo, s_hi = _area_slope(metric, lo), _area_slope(metric, hi)
    x = (numerics.find_root(lambda r: _area_slope(metric, r) or -1.0, lo, hi, cfg)
         if s_lo <= 0.0 < s_hi else min((lo, hi), key=metric.area))
    return x, metric.area(x)


def _read_hull(metric, grid, envelope, r, cfg):
    j = int(np.searchsorted(grid, r, side="right"))  # first node past r
    base = metric.area(r)
    level = min(base, envelope[min(j, len(grid) - 1)]) * (1.0 + 1e-9)
    # the outermost node within level is the last one the envelope admits
    i = int(np.searchsorted(envelope, level, side="right")) - 1
    if i >= j:  # a node past r comes within level: refine the dip there
        dip = _refine_min(metric, max(float(grid[i - 1]), r),
                          float(grid[min(i + 1, len(grid) - 1)]), cfg)
        if dip[1] < base * (1.0 - 1e-12):
            return dip
    return r, base


def _scan_read(metric, radii, cfg=numerics.DEFAULT_CFG):
    """The hulls of strictly increasing radii read off one scan from the
    innermost radius (every radius at or past the scan limit is its own)."""
    metric.check_start(radii[0])
    limit = min(cfg.cutoff_radius, metric.r_max)
    if radii[0] >= limit:
        return [(r, metric.area(r)) for r in radii]
    grid, areas = _scan_grid(metric, radii[0], cfg)
    envelope = _suffix_min(areas)
    return [_read_hull(metric, grid, envelope, r, cfg) for r in radii]


def _scan_jumps(metric, rho0, t_max, cfg=numerics.DEFAULT_CFG):
    """The jumps of a flow from rho0 up to t_max, node by node on the scan
    from its hull: each run of nodes above the suffix minimum is skipped;
    the flow lands on the neck bottom past the run's last node and leaves
    where the area first reaches the landing's, before the run."""
    rho_star, hull_area = _scan_read(metric, [rho0], cfg)[0]
    grid, areas = _scan_grid(metric, rho_star, cfg)
    skipped = areas > _suffix_min(areas) * (1.0 + 1e-10)
    jumps, n, i = [], len(grid), 0
    while i < n:
        if not skipped[i]:
            i += 1
            continue
        j = i
        while j < n and skipped[j]:
            j += 1
        s2, area_j = _refine_min(metric, float(grid[j - 1]),
                                 float(grid[min(j + 1, n - 1)]), cfg)
        t_j = math.log(area_j / hull_area)
        if 0.0 < t_j <= t_max:
            s1 = numerics.find_root(lambda r: metric.area(r) - area_j,
                                    float(grid[max(i - 2, 0)]),
                                    float(grid[i]), cfg)
            jumps.append(Jump(t=t_j, rho_before=s1, rho_after=s2))
        i = j
    return jumps


@pytest.fixture
def scan_grid():
    return _scan_grid


@pytest.fixture
def scan_read():
    return _scan_read


@pytest.fixture
def scan_jumps():
    return _scan_jumps


@pytest.fixture
def searches(monkeypatch):
    """The metrics whose critical points are searched, one entry per
    search (``RadialMetric.critical_points`` caches each)."""
    calls = []
    search = geometry._area_probes
    monkeypatch.setattr(geometry, "_area_probes",
                        lambda metric, cfg: calls.append(metric) or
                        search(metric, cfg))
    return calls


@pytest.fixture
def refined(monkeypatch):
    """The panels sent to the adaptive refinement, ``numerics._refine``:
    one list per call, of (rows refined, lo, hi) per panel."""
    calls = []
    core = numerics._refine

    def spy(density, lo, hi, scale, cfg, rows=None):
        marked = np.ones(scale.shape, dtype=bool) if rows is None else rows
        calls.append([(tuple(np.flatnonzero(m).tolist()), a, b)
                      for m, a, b in zip(marked.T, lo.tolist(), hi.tolist())])
        return core(density, lo, hi, scale, cfg, rows)
    monkeypatch.setattr(numerics, "_refine", spy)
    return calls


def _run_isolated(code, timeout=120):
    """Run python code in a fresh interpreter that imports isocap from src;
    its standard output.  Fails on a non-zero exit, and on a run past
    timeout seconds, which kills the interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def run_isolated():
    return _run_isolated


def _reference_capacity_tails(metric, radii, ps, cfg):
    """The capacity tails gap by gap and p group by p group: the probes
    first, by themselves, then one ``numerics.gauss_legendre_err`` call per
    group of live p's with equal panels, which samples its own nodes.
    ``capacity._capacity_tails`` must give the same bits and raise the same
    errors."""
    for p in ps:
        check_p(p)
    if not ps:
        return []
    radii = np.asarray(radii, dtype=float)
    metric.check_start(radii[0])
    areas = np.asarray(metric.area(radii), dtype=float)
    if np.any(areas == 0.0):
        raise DomainError(f"sphere at rho={radii[areas == 0.0][0]} has zero area")
    lo, n = float(radii[-1]), len(radii)
    big = min(max(cfg.cutoff_radius, 100.0 * lo), 0.999 * metric.r_max)
    if big <= lo or big / 4.0 < metric.domain_start:
        raise DomainError(f"metric domain [{metric.domain_start}, "
                          f"{metric.r_max}] too short for capacity")
    c, t_of, at = _variable(metric, float(radii[0]))
    overflow = "I_{} rescaled by the area of an inner radius overflows"

    def density(t, group):
        s, dl_dt, ds_dt = at(t)
        k = np.searchsorted(radii, s, side="right") - 1
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = metric.area(s) / areas[k]
            out = np.stack([ratio ** (-1.0 / (p - 1.0)) * dl_dt for p in group])
        for p, ok in zip(group, np.isfinite(out).all(axis=1)):
            if not ok:
                raise NonConvergence(overflow.format(p))
        return out, ds_dt

    near = max(big / 10.0, lo)
    y = np.log(np.add([big, big / 2.0, big / 4.0, near], c))
    probe, ds_dt = density(t_of(y), ps)
    probe = (probe / ds_dt).tolist()
    out = [(areas, np.full(n, math.inf), np.zeros(n))] * len(ps)
    live = [i for i, (g_big, _, _, g_near) in enumerate(probe) if not (
        g_big > 0.0 and g_near > 0.0 and math.log(g_near / g_big)
        <= (1.0 + 4.3e-4) * math.log(big / near))]
    if not live:
        return out
    if radii[0] + c <= 0.0:
        raise DomainError(f"capacity of the sphere at rho={radii[0]} needs rho > 0")
    ends = np.log(np.append(radii, big) + c)
    span = float(np.diff(ends).max())
    groups = {}
    for i in live:
        offsets = _offsets((3.0 - ps[i]) / (ps[i] - 1.0), span)
        groups.setdefault(offsets.tobytes(), (offsets, []))[1].append(i)
    for offsets, members in groups.values():
        lead = np.concatenate((offsets[:1] / 16.0, offsets[:1] / 4.0, offsets))
        edges, gap = [], []
        for k in range(n):
            inner = lead if k == 0 else offsets
            inner = ends[k] + inner[inner < (ends[k + 1] - ends[k]) * (1.0 - 1e-9)]
            edges.append(t_of(np.concatenate(([ends[k]], inner, [ends[k + 1]]))))
            gap.append(np.full(inner.size + 1, k))
        gap = np.concatenate(gap)
        group = [ps[i] for i in members]
        sums, errs = numerics.gauss_legendre_err(
            lambda t: density(t, group)[0], np.concatenate([e[:-1] for e in edges]),
            np.concatenate([e[1:] for e in edges]), cfg, gap)
        for i, p, row, row_err in zip(members, group, sums, errs):
            q, q1 = 2.0 / (p - 1.0), (3.0 - p) / (p - 1.0)
            inc = np.bincount(gap, weights=row, minlength=n)
            inc_err = np.bincount(gap, weights=row_err + _DENSITY_REL * np.abs(row),
                                  minlength=n)
            tail, tail_err = _tail_past(probe[i][:3], big, q, q1)
            with np.errstate(over="ignore"):
                carry = (areas[1:] / areas[:-1]) ** (-1.0 / (p - 1.0))
            if not np.all(np.isfinite(carry)):
                raise NonConvergence(overflow.format(p))
            tails, errs_out = np.empty(n), np.empty(n)
            tails[-1], errs_out[-1] = inc[-1] + tail, inc_err[-1] + tail_err
            for k in range(n - 2, -1, -1):
                tails[k] = inc[k] + carry[k] * tails[k + 1]
                errs_out[k] = inc_err[k] + carry[k] * errs_out[k + 1]
            out[i] = (areas, tails, errs_out)
    return out


@pytest.fixture
def reference_capacity_tails():
    return _reference_capacity_tails
