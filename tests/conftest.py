import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isocap import geometry, numerics
from isocap.flow import Jump
from isocap.geometry import Gauge


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
    root of the area's slope where it rises through 0, else the end of
    smaller area."""
    s_lo, s_hi = _area_slope(metric, lo), _area_slope(metric, hi)
    x = (numerics.find_root(lambda r: _area_slope(metric, r), lo, hi, cfg)
         if s_lo < 0.0 < s_hi else min((lo, hi), key=metric.area))
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
