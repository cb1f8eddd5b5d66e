import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isocap import flow, numerics


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


def _scan_read(metric, radii, cfg):
    """The hulls of strictly increasing radii read off one area scan from
    the innermost radius (``flow._outward_hulls`` below the scan limit,
    without its areal shortcut)."""
    metric.check_start(radii[0])
    limit = min(cfg.cutoff_radius, metric.r_max)
    if radii[0] >= limit:
        return [(r, metric.area(r)) for r in radii]
    grid, areas = flow._area_grid(metric, radii[0], limit)
    envelope = flow._suffix_min(areas)
    return [flow._read_hull(metric, grid, envelope, r, cfg) for r in radii]


@pytest.fixture
def scan_read():
    return _scan_read


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
