import sys

import numpy as np
import pytest


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
