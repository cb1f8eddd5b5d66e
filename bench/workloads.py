"""Seeded workloads of the isocap benchmark.

Each workload turns a seed into a fixed pool of inputs and runs one
operation per input.  An operation builds every metric it needs from
scratch, because ``RadialMetric`` caches volume anchors and a CLI user pays
that cost on every call; reusing a metric would time a warm cache nobody
gets.  Every operation checks its own outputs and raises ``CheckFailed``
when a check does not hold.

Library calls go through module attributes (``flow.weak_imcf``, not a name
bound at import), so that the traced mode sees them.

Why these three workloads:

* ``mass-exhaustion``: capacity, quadrature and extrapolation work plus CLI
  formatting.  Expression profiles are evaluated inside the quadratures.
  Area scans are cheap here (area is 4 pi r^2 in the areal gauge), and no
  dense ODE output is evaluated.
* ``flow-generated``: the area-scan and root-finding layer does the work,
  on a profile that is expensive to evaluate one point at a time (scipy
  dense ODE output).  Few quadratures, no expression evaluation.
* ``gauge-convert``: the same ``numerics.integrate`` as ``mass-exhaustion``,
  used differently: many short finite-interval quadratures nested inside
  each profile evaluation (Newton steps on the arclength) instead of a few
  semi-infinite tails.  The conversion set-up is paid on every operation.

Families left out: ``p_capacity`` and ``total_mass`` raise ``EvalError`` on
``table:`` metrics and on gauge-converted metrics, because
``capacity._tail_diverges`` integrates past ``r_max``.  An operation that
fails in its first quadrature measures no work, so those families join the
benchmark in the change that fixes the defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from isocap import cli, flow, geometry

POOL_SIZE = 128
FOUR_PI = 4.0 * math.pi


class CheckFailed(Exception):
    """An operation returned an output that fails its correctness check."""


class MassExhaustion:
    """``isocap mass`` on Reissner-Nordstrom slices, run in process.

    m in [0.5, 2], q/m in [0, 0.8] (one spec in four has q = 0, which is
    Schwarzschild), inner boundary at the outer horizon r_+.  Every
    extrapolated mass must lie within 5e-3*m of m, and a spec that was
    already run must print byte-identical output.
    """

    name = "mass-exhaustion"
    # seconds for one untraced plus one traced operation; sizes traced runs
    traced_pair_s = 0.4
    P_GRID = "1,1.5,2,2.5,iso"

    def __init__(self):
        self._outputs = {}

    def make_input(self, rng: random.Random):
        m = rng.uniform(0.5, 2.0)
        q = 0.0 if rng.random() < 0.25 else m * rng.uniform(0.0, 0.8)
        r_plus = m + math.sqrt(m * m - q * q)
        spec = (f"expr:areal:1-2*m/r+q^2/r^2:"
                f"m={m!r},q={q!r},r_min={r_plus!r}")
        return spec, m

    def run(self, inp) -> None:
        spec, m = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["mass", "--metric", spec, "--p-grid", self.P_GRID])
        if code != 0:
            raise CheckFailed(f"exit code {code} for {spec}")
        out = buf.getvalue()
        reports = json.loads(out)
        if len(reports) != len(self.P_GRID.split(",")):
            raise CheckFailed(f"{len(reports)} reports for {spec}")
        for rep in reports:
            lim = rep["extrapolated"]
            if isinstance(lim, str) or not abs(lim - m) <= 5e-3 * m:
                raise CheckFailed(f"p={rep['p']}: mass {lim} vs m={m}")
        first = self._outputs.setdefault(spec, out)
        if out != first:
            raise CheckFailed(f"output of {spec} differs between runs")


class FlowGenerated:
    """Weak IMCF plus the Geroch check on tanh-step generated metrics.

    mass in [0.3, 2], center in [2, 8], width in [0.5, 2.5], as acceptance
    criterion 5.  The Hawking mass must not drop by more than 1e-8, and
    every sample must obey the area law area = hull * e^t to 1e-10.
    """

    name = "flow-generated"
    traced_pair_s = 1.0

    def make_input(self, rng: random.Random):
        return (rng.uniform(0.3, 2.0), rng.uniform(2.0, 8.0),
                rng.uniform(0.5, 2.5))

    def run(self, inp) -> None:
        metric = geometry.tanh_step_mass_metric(*inp)
        track = flow.weak_imcf(metric, 0.5, 6.0, n_samples=40)
        rep = flow.geroch_check(track)
        if not rep.worst_drop <= 1e-8:
            raise CheckFailed(f"Hawking mass drops by {rep.worst_drop} for {inp}")
        hull = track.initial_area
        for t, d in track.samples:
            if not abs(d.area - hull * math.exp(t)) <= 1e-10 * d.area:
                raise CheckFailed(f"area law fails at t={t} for {inp}")


class GaugeConvert:
    """``to_geodesic(schwarzschild(m))`` then ``sphere_data`` at 20 radii.

    m in [0.5, 2]; geometric radii rho in [1e-2*m, 1e3*m].  The warping
    factor a(rho) = r must match the closed-form arclength
    rho(r) = sqrt(r(r-2m)) + 2m*log((sqrt(r)+sqrt(r-2m))/sqrt(2m)) to 1e-9
    relative, and the scalar curvature must vanish: |R|*r^2 <= 1e-8.
    """

    name = "gauge-convert"
    traced_pair_s = 0.6
    N_RADII = 20

    def make_input(self, rng: random.Random):
        return rng.uniform(0.5, 2.0)

    def run(self, m) -> None:
        metric = geometry.to_geodesic(geometry.schwarzschild(m))
        for k in range(self.N_RADII):
            rho = m * 1e-2 * 1e5 ** (k / (self.N_RADII - 1))
            d = geometry.sphere_data(metric, rho)
            r = math.sqrt(d.area / FOUR_PI)
            exact = (math.sqrt(r * (r - 2.0 * m)) + 2.0 * m * math.log(
                (math.sqrt(r) + math.sqrt(r - 2.0 * m)) / math.sqrt(2.0 * m)))
            if not abs(exact - rho) <= 1e-9 * rho:
                raise CheckFailed(f"arclength {exact} vs rho={rho}, m={m}")
            if not abs(d.scalar_curvature) * r * r <= 1e-8:
                raise CheckFailed(f"R={d.scalar_curvature} at rho={rho}, m={m}")


WORKLOADS = {w.name: w for w in (MassExhaustion, FlowGenerated, GaugeConvert)}


def make_pool(workload, seed: int) -> list:
    """The workload's inputs for this seed: the same seed gives the same pool."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make_input(rng) for _ in range(POOL_SIZE)]
