"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces the public functions of each isocap module,
every module-level binding of them (``from .numerics import integrate``
makes one in each importing module), and the ``eval_d2`` method of each
profile class with wrappers that record a span per call.  ``uninstall``
puts the originals back, so untraced runs execute the library unchanged.

A span is four doubles in one flat array: layer id, start, end, and the
index of the enclosing span (-1 at the root).  Spans stay in memory until
the run ends; ``write`` saves them with the layer names.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
from array import array

import numpy as np


# layer -> (module, attribute) for functions, (module, class, method) for methods
LAYERS = {
    "cli.main": [("cli", "main")],
    "masses.total_mass": [("masses", "total_mass")],
    "capacity.p_capacity": [("capacity", "p_capacity")],
    "capacity.one_capacity": [("capacity", "one_capacity")],
    "flow.weak_imcf": [("flow", "weak_imcf")],
    "flow.outward_hull": [("flow", "outward_hull")],
    "geometry.metric_build": [("geometry", f) for f in (
        "flat", "schwarzschild", "cylinder", "expr_metric", "table_metric",
        "scaled", "mass_profile_metric", "tanh_step_mass_metric",
        "metric_from_spec")],
    "geometry.to_geodesic": [("geometry", "to_geodesic")],
    "geometry.sphere_data": [("geometry", "sphere_data")],
    "geometry.area": [("geometry", "RadialMetric", "area")],
    "geometry.volume": [("geometry", "RadialMetric", "volume")],
    "profile.expr.eval_d2": [("geometry", "ExprProfile", "eval_d2")],
    "profile.func.eval_d2": [("geometry", "FuncProfile", "eval_d2")],
    "profile.converted.eval_d2": [("geometry", "_ConvertedProfile", "eval_d2")],
    "numerics.integrate": [("numerics", "integrate")],
    "numerics.find_root": [("numerics", "find_root")],
    "numerics.extrapolate_limit": [("numerics", "extrapolate_limit")],
}

ROOT = "op"  # the benchmark's own operation: one root span per operation


class Tracer:
    def __init__(self):
        self.names = [ROOT, *LAYERS]
        self.spans = array("d")
        self.raised = collections.Counter()  # (layer, exception class name)
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        layer = float(self.names.index(name))
        spans, stack, raised = self.spans, self._stack, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans) >> 2
            spans.extend((layer, clock(), 0.0, stack[-1] if stack else -1.0))
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                stack.pop()
                spans[4 * i + 2] = clock()
        return traced

    def install(self) -> None:
        owners = {t[0]: importlib.import_module(f"isocap.{t[0]}")
                  for targets in LAYERS.values() for t in targets}
        mods = [m for k, m in sys.modules.items()
                if k == "isocap" or k.startswith("isocap.")]
        for name, targets in LAYERS.items():
            for target in targets:
                owner = owners[target[0]]
                if len(target) == 3:
                    self._patch(getattr(owner, target[1]), target[2], name)
                    continue
                orig = getattr(owner, target[1])
                wrapper = self.wrap(name, orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, name, wrapper)

    def _patch(self, owner, attr, name, wrapper=None) -> None:
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper or self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def table(self) -> np.ndarray:
        """Spans as an (n, 4) array: layer id, start, end, parent index."""
        return np.frombuffer(self.spans, dtype=float).reshape(-1, 4)

    def layer_totals(self, op_speeds) -> dict:
        """Per layer: calls, self seconds; plus volume calls without a quadrature.

        Self time is a span's duration minus the durations of its child
        spans; children never overlap, as the run has one thread.  It is
        scaled by the speed factor of the operation the span belongs to.
        """
        t = self.table()
        layer = t[:, 0].astype(np.int64)
        parent = t[:, 3].astype(np.int64)
        dur = t[:, 2] - t[:, 1]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(t))
        op_of_span = np.cumsum(~nested) - 1
        scaled = (dur - covered) * np.asarray(op_speeds)[op_of_span]
        n = len(self.names)
        calls = np.bincount(layer, minlength=n)
        self_s = np.bincount(layer, weights=scaled, minlength=n)
        quad_parent = np.zeros(len(t), dtype=bool)
        quad_parent[parent[(layer == self.names.index("numerics.integrate"))
                           & nested]] = True
        volume = layer == self.names.index("geometry.volume")
        return {
            "calls": dict(zip(self.names, calls.tolist())),
            "self_s": dict(zip(self.names, self_s.tolist())),
            "volume_hits": int(np.count_nonzero(volume & ~quad_parent)),
        }

    def write(self, path) -> None:
        np.savez(path, spans=self.table(), names=np.array(self.names))
