"""One workload process of the isocap benchmark; ``run.py`` starts it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Imports isocap from ``src/`` of the checkout, builds the seeded input pool,
runs one untimed warm-up operation and then a closed loop: one client, one
thread, each operation starting when the previous one ends.  With
``--seconds 0`` it stops after the warm-up, which samples set-up time.
With ``--trace 1`` it runs the same fixed list of operations untraced and
then traced.  The last line of its standard output is one JSON object.

Machine speed: on a shared VM the same operation runs up to about twice as
slow while a neighbour loads the core, in episodes from under a second to
over half a minute.  So a fixed pure-Python reference loop runs between
operations, and each operation gets the speed factor REFERENCE_S / (mean of
the loop times just before and just after it).  Time multiplied by that
factor estimates the time on an uncontended core; the reference loop is
benchmark code, so no change to isocap moves it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
TRACE_OPS_CAP = 16
# reference_loop_s() on an uncontended core of the 2-vCPU Xeon VM
# (Python 3.11) this benchmark was defined on: the fastest value observed.
REFERENCE_S = 0.57e-3


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "isocap", "__init__.py")):
        sys.exit(f"worker: no isocap sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import isocap

    if os.path.dirname(os.path.dirname(os.path.abspath(isocap.__file__))) != SRC:
        sys.exit(f"worker: isocap imported from {isocap.__file__}, not {SRC}")


class _Dual:
    """Value with first and second derivative, as in a profile evaluation."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    def __add__(self, o):
        return _Dual(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __mul__(self, o):
        return _Dual(self.v * o.v, self.d1 * o.v + self.v * o.d1,
                     self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)


def reference_loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds.

    The loop mixes float arithmetic with dictionary stores and with small
    object allocation and dunder dispatch, like the library's scalar
    profile code.  Under contention the arithmetic part alone slowed about
    10% less than the mass and gauge workloads, the dual-number part alone
    a few percent more than them and more than the flow workload; the mix
    sits between.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, slots = 0.0, {}
        for i in range(1500):
            x = (i * 0.37) % 1.3
            acc += x * x / (1.0 + x)
            slots[i & 63] = acc
        dual, half = _Dual(0.0), _Dual(0.5)
        for i in range(200):
            r = _Dual(1.0 + 0.01 * i, 1.0)
            dual = dual + r * r * half
        best = min(best, time.perf_counter() - t0)
    return best


def _timed(inputs, op, seconds=math.inf):
    """Run op on each input, stopping once ``seconds`` have passed.

    Returns the seconds of each operation, its speed factor and the
    failure messages.
    """
    times, speeds, failures = [], [], []
    t_start = time.perf_counter()
    k_before = reference_loop_s()
    for inp in inputs:
        if time.perf_counter() - t_start >= seconds:
            break
        t0 = time.perf_counter()
        try:
            op(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        k_after = reference_loop_s()
        speeds.append(2.0 * REFERENCE_S / (k_before + k_after))
        k_before = k_after
    return times, speeds, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    pool = workloads.make_pool(workload, args.seed)
    _, _, failures = _timed(pool[:1], workload.run)  # warm-up
    result = {"ready_at": time.monotonic(), "warmup_failures": failures}

    if args.seconds > 0 and not args.trace:
        times, speeds, failures = _timed(
            itertools.cycle(pool), workload.run, args.seconds)
        result.update(times=times, speeds=speeds, failures=failures)
    elif args.seconds > 0:
        import tracing

        # A fixed number of operations, sized from --seconds alone, so that
        # two traced runs with one seed count exactly the same calls.  The
        # cap bounds the spans held in memory (about 100k per operation).
        n = min(TRACE_OPS_CAP,
                max(2, math.ceil(args.seconds / workload.traced_pair_s)))
        inputs = [pool[i % len(pool)] for i in range(n)]
        times, speeds, failures = _timed(inputs, workload.run)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_speeds, traced_failures = _timed(
                inputs, tracer.wrap(tracing.ROOT, workload.run))
        finally:
            tracer.uninstall()
        os.makedirs(os.path.join(REPO, ".bench_out"), exist_ok=True)
        trace_path = os.path.join(
            REPO, ".bench_out", f"trace-{workload.name}-{args.seed}.npz")
        tracer.write(trace_path)
        result.update(times=times, speeds=speeds,
                      traced_times=traced, traced_speeds=traced_speeds,
                      failures=failures + traced_failures,
                      layers=tracer.layer_totals(traced_speeds),
                      integrate_fails=tracer.raised[
                          "numerics.integrate", "NonConvergence"],
                      trace_path=os.path.relpath(trace_path, REPO))

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
