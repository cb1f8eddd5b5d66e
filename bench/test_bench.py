"""Checks of the benchmark itself: python3 -m pytest -q bench"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, kind):
    text, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[kind])
    printed = {line.split()[0]: line.split()[-1]
               for line in text.splitlines()[:-1] if line.startswith("  ")}
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    if trace == 0:
        assert "fail_frac: 0 " in text


def test_traced_call_counts_repeat_exactly():
    calls = []
    for _ in range(2):
        _, result = bench("gauge-convert", 1, seed=11, seconds=2)
        calls.append({k: v["value"] for k, v in result["metrics"].items()
                      if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert calls[0]["profile.expr.eval_d2.calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    """Only BENCHMARK.json and bench/ present: nonzero exit, no result line."""
    os.makedirs(tmp_path / "bench")
    for name in ("run.py", "worker.py", "workloads.py", "tracing.py"):
        with open(os.path.join(HERE, name)) as src, \
                open(tmp_path / "bench" / name, "w") as dst:
            dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
