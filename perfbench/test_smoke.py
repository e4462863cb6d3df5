"""Smoke test for the benchmark: every workload at a tiny size, in both
modes, plus the refusal without sources and the compare verdicts.

    python3 -m pytest perfbench/test_smoke.py

Takes about half a minute; the figures of ``--tiny`` runs mean nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKLOADS = workloads.NAMES


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int, seed: int = 7) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_declared_metric(workload, trace):
    result, _ = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        fits = result["metrics"]["importance.fit_forest.calls"]["value"]
        assert (fits == 0) == (workload == "baselines-long")


def test_same_seed_gives_same_digest():
    digests = [[ln for ln in tiny("baselines-long", 0, seed=3)[1] if ln.startswith("digest ")] for _ in range(2)]
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def result_set(wall: list[float]) -> dict:
    runs = [{"seed": i, "metrics": {"wall_s": w, "best_mean": -3.0}} for i, w in enumerate(wall)]
    return {"workloads": {"wrs-paper": {"digests": {str(i): "d" for i in range(len(wall))}, "runs": runs}}}


@pytest.mark.parametrize("new_wall, verdict, code", [
    ([2.0, 2.02, 1.98, 2.01], "unresolved", 0),
    ([3.0, 3.05, 2.95, 3.01], "worse", 1),
    ([1.0, 1.02, 0.98, 1.01], "better", 0),
])
def test_compare_reads_bounds(tmp_path, new_wall, verdict, code):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(result_set([2.0, 2.01, 1.99, 2.02])))
    new.write_text(json.dumps(result_set(new_wall)))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stdout + proc.stderr
    row = next(ln for ln in proc.stdout.splitlines() if ln.startswith("wrs-paper"))
    assert row.split()[1] == verdict
