"""Smoke test of the benchmark: every workload on a tiny pool.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout
    assert out["attempted"] >= 1
    return out


def check_metrics(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--pool", "2", "--trace", "0")
    out = result(proc)
    check_metrics(out["metrics"], SPEC["end_to_end"])
    assert out["metrics"]["setup_s"]["value"] > 0
    line = next(x for x in proc.stdout.splitlines() if x.startswith("outcomes "))
    outcomes = json.loads(line.split(" ", 1)[1])
    assert out["failed"] == 0
    assert outcomes["error_rate"] == 0
    if workload == "pair_construct":
        # the construct_psi crash is run after the window and counted, not raised
        line = next(x for x in proc.stdout.splitlines() if x.startswith("known defect"))
        assert sum(json.loads(line.split(": ", 2)[2]).values()) == 3, line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out = result(bench("--workload", workload, "--seed", "0", "--seconds", "0",
                       "--pool", "2", "--trace", "1"))
    check_metrics(out["metrics"], SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["report.bytes"] > 0
    assert metrics["instances.run_certification.self_ms"] > 0
    assert metrics["certify.vn_report.ms"] > 0
    assert metrics["inner.fiber.calls"] > 0
    if workload == "pair_construct":
        assert metrics["dilation.construct_psi.ms"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
