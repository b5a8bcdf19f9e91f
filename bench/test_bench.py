"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py

Each run must name every metric of BENCHMARK.json with its unit, check every
output without a failure, and, when traced twice with one seed, repeat every
count exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=3):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--min-ops", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(result)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    info, result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result["metrics"]) == spec_units("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["error_rate"] == 0
    assert info["numpy"] and info["python"] and info["nproc"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [run(workload, trace=1) for _ in range(2)]
    for info, result in runs:
        assert units(result["metrics"]) == spec_units("per_layer")
        assert result["correct"] and result["failed"] == 0
        assert info["counts_repeat"]
    counts = [
        {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"
         and k != "trace.overhead_ops_per_s"}
        for _, result in runs
    ]
    assert counts[0] == counts[1]


def test_refuses_without_library_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.iterdir():
        if f.is_file():
            (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""
