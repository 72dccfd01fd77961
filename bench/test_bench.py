"""Self-test of the benchmark, in tiny mode.

    python3 -m pytest bench/test_bench.py

Every workload runs twice untraced and twice traced with one seed.  Each
run must print every metric BENCHMARK.json names, with its unit, and no
failed case; the exact counts must agree between the two runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "bits", "bytes", "cells")


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in EXACT_UNITS or name.endswith("distinct_ratio")
            or name == "matrices.distinct_input_ratio"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_printed_and_repeatable(workload, trace, section):
    first, second = bench(workload, trace), bench(workload, trace)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    counts = exact(first["metrics"])
    assert counts, "no exact counts to compare"
    assert counts == exact(second["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    dst = tmp_path / "bench"
    dst.mkdir()
    for f in HERE.glob("*.py"):
        (dst / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
