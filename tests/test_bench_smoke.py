"""Tier-1 smoke run of the benchmark harness.

Runs `bench/run.py --tiny` untraced on every workload, so a change that
breaks what the benchmark drives, or an output its independent checks
reject, fails the test suite and not only the benchmark.  One traced
tiny `cli` run checks that the tracer still finds the methods it wraps
by name (`BuildTree.evaluate`, `Mat.__post_init__`,
`Complex.__post_init__`), and one traced tiny `elim` run that it still
counts the `matrices` entry points and that no output entry outgrows
32 bits.  One traced tiny `certify` run checks that it still counts
the homology and solve entry points (`complexes.homology_data`,
`matrices.solve_right`) that the acceptance pipelines reach, so a
signature change the tracer cannot follow fails here.  The full
self-test of the harness is
`python3 -m pytest bench/test_bench.py`.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["elim", "certify", "cli"])
def test_bench_tiny_run_has_no_failed_case(workload):
    _tiny_run(workload, trace=0)


def test_bench_traced_tiny_cli_run_sees_the_wrapped_methods():
    metrics = _tiny_run("cli", trace=1)["metrics"]
    assert metrics["duality.evaluate_calls"]["value"] > 0
    assert metrics["matrices.mat_new"]["value"] > 0
    assert metrics["complexes.complex_new"]["value"] > 0


def test_bench_traced_tiny_elim_run_counts_the_matrices_entry_points():
    metrics = _tiny_run("elim", trace=1)["metrics"]
    for name in ("matrices.smith_calls", "matrices.colspan_calls", "matrices.kernel_calls"):
        assert metrics[name]["value"] > 0, name
    # Z kernels and solves stay near Hadamard's bound; an unreduced
    # unimodular transform read 113 bits here
    assert metrics["results.out_max_bits"]["value"] <= 32


def test_bench_traced_tiny_certify_run_counts_homology_and_solves():
    metrics = _tiny_run("certify", trace=1)["metrics"]
    assert metrics["complexes.homology_calls"]["value"] > 0
    assert metrics["matrices.solve_calls"]["value"] > 0
