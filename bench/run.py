"""homcert benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload {elim,certify,cli} --seed N --seconds S --trace {0,1}

Set-up imports homcert from this checkout's src/, builds the workload's
inputs from the seed and writes its documents; it is repeated five
times and `setup_s` is the median.  Then the workload runs round after
round of cases, the next case starting when the previous one ended,
until S seconds have passed, at least MIN_CASES cases ran and the first
EXACT_ROUNDS rounds are complete.  Only the call under test is timed;
every result is checked independently (checks.py) outside the timed
region.  `out_bytes` (and the printed `out_max_bits`) are exact counts
over the first EXACT_ROUNDS rounds, whose inputs depend only on the seed.

Timings are scaled to a nominal machine speed (see Speed), so that the
drift of a shared machine does not read as a change of the program; the
raw figures are printed above the result line.

With --trace 1 the first EXACT_ROUNDS rounds run once untraced and once
with spans around every layer; the per-layer metrics come from the
traced pass (spans.py) and the spans are written as JSON lines under
.bench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
MIN_CASES = 100
EXACT_ROUNDS = {"elim": 60, "certify": 10, "cli": 1}
# stop starting rounds after this long even if MIN_CASES is not reached
HARD_STOP_S = 150.0
MODULES = ("rings", "verdicts", "samplers") + LAYERS
# Speed's reference loop on a quiet 2-vCPU x86-64 VM (2.1 GHz), CPython 3.11
REF_NOMINAL_S = 133e-6
SPEED_SAMPLE_S = 0.1


class Speed:
    """How much slower than nominal the machine runs at the moment.

    On a shared machine the same work takes 20-40% longer for seconds to
    minutes at a time, which no run length averages away.  A fixed loop
    of the benchmark's own integer and container code (never homcert's)
    is timed at most SPEED_SAMPLE_S apart, between cases; `factor` is its
    best of three over REF_NOMINAL_S, and each timing is divided by it.
    """

    def __init__(self):
        rng = random.Random(0)
        self.m = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(8)]
        self.b = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(10)]
        self.big = [rng.getrandbits(2000) for _ in range(8)]
        self.factor = 1.0
        self.factors: list[float] = []
        self.at = float("-inf")

    def _reference(self) -> float:
        t0 = time.perf_counter()
        checks.rank_mod(self.m, 7)
        checks.mul(self.m, self.b, 10, 6, None)
        {tuple(row): i for i, row in enumerate(self.m)}
        p = 1
        for x in self.big:
            p = p * x % self.big[0]
        return time.perf_counter() - t0

    def sample(self):
        self.factor = min(self._reference() for _ in range(3)) / REF_NOMINAL_S
        self.factors.append(self.factor)
        self.at = time.perf_counter()

    def refresh(self):
        if time.perf_counter() - self.at >= SPEED_SAMPLE_S:
            self.sample()


def import_homcert() -> SimpleNamespace:
    """A fresh import of every homcert module from ROOT/src."""
    for name in [n for n in sys.modules if n == "homcert" or n.startswith("homcert.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("homcert")
    src = (ROOT / "src").resolve()
    if src not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"homcert was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"homcert.{m}") for m in MODULES})


class Tally:
    def __init__(self):
        self.latencies: list[float] = []  # at nominal speed
        self.raw_s = 0.0
        self.failures: list[tuple[str, str]] = []
        self.out_bytes = 0
        self.out_max_bits = 0
        self.exit_mismatch = 0

    def run(self, case, speed: Speed, exact: bool, tracer: Tracer | None = None) -> float:
        """Run, time and check one case; returns its time at nominal speed."""
        speed.refresh()
        if tracer is not None:
            tracer.paused = False
        t0 = time.perf_counter()
        try:
            result = case.run()
            error = None
        except Exception as exc:  # a raising case is a failed case
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.paused = True
        if error is None:
            try:
                error = case.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and exact:
            error = self._count_documents(case, result)
        if error is not None:
            self.failures.append((case.kind, error))
        if case.exit_expected is not None and (result is None or result[0] != case.exit_expected):
            self.exit_mismatch += 1
        self.raw_s += dt
        self.latencies.append(dt / speed.factor)
        return self.latencies[-1]

    def _count_documents(self, case, result) -> str | None:
        try:
            texts = case.documents(result)
        except Exception as exc:
            return f"emitting raised {type(exc).__name__}: {exc}"
        for text in texts:
            self.out_bytes += len(text.encode())
            self.out_max_bits = max(self.out_max_bits, checks.max_bits(json.loads(text)))
        return None


def measure(wl, speed: Speed, seconds: float, min_cases: int) -> tuple[Tally, list[float]]:
    tally = Tally()
    round_rates = []
    exact = EXACT_ROUNDS[wl.name]
    start = time.perf_counter()
    r = 0
    while True:
        cases = wl.round(r)
        busy = sum(tally.run(case, speed, r < exact) for case in cases)
        round_rates.append(len(cases) / busy)
        r += 1
        elapsed = time.perf_counter() - start
        if r >= exact and ((elapsed >= seconds and len(tally.latencies) >= min_cases)
                           or elapsed >= HARD_STOP_S):
            return tally, round_rates


def end_to_end(tally: Tally, round_rates, setup_s: float) -> dict:
    lat_ms = sorted(1000 * x for x in tally.latencies)
    q = statistics.quantiles(lat_ms, n=100, method="inclusive") if len(lat_ms) > 1 \
        else [lat_ms[0]] * 99
    return {
        "setup_s": (setup_s, "s"),
        "throughput_cases_per_s": (statistics.median(round_rates), "1/s"),
        "case_p50_ms": (q[49], "ms"),
        "case_p90_ms": (q[89], "ms"),
        "out_bytes": (tally.out_bytes, "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(wl, hc, speed: Speed, out_dir: Path, seed: int) -> tuple[Tally, dict]:
    rounds = range(EXACT_ROUNDS[wl.name])
    plain = Tally()
    for r in rounds:
        for case in wl.round(r):
            plain.run(case, speed, False)
    tracer = Tracer({m: getattr(hc, m) for m in LAYERS})
    tally = Tally()
    t0 = time.perf_counter()
    tracer.install()
    try:
        for r in rounds:
            for case in wl.round(r):
                tally.run(case, speed, True, tracer)
    finally:
        tracer.uninstall()
    tally.failures += plain.failures
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{wl.name}-seed{seed}.jsonl", t0)
    metrics = tracer.metrics()
    metrics["cli.exit_mismatch"] = (tally.exit_mismatch, "count")
    metrics["results.out_max_bits"] = (tally.out_max_bits, "bits")
    metrics["trace.overhead_ratio"] = (sum(tally.latencies) / sum(plain.latencies), "ratio")
    return tally, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs and no time budget; for the self-test")
    args = p.parse_args(argv)
    # integer kernels over Z reach thousands of digits; let json write them
    sys.set_int_max_str_digits(0)

    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    speed = Speed()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            speed.sample()
            t0 = time.perf_counter()
            hc = import_homcert()
            wl = WORKLOADS[args.workload](hc, args.seed, workdir, args.tiny)
            setups.append((time.perf_counter() - t0) / speed.factor)
        if args.trace:
            tally, metrics = traced(wl, hc, speed, ROOT / ".bench_out", args.seed)
        else:
            tally, rates = measure(wl, speed, 0.0 if args.tiny else args.seconds,
                                   1 if args.tiny else MIN_CASES)
            metrics = end_to_end(tally, rates, statistics.median(setups))
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the {args.workload} workload: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(tally.latencies)
    failed = len(tally.failures)
    for kind, error in tally.failures[:20]:
        print(f"FAILED {kind}: {error}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} cases, {failed} failed")
    extra = {
        "fail_ratio": (failed / attempted, "ratio"),
        "out_max_bits": (tally.out_max_bits, "bits"),
        "raw_throughput_cases_per_s": (attempted / tally.raw_s, "1/s"),
        "speed_factor_median": (statistics.median(speed.factors), "ratio"),
    }
    for name, (value, unit) in {**extra, **metrics}.items():
        print(f"  {name:36s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
