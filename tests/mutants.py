"""The mutation gate: defects that the tests must catch, one edit each.

A mutant is a file, an old text that occurs exactly once in it, the new
text that puts a defect back, and the tests that must fail on it.

    python tests/mutants.py [name ...]

copies src/, tests/ and pyproject.toml to a temporary directory outside
the repository, applies each mutant (every one, or those named) to its
own copy and runs `pytest -x -q` on the mutant's tests there.  It exits
1 naming every mutant that survived, and 2 if a run could not tell.

The copy must sit outside the repository: pytest resolves the
`pythonpath = ["src"]` of the pyproject.toml it finds by walking up from
its rootdir, so a copy inside the tree would import the unmutated src/.
Each run therefore checks, inside pytest, that the module it imported
is the mutated file.  A tier-1 test (test_mutants.py) checks that each
old text still occurs exactly once: a change that rewrites mutated code
updates or retires the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments: files or node ids


COMPLEXES, MATRICES = "src/homcert/complexes.py", "src/homcert/matrices.py"
FLATNESS, GENERATOR = "src/homcert/flatness.py", "src/homcert/generator.py"
RINGS, VERDICTS = "src/homcert/rings.py", "src/homcert/verdicts.py"
EXHAUSTIVE = ("tests/test_exhaustive.py",)
TAILS = ("tests/test_complexes.py::test_a_passing_tail_asks_its_lowest_cycle_alone",
         "tests/test_complexes.py::test_a_failing_tail_names_its_lowest_cycle_as_every_cycle_did")
RESOLUTIONS = ("tests/test_generator.py::test_resolutions_pass_the_public_constructor",)
Z_REFERENCE = ("tests/test_matrices.py::test_z_spans_and_smith_invariants_match_the_list_core",)
REPLAY = ("tests/test_matrices.py::test_replayed_z_solves_equal_the_pass_over_a_and_b",)
KEPT_FORM = ("tests/test_matrices.py::"
             "test_a_kept_form_answers_the_span_and_smith_with_no_elimination",)
ZERO_SPAN = ("tests/test_matrices.py::test_a_zero_span_runs_no_elimination",)

MUTANTS = [
    # contraction: e^j = 1 - s^(j+1) d^j loses its s d term, or its sign
    Mutant("contraction_drops_sd", COMPLEXES,
           "e = Mat(c.ring, r, r, tuple(int(k % (r + 1) == 0) - x for k, x in enumerate(p)))",
           "e = Mat.identity(c.ring, r)", EXHAUSTIVE),
    Mutant("contraction_adds_sd", COMPLEXES,
           "tuple(int(k % (r + 1) == 0) - x for k, x in enumerate(p))",
           "tuple(int(k % (r + 1) == 0) + x for k, x in enumerate(p))", EXHAUSTIVE),
    # the contraction's lift stops one degree above the bottom of the support
    Mutant("contraction_stops_early", COMPLEXES,
           "for j in range(hi, lo - 1, -1):", "for j in range(hi, lo, -1):",
           ("tests/test_complexes.py::"
            "test_contraction_agrees_with_the_hom_solve_and_with_exactness",)),
    # the split check's sweep passes a degree that is not exact
    Mutant("sweep_skips_not_exact", COMPLEXES,
           "        if c.exactness(j)[1] is None:\n",
           "        if c.exactness(j)[1] is None and False:\n",
           EXHAUSTIVE),
    # a replayed Z solve forgets the pass's row swap, or its pivot row
    Mutant("replay_no_swap", MATRICES,
           "                v[t], v[p] = v[p], v[t]", "                pass", REPLAY),
    Mutant("replay_no_pivot_row", MATRICES,
           "            v[t] = vt\n", "", REPLAY),
    # a Z span lifts the rows off the profile with the wrong sign
    Mutant("span_lift_sign", MATRICES,
           "full[f] = sum(map(mul, coeffs, col)) // d",
           "full[f] = sum(map(mul, coeffs, col)) // -d", Z_REFERENCE),
    # a Z span runs the core mod 1, as if every lattice were saturated
    Mutant("span_modulus_one", MATRICES,
           "rho, c, ent = len(profile), A.cols, A.entries",
           "rho, c, ent, D = len(profile), A.cols, A.entries, 1", Z_REFERENCE),
    # a Z span reads a kept pass whose rank falls short of A's rows
    Mutant("span_reads_a_deficient_pass", MATRICES,
           "if z is not None and len(z[1]) == A.rows:", "if z is not None:", Z_REFERENCE),
    # the collapse refuses a narrow window on a bounded complex too
    Mutant("collapse_width_on_bounded", FLATNESS,
           "if not q.is_bounded and (width := window[1] - window[0])",
           "if (width := window[1] - window[0])",
           ("tests/test_flatness.py::test_pd_collapse_window_too_narrow",) + EXHAUSTIVE),
    # a passing quasi-isomorphism check claims every degree, whatever it read
    Mutant("hom_exact_not_window_relative", GENERATOR,
           'return Verdict(True, "hom_exact", {"window": window}, not covered)',
           'return Verdict(True, "hom_exact", {"window": window})',
           ("tests/test_generator.py::"
            "test_hom_exact_is_window_relative_unless_the_window_covers_every_degree",)),
    # a tail's split check asks its highest cycle, not its lowest
    Mutant("tail_asks_highest_cycle", COMPLEXES,
           "c.kernel(lo + 1)", "c.kernel(hi - 1)", TAILS),
    # a Kronecker product allocates its cells before the size check
    Mutant("kron_unchecked", MATRICES,
           '        check_cells(self.rows * p, c, "a Kronecker product")\n', "",
           ("tests/test_cli.py::"
            "test_split_check_refuses_a_projectivity_system_beyond_the_size_limit",)),
    # a zero span over Z/n and F_p runs the Hermite core
    Mutant("zero_span_eliminated_mod_n", MATRICES,
           "            if self.zero:  # every pivot is n (over Z, no column)\n"
           "                self.hnf = {}\n            elif",
           "            if", ZERO_SPAN),
    # Smith of a zero Z matrix runs the core mod 1 on no rows
    Mutant("zero_smith_eliminated", MATRICES,
           "for i in range(A.rows)]) if k else {}", "for i in range(A.rows)])", ZERO_SPAN),
    # a span read off the kept [A; I] skips the back-reduction, keeps the
    # I_c slots, or reads the kernel's pivots
    Mutant("kept_span_unreduced", MATRICES,
           "return _columns(_back_reduce(self.n, w, self.barrett, found, 0), w, r)",
           "return _columns(found, w, r)", KEPT_FORM),
    Mutant("kept_span_unmasked", MATRICES,
           "found = [p & (1 << w * (r - i)) - 1 for i, p in enumerate(self.pivots[:r])]",
           "found = self.pivots[:r]", KEPT_FORM),
    Mutant("kept_span_reads_the_kernel", MATRICES,
           "enumerate(self.pivots[:r])", "enumerate(self.pivots[r:])", KEPT_FORM),
    # a kernel mod n is kept with A's span in place of its own
    Mutant("kernel_seeds_a_wrong_span", MATRICES,
           "list(h.values()))).hnf = h", "list(h.values()))).hnf = kept.packed(A).span()",
           KEPT_FORM),
    # a bounded complex's sweep names its highest non-exact degree, or
    # sweeps only the window
    Mutant("bounded_sweep_names_highest", COMPLEXES,
           "degrees = range(lo, hi + 1)", "degrees = range(hi, lo - 1, -1)", EXHAUSTIVE),
    Mutant("bounded_sweep_reads_the_window", COMPLEXES,
           "lo, hi = c.support()  # not the zero complex: it is contractible",
           "lo, hi = max(c.support()[0], window[0] + 1), min(c.support()[1], window[1] - 1)",
           EXHAUSTIVE),
    # the collapse names the degree above the one that is not exact
    Mutant("collapse_not_exact_one_up", FLATNESS,
           '"not_exact", {"degree": inner.details["degree"]}',
           '"not_exact", {"degree": inner.details["degree"] + 1}', EXHAUSTIVE),
    # a periodic resolution's tail repeats one degree too many, or starts
    # one degree too low
    Mutant("resolve_period_too_long", GENERATOR,
           "len(seq) - 1 - seen[nxt])", "len(seq) - seen[nxt])", RESOLUTIONS),
    Mutant("resolve_threshold_too_low", GENERATOR,
           "PeriodicTail(-1, -(len(seq) - 1),", "PeriodicTail(-1, -len(seq),", RESOLUTIONS),
    # the quasi-isomorphism check truncates P* at a negative degree
    Mutant("qiso_top_unclamped", GENERATOR,
           "top = max(span[1] - lo + 2, 0)", "top = span[1] - lo + 2",
           ("tests/test_cli.py::test_check_qiso_above_every_hom_term_is_exact",)),
    # a kept elimination is published before its slots are set, so a
    # racing thread reads a _Kept without them
    Mutant("kept_published_early", MATRICES,
           "        self.zero = not any(A.entries)\n"
           "        self.kernel = self.hnf = self.form = self.z = None\n"
           "        object.__setattr__(A, \"_kept\", self)",
           "        object.__setattr__(A, \"_kept\", self)\n"
           "        self.zero = not any(A.entries)\n"
           "        self.kernel = self.hnf = self.form = self.z = None",
           ("tests/test_matrices.py::"
            "test_threads_that_race_on_one_matrix_get_the_answers_of_a_fresh_one",)),
    # a complex keeps each differential as asked, not an equal one kept
    # before, so equal differentials are eliminated once each
    Mutant("forms_keep_no_equal_matrix", COMPLEXES,
           "self._cache[key] = next((f for k, f in list(self._cache.items())\n"
           "                                     if k[0] == \"matrix\" and f == d), d)",
           "self._cache[key] = d",
           ("tests/test_complexes.py::test_checks_of_one_complex_share_its_eliminations",)),
    # threads sharing a complex scan its cache while another one fills it
    Mutant("forms_scan_the_live_cache", COMPLEXES,
           "for k, f in list(self._cache.items())", "for k, f in self._cache.items()",
           ("tests/test_complexes.py::"
            "test_threads_that_race_on_one_complex_get_the_answers_of_a_fresh_one",)),
    # a composite that fails a Miller-Rabin round is taken for a prime
    Mutant("composite_passes_a_failed_round", RINGS,
           "        else:\n            return False\n", "        else:\n            continue\n",
           ("tests/test_documents.py::"
            "test_composites_with_no_factor_among_the_bases_are_refused",)),
    # a failing verdict is truthy
    Mutant("verdict_always_truthy", VERDICTS,
           "    def __bool__(self) -> bool:\n        return self.ok\n\n", "",
           ("tests/test_cli.py::test_a_verdict_is_truthy_exactly_when_it_passes",)),
    # a package dualizes P again on every read of P*
    Mutant("dual_complex_rebuilt", GENERATOR,
           "    @cached_property\n    def dual_complex", "    @property\n    def dual_complex",
           ("tests/test_generator.py::test_a_package_round_trips_as_its_module_and_depth",)),
]

# run inside pytest, once collection has imported the tests: the module
# the tests use must be the mutated copy, or the run shows nothing
GUARD = """\
import importlib
import pathlib

import pytest


def pytest_collection_finish(session):
    module = importlib.import_module({module!r})
    if pathlib.Path(module.__file__).resolve() != pathlib.Path({path!r}).resolve():
        pytest.exit(f"imported {{module.__file__}}, not the mutated copy", returncode=7)
"""


def killed(m: Mutant) -> bool:
    """Whether m's tests fail on a copy of the repository with m applied."""
    with tempfile.TemporaryDirectory(prefix="homcert-mutant-") as tmp:
        tmp = Path(tmp).resolve()
        if ROOT in tmp.parents:
            raise RuntimeError(f"{tmp} is inside {ROOT}: pytest would import the unmutated src/")
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / m.path
        text = target.read_text()
        if text.count(m.old) != 1:
            raise RuntimeError(f"{m.name}: its old text occurs {text.count(m.old)} times")
        target.write_text(text.replace(m.old, m.new))
        module = ".".join(Path(m.path).with_suffix("").parts[1:])  # src/homcert/x.py: homcert.x
        (tmp / "_mutant_guard.py").write_text(GUARD.format(module=module, path=str(target)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp / "src"), str(tmp)]))
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "-p", "_mutant_guard", *m.tests],
                             cwd=tmp, env=env, capture_output=True, text=True)
        if run.returncode not in (0, 1):
            raise RuntimeError(f"{m.name}: pytest exited {run.returncode}\n"
                               f"{run.stdout}{run.stderr}")
        return run.returncode == 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = []
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        start = time.perf_counter()
        try:
            dead = killed(m)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        seconds = time.perf_counter() - start
        print(f"{'killed  ' if dead else 'SURVIVED'} {m.name} ({seconds:.1f} s)")
        if not dead:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
