"""The benchmark's workloads: seeded cases with expected outcomes and checks.

A workload yields rounds of cases.  Round r of seed s is built from
`random.Random(f"<workload>:<s>:<r>")`, so the same seed gives the same
inputs.  A case holds the call under test (`run`), an independent check
of its result (`check`, see checks.py), and the machine-format documents
its result is reported as (`documents`).  The expected verdicts and exit
codes live in EXPECTED and in the cli command table; a case whose outcome
differs from them fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks as ck

# Expected verdict codes of the certify pipelines, positive and negative
# controls alike.
EXPECTED = {
    "generator.verify_resolution": "quasi_isomorphism",
    "generator.double_dual_check": "double_dual_identity",
    "generator.verify_generator_quasi_iso": "hom_exact",
    "flat.check_certificate": True,
    "cycle.cycle_flatness_probe": "certified",
    "collapse.pd_bound_collapse": "collapsed",
    "periodic.split_exactness_check": "exact_not_split",
    "periodic.cycle_flatness_probe": "hom_hypothesis_fails",
}

# Periodic Z/n modules R/(a): (n, a).  Their resolutions never stop.
PERIODIC = ((4, 2), (8, 2), (8, 4), (9, 3), (12, 2), (12, 3), (12, 4), (12, 6))


@dataclass
class Case:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    documents: Callable[[Any], list[str]]
    exit_expected: int | None = None


def rings(hc):
    r = hc.rings
    return [("z", r.ZZ), ("f7", r.Fp(7)), ("z4", r.Zmod(4)), ("z12", r.Zmod(12))]


def _mat(hc, ring, rows, cols, values):
    return hc.matrices.Mat(ring, rows, cols, tuple(values))


def _rand_rows(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _emit(hc, ring, kind, payload) -> str:
    d = hc.documents
    return d.emit_document(d.make_document(ring, kind, payload))


def _verdict_code(v, want) -> str | None:
    if v.code != want:
        return f"verdict {v.code}, expected {want}"
    return None


# -- elim ----------------------------------------------------------------


class Elim:
    """Dense n x (n+2) matrices: kernel, solve, canonical span, Smith.

    A round holds one case per size and ring; full-rank matrices and
    rank-deficient products alternate.  Sizes stop at 16: from n = 18 on,
    the lifted column HNF makes the cost of one input range from 10 ms to
    seconds (n = 24 over Z/12: up to 25 s for a case), so a timed run
    would measure a handful of inputs rather than the workload.
    """

    name = "elim"

    def __init__(self, hc, seed: int, workdir: Path, tiny: bool):
        self.hc = hc
        self.seed = seed
        self.sizes = (3, 4, 5) if tiny else tuple(range(8, 17))
        self.rings = rings(hc)

    def round(self, r: int) -> list[Case]:
        rng = random.Random(f"elim:{self.seed}:{r}")
        cases = []
        for n in self.sizes:
            for ri, (tag, ring) in enumerate(self.rings):
                deficient = (n + r + ri) % 2 == 1
                cases.append(self._case(rng, tag, ring, n, deficient))
        return cases

    def _case(self, rng, tag, ring, n, deficient) -> Case:
        hc = self.hc
        mod = ring.modulus
        cols = n + 2
        if deficient:
            rank = n - rng.randint(1, 4)
            left = _rand_rows(rng, n, rank, 3)
            right = _rand_rows(rng, rank, cols, 3)
            a_rows = ck.mul(left, right, rank, cols, None)
        else:
            a_rows = _rand_rows(rng, n, cols, 9)
        A = _mat(hc, ring, n, cols, [x for row in a_rows for x in row])
        a = ck.rows_of(A)
        x = _rand_rows(rng, cols, 1, 9)
        b = ck.mul(a, x, cols, 1, mod)
        B = _mat(hc, ring, n, 1, [v for row in b for v in row])
        m = hc.matrices

        def run():
            return (m.kernel_right(A), m.solve_right(A, B), m.colspan_canonical(A),
                    m.smith_invariants(A) if mod is None else None)

        def check(res):
            K, X, C, S = res
            return (ck.check_kernel(a, n, cols, ck.rows_of(K), K.cols, mod)
                    or ck.check_solution(a, cols, None if X is None else ck.rows_of(X), 1, b, mod)
                    or ck.check_colspan(a, n, cols, ck.rows_of(C), C.cols, mod)
                    or (ck.check_smith(a, cols, S) if mod is None else None))

        def documents(res):
            K, X, C, S = res
            docs = [_emit(hc, ring, "matrix", M) for M in (K, X, C)]
            if S is not None:
                docs.append(_emit(hc, ring, "verdict",
                                  hc.verdicts.Verdict(True, "smith_invariants", {"invariants": S})))
            return docs

        kind = f"elim.{tag}.n{n}.{'deficient' if deficient else 'full'}"
        return Case(kind, run, check, documents)


# -- certify -------------------------------------------------------------


class Certify:
    """Acceptance-battery pipelines on small inputs (module ranks <= 4)."""

    name = "certify"

    def __init__(self, hc, seed: int, workdir: Path, tiny: bool):
        self.hc = hc
        self.seed = seed
        self.rings = rings(hc)

    def round(self, r: int) -> list[Case]:
        rng = random.Random(f"certify:{self.seed}:{r}")
        cases = []
        for tag, ring in self.rings:
            cases.append(self._generator(rng, tag, ring))
            cases.append(self._qiso(rng, tag, ring))
            cases.append(self._flat(rng, tag, ring))
            cases.append(self._flat(rng, tag, ring))
            cases.append(self._cycle(rng, tag, ring))
            cases.append(self._collapse(rng, tag, ring))
        cases.extend(self._periodic_controls())
        return cases

    def _generator(self, rng, tag, ring) -> Case:
        """The package of a module of rank <= 4, its resolution and double dual."""
        hc = self.hc
        m = hc.samplers.random_fp_module(rng, ring, max_rank=4, bound=5)
        g = hc.generator
        mod = ring.modulus

        def run():
            pkg = g.build_generator(m)
            return pkg, g.verify_resolution(pkg, (-6, 0)), g.double_dual_check(pkg)

        def check(res):
            pkg, *verdicts = res
            for v, name in zip(verdicts, ("verify_resolution", "double_dual_check")):
                bad = _verdict_code(v, EXPECTED[f"generator.{name}"])
                if bad:
                    return f"{name}: {bad}"
            K = ck.rows_of(pkg.dual_gens)
            if m.rank1 and K and not ck.is_zero(
                    ck.mul(K, ck.rows_of(m.presentation), m.rank0, m.rank1, mod), mod):
                return "dual generators do not annihilate the relations"
            if ck.rows_of(pkg.comparison) != K:
                return "comparison map differs from the dual generators"
            res_c, dual_c = pkg.resolution, pkg.dual_complex
            bad = ck.check_d_squared(res_c.rank, lambda j: ck.rows_of(res_c.diff(j)),
                                     -pkg.depth, 0, mod)
            if bad:
                return f"resolution: {bad}"
            if pkg.dual.rank1 and ck.rows_of(res_c.diff(-1)) != ck.rows_of(pkg.dual.presentation):
                return "resolution does not start with the dual's presentation"
            for j in range(0, 8):
                d = res_c.diff(-j - 1)
                if ck.rows_of(dual_c.diff(j)) != ck.transpose(ck.rows_of(d), d.cols):
                    return f"dual complex is not the transpose in degree {j}"
            return None

        def documents(res):
            pkg, *verdicts = res
            return [_emit(hc, ring, "generator_package", pkg)] + \
                [_emit(hc, ring, "verdict", v) for v in verdicts]

        return Case(f"certify.{tag}.generator", run, check, documents)

    def _qiso(self, rng, tag, ring) -> Case:
        """Criterion 2: Hom(cone(comparison), Q) is exact, module rank <= 2.

        At rank 4 over Z/12 about one check in a thousand runs into the
        lifted-HNF coefficient blow-up for up to a minute; elim measures
        that defect, and rank 2 keeps every certify case under 0.1 s."""
        hc = self.hc
        s = hc.samplers
        m = s.random_fp_module(rng, ring, max_rank=2, bound=5)
        q = s.random_bounded_complex(rng, ring, max_length=3, lo=-1, hi=1)
        g = hc.generator

        def run():
            return g.verify_generator_quasi_iso(g.build_generator(m), q, (-4, 4))

        return Case(f"certify.{tag}.qiso", run,
                    lambda v: _verdict_code(v, EXPECTED["generator.verify_generator_quasi_iso"]),
                    lambda v: [_emit(hc, ring, "verdict", v)])

    def _flat(self, rng, tag, ring) -> Case:
        hc = self.hc
        a, z = hc.samplers.random_relation(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
        rel = hc.flatness.FlatRelation(ring, a, z)
        f = hc.flatness

        def run():
            cert = f.flat_certificate(rel)
            return cert, f.check_certificate(rel, cert)

        def check(res):
            cert, ok = res
            if ok is not EXPECTED["flat.check_certificate"]:
                return "check_certificate rejected its own certificate"
            return ck.check_flat_certificate(a, z, cert.ast, cert.q, ring.modulus)

        return Case(f"certify.{tag}.flat", run, check,
                    lambda res: [_emit(hc, ring, "certificate", res[0])])

    def _cycle(self, rng, tag, ring) -> Case:
        """A relation among boundaries of a contractible complex."""
        hc = self.hc
        c = hc.samplers.random_contractible_complex(rng, ring)
        j, rel = cycle_relation(hc, rng, ring, c)
        mod = ring.modulus

        def run():
            return hc.flatness.cycle_flatness_probe(c, j, rel)

        def check(v):
            bad = _verdict_code(v, EXPECTED["cycle.cycle_flatness_probe"])
            if bad:
                return bad
            cert = v.details["certificate"].certificate
            if not ck.is_zero(ck.mul(ck.rows_of(c.diff(j)), ck.rows_of(rel.z), c.rank(j),
                                     rel.z.cols, mod), mod):
                return "relation columns are not cycles"
            return ck.check_flat_certificate(rel.a, rel.z, cert.ast, cert.q, mod)

        return Case(f"certify.{tag}.cycle", run, check,
                    lambda v: [_emit(hc, ring, "certificate", v.details["certificate"].certificate)])

    def _collapse(self, rng, tag, ring) -> Case:
        hc = self.hc
        f = hc.flatness
        c = hc.samplers.random_contractible_complex(rng, ring)
        lo, hi = c.support()
        mod = ring.modulus

        def run():
            return f.pd_bound_collapse(c, f.EngineConfig.for_ring(ring), (lo - 2, hi + 2))

        def check(v):
            bad = _verdict_code(v, EXPECTED["collapse.pd_bound_collapse"])
            if bad:
                return bad
            h = v.details["homotopy"]
            return ck.check_contraction(
                c.rank, lambda j: ck.rows_of(c.diff(j)),
                lambda j: ck.rows_of(h.component(j)), lo - 1, hi + 1, mod)

        return Case(f"certify.{tag}.collapse", run, check,
                    lambda v: [_emit(hc, ring, "verdict", v)])

    def _periodic_controls(self) -> list[Case]:
        """Criterion 6: the periodic Z/4 complex ... -> Z/4 --2--> Z/4 -> ...
        is exact everywhere, yet neither split nor orthogonal to M = Z/4/(2)."""
        hc = self.hc
        ring = hc.rings.Zmod(4)
        cx = hc.complexes
        two = _mat(hc, ring, 1, 1, (2,))
        tail = cx.PeriodicTail
        c = cx.Complex(ring, "left", {0: 1, 1: 1}, {0: two},
                       tail_below=tail(-1, 0, 1), tail_above=tail(1, 1, 1))
        rel = hc.flatness.FlatRelation(ring, two, two)

        def split_check(v):
            bad = _verdict_code(v, EXPECTED["periodic.split_exactness_check"])
            if bad:
                return bad
            if v.details["cycle"].abelian_invariants() != (0, (2,)):
                return "the non-split cycle module is not Z/2"
            return None

        def doc(v):
            return [_emit(hc, ring, "verdict", v)]

        return [
            Case("certify.z4.periodic_split",
                 lambda: cx.split_exactness_check(c, (-4, 4)), split_check, doc),
            Case("certify.z4.periodic_probe",
                 lambda: hc.flatness.cycle_flatness_probe(c, 0, rel),
                 lambda v: _verdict_code(v, EXPECTED["periodic.cycle_flatness_probe"]), doc),
        ]


def cycle_relation(hc, rng, ring, c):
    """(j, relation a . z = 0 whose columns z are boundaries in degree j)."""
    lo, hi = c.support()
    j = rng.choice([k for k in range(lo + 1, hi + 1) if c.rank(k - 1) and c.rank(k)])
    mod = ring.modulus
    length = rng.randint(1, 3)
    a = hc.samplers.random_matrix(rng, ring, 1, length, 5)
    k = hc.matrices.kernel_right(a)
    w = _rand_rows(rng, c.rank(j - 1), k.cols, 3)
    below = ck.mul(w, ck.transpose(ck.rows_of(k), k.cols), k.cols, length, mod) if k.cols \
        else [[0] * length for _ in range(c.rank(j - 1))]
    z = ck.mul(ck.rows_of(c.diff(j - 1)), below, c.rank(j - 1), length, mod)
    zm = _mat(hc, ring, c.rank(j), length, [v for row in z for v in row])
    return j, hc.flatness.FlatRelation(ring, a, zm)


# -- cli -----------------------------------------------------------------


class Cli:
    """homcert.cli.main over seeded documents and the fixture corpus."""

    name = "cli"

    def __init__(self, hc, seed: int, workdir: Path, tiny: bool):
        self.hc = hc
        self.seed = seed
        self.workdir = workdir
        fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
        if not fixtures.is_dir():
            raise FileNotFoundError(f"fixture corpus {fixtures} is missing")
        workdir.mkdir(parents=True, exist_ok=True)
        self.commands = self._commands(random.Random(f"cli:{seed}"), fixtures,
                                       decompose=2 if tiny else 14)

    def _write(self, name: str, ring, kind: str, payload) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(_emit(self.hc, ring, kind, payload))
        return str(path)

    def _commands(self, rng, fixtures: Path, decompose: int) -> list[tuple]:
        """(argv, expected exit, expected output kind, extra check)."""
        hc = self.hc
        s = hc.samplers
        cmds = []
        for tag, ring in rings(hc):
            mod = ring.modulus
            module = s.random_fp_module(rng, ring, max_rank=2)
            target = s.random_bounded_complex(rng, ring, max_length=3, lo=-1, hi=1)
            x = s.random_bounded_complex(rng, ring)
            cmap = s.random_null_homotopic_map(rng, x, s.random_bounded_complex(rng, ring))
            a, z = s.random_relation(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
            contractible = s.random_contractible_complex(rng, ring)
            lo, hi = contractible.support()
            j, cyc = cycle_relation(hc, rng, ring, contractible)
            f = {
                "module": self._write(f"module_{tag}", ring, "module", module),
                "complex": self._write(f"complex_{tag}", ring, "complex", x),
                "target": self._write(f"target_{tag}", ring, "complex", target),
                "chain_map": self._write(f"chain_map_{tag}", ring, "chain_map", cmap),
                "relation": self._write(f"relation_{tag}", ring, "relation",
                                        hc.flatness.FlatRelation(ring, a, z)),
                "cycles": self._write(f"cycles_{tag}", ring, "relation", cyc),
                "contractible": self._write(f"contractible_{tag}", ring, "complex", contractible),
                "package": self._write(f"package_{tag}", ring, "generator_package",
                                       hc.generator.build_generator(module)),
            }
            window = f"--window={lo - 2}..{hi + 2}"
            bound = hc.flatness.EngineConfig.for_ring(ring).bound
            cmds += [
                (["resolve", f["module"], "--depth", "24"], 0, "complex",
                 _resolve_check(module, mod)),
                (["dualize", f["complex"]], 0, "complex", _dual_check(x)),
                (["dualize", f["chain_map"]], 0, "chain_map", None),
                (["generator", f["module"]], 0, "generator_package", None),
                (["check-qiso", f["package"], f["target"], "--window=-3..3"], 0, "verdict",
                 _code_check("hom_exact")),
                (["homology", f["complex"], "--window=-2..2"], 0, "verdict",
                 _code_check("homology_computed")),
                (["flat-cert", f["relation"]], 0, "certificate", _cert_check(a, z, mod)),
                (["flat-cert", f["cycles"], f["contractible"], f"--degree={j}"], 0,
                 "certificate", _cert_check(cyc.a, cyc.z, mod)),
                (["split-check", f["contractible"], window], 0, "verdict",
                 _code_check("split_exact")),
                (["split-check", f["contractible"], window, f"--bound={bound}"], 0, "verdict",
                 _code_check("collapsed")),
            ]
        for i in range(decompose):
            n, ann = rng.choice(PERIODIC)
            ring = hc.rings.Zmod(n)
            module = hc.modules.FPModule.cyclic(ring, "right", ann)
            path = self._write(f"periodic_{i}", ring, "module", module)
            cmds.append((["decompose", path, "--depth", "8"], 0, "build_tree",
                         _tree_check(module)))
            if i < 2:
                cmds.append((["resolve", path, "--depth", "24"], 0, "complex",
                             _resolve_check(module, n)))
        bad = self.workdir / "bad.json"
        bad.write_text("{ nope")
        fx = lambda name: str(fixtures / f"{name}.json")
        # the CLI contract matrix of the acceptance battery (criterion 9)
        cmds += [
            (["resolve", fx("module_z_cyclic6")], 0, "complex", None),
            (["dualize", fx("complex_z_mult2")], 0, "complex", None),
            (["generator", fx("module_z4_cyclic2")], 0, "generator_package", None),
            (["check-qiso", fx("package_z4_cyclic2"), fx("complex_z4_0"), "--window=-3..3"],
             0, "verdict", _code_check("hom_exact")),
            (["homology", fx("complex_z_mult2"), "--window=-1..0"], 0, "verdict", None),
            (["flat-cert", fx("relation_z")], 0, "certificate", None),
            (["decompose", fx("module_z_right6")], 0, "build_tree", None),
            (["split-check", fx("contractible_z"), "--window=-6..5"], 0, "verdict",
             _code_check("split_exact")),
            (["split-check", fx("complex_z_mult2"), "--window=-4..3"], 1, "verdict",
             _code_check("not_exact")),
            (["resolve", fx("relation_z")], 2, None, None),
            (["homology", str(bad), "--window=0..0"], 2, None, None),
            (["homology", fx("complex_z_mult2"), "--window=oops"], 2, None, None),
            (["frobnicate"], 2, None, None),
        ]
        return cmds

    def round(self, r: int) -> list[Case]:
        return [self._case(*cmd) for cmd in self.commands]

    def _case(self, argv, want, kind, extra) -> Case:
        cli = self.hc.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue()

        def check(res):
            code, text = res
            if code != want:
                return f"exit code {code}, expected {want}"
            if kind is None:
                return "unexpected output on a usage error" if text else None
            doc = json.loads(text)
            if doc.get("kind") != kind:
                return f"output kind {doc.get('kind')}, expected {kind}"
            return extra(doc["payload"]) if extra else None

        return Case(f"cli.{argv[0]}", run, check,
                    lambda res: [res[1]] if res[1] else [], exit_expected=want)


def _code_check(code: str):
    return lambda payload: None if payload["code"] == code else \
        f"verdict {payload['code']}, expected {code}"


def _cert_check(a, z, mod):
    def check(payload):
        ast, q = payload["ast"]["entries"], payload["q"]["entries"]
        m, k = a.cols, payload["ast"]["cols"]
        if payload["q"]["cols"] != k or len(ast) != m or len(q) != z.rows:
            return "certificate has the wrong shape"
        if not ck.congruent(ck.rows_of(z), ck.mul(q, ck.transpose(ast, k), k, m, mod), mod):
            return "z != q * ast^T"
        if k and not ck.is_zero(ck.mul(ck.rows_of(a), ast, m, k, mod), mod):
            return "a * ast != 0"
        return None
    return check


def _json_complex(payload):
    ranks = dict((j, r) for j, r in payload["ranks"])
    diffs = dict((j, d["entries"]) for j, d in payload["diffs"])
    return ranks, diffs


def _resolve_check(module, mod):
    pres = ck.rows_of(module.presentation)

    def check(payload):
        ranks, diffs = _json_complex(payload)
        rank = lambda j: ranks.get(j, 0)
        diff = lambda j: diffs.get(j) or [[0] * rank(j) for _ in range(rank(j + 1))]
        if rank(0) != module.rank0:
            return "resolution does not cover the module's generators"
        if module.rank1 and diff(-1) != pres:
            return "resolution does not start with the module's presentation"
        return ck.check_d_squared(rank, diff, min(ranks, default=0), 0, mod)
    return check


def _dual_check(c):
    def check(payload):
        ranks, diffs = _json_complex(payload)
        for j, r in c.ranks.items():
            if ranks.get(-j, 0) != r:
                return f"dual rank in degree {-j} is not the rank in degree {j}"
        for j, d in c.diffs.items():
            got = diffs.get(-j - 1)
            if got != ck.transpose(ck.rows_of(d), d.cols):
                return f"dual differential in degree {-j - 1} is not a transpose"
        return None
    return check


def _tree_check(module):
    def check(payload):
        ranks, _ = _json_complex(payload["target"])
        if ranks.get(0) != module.rank0:
            return "build tree target does not resolve the module"
        return None
    return check


WORKLOADS = {w.name: w for w in (Elim, Certify, Cli)}
