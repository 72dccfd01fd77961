"""Top-level acceptance battery.

One test per numbered criterion; run with `pytest tests/test_acceptance.py -v`
to get one pass/fail line per criterion.  Every check is exact (integer
arithmetic, zero tolerance); random inputs come from fixed seeds so
failures replay.
"""

import json
import pathlib
import random

from homcert.cli import main as cli_main
from homcert.complexes import ChainMap, Complex, PeriodicTail
from homcert.documents import emit_document, parse_document
from homcert.duality import (decompose_resolution, dualize_chain_map,
                             duality_roundtrip_check, rebuild_verify)
from homcert.flatness import (EngineConfig, FlatRelation, check_certificate,
                              cycle_flatness_probe, flat_certificate,
                              pd_bound_collapse)
from homcert.generator import (build_generator, double_dual_check, resolve_module,
                               suspension_homology_chain,
                               verify_generator_quasi_iso, verify_resolution)
from homcert.matrices import Mat
from homcert.modules import FPModule, modules_isomorphic
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_contractible_complex,
                              random_fp_module, random_null_homotopic_map,
                              random_relation)

RINGS = [ZZ, Fp(5), Zmod(4), Zmod(12)]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def report(n, label, ok):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_generator_construction():
    rng = random.Random(101)
    ok = True
    for ring in RINGS:
        for _ in range(200):
            m = random_fp_module(rng, ring, max_rank=3, bound=5)
            pkg = build_generator(m)
            ok = ok and verify_resolution(pkg, (-6, 0)).ok
            ok = ok and double_dual_check(pkg).ok
            if not ok:
                break
    report(1, "generator construction over Z, F5, Z/4, Z/12", ok)


def test_criterion_2_comparison_quasi_isomorphism():
    rng = random.Random(102)
    ok = True
    for i in range(100):
        ring = RINGS[i % len(RINGS)]
        m = random_fp_module(rng, ring, max_rank=2)
        q = random_bounded_complex(rng, ring, max_length=3, lo=-1, hi=1)
        v = verify_generator_quasi_iso(build_generator(m), q, (-4, 4))
        ok = ok and v.ok
        if not ok:
            break
    report(2, "cone of the comparison map is Hom-exact", ok)


def test_criterion_3_suspension_homology_chain():
    rng = random.Random(103)
    ok = True
    for ring in RINGS:
        pkg = build_generator(FPModule.free(ring, "left", 1))
        for _ in range(50):
            q = random_bounded_complex(rng, ring)
            v = suspension_homology_chain(pkg, q, range(-3, 4))
            ok = ok and v.ok
            if not ok:
                break
    report(3, "hom classes of shifted generators match homology", ok)


def test_criterion_4_flat_certificates():
    rng = random.Random(104)
    ok = True
    for ring in RINGS:
        for _ in range(500):
            a, z = random_relation(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
            rel = FlatRelation(ring, a, z)
            ok = ok and check_certificate(rel, flat_certificate(rel))
            if not ok:
                break
    report(4, "flat certificates verified by independent checker", ok)


def test_criterion_5_split_exactness_pipeline():
    rng = random.Random(105)
    ok = True
    for ring in (ZZ, Zmod(12)):
        for _ in range(50):
            c = random_contractible_complex(rng, ring)
            span = c.support()
            v = pd_bound_collapse(c, EngineConfig.for_ring(ring),
                                  (span[0] - 2, span[1] + 2))
            ok = ok and v.ok and v.code == "collapsed"
            if ok:
                hom = v.details["homotopy"]
                ok = hom.bounds(ChainMap.identity(c))
            if not ok:
                break
    report(5, "exact scrambled complexes collapse to null homotopies", ok)


def test_criterion_6_periodic_negative_control():
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    from homcert.complexes import split_exactness_check
    exact_everywhere = all(c.homology_data(j)[0].is_zero() for j in range(-8, 9))
    v = split_exactness_check(c, (-4, 4))
    split_refused = (not v.ok and v.code == "exact_not_split"
                     and modules_isomorphic(v.details["cycle"],
                                            FPModule.cyclic(ring, "left", 2)))
    rel = FlatRelation(ring, Mat(ring, 1, 1, (2,)), two)
    pv = cycle_flatness_probe(c, 0, rel)
    hypothesis_refused = not pv.ok and pv.code == "hom_hypothesis_fails"
    # over Z/12, d alternating 6 (odd degrees) and 2 (even): exact, and
    # the cycles 2R = ker 6 in degree -3, the first checked, are R/6,
    # which is not projective
    ring = Zmod(12)
    six, two = Mat(ring, 1, 1, (6,)), Mat(ring, 1, 1, (2,))
    c12 = Complex(ring, "left", {-1: 1, 0: 1, 1: 1}, {-1: six, 0: two},
                  tail_below=PeriodicTail(-1, -1, 2), tail_above=PeriodicTail(1, 1, 2))
    exact_everywhere = exact_everywhere and all(c12.homology_data(j)[0].is_zero()
                                                for j in range(-8, 9))
    v = split_exactness_check(c12, (-4, 4))
    split_refused = split_refused and (
        not v.ok and v.code == "exact_not_split" and v.details["degree"] == -3
        and modules_isomorphic(v.details["cycle"], FPModule.cyclic(ring, "left", 6)))
    report(6, "periodic Z/4 and Z/12 complexes rejected without the hypothesis",
           exact_everywhere and split_refused and hypothesis_refused)


def test_criterion_7_decomposition():
    rng = random.Random(107)
    ok = True
    for _ in range(100):
        m = random_fp_module(rng, ZZ, side="right")
        p, _ = resolve_module(m)
        span = p.support()
        tree = decompose_resolution(p)
        v = rebuild_verify(tree)
        ok = ok and v.ok
        if span:
            ok = ok and tree.free_leaf_count() == -span[0] + 1
        if not ok:
            break
    for n, a in ((4, 2), (12, 4)):
        if not ok:
            break
        p, _ = resolve_module(FPModule.cyclic(Zmod(n), "right", a))
        tree = decompose_resolution(p, depth=4)
        v = rebuild_verify(tree)
        ok = v.ok and not v.window_relative and tree.kind == "loop" and not tree.has_residual()
    report(7, "build trees rebuild resolutions with L + 1 leaves", ok)


def test_criterion_8_duality_roundtrip_and_functoriality():
    rng = random.Random(108)
    ok = True
    for i in range(300):
        ring = RINGS[i % len(RINGS)]
        g = random_bounded_complex(rng, ring)
        ok = ok and duality_roundtrip_check(g).ok
        if not ok:
            break
    for i in range(100):
        if not ok:
            break
        ring = RINGS[i % len(RINGS)]
        x = random_bounded_complex(rng, ring)
        y = random_bounded_complex(rng, ring)
        z = random_bounded_complex(rng, ring)
        f = random_null_homotopic_map(rng, x, y)
        g = random_null_homotopic_map(rng, y, z)
        gf = ChainMap(x, z, {j: g.component(j) @ f.component(j)
                             for j in range(-5, 6)
                             if not (g.component(j) @ f.component(j)).is_zero()})
        lhs = dualize_chain_map(gf)
        fstar = dualize_chain_map(f)
        gstar = dualize_chain_map(g)
        ok = all(lhs.component(j) == fstar.component(j) @ gstar.component(j)
                 for j in range(-5, 6))
    report(8, "dualization is an involution and contravariant", ok)


def test_criterion_9_cli_contract(capsys, tmp_path):
    fixtures = sorted(FIXTURES.glob("*.json"))
    ok = len(fixtures) >= 30
    for path in fixtures:
        text = path.read_text()
        ok = ok and emit_document(parse_document(text)) == text
        if not ok:
            break

    def run(*argv):
        code = cli_main(list(argv))
        capsys.readouterr()
        return code

    fx = lambda name: str(FIXTURES / f"{name}.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    matrix = [
        (0, ("resolve", fx("module_z_cyclic6"))),
        (0, ("dualize", fx("complex_z_mult2"))),
        (0, ("generator", fx("module_z4_cyclic2"))),
        (0, ("check-qiso", fx("package_z4_cyclic2"), fx("complex_z4_0"),
             "--window=-3..3")),
        (0, ("homology", fx("complex_z_mult2"), "--window=-1..0")),
        (0, ("flat-cert", fx("relation_z"))),
        (0, ("decompose", fx("module_z_right6"))),
        (0, ("split-check", fx("contractible_z"), "--window=-6..5")),
        (1, ("split-check", fx("complex_z_mult2"), "--window=-4..3")),
        (2, ("resolve", fx("relation_z"))),
        (2, ("homology", str(bad), "--window=0..0")),
        (2, ("homology", fx("complex_z_mult2"), "--window=oops")),
        (2, ("frobnicate",)),
    ]
    for want, argv in matrix:
        ok = ok and run(*argv) == want
        if not ok:
            break
    report(9, "CLI corpus round-trips and exit statuses", ok)
