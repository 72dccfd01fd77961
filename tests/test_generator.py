import json
import random
from dataclasses import fields

import pytest

from homcert import documents, generator, matrices, modules
from homcert.complexes import (Complex, PeriodicTail, dualize_complex, finite_coproduct,
                               first_difference, suspension)
from homcert.flatness import EngineConfig, pd_bound_collapse
from homcert.generator import (GeneratorPackage, build_generator, compactness_probe,
                               double_dual_check, h0_hom_equivalence,
                               resolve_module, suspension_homology_chain,
                               verify_generator_quasi_iso, verify_resolution)
from homcert.matrices import Mat
from homcert.modules import FPModule, ModuleMap, dual_data, modules_isomorphic
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import random_bounded_complex, random_fp_module

RINGS = [ZZ, Fp(5), Zmod(4)]


def test_resolution_of_cyclic_over_Z_terminates():
    p, complete = resolve_module(FPModule.cyclic(ZZ, "left", 6))
    assert complete
    assert p.support() == (-1, 0)
    assert p.diff(-1)[0, 0] == 6
    assert modules_isomorphic(p.homology_data(0)[0], FPModule.cyclic(ZZ, "left", 6))
    assert p.homology_data(-1)[0].is_zero()


def test_resolution_of_z2_over_z4_is_periodic():
    p, complete = resolve_module(FPModule.cyclic(Zmod(4), "left", 2))
    assert complete
    assert p.tail_below == PeriodicTail(-1, -1, 1)
    for j in range(-9, 0):
        assert p.diff(j)[0, 0] == 2
        assert p.homology_data(j)[0].is_zero()


def test_resolution_is_exact_in_deep_degrees():
    rng = random.Random(19)
    for ring in RINGS:
        for _ in range(15):
            m = random_fp_module(rng, ring)
            p, complete = resolve_module(m)
            assert complete
            assert modules_isomorphic(p.homology_data(0)[0], m)
            for j in range(-8, 0):
                assert p.homology_data(j)[0].is_zero()


def _reference_tail(m, depth):
    """The lower tail of M's resolution by a quadratic scan: each new kernel
    is compared with every earlier differential, the nearest first."""
    seq = [m.presentation]
    while m.rank0 and seq[-1].cols and len(seq) < depth:
        seq.append(matrices.kernel_right(seq[-1]))
        for period in range(1, len(seq)):
            if seq[-1].cols and seq[-1 - period] == seq[-1]:
                return PeriodicTail(-1, -(len(seq) - 1), period)
    return None


@pytest.mark.parametrize("ring", [ZZ, Fp(5), Zmod(4), Zmod(12), Zmod(36)], ids=str)
def test_resolutions_pass_the_public_constructor(ring):
    # resolve_module skips the constructor's checks; they must hold anyway
    rng = random.Random(f"resolutions/{ring}")
    tails = 0
    for _ in range(40):
        m = random_fp_module(rng, ring)
        for depth in (1, 2, 24):
            p, complete = resolve_module(m, depth)
            assert Complex(ring, p.side, p.ranks, p.diffs, p.tail_below, p.tail_above) == p
            assert p.tail_below == _reference_tail(m, depth)
            tails += p.tail_below is not None
    assert tails or ring.kind != "Zmod"


def test_generator_package_for_z2_over_z4():
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    assert pkg.complete
    assert pkg.dual.side == "right"
    assert modules_isomorphic(pkg.dual, FPModule.cyclic(Zmod(4), "right", 2))
    # the comparison picks out evaluation against the functional x -> 2x
    assert pkg.comparison.row_list() == [[2]]
    assert verify_resolution(pkg).ok
    assert double_dual_check(pkg).ok


def test_comparison_is_the_double_dual_evaluation():
    # the comparison map is the dual generators of M** composed with the
    # double-dual map mu: M -> M**, which the package does not store
    rng = random.Random(43)
    for ring in (ZZ, Fp(5), Zmod(4), Zmod(12)):
        for _ in range(10):
            m = random_fp_module(rng, ring)
            pkg = build_generator(m)
            mu = modules.canonical_double_dual_map(m, *dual_data(m))
            _, k2 = dual_data(pkg.dual)
            assert pkg.comparison == k2.transpose() @ mu.matrix


def _package_modules():
    """Seeded modules over Z, F7, Z/4, Z/8 and Z/12, and Z/6 over Z,
    whose dual is zero."""
    rng = random.Random(47)
    for ring in (ZZ, Fp(7), Zmod(4), Zmod(8), Zmod(12)):
        for _ in range(6):
            yield random_fp_module(rng, ring, side=rng.choice(["left", "right"]))
    yield FPModule.cyclic(ZZ, "left", 6)


def test_a_package_round_trips_as_its_module_and_depth(monkeypatch):
    # a package document is {module, depth}; parsing derives M*, the
    # comparison, P and `complete` again, each package computing its dual
    # and its resolution at most once however often they are read
    calls = {"dual": 0, "resolve": 0}
    dual_form, resolve = modules._dual_form, generator.resolve_module

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

    monkeypatch.setattr(modules, "_dual_form", counted("dual", dual_form))
    monkeypatch.setattr(generator, "resolve_module", counted("resolve", resolve))

    def read_twice(pkg):
        parts, again = [(pkg.dual, pkg.comparison, pkg.dual_gens, pkg.resolution,
                         pkg.complete, pkg.dual_complex) for _ in range(2)]
        assert all(a is b for a, b in zip(parts, again))
        assert calls["dual"] <= 1 and calls["resolve"] <= 1
        calls.update(dual=0, resolve=0)
        return parts

    def emit(pkg) -> str:
        return documents.emit_document(
            documents.make_document(pkg.module.ring, "generator_package", pkg))

    shapes = set()
    for m in _package_modules():
        for depth in (1, 2, 24):
            pkg = build_generator(m, depth)
            dual, comparison, _, resolution, complete, _ = read_twice(pkg)
            text = emit(pkg)
            assert set(json.loads(text)["payload"]) == {"module", "depth"}
            parsed = documents.parse_document(text).payload
            assert emit(parsed) == text and (parsed.module, parsed.depth) == (m, depth)
            p_dual, p_comparison, _, p_resolution, p_complete, _ = read_twice(parsed)
            assert (p_dual, p_comparison, p_complete) == (dual, comparison, complete)
            assert first_difference(p_resolution, resolution) is None
            shapes.add((dual.rank0 == 0, complete, resolution.tail_below is not None))
    # not vacuous: zero duals, and truncated, finite and periodic resolutions
    assert {(True, True, False), (False, False, False), (False, True, False),
            (False, True, True)} <= shapes


def test_a_package_stores_exactly_what_it_computes():
    assert [f.name for f in fields(GeneratorPackage)] == ["module", "depth"]
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    assert pkg.dual_gens is pkg.comparison
    assert pkg.dual_complex == dualize_complex(pkg.resolution)


def test_generator_package_for_torsion_over_Z_has_zero_dual():
    pkg = build_generator(FPModule.cyclic(ZZ, "left", 6))
    assert pkg.dual.is_zero()
    assert pkg.resolution.support() is None
    assert verify_resolution(pkg).ok


def _empty_package_json(ring, module):
    """The package text of a module whose dual is zero: its module and
    the default depth, as for any module."""
    return ('{"kind":"generator_package","payload":{"depth":24,'
            f'"module":{{"presentation":{module},"side":"left"}}}},"ring":{ring},'
            f'"version":"{documents.FORMAT_VERSION}"}}\n')


@pytest.mark.parametrize("ring, presentation, text", [
    (ZZ, Mat(ZZ, 1, 1, (6,)),
     _empty_package_json('{"kind":"Z"}', '{"cols":1,"entries":[[6]],"rows":1}')),
    (Zmod(4), Mat.zero(Zmod(4), 0, 0),
     _empty_package_json('{"kind":"Zmod","n":4}', '{"cols":0,"entries":[],"rows":0}')),
    (Zmod(4), Mat(Zmod(4), 1, 1, (1,)),
     _empty_package_json('{"kind":"Zmod","n":4}', '{"cols":1,"entries":[[1]],"rows":1}')),
    (Fp(5), Mat.zero(Fp(5), 0, 2),
     _empty_package_json('{"kind":"Fp","n":5}', '{"cols":2,"entries":[],"rows":0}')),
], ids=["Z/6 over Z", "0 over Z/4", "Z/4/(1)", "0 over F5"])
def test_package_bytes_of_modules_with_zero_dual(ring, presentation, text):
    pkg = build_generator(FPModule(ring, "left", presentation))
    assert documents.emit_document(documents.make_document(ring, "generator_package", pkg)) == text
    assert pkg.dual.rank0 == 0 and pkg.resolution.support() is None
    assert verify_resolution(pkg).ok and double_dual_check(pkg).ok


def test_dual_complex_lives_in_nonnegative_degrees():
    rng = random.Random(23)
    for ring in RINGS:
        for _ in range(10):
            pkg = build_generator(random_fp_module(rng, ring))
            span = pkg.dual_complex.support()
            if span is not None:
                assert span[0] >= 0


def test_quasi_iso_against_free_target():
    ring = Zmod(4)
    pkg = build_generator(FPModule.cyclic(ring, "left", 2))
    q = Complex(ring, "left", {0: 1}, {})
    v = verify_generator_quasi_iso(pkg, q, (-2, 2))
    assert v.ok and v.code == "hom_exact"


def test_hom_exact_is_window_relative_unless_the_window_covers_every_degree():
    # over Z/4, P* of Z/4/(2) has an upper tail, so Hom^n(cone, Q) is
    # nonzero for every n < 0, and the window (0, 0) reads one of them
    ring = Zmod(4)
    pkg = build_generator(FPModule.cyclic(ring, "left", 2))
    v = verify_generator_quasi_iso(pkg, Complex(ring, "left", {0: 1}, {}), (0, 0))
    assert (v.ok, v.code, v.window_relative) == (True, "hom_exact", True)
    # over Z, M = Z + Z/6 has M* = Z and P = Z in degree 0, complete: the
    # cone lives in degrees -1..0 and Q in -1..0, so Hom^n vanishes outside
    # -1..1, and a window reaching both ends covers every degree
    pkg = build_generator(FPModule(ZZ, "left", Mat(ZZ, 2, 1, (0, 6))))
    assert pkg.complete and pkg.resolution.support() == (0, 0)
    q = Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    for window, relative in [((-1, 1), False), ((-4, 4), False), ((0, 1), True), ((-1, 0), True)]:
        v = verify_generator_quasi_iso(pkg, q, window)
        assert (v.ok, v.code, v.window_relative) == (True, "hom_exact", relative), window
    # a lower tail of Q reaches every degree below the window
    tailed = Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (0,))},
                     tail_below=PeriodicTail(-1, -1, 1))
    v = verify_generator_quasi_iso(pkg, tailed, (-4, 4))
    assert v.ok and v.window_relative


def test_quasi_iso_random_targets():
    rng = random.Random(29)
    for ring in RINGS:
        for _ in range(5):
            pkg = build_generator(random_fp_module(rng, ring, max_rank=2))
            q = random_bounded_complex(rng, ring, max_length=2, lo=-1, hi=1)
            v = verify_generator_quasi_iso(pkg, q, (-3, 3))
            assert v.ok, (ring, v.code, v.details)


def test_quasi_iso_in_narrow_windows_agrees_with_a_wide_one(monkeypatch):
    # each window (lo, lo + 1) truncates P* at its own depth, so it must read
    # its degrees as a wide window does; one above every Hom term reads none,
    # and keeps P*^0, which the comparison maps into.  Comparisons scaled by
    # 2 or 3 make some checks fail.
    for ring in [ZZ, Fp(5), Zmod(4), Zmod(12)]:
        rng = random.Random(f"qiso-windows/{ring}")
        for _ in range(40):
            scaled = _scaled_dual_data(rng.choice([1, 2, 3, -1]))
            pkg = _built_with(monkeypatch, "dual_data", scaled,
                              random_fp_module(rng, ring, max_rank=2))
            q = random_bounded_complex(rng, ring, max_length=2, lo=-1, hi=1)
            failing = []
            for lo in range(-6, 8):
                v = verify_generator_quasi_iso(pkg, q, (lo, lo + 1))
                if not v.ok:
                    failing.append(v.details["degree"])
                if lo > q.support()[1] + 1:
                    assert (v.ok, v.code) == (True, "hom_exact")
            v = verify_generator_quasi_iso(pkg, q, (-6, 8))
            assert (v.ok, v.details.get("degree")) == (not failing, min(failing, default=None))


def test_h0_equivalence_identifies_hom_classes():
    rng = random.Random(31)
    for ring in RINGS:
        for _ in range(5):
            pkg = build_generator(random_fp_module(rng, ring, max_rank=2))
            q = random_bounded_complex(rng, ring, max_length=2, lo=-1, hi=1)
            v = h0_hom_equivalence(pkg, q)
            assert v.ok, (ring, v.code, v.details)


def test_suspension_chain_for_the_ring_itself():
    rng = random.Random(37)
    for ring in RINGS:
        pkg = build_generator(FPModule.free(ring, "left", 1))
        for _ in range(5):
            q = random_bounded_complex(rng, ring)
            v = suspension_homology_chain(pkg, q, range(-3, 4))
            assert v.ok, (ring, v.code, v.details)


def test_suspension_chain_for_a_right_sided_target():
    # HomClasses into Q are Q-sided modules, as H^(-i) Q is
    q = Complex(ZZ, "right", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    pkg = build_generator(FPModule.free(ZZ, "left", 1))
    v = suspension_homology_chain(pkg, q, range(-2, 3))
    assert v.ok, v.details


def test_depth_truncated_package_reports_window_relative():
    # force an incomplete resolution by disabling periodicity detection room
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2), depth=1)
    assert not pkg.complete
    q = Complex(Zmod(4), "left", {0: 1}, {})
    v = verify_generator_quasi_iso(pkg, q, (-4, 4))
    assert not v.ok and v.code == "window_too_small" and v.window_relative


def test_every_hom_classes_check_refuses_a_too_shallow_package():
    # P of depth 1 ends at degree -1, and Q reaches degree 1: every
    # HomClasses check needs P down to top(Q) + |shift| + 4
    ring = Zmod(4)
    pkg = build_generator(FPModule.cyclic(ring, "left", 2), depth=1)
    assert not pkg.complete
    two = Mat(ring, 1, 1, (2,))
    q = Complex(ring, "left", {-1: 1, 0: 1, 1: 1}, {-1: two, 0: two})
    for v in (h0_hom_equivalence(pkg, q), compactness_probe(pkg, [q]),
              compactness_probe(pkg, [q, Complex(ring, "left", {0: 1}, {})]),
              suspension_homology_chain(pkg, q, range(-1, 2))):
        assert not v.ok and v.code == "window_too_small" and v.window_relative
    full = build_generator(FPModule.cyclic(ring, "left", 2))
    assert full.complete and compactness_probe(full, [q]).ok


def test_compactness_probe_finite_coproducts():
    rng = random.Random(41)
    for ring in RINGS:
        pkg = build_generator(random_fp_module(rng, ring, max_rank=2))
        qs = [random_bounded_complex(rng, ring, max_length=2, lo=-1, hi=1)
              for _ in range(3)]
        v = compactness_probe(pkg, qs)
        assert v.ok, (ring, v.code, v.details)


def test_verify_resolution_fails_a_window_wholly_below_its_floor():
    # depth 1 stops the periodic Z/4 resolution at degree -1, so only
    # degree 0 is trusted and (-20, -10) would check no degree
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2), depth=1)
    v = verify_resolution(pkg, (-20, -10))
    assert not v.ok and v.code == "window_too_small" and v.window_relative
    assert v.details == {"window": (-20, -10), "floor": 0}
    v = verify_resolution(pkg, (-20, 0))
    assert v.ok and v.window_relative and v.details["window"] == (0, 0)


@pytest.mark.parametrize("n, a, b", [(4, 2, 2), (8, 2, 4), (8, 4, 2), (12, 2, 6),
                                     (12, 3, 2), (12, 6, 4), (4, 1, 2)])
@pytest.mark.parametrize("s", range(-1, 3))
def test_targets_with_a_lower_tail_pass_both_checks(n, a, b, s):
    # Q = S^s of the periodic resolution of Z/b: bounded above, with a
    # lower tail that the window reaches only in finitely many degrees
    ring = Zmod(n)
    q = suspension(resolve_module(FPModule.cyclic(ring, "left", b))[0], s)
    assert q.tail_below is not None and q.tail_above is None
    pkg = build_generator(FPModule.cyclic(ring, "left", a))
    v = verify_generator_quasi_iso(pkg, q)
    assert (v.ok, v.code) == (True, "hom_exact")
    v = h0_hom_equivalence(pkg, q)
    assert (v.ok, v.code) == (True, "h0_equivalence")


def _doubling_dualize(c):
    """A broken dualize_complex: the dual twice over."""
    return finite_coproduct([dualize_complex(c)] * 2)[0]


def _scaled_dual_data(factor):
    """A dual_data whose comparison is scaled by factor: broken unless
    factor is a unit on the homology."""
    def scaled(m):
        mstar, K = dual_data(m)
        return mstar, K.scale(factor)
    return scaled


_doubling_dual_data = _scaled_dual_data(2)  # the comparison twice over


def _resolving_z2(m, depth):
    """A broken resolve_module: the resolution of Z/2 over Z, whatever M is."""
    return resolve_module(FPModule.cyclic(ZZ, m.side, 2), depth)


def _exact_nowhere(m, depth):
    """A broken resolve_module: Z in degrees -1 and 0 with d^-1 = 0."""
    return Complex(ZZ, m.side, {0: 1, -1: 1}, {}), True


def _built_with(monkeypatch, name, broken, m):
    """The package of M built while generator.<name> is broken; the
    package keeps what it derived then."""
    with monkeypatch.context() as patch:
        patch.setattr(generator, name, broken)
        return build_generator(m)


def test_failing_verdicts_of_tampered_packages_and_refused_targets(monkeypatch):
    # each package is the one for M = R over Z built with one construction
    # broken, so exactly the property that construction gives fails
    free = FPModule.free(ZZ, "left", 1)
    pkg = build_generator(free)
    with monkeypatch.context() as patch:
        patch.setattr(generator, "dualize_complex", _doubling_dualize)
        doubled_dual = double_dual_check(pkg)
    q = Complex(ZZ, "left", {0: 1}, {})
    doubled = _built_with(monkeypatch, "dual_data", _doubling_dual_data, free)
    z4 = Zmod(4)
    two = Mat(z4, 1, 1, (2,))
    periodic = Complex(z4, "left", {0: 1, 1: 1}, {0: two}, tail_below=PeriodicTail(-1, 0, 1),
                       tail_above=PeriodicTail(1, 1, 1))
    z4_pkg = build_generator(FPModule.cyclic(z4, "left", 2))
    cases = [
        (verify_generator_quasi_iso(doubled, q), "hom_not_exact", {"degree"}),
        (h0_hom_equivalence(doubled, q), "h0_not_isomorphic", {"source", "target"}),
        (verify_resolution(_built_with(monkeypatch, "resolve_module", _resolving_z2, free)),
         "degree_zero_mismatch", {"computed", "expected"}),
        (verify_resolution(_built_with(monkeypatch, "resolve_module", _exact_nowhere, free)),
         "not_exact_below", {"degree"}),
        (doubled_dual, "double_dual_mismatch", {"degree"}),
        (verify_generator_quasi_iso(z4_pkg, periodic), "unbounded_target", set()),
        (h0_hom_equivalence(z4_pkg, periodic), "unbounded_target", set()),
        # P* has an upper tail and no lower one
        (verify_generator_quasi_iso(z4_pkg, z4_pkg.dual_complex), "unbounded_target", set()),
        (h0_hom_equivalence(z4_pkg, z4_pkg.dual_complex), "unbounded_target", set()),
    ]
    for v, code, keys in cases:
        assert (v.ok, v.code, set(v.details)) == (False, code, keys)
    assert cases[4][0].details["degree"] == 0
    assert doubled.comparison == pkg.comparison.scale(2)
    v = verify_generator_quasi_iso(pkg, Complex.zero(ZZ, "left"))
    assert v.ok and v.code == "hom_exact" and v.details["note"] == "zero target"


@pytest.mark.parametrize("n, rows", [(4, [[2, 1], [0, 2]]), (12, [[4, 1], [0, 4]])])
def test_verify_resolution_eliminates_each_matrix_once(count_eliminations, n, rows):
    # H^0 and the exactness loop read one engine, and a periodic tail's
    # repeated differentials share their matrices: before, a second engine
    # for H^0 made 4 eliminations of 3 distinct matrices here, and 10 of 4
    ring = Zmod(n)
    pkg = build_generator(FPModule(ring, "left", Mat.from_rows(ring, rows)))
    calls = count_eliminations()
    assert verify_resolution(pkg).ok
    assert calls and all(calls.count(e) == 1 for e in calls), calls
    # the differentials are the matrices resolve_module eliminated to build
    # each from the one before, and they keep those eliminations
    q = pkg.resolution
    lo, hi = q.support()
    stacked = [calls.stacked(q.diff(j)) for j in range(lo - 1, hi + 1)]
    assert not any(e in stacked for e in calls), calls


def _decoded_modules(v) -> dict:
    """Each module in the verdict's details, emitted in a verdict document,
    parsed back and decoded by module_from_json."""
    modules_in = {k: x for k, x in v.details.items() if isinstance(x, FPModule)}
    ring = next((x.ring for x in modules_in.values()), ZZ)
    text = documents.emit_document(documents.make_document(ring, "verdict", v))
    details = documents.parse_document(text).payload.details
    return {k: documents.module_from_json(ring, details[k]) for k in modules_in}


def test_verdict_details_hold_modules_that_decode(monkeypatch):
    ring = Zmod(4)
    free = build_generator(FPModule.free(ZZ, "left", 1))
    z2 = build_generator(FPModule.cyclic(ring, "left", 2))
    q = Complex(ring, "left", {0: 1}, {})
    periodic = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (2,))},
                       tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    verdicts = [
        pd_bound_collapse(periodic, EngineConfig.for_ring(ring), (-4, 4)),
        verify_resolution(_built_with(monkeypatch, "resolve_module", _resolving_z2, free.module)),
        h0_hom_equivalence(_built_with(monkeypatch, "dual_data", _doubling_dual_data, free.module),
                           Complex(ZZ, "left", {0: 1}, {})),
        h0_hom_equivalence(z2, q),
        # HomClasses(P*, Q) = Hom(Z/2, Z/4) is not H^0 Q = Z/4
        suspension_homology_chain(z2, q, range(0, 1)),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(ModuleMap, "is_isomorphism", lambda self: False)
        verdicts.append(compactness_probe(z2, [q, q]))
    expected = [
        ("cycle_not_projective", ["cycle"]),
        ("degree_zero_mismatch", ["computed", "expected"]),
        ("h0_not_isomorphic", ["source", "target"]),
        ("h0_equivalence", ["group"]),
        ("chain_mismatch", ["left", "right"]),
        ("coproduct_not_respected", ["source", "target"]),
    ]
    for v, (code, keys) in zip(verdicts, expected, strict=True):
        decoded = _decoded_modules(v)
        assert v.code == code and sorted(decoded) == keys
        assert all(decoded[k] == v.details[k] for k in keys)
