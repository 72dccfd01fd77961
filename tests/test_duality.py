import random
from dataclasses import replace

import pytest

from homcert import duality
from homcert.complexes import ChainMap, Complex, dualize_complex, twisted_sum
from homcert.duality import (decompose_resolution, dualize_chain_map,
                             duality_roundtrip_check, kernel_as_dual,
                             rebuild_verify)
from homcert.generator import resolve_module
from homcert.matrices import Mat
from homcert.modules import FPModule, modules_isomorphic
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_fp_module,
                              random_null_homotopic_map)

RINGS = [ZZ, Fp(5), Zmod(4)]


def test_roundtrip_on_random_complexes():
    rng = random.Random(61)
    for ring in RINGS:
        for _ in range(20):
            g = random_bounded_complex(rng, ring)
            v = duality_roundtrip_check(g, (-4, 4))
            assert v.ok, (ring, v.code)


def test_dual_chain_map_is_chain_map_and_involutive():
    rng = random.Random(67)
    for ring in RINGS:
        for _ in range(10):
            x = random_bounded_complex(rng, ring)
            y = random_bounded_complex(rng, ring)
            f = random_null_homotopic_map(rng, x, y)
            v = duality_roundtrip_check(x, (-4, 4), test_map=f)
            assert v.ok, (ring, v.code)


def test_dualization_contravariant_on_compositions():
    rng = random.Random(71)
    for ring in RINGS:
        x = random_bounded_complex(rng, ring)
        y = random_bounded_complex(rng, ring)
        z = random_bounded_complex(rng, ring)
        f = random_null_homotopic_map(rng, x, y)
        g = random_null_homotopic_map(rng, y, z)
        gf = ChainMap(x, z, {j: g.component(j) @ f.component(j)
                             for j in range(-5, 6)
                             if not (g.component(j) @ f.component(j)).is_zero()})
        lhs = dualize_chain_map(gf, -5, 5)
        fstar = dualize_chain_map(f, -5, 5)
        gstar = dualize_chain_map(g, -5, 5)
        for j in range(-5, 6):
            assert lhs.component(j) == fstar.component(j) @ gstar.component(j)


def test_kernel_as_dual_two_term():
    # Q = (Z --2--> Z): M = coker(2) on the dual side, M* = Z^-1 Q = 2Z... = 0
    q = Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    m, iso = kernel_as_dual(q)
    assert m.side == "right"
    assert modules_isomorphic(m, FPModule.cyclic(ZZ, "right", 2))
    assert iso.is_well_defined()
    assert iso.is_isomorphism()


def test_kernel_as_dual_over_z4():
    ring = Zmod(4)
    q = Complex(ring, "left", {-1: 1, 0: 1}, {-1: Mat(ring, 1, 1, (2,))})
    m, iso = kernel_as_dual(q)
    assert modules_isomorphic(m, FPModule.cyclic(ring, "right", 2))
    assert iso.is_isomorphism()


def test_decompose_two_term_resolution():
    q = Complex(ZZ, "right", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    tree = decompose_resolution(q)
    assert tree.free_leaf_count() == 2
    assert not tree.has_residual()
    v = rebuild_verify(tree, (-3, 2))
    assert v.ok and v.code == "rebuilt_identically"


def test_decompose_counts_leaves_for_length():
    rng = random.Random(73)
    for _ in range(20):
        m = random_fp_module(rng, ZZ, side="right")
        p, complete = resolve_module(m)
        assert complete
        span = p.support()
        tree = decompose_resolution(p)
        v = rebuild_verify(tree, ((span[0] if span else 0) - 1, 1))
        assert v.ok
        length = -span[0] if span else 0
        if span:
            assert tree.free_leaf_count() == length + 1
        assert not tree.has_residual()


def test_decompose_periodic_resolution_window_relative():
    ring = Zmod(4)
    p, _ = resolve_module(FPModule.cyclic(ring, "right", 2))
    assert not p.is_bounded
    tree = decompose_resolution(p, depth=4)
    assert tree.has_residual()
    v = rebuild_verify(tree, (-6, 0))
    assert v.ok and v.window_relative


def test_dual_complex_degrees():
    q = Complex(ZZ, "left", {-2: 1, 0: 2}, {})
    d = dualize_complex(q)
    assert d.rank(2) == 1 and d.rank(0) == 2 and d.side == "right"


# -- rebuild_verify on tampered trees and its cost --------------------


def _cone_paths(tree, path=()):
    if tree.kind == "cone":
        yield path
    for i, child in enumerate(tree.children):
        yield from _cone_paths(child, path + (i,))


def _node(tree, path):
    for i in path:
        tree = tree.children[i]
    return tree


def _replace_at(tree, path, **changes):
    if not path:
        return replace(tree, **changes)
    kids = list(tree.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], **changes)
    return replace(tree, children=tuple(kids))


def _z_resolution():
    # a non-minimal free resolution of Z of length 5: long enough for
    # nested glueing cones, with nonzero differentials so that a
    # tampered glueing map fails to commute
    nil = Mat(ZZ, 2, 2, (0, 1, 0, 0))
    diffs = {j: nil for j in range(-4, 0)}
    diffs[-5] = Mat(ZZ, 2, 1, (1, 0))
    ranks = {j: 2 for j in range(-4, 1)}
    ranks[-5] = 1
    return Complex(ZZ, "right", ranks, diffs)


def _tampering_cases():
    p, _ = resolve_module(FPModule.cyclic(Zmod(4), "right", 2))
    yield decompose_resolution(p, depth=4), (-6, 0)
    q = _z_resolution()
    yield decompose_resolution(q), q.support()


def _break_attaching_map(tree, path):
    node = _node(tree, path)
    bad = {j: m + Mat.identity(m.ring, m.rows) for j, m in node.components.items()}
    return _replace_at(tree, path, components=bad), node.evaluate().support()


def test_rebuild_verify_refuses_a_bad_root_attaching_map():
    for tree, window in _tampering_cases():
        assert rebuild_verify(tree, window).ok
        bad, span = _break_attaching_map(tree, ())
        v = rebuild_verify(bad, window)
        assert not v.ok and v.code == "attaching_map_not_chain_map"
        assert v.details == {"support": span}


def test_rebuild_verify_refuses_a_bad_nested_attaching_map():
    for tree, window in _tampering_cases():
        # the deepest cone whose attaching map can fail to commute
        path = max((p for p in _cone_paths(tree) if -1 in _node(tree, p).components),
                   key=len)
        assert len(path) >= 3
        bad, span = _break_attaching_map(tree, path)
        v = rebuild_verify(bad, window)
        assert not v.ok and v.code == "attaching_map_not_chain_map"
        assert v.details == {"support": span}


def test_rebuild_verify_names_the_mismatching_degree():
    for tree, (lo, hi) in _tampering_cases():
        q = tree.target
        ranks = {j: q.rank(j) for j in range(lo, hi + 1) if q.rank(j)}
        diffs = {j: q.diff(j) for j in range(lo, hi) if j != -3}
        wrong = replace(tree, target=Complex(q.ring, q.side, ranks, diffs))
        v = rebuild_verify(wrong, (lo, hi))
        assert not v.ok and v.code == "rebuild_mismatch"
        assert v.details == {"degree": -3}


@pytest.mark.parametrize("n, a", [(4, 2), (12, 4)])
def test_rebuild_verify_builds_each_cone_once(monkeypatch, n, a):
    # twisted_sum is the one primitive every cone node is built with
    calls = []

    def counting_twisted_sum(left, right, g):
        calls.append(g)
        return twisted_sum(left, right, g)

    monkeypatch.setattr(duality, "twisted_sum", counting_twisted_sum)
    p, _ = resolve_module(FPModule.cyclic(Zmod(n), "right", a))
    assert not p.is_bounded
    tree = decompose_resolution(p, depth=8)
    assert rebuild_verify(tree, (-8, 0)).ok
    assert len(calls) == len(list(_cone_paths(tree)))
