import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from homcert import duality
from homcert.complexes import (ChainMap, Complex, PeriodicTail, dualize_complex,
                               first_difference, twisted_sum)
from homcert.documents import emit_document, make_document
from homcert.duality import (BuildTree, _leaf, decompose_resolution, dualize_chain_map,
                             duality_roundtrip_check, rebuild_verify)
from homcert.generator import resolve_module
from homcert.matrices import Mat, MatrixError
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_fp_module, random_matrix,
                              random_null_homotopic_map)

RINGS = [ZZ, Fp(5), Zmod(4)]


def test_roundtrip_on_random_complexes():
    rng = random.Random(61)
    for ring in RINGS:
        for _ in range(20):
            g = random_bounded_complex(rng, ring)
            v = duality_roundtrip_check(g)
            assert v.ok and v.details == {}, (ring, v.code)


def test_dual_chain_map_is_chain_map_and_involutive():
    rng = random.Random(67)
    for ring in RINGS:
        for _ in range(10):
            x = random_bounded_complex(rng, ring)
            y = random_bounded_complex(rng, ring)
            f = random_null_homotopic_map(rng, x, y)
            v = duality_roundtrip_check(x, test_map=f)
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
        lhs = dualize_chain_map(gf)
        fstar = dualize_chain_map(f)
        gstar = dualize_chain_map(g)
        for j in range(-5, 6):
            assert lhs.component(j) == fstar.component(j) @ gstar.component(j)


DUAL_RINGS = [ZZ, Fp(5), Zmod(4), Zmod(12)]


def _windowed_dual(f: ChainMap, lo: int, hi: int) -> ChainMap:
    """The dual as it was built: the nonzero transposes f^-j for j in
    [lo, hi] only."""
    comps = {}
    for j in range(lo, hi + 1):
        m = f.component(-j).transpose()
        if m.rows and m.cols and not m.is_zero():
            comps[j] = m
    return ChainMap(dualize_complex(f.target), dualize_complex(f.source), comps)


def _random_map(rng, x: Complex, y: Complex) -> ChainMap:
    """Random components, a chain map or not, some of them zero."""
    return ChainMap(x, y, {j: random_matrix(rng, x.ring, y.rank(j), x.rank(j), 3)
                           for j in range(-5, 6) if x.rank(j) and y.rank(j)
                           and rng.random() < 0.6})


@pytest.mark.parametrize("ring", DUAL_RINGS, ids=str)
def test_dual_map_equals_the_windowed_construction_over_both_supports(ring):
    rng = random.Random(f"dual-map/{ring}")
    for _ in range(40):
        x, y = random_bounded_complex(rng, ring), random_bounded_complex(rng, ring)
        for f in (random_null_homotopic_map(rng, x, y), _random_map(rng, x, y)):
            # the window cmd_dualize derived from the two supports
            spans = [s for s in (x.support(), y.support()) if s]
            lo = -max((s[1] for s in spans), default=0)
            hi = -min((s[0] for s in spans), default=0)
            assert dualize_chain_map(f) == _windowed_dual(f, lo, hi)


def test_a_test_map_failing_outside_the_window_is_refused():
    # R --2--> R in degrees 6, 7 with f^6 = 1, f^7 = 3 is not a chain
    # map; its dual fails in degree -7, outside (-4, 4), inside which
    # the windowed dual had no component at all
    g = random_bounded_complex(random.Random(3), ZZ)
    x = Complex(ZZ, "left", {6: 1, 7: 1}, {6: Mat(ZZ, 1, 1, (2,))})
    f = ChainMap(x, x, {6: Mat(ZZ, 1, 1, (1,)), 7: Mat(ZZ, 1, 1, (3,))})
    assert _windowed_dual(f, -4, 4).components == {}
    v = duality_roundtrip_check(g, test_map=f)
    assert not v.ok and v.code == "dual_map_not_chain_map"
    ok = ChainMap(x, x, {6: Mat(ZZ, 1, 1, (3,)), 7: Mat(ZZ, 1, 1, (3,))})
    assert duality_roundtrip_check(g, test_map=ok).code == "roundtrip_identity"


def test_decompose_two_term_resolution():
    q = Complex(ZZ, "right", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    tree = decompose_resolution(q)
    assert tree.free_leaf_count() == 2
    assert not tree.has_residual()
    v = rebuild_verify(tree)
    assert v.ok and v.code == "rebuilt_identically" and v.details == {"free_leaves": 2}


def test_decompose_counts_leaves_for_length():
    rng = random.Random(73)
    for _ in range(20):
        m = random_fp_module(rng, ZZ, side="right")
        p, complete = resolve_module(m)
        assert complete
        span = p.support()
        tree = decompose_resolution(p)
        v = rebuild_verify(tree)
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
    v = rebuild_verify(tree)
    assert v.ok and not v.window_relative


# -- the level loop against the recursion it replaced -----------------


# The recursive decomposition that rebuilt the part of Q below degree -1
# as a new complex at every level, kept as the reference: on
# resolutions and bounded complexes the level loop must give the same
# tree, node by node, and the same verdicts.
def _decompose(q: Complex, depth: int) -> BuildTree:
    """decompose_resolution without targets; its residual leaf is the
    part of Q it has built itself, tail included."""
    ring = q.ring
    side = q.side
    span = q.support()
    if span is None:
        return _leaf(Complex.zero(ring, side))
    lo = span[0]
    if span[1] > 0:
        raise MatrixError("resolution must live in degrees <= 0")
    if lo == 0 and q.is_bounded:
        return _leaf(q)
    if depth <= 0:
        return _leaf(q)
    r0 = q.rank(0)
    r1 = q.rank(-1)
    top = BuildTree(
        "cone",
        children=(_leaf(Complex(ring, side, {0: r1}, {})),
                  _leaf(Complex(ring, side, {0: r0}, {}))),
        components={0: q.diff(-1)} if r0 and r1 else {})
    # the double desuspension of the part below degree -1
    lower_ranks = {}
    lower_diffs = {}
    if q.is_bounded:
        for j in range(lo, -1):
            if q.rank(j):
                lower_ranks[j + 2] = q.rank(j)
        for j in range(lo, -2):
            d = q.diff(j)
            if d.rows and d.cols:
                lower_diffs[j + 2] = d
        shifted = Complex(ring, side, lower_ranks, lower_diffs)
    else:
        tail = q.tail_below
        # slide the folded threshold down so its explicit block stays
        # inside the materialized degrees <= -1
        t2 = tail.threshold + 2
        while t2 > -tail.period:
            t2 -= tail.period
        for j in range(t2, 1):
            if q.rank(j - 2):
                lower_ranks[j] = q.rank(j - 2)
        for j in range(t2, 0):
            d = q.diff(j - 2)
            if d.rows and d.cols:
                lower_diffs[j] = d
        shifted = Complex(ring, side, lower_ranks, lower_diffs,
                          tail_below=PeriodicTail(-1, t2, tail.period))
    if shifted.support() is None:
        return top
    # (S^i C)^j = C^(j+i): shift 2 places shifted's degree 0 at -2
    lower = BuildTree("susp", shift=2, children=(_decompose(shifted, depth - 1),))
    glue = q.diff(-2)
    return BuildTree(
        "cone",
        children=(BuildTree("susp", shift=-1, children=(lower,)), top),
        components={-1: glue} if glue.rows and glue.cols else {})


def _reference_tree(q, depth):
    tree = _decompose(q, depth)
    return replace(tree, target=tree.payload if tree.kind == "leaf" else q)


def _same_tree(a: BuildTree, b: BuildTree):
    """Equal node by node, with leaf payloads equal in every degree: a
    residual leaf with a tail may write its explicit degrees otherwise."""
    assert (a.kind, a.shift, a.residual, a.components, len(a.children)) \
        == (b.kind, b.shift, b.residual, b.components, len(b.children))
    if a.kind == "leaf":
        assert first_difference(a.payload, b.payload) is None
    for x, y in zip(a.children, b.children):
        _same_tree(x, y)


def _with_zero_entries(rng, c):
    """c with explicit zero ranks in some of its rank-0 degrees and a 0 x r
    differential out of some rank-r degree into a rank-0 one."""
    ranks = dict(c.ranks)
    diffs = dict(c.diffs)
    for j in range(-9, 1):
        if c.rank(j) == 0 and rng.random() < 0.3:
            ranks[j] = 0
        elif c.rank(j) and c.rank(j + 1) == 0 and j < 0 and rng.random() < 0.3:
            diffs[j] = Mat.zero(c.ring, 0, c.rank(j))
    return Complex(c.ring, c.side, ranks, diffs, c.tail_below, c.tail_above)


DECOMPOSE_RINGS = [ZZ, Fp(5), Zmod(4), Zmod(8), Zmod(9), Zmod(12)]


@given(st.sampled_from(DECOMPOSE_RINGS), st.randoms(use_true_random=False),
       st.integers(-1, 10), st.sampled_from(["module", "cyclic", "bounded"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_level_loop_matches_the_recursive_decomposition(ring, rng, depth, source):
    side = rng.choice(["left", "right"])
    if source == "module":
        q, _ = resolve_module(random_fp_module(rng, ring, side))
    elif source == "cyclic":
        n = ring.modulus or rng.randint(0, 6)
        q, _ = resolve_module(FPModule.cyclic(ring, side, rng.randint(0, n)))
    else:
        q = random_bounded_complex(rng, ring, side, lo=-7, hi=0)
    q = _with_zero_entries(rng, q)
    got, want = decompose_resolution(q, depth), _reference_tree(q, depth)
    _same_tree(got, want)
    if q.is_bounded:
        assert (emit_document(make_document(ring, "build_tree", got))
                == emit_document(make_document(ring, "build_tree", want)))
    v = rebuild_verify(got)
    assert v == rebuild_verify(want) and v.ok and not v.window_relative


def test_explicit_entries_inside_a_lower_tail_rebuild():
    # d^-5 = 0 overrides the repeated [2]; the reference's sliding
    # threshold folded it away again and so rebuilt a different complex
    ring = Zmod(4)
    q = Complex(ring, "left", {0: 1, -1: 1},
                {-1: Mat(ring, 1, 1, (2,)), -5: Mat(ring, 1, 1, (0,))},
                tail_below=PeriodicTail(-1, -1, 1))
    for depth in range(1, 11):
        v = rebuild_verify(decompose_resolution(q, depth))
        assert v.ok and v.code == "rebuilt_identically" and not v.window_relative, depth
    v = rebuild_verify(_reference_tree(q, 8))
    assert not v.ok and v.code == "rebuild_mismatch"


def _divisors(n):
    return [a for a in range(1, n + 1) if n % a == 0]


@pytest.mark.parametrize("n", [4, 8, 9, 12, 16, 18])
def test_every_cyclic_module_over_z_n_rebuilds_in_every_degree(n):
    # the residual leaf keeps Q's periodic tail, so no depth leaves a
    # degree of Q uncompared
    for a in _divisors(n):
        for side in ("left", "right"):
            for depth in range(1, 9):
                q, _ = resolve_module(FPModule.cyclic(Zmod(n), side, a), depth)
                v = rebuild_verify(decompose_resolution(q, depth))
                assert v.ok and v.code == "rebuilt_identically", (a, side, depth, v)
                assert not v.window_relative


def test_a_zero_glue_map_at_any_level_is_a_rebuild_mismatch():
    # a zero glue map is still a chain map, so the tree evaluates; the
    # complex it builds differs from Q first in the differential d^(-2k-2)
    # that glues level k + 1 to level k
    q, _ = resolve_module(FPModule.cyclic(Zmod(4), "left", 2), 8)
    tree = decompose_resolution(q, 8)
    assert rebuild_verify(tree).ok
    for k in range(8):
        path = (0, 0, 0) * k  # S^-1, S^2 and the cone of the level below
        assert _node(tree, path).components
        v = rebuild_verify(_replace_at(tree, path, components={}))
        assert not v.ok and v.code == "rebuild_mismatch", k
        assert v.details == {"degree": -2 * k - 2}, k


def test_decompose_refuses_an_upper_tail():
    ring = Zmod(4)
    q = Complex(ring, "left", {-1: 1, 0: 1}, {-1: Mat(ring, 1, 1, (2,))},
                tail_above=PeriodicTail(1, 0, 1))
    with pytest.raises(MatrixError, match="degrees <= 0"):
        decompose_resolution(q)


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
    # over Z/4, Z/12 and Z; an attaching map has one component, so the
    # check forms one product on each side of it
    for n, a in ((4, 2), (12, 4)):
        p, _ = resolve_module(FPModule.cyclic(Zmod(n), "right", a))
        yield decompose_resolution(p, depth=4)
    yield decompose_resolution(_z_resolution())


def _shift_at(tree, path):
    """The shift evaluate applies to the node at path: a susp node's
    shift, and 1 for a cone's source."""
    shift = 0
    for i in path:
        if tree.kind == "susp":
            shift += tree.shift
        elif tree.kind == "cone" and i == 0:
            shift += 1
        tree = tree.children[i]
    return shift


def _break_attaching_map(tree, path):
    """The tree with the attaching map f: X -> Y at path plus identities,
    and the degree of the root's complex where that fails: X^j lies in
    degree j - 1 of the cone, so the lowest j where f fails to commute
    gives j - 1, moved down by the node's shift."""
    node = _node(tree, path)
    bad = {j: m + Mat.identity(m.ring, m.rows) for j, m in node.components.items()}
    x, y = (child.evaluate() for child in node.children)
    f = ChainMap(x, y, bad)
    j = next(j for j in f.degrees()
             if y.diff(j) @ f.component(j) != f.component(j + 1) @ x.diff(j))
    degree = j - 1 - _shift_at(tree, path)
    assert tree.target.rank(degree) > 0
    return _replace_at(tree, path, components=bad), degree


def test_rebuild_verify_refuses_a_bad_root_attaching_map():
    for tree in _tampering_cases():
        assert rebuild_verify(tree).ok
        bad, degree = _break_attaching_map(tree, ())
        v = rebuild_verify(bad)
        assert not v.ok and v.code == "attaching_map_not_chain_map"
        assert v.details == {"degree": degree}


def test_rebuild_verify_refuses_a_bad_nested_attaching_map():
    for tree in _tampering_cases():
        # the deepest cone whose attaching map can fail to commute
        path = max((p for p in _cone_paths(tree) if -1 in _node(tree, p).components),
                   key=len)
        assert len(path) >= 3
        bad, degree = _break_attaching_map(tree, path)
        v = rebuild_verify(bad)
        assert not v.ok and v.code == "attaching_map_not_chain_map"
        assert v.details == {"degree": degree}


def test_a_bad_glue_map_names_a_degree_of_a_tailed_target():
    # the depth-4 tree of Z/4 / (2) ends in a residual leaf with Q's
    # lower tail; breaking the glue map of level k fails in d^2 from
    # degree -2k - 3, a degree of Q, not a band of explicit entries
    q, _ = resolve_module(FPModule.cyclic(Zmod(4), "right", 2))
    tree = decompose_resolution(q, depth=4)
    assert q.tail_below is not None and tree.has_residual()
    for k in range(4):
        path = (0, 0, 0) * k
        bad, degree = _break_attaching_map(tree, path)
        v = rebuild_verify(bad)
        assert (v.ok, v.code, v.details) == \
            (False, "attaching_map_not_chain_map", {"degree": -2 * k - 3}), k
        assert degree == -2 * k - 3


def test_rebuild_verify_names_the_mismatching_degree():
    for tree in _tampering_cases():
        q = tree.target
        diffs = {**q.diffs, -3: Mat.zero(q.ring, q.rank(-2), q.rank(-3))}
        wrong = replace(tree, target=Complex(q.ring, q.side, q.ranks, diffs, q.tail_below))
        v = rebuild_verify(wrong)
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
    assert rebuild_verify(tree).ok
    assert len(calls) == len(list(_cone_paths(tree)))


def test_rebuild_verify_cost_grows_linearly_with_depth(monkeypatch):
    # each cone node recomputes only the degrees of its top cone, so
    # rebuilding 8 times as many levels reads at most 10 times as many
    # differentials; recomputing every lower degree at every node reads
    # 17 times as many
    diff, calls = Complex.diff, []

    def counting_diff(c, j):
        calls.append(j)
        return diff(c, j)

    def diffs_to_rebuild(depth):
        p, _ = resolve_module(FPModule.cyclic(Zmod(4), "right", 2), depth)
        tree = decompose_resolution(p, depth)
        calls.clear()
        monkeypatch.setattr(Complex, "diff", counting_diff)
        assert rebuild_verify(tree).ok
        monkeypatch.setattr(Complex, "diff", diff)
        return len(calls)

    assert diffs_to_rebuild(64) <= 10 * diffs_to_rebuild(8)
