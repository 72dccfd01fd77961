import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from homcert import duality
from homcert.cli import main
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

from trees import head_at

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
    assert tree.kind == "loop" and not tree.has_residual()
    v = rebuild_verify(tree)
    assert v.ok and not v.window_relative


# -- the level loop against the recursion it replaced -----------------


# The recursive decomposition that rebuilt the part of Q below degree -1
# as a new complex at every level, kept as the reference: on
# resolutions and bounded complexes the level loop must give the same
# tree, node by node, and the same verdicts.  With a tail the reference
# closes a loop at the first level whose complex equals an earlier one's.
def _decompose(q: Complex, depth: int, seen: tuple = ()) -> tuple[BuildTree, int | None]:
    """decompose_resolution without targets, and the level seen[i] that a
    back node below closes, if that level is not this one's ancestor."""
    ring = q.ring
    side = q.side
    span = q.support()
    if span is None:
        return _leaf(Complex.zero(ring, side)), None
    lo = span[0]
    if span[1] > 0:
        raise MatrixError("resolution must live in degrees <= 0")
    if q.is_bounded and (lo == 0 or depth <= 0):
        return _leaf(q), None
    if not q.is_bounded:
        again = next((i for i, c in enumerate(seen) if first_difference(c, q) is None), None)
        if again is not None:
            return BuildTree("back"), again
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
        return top, None
    below, closes = _decompose(shifted, depth - 1, seen + (q,))
    # (S^i C)^j = C^(j+i): shift 2 places shifted's degree 0 at -2
    lower = BuildTree("susp", shift=2, children=(below,))
    glue = q.diff(-2)
    tree = BuildTree(
        "cone",
        children=(BuildTree("susp", shift=-1, children=(lower,)), top),
        components={-1: glue} if glue.rows and glue.cols else {})
    if closes == len(seen):
        return BuildTree("loop", children=(tree,)), None
    return tree, closes


def _reference_tree(q, depth):
    tree, _ = _decompose(q, depth)
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
    # complex it builds differs from Q in the differential d^(-2k-2) that
    # glues level k + 1 to level k.  At the loop's level, k = 2, it differs
    # in every copy d^(-6-2i) of it, and first_difference, which scans up
    # from p + 2 degrees below the lowest entry or threshold of either
    # complex (-6, with p = 2 the lcm of their periods), names the lowest
    # copy it reads: d^-10
    ring = Zmod(4)
    q, _ = resolve_module(FPModule(ring, "right", Mat(ring, 1, 2, (2, 0))), 8)
    tree = decompose_resolution(q, 8)
    assert rebuild_verify(tree).ok
    glued = sorted((p for p in _cone_paths(tree) if _node(tree, p).components.get(-1)), key=len)
    assert len(glued) == 3 and _node(tree, glued[2][:-1]).kind == "loop"
    for k, path in enumerate(glued):
        v = rebuild_verify(_replace_at(tree, path, components={}))
        assert not v.ok and v.code == "rebuild_mismatch", k
        assert v.details == {"degree": -10 if k == 2 else -2 * k - 2}, k


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
    # check forms one product on each side of it.  The two periodic
    # resolutions repeat from their third level, so each tree has cones
    # above its loop and one inside it
    for n, rows, cols, entries in ((4, 1, 2, (2, 0)), (12, 1, 2, (6, 10))):
        ring = Zmod(n)
        p, _ = resolve_module(FPModule(ring, "right", Mat(ring, rows, cols, entries)))
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
    """The tree with the attaching map f: X -> Y at path plus e_00,
    and the degree of the root's complex where that fails: X^j lies in
    degree j - 1 of the cone, so the lowest j where f fails to commute
    gives j - 1, moved down by the node's shift."""
    node, head = _node(tree, path), head_at(tree, path + (0,))
    bad = {j: m + Mat(m.ring, m.rows, m.cols, (1,) + (0,) * (m.rows * m.cols - 1))
           for j, m in node.components.items()}
    x, y = (child.evaluate(0, head) for child in node.children)
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
    # the tree of Z/4 / (2) is a loop of one level, whose glue map meets
    # its back node; breaking it fails in d^2 from degree -3, a degree of
    # Q read across the back edge, not of a band of explicit entries
    q, _ = resolve_module(FPModule.cyclic(Zmod(4), "right", 2))
    tree = decompose_resolution(q, depth=4)
    assert q.tail_below is not None and tree.kind == "loop"
    bad, degree = _break_attaching_map(tree, (0,))
    v = rebuild_verify(bad)
    assert (v.ok, v.code, v.details) == (False, "attaching_map_not_chain_map", {"degree": -3})
    assert degree == -3


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


# -- periodic resolutions close with a loop ------------------------------
#
# Past its preperiod k0, level k + q of a periodic resolution Q is level k
# again, q = lcm(period, 2) / 2, so decompose_resolution stops at level k0
# with a loop of q levels whose back node stands for level k0 + q.  Pinned
# on the benchmark's periodic modules Z/n / (a) (copied here, not
# imported), on both sides, on every cyclic module over Z/16, Z/18 and
# Z/36, and on hand-written tails of period 3 with explicit entries:
# `decompose --depth 8` and `--depth 100` print the same bytes, the rebuild
# builds the same twisted sums at both depths, at most 2 (k0 + q) + 2 of
# them, and a wrong glue map across the back edge fails the rebuild.


BENCHMARK_PERIODIC = ((4, 2), (8, 2), (8, 4), (9, 3), (12, 2), (12, 3), (12, 4), (12, 6))
MODULES = sorted(set(BENCHMARK_PERIODIC)
                 | {(n, a) for n in (16, 18, 36) for a in _divisors(n)[1:-1]})
CASES = [(n, a, side) for n, a in MODULES for side in ("left", "right")]


def _period_3(override: bool) -> Complex:
    """Z/4 in every degree <= 0 with d^j = 0 for j = 0 mod 3 and 2
    otherwise; with override, an explicit d^-4 = 0 inside the tail."""
    ring = Zmod(4)
    two, zero = Mat(ring, 1, 1, (2,)), Mat(ring, 1, 1, (0,))
    diffs = {-1: two, -2: two, -3: zero}
    if override:
        diffs[-4] = zero
    return Complex(ring, "left", {j: 1 for j in range(-3, 1)}, diffs,
                   tail_below=PeriodicTail(-1, -3, 3))


def _resolution(n: int, a: int, side: str, depth: int) -> Complex:
    q, complete = resolve_module(FPModule.cyclic(Zmod(n), side, a), depth)
    assert complete and q.tail_below is not None
    return q


def _turn(q: Complex) -> int:
    """2q: the degrees one turn of the loop covers."""
    return math.lcm(q.tail_below.period, 2)


def _preperiod(q: Complex) -> int:
    """The first k from which Q repeats with shift 2q, read degree by
    degree down to a band below Q's explicit entries, past which Q is
    periodic anyway."""
    turn = _turn(q)
    floor = min(q.tail_below.threshold, *q.ranks, *q.diffs) - 2 * turn - 4
    return next(k for k in itertools.count() if all(
        q.rank(j) == q.rank(j - turn) and q.diff(j - 1) == q.diff(j - 1 - turn)
        for j in range(floor, -2 * k + 1)))


def _twisted_sums(monkeypatch, tree: BuildTree) -> int:
    calls = []

    def counting(left, right, g):
        calls.append(g)
        return twisted_sum(left, right, g)

    monkeypatch.setattr(duality, "twisted_sum", counting)
    v = rebuild_verify(tree)
    monkeypatch.setattr(duality, "twisted_sum", twisted_sum)
    assert (v.ok, v.code, v.window_relative) == (True, "rebuilt_identically", False)
    return len(calls)


def _path_to(tree: BuildTree, kind: str, path=()):
    if tree.kind == kind:
        return path
    for i, child in enumerate(tree.children):
        found = _path_to(child, kind, path + (i,))
        if found is not None:
            return found
    return None


def _loop_shape(tree: BuildTree) -> tuple[int, int]:
    """(levels above the loop, levels in its body), read off the tree."""
    loop, back = _path_to(tree, "loop"), _path_to(tree, "back")
    assert loop is not None and back is not None and back[:len(loop)] == loop
    # a level is a cone, S^-1 and S^2: three steps down the chain of sources
    return len(loop) // 3, (len(back) - len(loop) - 1) // 3


@pytest.mark.parametrize("n, a, side", CASES)
def test_decompose_prints_the_same_loop_at_depth_8_and_100(n, a, side, tmp_path, capsys):
    module = tmp_path / "module.json"
    module.write_text(emit_document(make_document(
        Zmod(n), "module", FPModule.cyclic(Zmod(n), side, a))))
    outs = []
    for depth in ("8", "100"):
        assert main(["decompose", str(module), "--depth", depth]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and '"kind":"loop"' in outs[0] and '"kind":"back"' in outs[0]


@pytest.mark.parametrize("n, a, side", CASES)
def test_the_loop_bounds_the_cones_rebuilt(n, a, side, monkeypatch):
    q = _resolution(n, a, side, 8)
    k0, q_levels = _preperiod(q), _turn(q) // 2
    counts = []
    for depth in (8, 100):
        tree = decompose_resolution(_resolution(n, a, side, depth), depth)
        assert _loop_shape(tree) == (k0, q_levels)
        assert not tree.has_residual()
        counts.append(_twisted_sums(monkeypatch, tree))
    assert counts[0] == counts[1] <= 2 * (k0 + q_levels) + 2


@pytest.mark.parametrize("override", [False, True], ids=["periodic", "explicit_entry"])
def test_a_tail_of_period_3_closes_after_three_levels(override, monkeypatch):
    q = _period_3(override)
    assert _preperiod(q) == (2 if override else 0)
    trees = [decompose_resolution(q, depth) for depth in range(1, 11)]
    texts = {emit_document(make_document(q.ring, "build_tree", t)) for t in trees}
    assert len(texts) == 1
    assert _loop_shape(trees[0]) == (_preperiod(q), 3)
    assert _twisted_sums(monkeypatch, trees[0]) <= 2 * (_preperiod(q) + 3) + 2


@pytest.mark.parametrize("case", CASES + ["period_3"], ids=str)
def test_a_wrong_glue_map_across_the_back_edge_fails(case):
    q = _period_3(True) if case == "period_3" else _resolution(*case, 24)
    tree = decompose_resolution(q)
    back = _path_to(tree, "back")
    edge = back[:-3]  # the cone whose source is S^-1 S^2 of the back node
    node = _node(tree, edge)
    assert node.kind == "cone" and -1 in node.components
    glue = node.components[-1]
    unit = Mat(glue.ring, glue.rows, glue.cols, (1,) + (0,) * (glue.rows * glue.cols - 1))
    for wrong in ({}, {-1: glue + unit}):
        v = rebuild_verify(_replace_at(tree, edge, components=wrong))
        assert not v.ok and v.code in ("attaching_map_not_chain_map", "rebuild_mismatch"), wrong


def test_a_loop_whose_body_overlaps_its_back_node_does_not_close():
    # the back node one degree below the body's target: the band the loop
    # repeats is not what its body builds there
    q = _resolution(4, 2, "left", 24)
    top = decompose_resolution(q).children[0].children[1]
    tree = BuildTree("loop", q, children=(BuildTree("cone", children=(BuildTree("back"), top)),))
    with pytest.raises(duality.LoopError, match="loop does not close") as exc:
        tree.evaluate()
    v = rebuild_verify(tree)
    assert (v.ok, v.code, v.details) == (False, "rebuild_mismatch", {"degree": exc.value.degree})
