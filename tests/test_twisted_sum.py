"""The one cone-building path: `twisted_sum`, and `BuildTree.evaluate`
with shifts pushed to the leaves.

Over Z, F_5, Z/4 and Z/12: `cone` equals the per-degree block formula
it replaced in every degree, including degrees where only the source or
only the target is nonzero; a tree evaluated at shift i equals the i'th
suspension of the tree evaluated at 0; and a map that is not a chain
map is refused with ChainMapError.  Over Z, F_7, Z/4, Z/8 and Z/12,
`twisted_sum` equals, rank order included, a loop over every degree
(`_loop_twisted_sum`), whatever form its summands' ranks and
differentials take, and refuses a twisting map the loop refuses, naming
the same degree.  With a periodic resolution over Z/n as L it equals
that loop above L's repeating block and L below it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from homcert.complexes import (ChainMap, ChainMapError, Complex, ComplexError,
                               _TwistingMap, cone, dualize_complex, finite_coproduct,
                               suspension, twisted_sum)
from homcert.duality import decompose_resolution
from homcert.generator import resolve_module
from homcert.matrices import Mat, MatrixError, assemble_blocks
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_matrix,
                              random_null_homotopic_map)

from trees import nodes_with_heads

RINGS = [ZZ, Fp(5), Zmod(4), Zmod(12)]
SUM_RINGS = [ZZ, Fp(7), Zmod(4), Zmod(8), Zmod(12)]
CHECK_RINGS = [ZZ, Zmod(4), Zmod(12)]
CHECKS = settings(max_examples=60, deadline=None, derandomize=True)


def reference_cone(f: ChainMap) -> Complex:
    """cone(f) degree by degree: [[-d_X, 0], [f, d_Y]] on X^(j+1) (+) Y^j,
    through the public, fully checked Complex constructor."""
    X, Y = f.source, f.target
    degs = set()
    for c, shift in ((X, -1), (Y, 0)):
        span = c.support()
        if span:
            degs.update(range(span[0] + shift, span[1] + 1 + shift))
    ranks = {j: X.rank(j + 1) + Y.rank(j) for j in sorted(degs)}
    ranks = {j: r for j, r in ranks.items() if r}
    diffs = {j: assemble_blocks(
        X.ring,
        [[X.diff(j + 1).scale(-1), None], [f.component(j + 1), Y.diff(j)]],
        [X.rank(j + 2), Y.rank(j + 1)],
        [X.rank(j + 1), Y.rank(j)],
    ) for j in ranks if j + 1 in ranks}
    return Complex(X.ring, X.side, ranks, diffs)


def _same_in_every_degree(a: Complex, b: Complex):
    assert a.ranks == b.ranks
    for j in range(min(a.ranks, default=0) - 2, max(a.ranks, default=0) + 2):
        assert a.rank(j) == b.rank(j) and a.diff(j) == b.diff(j), j


def _random_components(rng, x: Complex, y: Complex) -> dict[int, Mat]:
    comps = {}
    for j in range(-5, 5):
        if x.rank(j) and y.rank(j) and rng.random() < 0.5:
            comps[j] = random_matrix(rng, x.ring, y.rank(j), x.rank(j), 3)
    return comps


def _loop_twisted_sum(L: Complex, Y: Complex, g: dict[int, Mat]) -> Complex:
    """The reference twisted sum: every degree of both summands in one
    loop, absent components of g as zero matrices."""
    if not (L.is_bounded and Y.is_bounded):
        raise ComplexError("twisted sum requires bounded complexes")
    _TwistingMap(L, Y, g)
    ring = L.ring

    def twist(j: int) -> Mat:
        return g[j] if j in g else Mat.zero(ring, Y.rank(j + 1), L.rank(j))

    # d_Y g = -(g d_L), compared as ChainMap.commutes compares: no
    # checked Mat is built
    for j in range(min(g) - 1, max(g) + 1) if g else ():
        if Y.diff(j + 1) @ twist(j) != (twist(j + 1) @ L.diff(j)).scale(-1):
            raise ChainMapError(f"twisting map fails d g + g d = 0 in degree {j}", j)
    # both are bounded, so a degree missing from ranks has rank 0
    lr, yr = L.ranks, Y.ranks
    ranks = {j: lr.get(j, 0) + yr.get(j, 0) for j in sorted(lr.keys() | yr.keys())}
    ranks = {j: r for j, r in ranks.items() if r}
    diffs = {}
    for j in ranks:
        if j + 1 not in ranks:
            continue
        rows, cols = (lr.get(j + 1, 0), yr.get(j + 1, 0)), (lr.get(j, 0), yr.get(j, 0))
        if not (rows[0] or cols[0]):
            diffs[j] = Y.diff(j)
        elif not (rows[1] or cols[1]):
            diffs[j] = L.diff(j)
        elif not (rows[0] or cols[1]):
            diffs[j] = twist(j)
        else:
            diffs[j] = assemble_blocks(ring, [[L.diff(j), None], [g.get(j), Y.diff(j)]],
                                       rows, cols)
    return Complex._trusted(ring, L.side, ranks, diffs)


# -- twisted_sum against the loop over every degree -------------------


def _summand(rng, ring, pieces: int, width: int) -> Complex:
    """A random bounded complex in degrees -width..width; with two or
    more pieces, half the time a second one lies two degrees below its
    support, so a gap splits it."""
    c = random_bounded_complex(rng, ring, max_pieces=pieces, lo=-width, hi=width)
    if pieces > 1 and rng.random() < 0.5:
        lo, hi = c.support()
        far = random_bounded_complex(rng, ring, max_pieces=pieces, lo=-width, hi=width)
        c = _loop_twisted_sum(c, suspension(far, hi - lo + 4), {})
    return c


def _reform(rng, c: Complex) -> Complex:
    """c, equal in every degree, in a random form a public Complex may
    take: the form twisted_sum returns (c.restrict), or ranks in
    increasing or random order, explicit zero ranks, and differentials
    either for exactly each pair of adjacent explicit degrees or at
    random: 0 x k, k x 0 and 0 x 0 ones added, and zero ones between
    nonzero terms left out."""
    span = c.support() or (0, 0)
    if rng.random() < 0.4:
        return c.restrict(*span)
    degrees = list(range(span[0] - 2, span[1] + 3))
    if rng.random() < 0.5:
        rng.shuffle(degrees)
    zeros = rng.random() < 0.7
    ranks = {j: c.rank(j) for j in degrees if c.rank(j) or zeros and rng.random() < 0.5}
    if rng.random() < 0.3:
        return Complex(c.ring, c.side, ranks, {j: c.diff(j) for j in ranks if j + 1 in ranks})
    diffs = {}
    for j in degrees:
        d = c.diff(j)
        if d.rows and d.cols:
            if not (d.is_zero() and rng.random() < 0.5):
                diffs[j] = d
        elif rng.random() < 0.3:
            diffs[j] = d
    return Complex(c.ring, c.side, ranks, diffs)


@given(st.sampled_from(SUM_RINGS), st.randoms(use_true_random=False), st.booleans(),
       st.booleans())
@settings(CHECKS, max_examples=300)
def test_twisted_sum_equals_the_loop_over_every_degree(ring, rng, twisted, left_larger):
    # one summand has up to six pieces and may have a gap, the other at
    # most two; a twisted sum glues them along a chain map f: X -> Y as
    # cone(f) does, with L = S X and g^(j-1) = f^j
    big, small = _summand(rng, ring, 6, 4), _summand(rng, ring, 2, 2)
    x, y = (big, small) if left_larger else (small, big)
    g = {}
    if twisted:
        f = random_null_homotopic_map(rng, suspension(x, -1), y)
        g = {j - 1: m for j, m in f.components.items()}
    else:
        x = suspension(x, rng.randint(-3, 3))
    # suspending twice keeps every value and passes the form through
    # suspension, as cone(f) passes S X
    L, Y = (suspension(suspension(c, 1), -1) if rng.random() < 0.3 else c
            for c in (_reform(rng, x), _reform(rng, y)))
    # components on a zero term are zero matrices of their shape
    for j in range(-12, 12):
        if not (L.rank(j) and Y.rank(j + 1)) and rng.random() < 0.2:
            g[j] = Mat.zero(ring, Y.rank(j + 1), L.rank(j))
    got, want = twisted_sum(L, Y, g), _loop_twisted_sum(L, Y, g)
    assert got == want and list(got.ranks) == list(want.ranks)
    # an arbitrary extra component: refused by both, or summed alike
    meet = [j for j in sorted(L.ranks) if L.rank(j) and Y.rank(j + 1)]
    if meet:
        j = rng.choice(meet)
        g[j] = random_matrix(rng, ring, Y.rank(j + 1), L.rank(j), 3)
        try:
            want = _loop_twisted_sum(L, Y, g)
        except ChainMapError as exc:
            with pytest.raises(ChainMapError) as refused:
                twisted_sum(L, Y, g)
            assert refused.value.degree == exc.degree
        else:
            got = twisted_sum(L, Y, g)
            assert got == want and list(got.ranks) == list(want.ranks)


@pytest.mark.parametrize("ring", SUM_RINGS, ids=str)
def test_twisted_sum_with_a_larger_summand_of_explicit_zero_ranks(ring):
    # an unmarked larger summand is restricted to its support first; with
    # no nonzero rank that is the empty complex
    zeros = Complex(ring, "left", {j: 0 for j in (2, -2, 0, 1, -1)}, {0: Mat.zero(ring, 0, 0)})
    small = Complex(ring, "left", {-1: 1, 0: 1}, {-1: Mat(ring, 1, 1, (2,))})
    for L, Y in ((zeros, small), (small, zeros), (zeros, zeros)):
        got, want = twisted_sum(L, Y, {}), _loop_twisted_sum(L, Y, {})
        assert got == want and list(got.ranks) == list(want.ranks)


# -- a summand with a lower tail --------------------------------------


TAILED = [(4, 2), (8, 2), (9, 3), (12, 4), (12, 6), (16, 4)]


def _hull(*cs: Complex) -> range:
    """The explicit entries and tail thresholds of cs, two periods wider."""
    tails = [t for c in cs for t in (c.tail_below, c.tail_above) if t is not None]
    ends = [t.threshold for t in tails] + [j for c in cs for j in (*c.ranks, *c.diffs)]
    wide = 2 * max((t.period for t in tails), default=1) + 2
    return range(min(ends) - wide, max(ends) + wide + 1)


@given(st.sampled_from(TAILED), st.sampled_from(["left", "right"]),
       st.randoms(use_true_random=False), st.booleans())
@settings(CHECKS, max_examples=150)
def test_twisted_sum_with_a_tailed_L_equals_the_loop_above_its_block(na, side, rng, marked):
    # L: a periodic resolution, as resolve_module writes it or cut below
    # a top (marked), suspended.  Y: a bounded complex above L's explicit
    # entries and threshold, sometimes with an explicit zero rank among
    # L's degrees.  g: perhaps one component L^j -> Y^(j+1) below Y.
    n, a = na
    ring = Zmod(n)
    p, _ = resolve_module(FPModule.cyclic(ring, side, a))
    L = suspension(p.below(rng.randint(-4, 0)) if marked else p, rng.randint(-2, 2))
    t = L.tail_below
    top = max(t.threshold, *L.ranks, *L.diffs)
    y = suspension(random_bounded_complex(rng, ring, side, lo=0, hi=3), -top - rng.randint(1, 2))
    if rng.random() < 0.5:
        y = Complex(ring, side, {**y.ranks, rng.randint(t.threshold - 3, top): 0}, y.diffs)
    g, j = {}, y.support()[0] - 1
    if L.rank(j) and rng.random() < 0.7:
        g[j] = random_matrix(rng, ring, y.rank(j + 1), L.rank(j), 3)
    try:
        want = _loop_twisted_sum(L.restrict(t.threshold, top), y, g)
    except ChainMapError as exc:
        with pytest.raises(ChainMapError) as refused:
            twisted_sum(L, y, g)
        assert refused.value.degree == exc.degree
        return
    got = twisted_sum(L, y, g)
    assert got.tail_above is None and got.tail_below.period == t.period
    Complex(ring, side, got.ranks, got.diffs, got.tail_below)
    for j in _hull(got, L, y):
        ref = want if j >= t.threshold else L
        assert got.rank(j) == ref.rank(j) and got.diff(j) == ref.diff(j), j


def test_twisted_sum_refuses_what_a_lower_tail_of_L_cannot_carry():
    ring = Zmod(4)
    p, _ = resolve_module(FPModule.cyclic(ring, "left", 2))  # degrees <= 0
    single = Complex(ring, "left", {1: 1}, {})
    assert twisted_sum(p, single, {}).tail_below == p.below(0).tail_below
    # a Y with a tail, either tail
    for y in (p, dualize_complex(p)):
        with pytest.raises(ComplexError, match="bounded Y"):
            twisted_sum(single, y, {})
    # an L with an upper tail
    with pytest.raises(ComplexError, match="bounded above"):
        twisted_sum(suspension(dualize_complex(p), 3), single, {})
    # L's explicit entries reach Y's lowest term, or Y lies inside the tail
    for j in (0, -1, -5):
        with pytest.raises(ComplexError, match="below Y's terms"):
            twisted_sum(p, Complex(ring, "left", {j: 1, 1: 1}, {}), {})
    # finite_coproduct sums as untwisted sums, so it refuses a tail too
    with pytest.raises(ComplexError):
        finite_coproduct([single, p])


# -- cone against the reference formula -------------------------------


@given(st.sampled_from(RINGS), st.randoms(use_true_random=False), st.integers(-3, 3),
       st.booleans())
@CHECKS
def test_cone_equals_the_reference_in_every_degree(ring, rng, offset, identity):
    # the offset moves Y against X, so the supports overlap, touch or lie
    # apart, and some degrees hold only the source or only the target
    x = random_bounded_complex(rng, ring)
    y = suspension(random_bounded_complex(rng, ring), offset)
    f = ChainMap.identity(x) if identity else random_null_homotopic_map(rng, x, y)
    _same_in_every_degree(cone(f), reference_cone(f))


def test_cone_with_disjoint_supports_keeps_each_side():
    ring = Zmod(12)
    x = Complex(ring, "left", {2: 1, 3: 2}, {2: Mat(ring, 2, 1, (3, 4))})
    y = Complex(ring, "left", {-2: 2, -1: 1}, {-2: Mat(ring, 1, 2, (5, 6))})
    c = cone(ChainMap(x, y, {}))
    _same_in_every_degree(c, reference_cone(ChainMap(x, y, {})))
    # only Y lives in degrees -2..-1, only S X in 1..2: no new matrix
    assert c.diffs[-2] is y.diffs[-2]
    assert c.diffs[1] == x.diffs[2].scale(-1)


# -- chain-map check --------------------------------------------------


@given(st.sampled_from(RINGS), st.randoms(use_true_random=False), st.integers(-2, 2))
@CHECKS
def test_a_map_that_is_not_a_chain_map_is_refused(ring, rng, offset):
    x = random_bounded_complex(rng, ring)
    y = suspension(random_bounded_complex(rng, ring), offset)
    f = ChainMap(x, y, _random_components(rng, x, y))
    if not f.commutes():
        with pytest.raises(ChainMapError):
            cone(f)
    else:
        _same_in_every_degree(cone(f), reference_cone(f))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_twisted_sum_checks_its_components(ring):
    one = Mat.identity(ring, 1)
    x = Complex(ring, "left", {0: 1}, {})
    y = Complex(ring, "left", {0: 1, 1: 1}, {0: one})
    # g^0: x^0 -> y^1, and d_Y^1 = 0: d_Y g + g d_L = 0 holds
    assert twisted_sum(x, y, {0: one}).ranks == {0: 2, 1: 1}
    with pytest.raises(MatrixError, match="degree 1 has shape 1x1, expected 0x0"):
        twisted_sum(x, y, {1: one})
    # d_Y^1 g^0 = -1 but g^1 d_L^0 = 0: fails at the highest component
    with pytest.raises(ChainMapError):
        twisted_sum(x, suspension(y, -1), {0: one})
    # g^0 d_L^-1 = -1 but d_Y^0 g^-1 = 0: fails one degree below the lowest
    with pytest.raises(ChainMapError):
        twisted_sum(suspension(y, 1), suspension(x, -1), {0: one})


@pytest.mark.parametrize("ring", CHECK_RINGS, ids=str)
@pytest.mark.parametrize("a, b", [(1, 1), (2, 2), (2, 6), (3, 4)])
def test_a_component_on_one_side_only_is_refused_when_its_product_is_not_zero(ring, a, b):
    # g^0 = b with no g^1 forms only d_Y^1 g^0 = ab; with no g^-1 the
    # check in degree -1 forms only g^0 d_L^-1 = ba.  Each must vanish
    # in the ring: ab = 4 does over Z/4, ab = 12 over Z/4 and Z/12.
    da, gb = Mat(ring, 1, 1, (a,)), {0: Mat(ring, 1, 1, (b,))}
    one = Complex(ring, "left", {0: 1}, {})
    cases = [(one, Complex(ring, "left", {1: 1, 2: 1}, {1: da})),
             (Complex(ring, "left", {-1: 1, 0: 1}, {-1: da}), Complex(ring, "left", {1: 1}, {}))]
    for L, Y in cases:
        if ring.normalize(a * b):
            with pytest.raises(ChainMapError):
                twisted_sum(L, Y, gb)
        else:
            assert twisted_sum(L, Y, gb) == _loop_twisted_sum(L, Y, gb)


@pytest.mark.parametrize("ring", CHECK_RINGS, ids=str)
def test_a_degree_gap_inside_the_twist(ring):
    # X is R -2-> R in degrees 0, 1 and again in 3, 4: the cone of its
    # identity has g in degrees -1, 0 and 2, 3 and a gap at 1, where
    # neither side is formed
    two = Mat(ring, 1, 1, (2,))
    x = Complex(ring, "left", {0: 1, 1: 1, 3: 1, 4: 1}, {0: two, 3: two})
    identity = ChainMap.identity(x)
    c = cone(identity)
    assert c == reference_cone(identity)
    assert c == _loop_twisted_sum(suspension(x), x, {j - 1: m for j, m in
                                                     identity.components.items()})
    # without its components in degrees 1 and 3 the map fails to commute
    # with d in degree 0 (d f^0 = 2, f^1 d = 0) over each ring
    partial = ChainMap(x, x, {j: m for j, m in identity.components.items() if j in (0, 4)})
    with pytest.raises(ChainMapError, match="degree -1"):
        cone(partial)


# -- shifts pushed to the leaves --------------------------------------


PERIODIC = [(4, 2), (8, 2), (12, 2), (12, 3), (12, 4), (12, 6)]


@given(st.sampled_from(PERIODIC), st.integers(0, 8), st.integers(-3, 3))
@settings(CHECKS, max_examples=40)
def test_evaluate_at_a_shift_is_the_suspension(na, depth, shift):
    n, a = na
    p, _ = resolve_module(FPModule.cyclic(Zmod(n), "right", a))
    # a node inside a loop evaluates with the head the loop hands it
    for node, head in nodes_with_heads(decompose_resolution(p, depth=depth)):
        assert node.evaluate(shift, head) == suspension(node.evaluate(0, head), shift)


@pytest.mark.parametrize("ring", [ZZ, Fp(5)], ids=str)
def test_evaluate_at_a_shift_over_finite_resolutions(ring):
    p, _ = resolve_module(FPModule.cyclic(ring, "right", 3 if ring == ZZ else 0))
    tree = decompose_resolution(p)
    for shift in range(-3, 4):
        assert tree.evaluate(shift) == suspension(tree.evaluate(), shift)
