"""The one cone-building path: `twisted_sum`, and `BuildTree.evaluate`
with shifts pushed to the leaves.

Over Z, F_5, Z/4 and Z/12: `cone` equals the per-degree block formula
it replaced in every degree, including degrees where only the source or
only the target is nonzero; a tree evaluated at shift i equals the i'th
suspension of the tree evaluated at 0; and a map that is not a chain
map is refused with ChainMapError.
"""

import pytest
from hypothesis import given, settings, strategies as st

from homcert.complexes import (ChainMap, ChainMapError, Complex, cone, suspension,
                               twisted_sum)
from homcert.duality import decompose_resolution
from homcert.generator import resolve_module
from homcert.matrices import Mat, MatrixError, assemble_blocks
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_matrix,
                              random_null_homotopic_map)

RINGS = [ZZ, Fp(5), Zmod(4), Zmod(12)]
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
    comps = f.components
    if comps and not f.commutes(min(comps) - 1, max(comps)):
        with pytest.raises(ChainMapError):
            cone(f)
    else:
        _same_in_every_degree(cone(f), reference_cone(f))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_twisted_sum_checks_its_components(ring):
    one = Mat.identity(ring, 1)
    x = Complex.single(ring, "left", 1, 0)
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


# -- shifts pushed to the leaves --------------------------------------


PERIODIC = [(4, 2), (8, 2), (12, 2), (12, 3), (12, 4), (12, 6)]


@given(st.sampled_from(PERIODIC), st.integers(0, 8), st.integers(-3, 3))
@settings(CHECKS, max_examples=40)
def test_evaluate_at_a_shift_is_the_suspension(na, depth, shift):
    n, a = na
    p, _ = resolve_module(FPModule.cyclic(Zmod(n), "right", a))
    stack = [decompose_resolution(p, depth=depth)]
    while stack:
        node = stack.pop()
        assert node.evaluate(shift) == suspension(node.evaluate(), shift)
        stack.extend(node.children)


@pytest.mark.parametrize("ring", [ZZ, Fp(5)], ids=str)
def test_evaluate_at_a_shift_over_finite_resolutions(ring):
    p, _ = resolve_module(FPModule.cyclic(ring, "right", 3 if ring == ZZ else 0))
    tree = decompose_resolution(p)
    for shift in range(-3, 4):
        assert tree.evaluate(shift) == suspension(tree.evaluate(), shift)
