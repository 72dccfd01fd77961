"""Values built from checked values stay valid under the public checks.

`suspension`, `cone`, `Complex.restrict` and `BuildTree.evaluate`
results, and the results of `Mat` arithmetic and assembly, must pass
the public `Complex` and `Mat` constructors again unchanged, over Z,
F_7, Z/4 and Z/12 (and Z/8 for resolutions).  A cone of a map that is
not a chain map is refused.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from homcert.complexes import ChainMap, Complex, ComplexError, cone, suspension
from homcert.duality import decompose_resolution
from homcert.generator import resolve_module
from homcert.matrices import (Mat, MatrixError, assemble_blocks, block_diag,
                              colspan_canonical, kernel_right, solve_right)
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_matrix,
                              random_null_homotopic_map)

from trees import nodes_with_heads

RINGS = [ZZ, Fp(7), Zmod(4), Zmod(12)]
CHECKS = settings(max_examples=60, deadline=None, derandomize=True)


def _revalidates(c: Complex):
    again = Complex(c.ring, c.side, c.ranks, c.diffs, c.tail_below, c.tail_above)
    assert again == c
    for d in c.diffs.values():
        _canonical(d)


def _canonical(m: Mat):
    assert type(m.entries) is tuple
    assert m == Mat(m.ring, m.rows, m.cols, m.entries)
    n = m.ring.modulus
    if n is not None:
        assert all(0 <= e < n for e in m.entries)


# -- cones of maps that are not chain maps ----------------------------


def _two_term(ring, lo):
    return Complex(ring, "left", {lo: 1, lo + 1: 1}, {lo: Mat.identity(ring, 1)})


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_cone_of_a_non_chain_map_is_refused(ring):
    one = Mat.identity(ring, 1)
    # f^0 d_X^-1 = 1 but d_Y^-1 f^-1 = 0: fails below the lowest component
    x, y = _two_term(ring, -1), Complex(ring, "left", {0: 1}, {})
    with pytest.raises(ComplexError):
        cone(ChainMap(x, y, {0: one}))
    # d_Y^0 f^0 = 1 but f^1 d_X^0 = 0: fails at the highest component
    x, y = Complex(ring, "left", {0: 1}, {}), _two_term(ring, 0)
    with pytest.raises(ComplexError):
        cone(ChainMap(x, y, {0: one}))
    # a chain map plus the identity in one degree of a nonzero differential
    z = _two_term(ring, 0)
    with pytest.raises(ComplexError):
        cone(ChainMap(z, z, {0: one, 1: one + one}))
    assert cone(ChainMap(z, z, {0: one, 1: one})).ranks == {-1: 1, 0: 2, 1: 1}


# -- results of suspension, cone and evaluate revalidate --------------


@given(st.sampled_from(RINGS), st.randoms(use_true_random=False), st.integers(-3, 3))
@CHECKS
def test_suspensions_and_cones_revalidate(ring, rng, shift):
    x = random_bounded_complex(rng, ring)
    y = random_bounded_complex(rng, ring)
    f = random_null_homotopic_map(rng, x, y)
    c = cone(f)
    _revalidates(c)
    _revalidates(suspension(x, shift))
    _revalidates(x.restrict(shift - 1, shift + 1))
    _revalidates(suspension(c, shift))
    # a cone whose source is itself a cone
    _revalidates(cone(random_null_homotopic_map(rng, c, suspension(y, shift))))


@given(st.sampled_from([(4, 2), (8, 2), (8, 4), (12, 2), (12, 3), (12, 6)]),
       st.integers(1, 6), st.integers(-2, 2))
@settings(CHECKS, max_examples=25)
def test_build_tree_nodes_revalidate(na, depth, shift):
    n, a = na
    p, _ = resolve_module(FPModule.cyclic(Zmod(n), "right", a))
    _revalidates(suspension(p, shift))
    _revalidates(p.restrict(-2 * depth - 3, shift - 2))
    # a node inside a loop evaluates with the head the loop hands it
    for node, head in nodes_with_heads(decompose_resolution(p, depth=depth)):
        _revalidates(node.evaluate(0, head))


# -- Mat results are canonical ----------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_mat_results_are_canonical(ring):
    rng = random.Random(89)
    for _ in range(40):
        r, k, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a = random_matrix(rng, ring, r, k, bound=40)
        b = random_matrix(rng, ring, k, c, bound=40)
        results = [a @ b, a.scale(rng.randint(-30, 30)), a.transpose(),
                   Mat.zero(ring, r, c), Mat.identity(ring, c), a.kron(b),
                   a.submatrix(range(r), range(k // 2, k)),
                   assemble_blocks(ring, [[a, None], [None, b]], [r, k], [k, c]),
                   block_diag(ring, [a, b]), kernel_right(a), colspan_canonical(a)]
        x = solve_right(a, a @ b)
        assert x is not None
        results.append(x)
        for m in results:
            _canonical(m)
    for bad in ((-1, 0), (0, -1), (-2, 3)):
        with pytest.raises(MatrixError):
            Mat.zero(ring, *bad)
        with pytest.raises(MatrixError):
            Mat(ring, *bad, ())
    with pytest.raises(MatrixError):
        Mat.identity(ring, -1)
    for sizes in (([-1], [1]), ([1], [-1]), ([2, -1], [0])):
        with pytest.raises(MatrixError):
            assemble_blocks(ring, [[None] * len(sizes[1])] * len(sizes[0]), *sizes)
