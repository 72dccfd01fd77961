import random

import pytest

from homcert.complexes import (ChainMap, Complex, ComplexError, Homotopy,
                               PeriodicTail, cone, contraction, dualize_complex,
                               finite_coproduct, homology,
                               null_homotopy_witness, split_exactness_check,
                               suspension)
from homcert.matrices import Mat
from homcert.modules import FPModule, modules_isomorphic
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_contractible_complex,
                              random_null_homotopic_map)

RINGS = [ZZ, Fp(5), Zmod(4)]


def two_term(ring, a, lo=-1):
    return Complex(ring, "left", {lo: 1, lo + 1: 1}, {lo: Mat(ring, 1, 1, (a,))})


def test_square_zero_enforced():
    with pytest.raises(ComplexError):
        Complex(ZZ, "left", {-1: 1, 0: 1, 1: 1},
                {-1: Mat(ZZ, 1, 1, (1,)), 0: Mat(ZZ, 1, 1, (1,))})


@pytest.mark.parametrize("tails", [{"tail_below": PeriodicTail(-1, 0, 1)},
                                   {"tail_above": PeriodicTail(1, 1, 1)}])
def test_square_zero_enforced_across_tail_seams(tails):
    # d^0 = [1] repeated: the product across the threshold is [1]
    one = Mat(Zmod(4), 1, 1, (1,))
    with pytest.raises(ComplexError):
        Complex(Zmod(4), "left", {0: 1, 1: 1}, {0: one}, **tails)


def test_square_zero_enforced_where_a_period_wraps():
    # d^-1 d^-2 = A B = 0, but the tail repeats d^-2 after d^-1: B A != 0
    a = Mat(ZZ, 2, 2, (0, 1, 0, 0))
    b = Mat(ZZ, 2, 2, (1, 0, 0, 0))
    with pytest.raises(ComplexError):
        Complex(ZZ, "left", {-2: 2, -1: 2, 0: 2}, {-2: b, -1: a},
                tail_below=PeriodicTail(-1, -2, 2))


def test_tail_differential_shape_enforced():
    # the folded d^-1 is d^0, a 2x1 matrix, but maps rank 1 to rank 1
    with pytest.raises(ComplexError, match="is 2x1, expected 1x1"):
        Complex(ZZ, "left", {0: 1, 1: 2}, {0: Mat(ZZ, 2, 1, (0, 0))},
                tail_below=PeriodicTail(-1, 0, 1))


def test_shape_of_differentials_enforced():
    with pytest.raises(ComplexError):
        Complex(ZZ, "left", {0: 2, 1: 1}, {0: Mat(ZZ, 1, 1, (1,))})


def test_homology_of_multiplication_by_two():
    c = two_term(ZZ, 2)
    assert homology(c, -1).is_zero()
    assert modules_isomorphic(homology(c, 0), FPModule.cyclic(ZZ, "left", 2))


def test_suspension_shifts_and_flips_sign():
    c = two_term(ZZ, 2, lo=0)
    s = suspension(c, 1)
    assert s.rank(-1) == 1 and s.rank(0) == 1 and s.rank(1) == 0
    assert s.diff(-1)[0, 0] == -2
    assert suspension(c, 2).diff(-2)[0, 0] == 2
    # H^j(S C) = H^(j+1)(C)
    assert modules_isomorphic(homology(s, 0), homology(c, 1))


def test_suspension_inverse():
    c = random_bounded_complex(random.Random(1), ZZ)
    back = suspension(suspension(c, 1), -1)
    span = c.support() or (0, 0)
    assert back.same_as(c, span[0] - 1, span[1] + 1)


def test_periodic_tail_lookup():
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    for j in (-7, -1, 0, 1, 4):
        assert c.rank(j) == 1
        assert c.diff(j) == two
    assert homology(c, -3).is_zero()


def test_dual_flips_degrees_and_transposes():
    c = Complex(ZZ, "left", {0: 2, 1: 1}, {0: Mat(ZZ, 1, 2, (2, 3))})
    d = dualize_complex(c)
    assert d.side == "right"
    assert d.rank(0) == 2 and d.rank(-1) == 1
    assert d.diff(-1) == Mat(ZZ, 2, 1, (2, 3))
    assert dualize_complex(d).same_as(c, -3, 3)


def test_dual_of_periodic_complex():
    ring = Zmod(4)
    p = Complex(ring, "left", {0: 1, -1: 1}, {-1: Mat(ring, 1, 1, (2,))},
                tail_below=PeriodicTail(-1, -1, 1))
    d = dualize_complex(p)
    for j in range(0, 6):
        assert d.rank(j) == 1
        assert d.diff(j)[0, 0] == 2 or j == 5


def test_cone_of_identity_is_contractible():
    for ring in RINGS:
        c = random_bounded_complex(random.Random(5), ring)
        cn = cone(ChainMap.identity(c))
        h = contraction(cn)
        assert h is not None
        span = cn.support() or (0, 0)
        assert h.bounds(ChainMap.identity(cn), None, span[0] - 1, span[1] + 1)


def test_cone_long_exact_degenerates_to_shift():
    # cone(0 -> Y) = Y, cone(X -> 0) = S X
    ring = ZZ
    y = two_term(ring, 3)
    zero = Complex.zero(ring, "left")
    cn = cone(ChainMap(zero, y, {}))
    assert cn.same_as(y, -3, 3)
    cn2 = cone(ChainMap(y, zero, {}))
    assert cn2.same_as(suspension(y, 1), -3, 3)


def test_finite_coproduct_ranks_add():
    a = two_term(ZZ, 2)
    b = two_term(ZZ, 3, lo=0)
    total, injections, projections = finite_coproduct([a, b])
    assert total.rank(-1) == 1 and total.rank(0) == 2 and total.rank(1) == 1
    for inj, proj, piece in zip(injections, projections, (a, b)):
        assert inj.commutes(-3, 3)
        assert proj.commutes(-3, 3)
        assert inj.source is piece
        for j in range(-3, 4):
            want = Mat.identity(ZZ, piece.rank(j))
            assert proj.component(j) @ inj.component(j) == want


def test_null_homotopy_witness_found_and_verified():
    rng = random.Random(9)
    for ring in RINGS:
        x = random_bounded_complex(rng, ring)
        y = random_bounded_complex(rng, ring)
        f = random_null_homotopic_map(rng, x, y)
        h = null_homotopy_witness(f)
        assert h is not None
        assert h.bounds(f, None, -4, 4)


def test_nonzero_class_has_no_null_homotopy():
    # id on (Z --2--> Z) is not null homotopic: the complex has homology
    c = two_term(ZZ, 2)
    assert contraction(c) is None


def test_split_exactness_positive():
    rng = random.Random(13)
    for ring in RINGS:
        c = random_contractible_complex(rng, ring)
        span = c.support()
        v = split_exactness_check(c, (span[0] - 2, span[1] + 2))
        assert v.ok and v.code == "split_exact"
        hom = v.details["homotopy"]
        assert hom.bounds(ChainMap.identity(c), None, span[0] - 1, span[1] + 1)


def test_split_exactness_detects_homology():
    v = split_exactness_check(two_term(ZZ, 2), (-4, 3))
    assert not v.ok and v.code == "not_exact"


def test_split_exactness_exact_not_split_negative_control():
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    v = split_exactness_check(c, (-4, 4))
    assert not v.ok
    assert v.code == "exact_not_split"
    assert v.window_relative
    cyc = v.details["cycle"]
    assert modules_isomorphic(cyc, FPModule.cyclic(ring, "left", 2))


def test_chain_map_commutation_check():
    c = two_term(ZZ, 2)
    good = ChainMap(c, c, {-1: Mat(ZZ, 1, 1, (3,)), 0: Mat(ZZ, 1, 1, (3,))})
    bad = ChainMap(c, c, {-1: Mat(ZZ, 1, 1, (3,)), 0: Mat(ZZ, 1, 1, (5,))})
    assert good.commutes(-2, 2)
    assert not bad.commutes(-2, 2)
