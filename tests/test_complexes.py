import hashlib
import random
import sys
import threading
from dataclasses import replace

import pytest

from homcert.complexes import (ChainMap, Complex, ComplexError, Homotopy, PeriodicTail,
                               cone, contraction, dualize_complex, finite_coproduct,
                               first_difference, homology_data, null_homotopy_witness,
                               split_exactness_check, suspension, twisted_sum)
from homcert import complexes
from homcert.documents import emit_document, make_document
from homcert.generator import resolve_module
from homcert.matrices import Mat, MatrixError, block_diag, solve_right
from homcert.modules import FPModule, is_projective, modules_isomorphic, subquotient_module
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_contractible_complex,
                              random_invertible, random_null_homotopic_map)
from homcert.verdicts import Verdict

RINGS = [ZZ, Fp(5), Zmod(4)]


def same_in_window(a, b, lo, hi):
    return a.ring == b.ring and all(a.rank(j) == b.rank(j) and a.diff(j) == b.diff(j)
                                    for j in range(lo, hi + 1))


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


@pytest.mark.parametrize("ranks, tails, message", [
    # rank 3 in degree -5 replaces the repeated rank 1, so the repeated
    # d^-6 = [2] no longer fits into it
    ({0: 1, -1: 1, -5: 3}, {"tail_below": PeriodicTail(-1, -1, 1)},
     "in degree -6 is 1x1, expected 3x1"),
    ({-1: 1, 0: 1, 4: 3}, {"tail_above": PeriodicTail(1, 0, 1)},
     "in degree 3 is 1x1, expected 3x1"),
])
def test_explicit_ranks_inside_a_tail_are_checked(ranks, tails, message):
    two = Mat(Zmod(4), 1, 1, (2,))
    with pytest.raises(ComplexError, match=message):
        Complex(Zmod(4), "left", ranks, {-1: two}, **tails)


def test_explicit_differentials_inside_a_tail_are_checked():
    # the repeated d is N with N^2 = 0; an explicit d^-5 = X has N X = 0
    # but X N != 0, so the square fails below it, at degree -6
    n = Mat(ZZ, 2, 2, (0, 1, 0, 0))
    x = Mat(ZZ, 2, 2, (1, 0, 0, 0))
    with pytest.raises(ComplexError, match="d\\^2 != 0 at degree -6"):
        Complex(ZZ, "left", {0: 2, -1: 2}, {-1: n, -5: x},
                tail_below=PeriodicTail(-1, -1, 1))


def test_shape_of_differentials_enforced():
    with pytest.raises(ComplexError):
        Complex(ZZ, "left", {0: 2, 1: 1}, {0: Mat(ZZ, 1, 1, (1,))})


def test_homology_of_multiplication_by_two():
    c = two_term(ZZ, 2)
    assert c.homology_data(-1)[0].is_zero()
    assert modules_isomorphic(c.homology_data(0)[0], FPModule.cyclic(ZZ, "left", 2))


def test_suspension_shifts_and_flips_sign():
    c = two_term(ZZ, 2, lo=0)
    s = suspension(c, 1)
    assert s.rank(-1) == 1 and s.rank(0) == 1 and s.rank(1) == 0
    assert s.diff(-1)[0, 0] == -2
    assert suspension(c, 2).diff(-2)[0, 0] == 2
    # H^j(S C) = H^(j+1)(C)
    assert modules_isomorphic(s.homology_data(0)[0], c.homology_data(1)[0])


def test_suspension_inverse():
    c = random_bounded_complex(random.Random(1), ZZ)
    back = suspension(suspension(c, 1), -1)
    span = c.support() or (0, 0)
    assert same_in_window(back, c, span[0] - 1, span[1] + 1)


def test_periodic_tail_lookup():
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    for j in (-7, -1, 0, 1, 4):
        assert c.rank(j) == 1
        assert c.diff(j) == two
    assert c.homology_data(-3)[0].is_zero()


def test_dual_flips_degrees_and_transposes():
    c = Complex(ZZ, "left", {0: 2, 1: 1}, {0: Mat(ZZ, 1, 2, (2, 3))})
    d = dualize_complex(c)
    assert d.side == "right"
    assert d.rank(0) == 2 and d.rank(-1) == 1
    assert d.diff(-1) == Mat(ZZ, 2, 1, (2, 3))
    assert same_in_window(dualize_complex(d), c, -3, 3)


def test_dual_of_periodic_complex():
    ring = Zmod(4)
    p = Complex(ring, "left", {0: 1, -1: 1}, {-1: Mat(ring, 1, 1, (2,))},
                tail_below=PeriodicTail(-1, -1, 1))
    d = dualize_complex(p)
    for j in range(0, 6):
        assert d.rank(j) == 1
        assert d.diff(j)[0, 0] == 2


def test_cone_of_identity_is_contractible():
    for ring in RINGS:
        c = random_bounded_complex(random.Random(5), ring)
        cn = cone(ChainMap.identity(c))
        h = contraction(cn)
        assert h is not None
        assert h.bounds(ChainMap.identity(cn))


def test_cone_long_exact_degenerates_to_shift():
    # cone(0 -> Y) = Y, cone(X -> 0) = S X
    ring = ZZ
    y = two_term(ring, 3)
    zero = Complex.zero(ring, "left")
    cn = cone(ChainMap(zero, y, {}))
    assert same_in_window(cn, y, -3, 3)
    cn2 = cone(ChainMap(y, zero, {}))
    assert same_in_window(cn2, suspension(y, 1), -3, 3)


def test_finite_coproduct_ranks_add():
    a = two_term(ZZ, 2)
    b = two_term(ZZ, 3, lo=0)
    total, injections = finite_coproduct([a, b])
    assert total.rank(-1) == 1 and total.rank(0) == 2 and total.rank(1) == 1
    for inj, piece in zip(injections, (a, b)):
        proj = ChainMap(total, piece, {j: m.transpose() for j, m in inj.components.items()})
        assert inj.commutes()
        assert proj.commutes()
        assert inj.source is piece
        for j in range(-3, 4):
            want = Mat.identity(ZZ, piece.rank(j))
            assert proj.component(j) @ inj.component(j) == want


def test_finite_coproduct_is_the_block_diagonal_sum():
    rng = random.Random(83)
    for ring in RINGS + [Zmod(12)]:
        for _ in range(10):
            summands = [random_bounded_complex(rng, ring) for _ in range(rng.randint(1, 4))]
            total, injections = finite_coproduct(summands)
            for j in range(-4, 5):
                ranks = [c.rank(j) for c in summands]
                assert total.rank(j) == sum(ranks)
                assert total.diff(j) == block_diag(ring, [c.diff(j) for c in summands])
                ident = block_diag(ring, [Mat.identity(ring, r) for r in ranks])
                for i, inj in enumerate(injections):
                    block = range(sum(ranks[:i]), sum(ranks[:i + 1]))
                    assert inj.component(j) == ident.submatrix(range(ident.rows), block)
                    proj = inj.component(j).transpose()
                    assert proj == ident.submatrix(block, range(ident.cols))
                    assert proj @ inj.component(j) == Mat.identity(ring, ranks[i])


def test_finite_coproduct_refusals():
    ring = Zmod(4)
    periodic = Complex(ring, "left", {0: 1, -1: 1}, {-1: Mat(ring, 1, 1, (2,))},
                       tail_below=PeriodicTail(-1, -1, 1))
    with pytest.raises(ComplexError, match="ambient ring"):
        finite_coproduct([])
    with pytest.raises(ComplexError, match="bounded"):
        finite_coproduct([two_term(ring, 2), periodic])
    with pytest.raises(MatrixError, match="over Z/4 to one over Z"):
        finite_coproduct([two_term(ring, 2), two_term(ZZ, 2)])
    with pytest.raises(ComplexError, match="from a left complex to a right one"):
        finite_coproduct([Complex(ZZ, "left", {0: 1}, {}), Complex(ZZ, "right", {0: 1}, {})])


def test_sides_are_checked_where_complexes_are_built_and_combined():
    left, right = Complex(ZZ, "left", {0: 1}, {}), Complex(ZZ, "right", {0: 1}, {})
    with pytest.raises(ComplexError, match="side must be 'left' or 'right'"):
        Complex(ZZ, "up", {0: 1}, {})
    for build in (lambda: ChainMap(right, left, {}), lambda: Homotopy(left, right, {}),
                  lambda: twisted_sum(left, right, {})):
        with pytest.raises(ComplexError, match="complex to a"):
            build()


def test_null_homotopy_witness_found_and_verified():
    rng = random.Random(9)
    for ring in RINGS:
        x = random_bounded_complex(rng, ring)
        y = random_bounded_complex(rng, ring)
        f = random_null_homotopic_map(rng, x, y)
        h = null_homotopy_witness(f)
        assert h is not None
        assert h.bounds(f)


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
        assert hom.bounds(ChainMap.identity(c))


def test_passing_bounded_split_check_only_solves_for_a_contraction(monkeypatch):
    import homcert.complexes as cx

    def refuse(*args):
        raise AssertionError("a contractible complex needs no homology or projectivity test")

    monkeypatch.setattr(cx.Complex, "homology_data", refuse)
    monkeypatch.setattr(cx, "is_projective", refuse)
    rng = random.Random(13)
    for ring in RINGS:
        c = random_contractible_complex(rng, ring)
        span = c.support()
        v = split_exactness_check(c, (span[0] - 2, span[1] + 2))
        assert v.ok and list(v.details) == ["homotopy"]


def _eliminated_differentials(calls, c: Complex) -> list:
    """The recorded eliminations of c's differentials, in order: mod n each
    [d; I], over Z the rows of each Bareiss pass over some d."""
    diffs = [c.diff(j) for j in range(c.support()[0] - 1, c.support()[1] + 1)]
    if c.ring.modulus is None:
        return [rows for rows in calls.passes if any(rows == d.row_list() for d in diffs)]
    return [e for e in calls if any(e == calls.stacked(d) for d in diffs)]


def test_a_bounded_split_check_builds_no_hom_complex(count_eliminations, monkeypatch):
    # the contraction is lifted through c's own forms: no Hom(C, C), and no
    # differential eliminated twice, in the split check and in the collapse
    import homcert.homspaces as hs
    from homcert.flatness import EngineConfig, pd_bound_collapse

    def refuse(*args):
        raise AssertionError("a Hom complex was built")

    monkeypatch.setattr(hs, "hom_fp_complex", refuse)
    rng = random.Random(29)
    for ring in [*RINGS, Zmod(12)]:
        for _ in range(5):
            c = random_contractible_complex(rng, ring)
            lo, hi = c.support()
            window = (lo - 2, hi + 2)
            for check in (lambda: split_exactness_check(c, window),
                          lambda: pd_bound_collapse(c, EngineConfig.for_ring(ring), window)):
                calls = count_eliminations()
                v = check()
                assert v.ok and v.details["homotopy"].bounds(ChainMap.identity(c))
                eliminated = _eliminated_differentials(calls, c)
                assert len(eliminated) == len(calls.passes if ring.modulus is None else calls)
                assert all(eliminated.count(e) == 1 for e in eliminated), eliminated
            # the collapse reads the eliminations the split check left on
            # c's matrices: over Z its solves replay, and nothing else runs
            assert calls == [] and calls.passes == []
        # a bounded complex that fails shares the contraction's forms with
        # the sweep that names the degree: still one elimination each
        for _ in range(5):
            c = random_bounded_complex(rng, ring)
            lo, hi = c.support()
            calls = count_eliminations()
            v = split_exactness_check(c, (lo - 2, hi + 2))
            assert v.code in ("split_exact", "not_exact")
            eliminated = _eliminated_differentials(calls, c)
            assert all(eliminated.count(e) == 1 for e in eliminated), eliminated


ORACLE_RINGS = [ZZ, Fp(5), Zmod(4), Zmod(8), Zmod(12), Zmod(36)]


def _oracle_complexes(ring, count=40):
    """Seeded contractible complexes, random bounded ones (R --a--> R pieces,
    so some are not exact) and cones of identities."""
    rng = random.Random(f"contraction-oracle/{ring}")
    for _ in range(count):
        yield random_contractible_complex(rng, ring)
        yield random_bounded_complex(rng, ring)
        yield cone(ChainMap.identity(random_bounded_complex(rng, ring)))


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
def test_contraction_agrees_with_the_hom_solve_and_with_exactness(ring):
    # three routes: the lift through c's own forms, the Hom(C, C) solve for
    # a null homotopy of the identity, and exactness in every degree of the
    # support; a bounded complex of frees is contractible exactly when exact
    kinds = set()
    for c in _oracle_complexes(ring):
        identity = ChainMap.identity(c)
        lifted, solved = contraction(c), null_homotopy_witness(identity)
        span = c.support()
        exact = span is None or all(c.is_exact_at(j) for j in range(span[0], span[1] + 1))
        assert (lifted is None) == (solved is None) == (not exact)
        for h in (lifted, solved):
            assert h is None or h.bounds(identity)
        kinds.add(exact)
    assert kinds == {True, False}


def test_null_homotopy_of_unbounded_complexes_is_refused():
    ring = Zmod(4)
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (2,))},
                tail_below=PeriodicTail(-1, 0, 1))
    with pytest.raises(ComplexError, match="bounded"):
        contraction(c)


def test_periodic_split_exact_complex_passes_relative_to_the_window():
    # ... -> Z/4 --1--> Z/4 --0--> Z/4 --1--> ... has cycles 0 and Z/4
    ring = Zmod(4)
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (1,))},
                tail_below=PeriodicTail(-1, 0, 2), tail_above=PeriodicTail(1, 1, 2))
    v = split_exactness_check(c, (-4, 4))
    assert v.ok and v.code == "split_exact" and v.window_relative
    assert v.details == {"window": (-4, 4)}


def test_split_exactness_detects_homology():
    v = split_exactness_check(two_term(ZZ, 2), (-4, 3))
    assert not v.ok and v.code == "not_exact"


@pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=str)
def test_a_term_between_zero_differentials_is_reported_without_elimination(
        count_eliminations, ring):
    # rank 1,024 in degrees 0 and 1 and no differential: H^0 is the whole
    # term, read off the two zero differentials; an identity kernel and
    # its subquotient took seconds here
    r = 1024
    c = Complex(ring, "left", {0: r, 1: r}, {0: Mat.zero(ring, r, r)} if ring.modulus else {})
    calls = count_eliminations()
    v = split_exactness_check(c, (-1, 2))
    assert (v.code, v.details["degree"]) == ("not_exact", 0) and not v.window_relative
    assert v.details["homology"] == FPModule.free(ring, "left", r)
    assert calls == []


@pytest.mark.parametrize("pad", [(1, 3), (3, 1)], ids=["low", "high"])
def test_split_exactness_of_a_bounded_complex_ignores_the_window(pad):
    # a window short of the support decides the complex as a covering one does
    c = random_contractible_complex(random.Random(17), ZZ)
    span = c.support()
    v = split_exactness_check(c, (span[0] - pad[0], span[1] + pad[1]))
    assert v.ok and v.code == "split_exact" and not v.window_relative
    assert v == split_exactness_check(c, (span[0] - 2, span[1] + 2))
    assert v.details["homotopy"].bounds(ChainMap.identity(c))


@pytest.mark.parametrize("window", [(0, 1), (0, 0), (3, 1)])
def test_split_exactness_of_a_periodic_complex_needs_an_interior_degree(window):
    # no degree strictly inside the window: nothing would be checked
    v = split_exactness_check(_z4_periodic(), window)
    assert not v.ok and v.code == "window_too_small" and v.window_relative
    assert v.details == {"window": window}


def test_split_exactness_of_a_periodic_complex_checks_one_interior_degree():
    v = split_exactness_check(_z4_periodic(), (0, 2))
    assert v.code == "exact_not_split" and v.details["degree"] == 1


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


def test_split_exactness_computes_each_kernel_once(count_eliminations):
    # the Z/4 resolution of Z/2 (2 in every degree) is exact and not
    # split; the cycles of the exactness loop serve the projectivity loop,
    # and each differential is eliminated once for its kernel and the
    # solve in the degree above
    p, _ = resolve_module(FPModule.cyclic(Zmod(4), "left", 2))
    calls = count_eliminations()
    v = split_exactness_check(p, (-6, 0))
    assert v.code == "exact_not_split" and v.details["degree"] == -5
    # d^-6 .. d^-1 are the one matrix whose kernel resolve_module took to
    # build them, and it keeps its elimination [d; I]: the sweep eliminates
    # nothing, and then the cycle module at -5 takes the kernel of its
    # cycles, whose span is kept with it (its projectivity system is zero
    # mod 4)
    assert calls == [(2, [[2, 1]])]


def _split_by_every_cycle(c: Complex, window: tuple[int, int]) -> Verdict:
    """split_exactness_check as it was when a tail's check built the cycle
    module of every degree inside the window and asked each whether it is
    projective, kept as the reference (asking c itself, as the check does)."""
    cycles = {}
    if c.is_bounded:
        homotopy = contraction(c)
        if homotopy is not None:
            return Verdict(True, "split_exact", {"homotopy": homotopy})
        lo, hi = c.support()  # not the zero complex: it is contractible
        degrees = range(lo, hi + 1)
    else:
        lo, hi = window
        if hi - lo < 2:
            return Verdict(False, "window_too_small", {"window": window}, True)
        degrees = range(lo + 1, hi)
    for j in degrees:
        if (r := c.rank(j)) and all((d := c._given(k)) is None or d.is_zero() for k in (j - 1, j)):
            # a nonzero term between two zero differentials is all homology
            h = FPModule.free(c.ring, c.side, r)
            return Verdict(False, "not_exact", {"degree": j, "homology": h}, not c.is_bounded)
        z, y = c.exactness(j)
        if y is None:
            return Verdict(False, "not_exact", {"degree": j, "homology": c.homology_data(j)[0]},
                           not c.is_bounded)
        cycles[j] = z
    if c.is_bounded:
        raise ComplexError("exact bounded complex has no contraction; solver invariant broken")
    for j, z in cycles.items():
        cycle = subquotient_module(c.ring, c.side, z, Mat.zero(c.ring, z.rows, 0))
        if is_projective(cycle) is None:
            return Verdict(False, "exact_not_split", {"degree": j, "cycle": cycle}, True)
    return Verdict(True, "split_exact", {"window": window}, True)


def _tailed(ring, period_blocks):
    """The complex whose differentials repeat period_blocks (one or two
    square matrices of one size) in every degree, on both tails."""
    r = period_blocks[0].rows
    if len(period_blocks) == 1:
        return Complex(ring, "left", {0: r, 1: r}, {0: period_blocks[0]},
                       tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    return Complex(ring, "left", {-1: r, 0: r, 1: r}, dict(zip((-1, 0), period_blocks)),
                   tail_below=PeriodicTail(-1, -1, 2), tail_above=PeriodicTail(1, 1, 2))


def _conjugated(rng, ring, blocks):
    """U b U^-1 for each b, one seeded invertible U for all."""
    u = random_invertible(rng, ring, blocks[0].rows)
    v = solve_right(u, Mat.identity(ring, u.rows))
    return [u @ b @ v for b in blocks]


def _diagonal(ring, values):
    k = len(values)
    return Mat(ring, k, k, tuple(values[i] if i == j else 0 for i in range(k) for j in range(k)))


def _passing_tails():
    """Split exact complexes with period-1 and period-2 tails over Z, F_5,
    Z/4 and Z/12, in a seeded basis: d = [[0, 1], [0, 0]] blockwise in
    every degree; d alternating diag(1, 0) and diag(0, 1); over Z/12, d
    alternating 4 and 9 (contractible with s = 1)."""
    rng = random.Random("passing tails")
    for ring in (ZZ, Fp(5), Zmod(4), Zmod(12)):
        for k in (1, 3):
            shift = Mat(ring, 2 * k, 2 * k, tuple(int(j == i + 1 and i % 2 == 0)
                                                  for i in range(2 * k) for j in range(2 * k)))
            yield _tailed(ring, _conjugated(rng, ring, [shift]))
            halves = [_diagonal(ring, [1, 0] * k), _diagonal(ring, [0, 1] * k)]
            yield _tailed(ring, _conjugated(rng, ring, halves))
    for r in (1, 3):
        ring = Zmod(12)
        yield _tailed(ring, _conjugated(rng, ring, [_diagonal(ring, [4] * r),
                                                    _diagonal(ring, [9] * r)]))


def _verdict_bytes(ring, v: Verdict) -> str:
    return emit_document(make_document(ring, "verdict", v))


@pytest.mark.parametrize("window", [(-2, 2), (-3, 2), (-5, 4)], ids=str)
def test_a_passing_tail_asks_its_lowest_cycle_alone(monkeypatch, window):
    # a projective Z^(lo+1) makes every cycle above it projective, so one
    # projectivity question decides the window, with the bytes of the check
    # that asked it in every degree
    asked = []

    def counted(m):
        asked.append(m)
        return is_projective(m)

    monkeypatch.setattr(complexes, "is_projective", counted)
    cases = list(_passing_tails())
    assert {(c.ring, c.tail_below.period) for c in cases} == \
        {(ring, p) for ring in (ZZ, Fp(5), Zmod(4), Zmod(12)) for p in (1, 2)}
    for c in cases:
        asked.clear()
        v = split_exactness_check(c, window)
        assert (v.ok, v.code, v.window_relative) == (True, "split_exact", True)
        z = c.kernel(window[0] + 1)
        assert asked == [subquotient_module(c.ring, c.side, z, Mat.zero(c.ring, z.rows, 0))]
        assert _verdict_bytes(c.ring, v) == _verdict_bytes(c.ring, _split_by_every_cycle(c, window))


def test_a_failing_tail_names_its_lowest_cycle_as_every_cycle_did():
    ring = Zmod(12)
    failing = [_z4_periodic(),
               _tailed(ring, [Mat(ring, 1, 1, (6,)), Mat(ring, 1, 1, (2,))]),
               _tailed(ring, _conjugated(random.Random(5), ring,
                                         [_diagonal(ring, [4, 6]), _diagonal(ring, [9, 2])]))]
    for c in failing:
        for window in [(-2, 2), (-5, 4), (0, 1)]:
            v = split_exactness_check(c, window)
            assert v.code == ("window_too_small" if window == (0, 1) else "exact_not_split")
            assert _verdict_bytes(c.ring, v) == \
                _verdict_bytes(c.ring, _split_by_every_cycle(c, window))


def _z4_periodic():
    # ... -> Z/4 --2--> Z/4 --2--> Z/4 -> ... in every degree: each
    # differential is the one Mat folded from both tails
    ring = Zmod(4)
    return Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (2,))},
                   tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))


def test_a_periodic_sweep_eliminates_its_repeated_differential_once(count_eliminations):
    c = _z4_periodic()
    calls = count_eliminations()
    v = split_exactness_check(c, (-4, 4))
    assert v.code == "exact_not_split" and v.details["degree"] == -3
    # [2; 1] once for the sweep over d^-4 .. d^3, then the cycle module at
    # -3: its kernel (the same [2; 1]), whose span is kept with it
    assert calls == [(2, [[2, 1]])] * 2


@pytest.mark.parametrize("ring, r, entries", [(Zmod(4), 1, (2,)), (ZZ, 2, (0, 2, 0, 0))],
                         ids=["Z/4", "Z"])
def test_checks_of_one_complex_share_its_eliminations(count_eliminations, ring, r, entries):
    # R^r --d--> R^r --d--> R^r --d--> R^r, d^2 = 0 and not exact: the split
    # check and then H^j in every degree ask the one complex, which keeps
    # the first of its equal differentials that it eliminated, so with each
    # d a Mat of its own they run the eliminations they run when every d is
    # one Mat, which keeps its own and is eliminated once
    def checks(diffs):
        c = Complex(ring, "left", dict.fromkeys(range(4), r), diffs)
        calls = count_eliminations()
        v = split_exactness_check(c, (-1, 4))
        got = [homology_data(c, j) for j in range(-1, 5)]
        return v, got, (list(calls), calls.passes, calls.replays)

    one = Mat(ring, r, r, entries)
    shared = checks(dict.fromkeys(range(3), one))
    distinct = checks({j: Mat(ring, r, r, entries) for j in range(3)})
    assert shared[0].code == "not_exact" and any(shared[2])
    assert distinct == shared


def test_threads_that_race_on_one_complex_get_the_answers_of_a_fresh_one():
    # a complex keeps the differentials it is asked about while other
    # threads scan what it keeps for an equal one; every answer must be
    # the one a fresh equal complex gives, whatever the interleaving
    rng = random.Random(71)
    cases = []
    for ring in (ZZ, Zmod(12), Fp(7)):
        for _ in range(4):
            c = random_bounded_complex(rng, ring, max_pieces=5, lo=-4, hi=4)
            degrees = list(range(-6, 7))
            cases.append((c, degrees, [replace(c).homology_data(j) for j in degrees]))
    shared = [(replace(c), degrees, expected) for _ in range(10) for c, degrees, expected in cases]
    wrong = []

    def ask_all(step):
        for c, degrees, expected in shared:
            for i in range(len(degrees))[::step]:
                try:
                    if c.homology_data(degrees[i]) != expected[i]:
                        wrong.append((c, degrees[i]))
                except Exception as exc:  # a cache that changed during a scan, say
                    wrong.append((c, degrees[i], exc))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask_all, args=(step,)) for step in (1, -1, 2, -2) * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("j", [-3, 0, 1, 4])
def test_is_exact_at_is_one_step_of_the_sweep(count_eliminations, j):
    c = _z4_periodic()
    assert c.diff(j - 1) is c.diff(j)
    calls = count_eliminations()
    assert c.is_exact_at(j)
    assert calls == [(2, [[2, 1]])]
    rng = random.Random(j)
    for ring in (ZZ, Fp(7), Zmod(4), Zmod(12)):
        q = random_bounded_complex(rng, ring)
        # a fresh complex and one that has swept the degrees below agree
        steps = [q.is_exact_at(k) for k in range(j - 3, j + 1)]
        assert replace(q).is_exact_at(j) == steps[-1] == replace(q).homology_data(j)[0].is_zero()


def test_first_difference_names_the_lowest_differing_degree():
    c = two_term(ZZ, 2, lo=-2)
    assert first_difference(c, c) is None
    assert first_difference(c, two_term(ZZ, 3, lo=-2)) == -2
    # d^-3 differs in shape only (1x0 against 0x0): the term it maps
    # into, degree -2, is named
    assert first_difference(c, two_term(ZZ, 2, lo=-1)) == -2
    # only the term above c's top differs
    longer = Complex(ZZ, "left", {-2: 1, -1: 1, 0: 1}, {-2: c.diff(-2)})
    assert first_difference(c, longer) == 0
    assert first_difference(Complex.zero(ZZ, "left"), Complex.zero(ZZ, "left")) is None


def _z4_tailed(period: int, threshold: int) -> Complex:
    """R --2--> R --2--> ... --2--> R (degree 0) over Z/4, its lower tail
    written with the given period and threshold."""
    ring = Zmod(4)
    return Complex(ring, "left", {j: 1 for j in range(threshold, 1)},
                   {j: Mat(ring, 1, 1, (2,)) for j in range(threshold, 0)},
                   tail_below=PeriodicTail(-1, threshold, period))


def test_first_difference_of_one_complex_written_with_other_periods():
    forms = [_z4_tailed(1, -1), _z4_tailed(2, -3), _z4_tailed(3, -5), _z4_tailed(2, -8),
             _z4_tailed(3, -4)]
    for a in forms:
        for b in forms:
            assert first_difference(a, b) is None
    # a Z/4 complex that is 2 in every degree but one of period 3 is not
    ring = Zmod(4)
    gap = Complex(ring, "left", {j: 1 for j in range(-6, 1)},
                  {j: Mat(ring, 1, 1, (2,)) for j in range(-6, 0) if j != -4},
                  tail_below=PeriodicTail(-1, -6, 3))
    assert gap.diff(-6) == Mat(ring, 1, 1, (2,)) and gap.diff(-4) == Mat.zero(ring, 1, 1)
    assert first_difference(forms[0], gap) == first_difference(gap, forms[2]) == -10


def test_first_difference_outside_every_explicit_entry_and_the_old_window():
    # both agree in -8..2; b's tail repeats its block [-20, -18), in which
    # d^-19 is absent and so zero, and a is 2 everywhere.  The hull of
    # their explicit entries starts at -20; the first degree of it where
    # they differ is -23, where neither has an explicit entry.
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    a = _z4_tailed(1, -1)
    b = Complex(ring, "left", {j: 1 for j in range(-20, 1)},
                {j: two for j in range(-20, 0) if j != -19},
                tail_below=PeriodicTail(-1, -20, 2))
    assert all(a.rank(j) == b.rank(j) and a.diff(j) == b.diff(j) for j in range(-8, 3))
    bad = first_difference(a, b)
    assert bad == first_difference(b, a) == -23
    assert all(bad not in (*c.ranks, *c.diffs) for c in (a, b))
    assert a.diff(bad) != b.diff(bad)


def test_chain_map_commutation_check():
    c = two_term(ZZ, 2)
    good = ChainMap(c, c, {-1: Mat(ZZ, 1, 1, (3,)), 0: Mat(ZZ, 1, 1, (3,))})
    bad = ChainMap(c, c, {-1: Mat(ZZ, 1, 1, (3,)), 0: Mat(ZZ, 1, 1, (5,))})
    assert good.commutes()
    assert not bad.commutes()


def _commutes_in(f: ChainMap, lo: int, hi: int) -> bool:
    """d f = f d in the degrees of a window only, as commutes once was."""
    return all(f.target.diff(j) @ f.component(j) == f.component(j + 1) @ f.source.diff(j)
               for j in range(lo, hi + 1))


def test_commutes_reads_every_degree_not_a_window():
    # R --2--> R in degrees 3, 4 with f^3 = 1, f^4 = 3: d f^3 = 2 and
    # f^4 d = 6 differ in degree 3 only, one degree above the window
    # (-2, 2) the commutation test once passed
    c = two_term(ZZ, 2, lo=3)
    f = ChainMap(c, c, {3: Mat(ZZ, 1, 1, (1,)), 4: Mat(ZZ, 1, 1, (3,))})
    assert _commutes_in(f, -2, 2) and not _commutes_in(f, 3, 3)
    assert f.degrees() == [2, 3, 4]
    assert not f.commutes()
    assert ChainMap(c, c, {3: Mat(ZZ, 1, 1, (3,)), 4: Mat(ZZ, 1, 1, (3,))}).commutes()


def _bounds_in(s: Homotopy, f: ChainMap, lo: int, hi: int) -> bool:
    """f = d s + s d in the degrees of a window only, as bounds once was."""
    return all(f.component(j) == s.target.diff(j - 1) @ s.component(j)
               + s.component(j + 1) @ s.source.diff(j) for j in range(lo, hi + 1))


@pytest.mark.parametrize("ring", [ZZ, Zmod(12)], ids=str)
def test_bounds_reads_every_degree_not_a_window(ring):
    # R --2--> R in degrees -1, 0 and s^0 = 1: d s + s d is 2 in both
    # degrees.  Without its component in degree -1 the map fails only
    # there, the degree below the lowest component of s.
    y, two = two_term(ring, 2), Mat(ring, 1, 1, (2,))
    s = Homotopy(y, y, {0: Mat.identity(ring, 1)})
    assert s.bounds(ChainMap(y, y, {-1: two, 0: two}))
    f = ChainMap(y, y, {0: two})
    assert _bounds_in(s, f, 0, 4) and not _bounds_in(s, f, -1, -1)
    assert not s.bounds(f)
    # the degrees of f's own components are read too: s = 0 bounds only 0
    zero = Homotopy(y, y, {})
    assert zero.bounds(ChainMap(y, y, {})) and not zero.bounds(f)


def test_bounds_refuses_a_map_between_other_complexes():
    # on w = Z --5--> Z, d s + s d is 5 in both degrees, so s^0 = 1 on y
    # = Z --2--> Z does not bound 2 on w although the matrices match y's
    y, w = two_term(ZZ, 2), two_term(ZZ, 5)
    two = Mat(ZZ, 1, 1, (2,))
    s = Homotopy(y, y, {0: Mat.identity(ZZ, 1)})
    assert s.bounds(ChainMap(y, y, {-1: two, 0: two}))
    assert not s.bounds(ChainMap(w, w, {-1: two, 0: two}))
    assert not s.bounds(ChainMap(y, w, {-1: two}))


@pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=str)
def test_chain_map_components_are_checked_where_built(ring):
    x, one = Complex(ring, "left", {0: 1}, {}), Mat.identity(ring, 1)
    assert ChainMap(x, x, {0: one}).component(0) == one
    with pytest.raises(MatrixError, match="degree 5 has shape 1x1, expected 0x0"):
        ChainMap(x, x, {5: one})
    with pytest.raises(MatrixError, match="degree 0 has shape 1x2, expected 1x1"):
        ChainMap(x, two_term(ring, 2), {0: Mat.zero(ring, 1, 2)})
    other = Zmod(4) if ring == ZZ else ZZ
    with pytest.raises(MatrixError, match="degree 0 is over"):
        ChainMap(x, x, {0: Mat.identity(other, 1)})
    with pytest.raises(MatrixError, match="to one over"):
        ChainMap(x, Complex(other, "left", {0: 1}, {}), {})


@pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=str)
def test_homotopy_components_are_checked_where_built(ring):
    # s^j maps source^j to target^(j-1)
    y, one = two_term(ring, 2), Mat.identity(ring, 1)
    assert Homotopy(y, y, {0: one}).component(0) == one
    with pytest.raises(MatrixError, match="degree 5 has shape 1x1, expected 0x0"):
        Homotopy(y, y, {5: one})
    with pytest.raises(MatrixError, match="degree 0 has shape 1x2, expected 1x1"):
        Homotopy(y, y, {0: Mat.zero(ring, 1, 2)})
    with pytest.raises(MatrixError, match="degree -1 has shape 1x1, expected 0x1"):
        Homotopy(y, y, {-1: one})
    other = Zmod(4) if ring == ZZ else ZZ
    with pytest.raises(MatrixError, match="degree 0 is over"):
        Homotopy(y, y, {0: Mat.identity(other, 1)})
    with pytest.raises(MatrixError, match="to one over"):
        Homotopy(y, two_term(other, 2), {})


# Recorded digests of null_homotopy_witness output (components, or None
# when there is no homotopy) on seeded maps: null-homotopic maps,
# identities, scalar multiples of identities and identities of
# contractible complexes.  Any change of the solved system or of its
# block order shows here.
NULL_HOMOTOPY_RINGS = {"Z": ZZ, "F7": Fp(7), "Z4": Zmod(4), "Z12": Zmod(12)}
NULL_HOMOTOPY_DIGESTS = {
    "F7": "ddb74c47b52c17208c97b614630a296888baf0bba0deedf4421688a64d46b208",
    "Z": "c7f3b5a4260c1a122e166da52df537fa2d29fd44e5e3c020c54a216b2ac1a338",
    "Z12": "19175902619e5332f7631c0681ae1c6469861dbb409b86e0daae405382c0a0d0",
    "Z4": "311f78f4df8b3591359d6c7ca3f80254322b0295e3dcc465df94c8292e7e9331",
}


def _seeded_maps(ring_name):
    ring = NULL_HOMOTOPY_RINGS[ring_name]
    rng = random.Random(f"null-homotopy/{ring_name}")
    for _ in range(10):
        x = random_bounded_complex(rng, ring)
        y = random_bounded_complex(rng, ring)
        yield random_null_homotopic_map(rng, x, y)
        yield ChainMap.identity(x)
        a = rng.randint(2, 5)
        yield ChainMap(x, x, {j: m.scale(a) for j, m in ChainMap.identity(x).components.items()})
        yield ChainMap.identity(random_contractible_complex(rng, ring))


def null_homotopy_digest(ring_name: str) -> str:
    found = [null_homotopy_witness(f) for f in _seeded_maps(ring_name)]
    text = repr([None if h is None else
                 sorted((j, m.rows, m.cols, m.entries) for j, m in h.components.items())
                 for h in found])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ring_name", sorted(NULL_HOMOTOPY_RINGS))
def test_null_homotopy_witness_bytes_are_pinned(ring_name):
    assert null_homotopy_digest(ring_name) == NULL_HOMOTOPY_DIGESTS[ring_name]
