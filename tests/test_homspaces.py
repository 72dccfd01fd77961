import random
from functools import partial

from hypothesis import given, settings, strategies as st
import pytest

from homcert import complexes, generator, homspaces
from homcert.complexes import Complex, Forms, PeriodicTail, homology
from homcert.generator import build_generator, hom_classes
from homcert.homspaces import hom_fp_complex, hom_into_complex
from homcert.matrices import (SIZE_LIMIT, Mat, MatrixError, assemble_blocks,
                              colspan_canonical, kernel_right)
from homcert.modules import FPModule, modules_isomorphic
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import random_bounded_complex, random_fp_module, random_matrix


def test_hom_from_free_recovers_homology():
    # Hom(R, Q) = Q, so its homology is the homology of Q
    ring = ZZ
    q = Complex(ring, "left", {-1: 1, 0: 1}, {-1: Mat(ring, 1, 1, (2,))})
    sub = hom_into_complex(FPModule.free(ring, "left", 1), q)
    assert modules_isomorphic(sub.homology_data(0)[0], FPModule.cyclic(ring, "left", 2))
    assert sub.homology_data(-1)[0].is_zero()


def test_hom_from_torsion_into_free_target_vanishes():
    # Hom(Z/2, Z) = 0 termwise, so the whole Hom complex vanishes
    ring = ZZ
    q = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (2,))})
    m = FPModule.cyclic(ring, "left", 2)
    sub = hom_into_complex(m, q)
    for n in range(-1, 3):
        assert sub.homology_data(n)[0].is_zero()


def test_hom_from_torsion_sees_torsion_target():
    # Hom(Z/2, Z/4 --2--> Z/4) over Z/4: the degreewise Hom is Z/2 with
    # zero induced differential, so H^j = Z/2 in both degrees
    ring = Zmod(4)
    q = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (2,))})
    m = FPModule.cyclic(ring, "left", 2)
    sub = hom_into_complex(m, q)
    assert modules_isomorphic(sub.homology_data(0)[0], m)
    assert modules_isomorphic(sub.homology_data(1)[0], m)


def test_hom_vanishing_on_orthogonal_target():
    # Hom(Z/2, -) vanishes into a complex of Z/3-ish pieces over Z/6
    ring = Zmod(6)
    q = Complex(ring, "left", {0: 1}, {})
    m = FPModule.cyclic(ring, "left", 2)
    # M = Z/6 / (2) = Z/2; Hom(Z/2, Z/6) = Z/2 != 0, so no vanishing
    assert not hom_into_complex(m, q).is_exact_at(0)


def test_hom_vanishing_positive_case():
    # Hom(Z/5, Z --j--> Z) = 0 termwise over Z
    ring = ZZ
    q = Complex(ring, "left", {-1: 1, 0: 1}, {-1: Mat(ring, 1, 1, (7,))})
    m = FPModule.cyclic(ring, "left", 5)
    sub = hom_into_complex(m, q)
    assert sub.is_exact_at(-1) and sub.is_exact_at(0)


def test_hom_fp_complex_free_terms_agree_with_hom_into_complex():
    rng = random.Random(3)
    for ring in (ZZ, Fp(5), Zmod(4)):
        q = random_bounded_complex(rng, ring)
        m = FPModule.free(ring, "left", 2)
        a = hom_into_complex(m, q)
        b = hom_fp_complex({0: m}, {}, q)
        for n in range(-2, 3):
            assert modules_isomorphic(a.homology_data(n)[0], b.homology_data(n)[0])


def test_hom_fp_complex_of_two_term_source():
    # source 0 -> R --2--> R -> 0 in degrees -1, 0 mapping into Q = R
    # computes Hom of the complex, giving Ext-style homology
    ring = ZZ
    free = FPModule.free(ring, "left", 1)
    terms = {-1: free, 0: free}
    diffs = {-1: Mat(ring, 1, 1, (2,))}
    q = Complex(ring, "left", {0: 1}, {})
    sub = hom_fp_complex(terms, diffs, q)
    # H^0 = Hom(coker 2, Z) = 0; H^1 = Z/2
    assert sub.homology_data(0)[0].is_zero()
    assert modules_isomorphic(sub.homology_data(1)[0], FPModule.cyclic(ring, "left", 2))


def test_hom_into_periodic_complex_is_window_computable():
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    q = Complex(ring, "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    m = FPModule.free(ring, "left", 1)
    sub = hom_into_complex(m, q.restrict(-4, 4))
    for n in range(-2, 3):
        assert sub.homology_data(n)[0].is_zero()


def free_terms(c):
    return {j: FPModule.free(c.ring, c.side, r) for j, r in c.ranks.items()}


def assert_square_zero(sub, lo, hi):
    for n in range(lo, hi):
        assert (sub.ambient_diff(n + 1) @ sub.ambient_diff(n)).is_zero(), n


def test_hom_fp_complex_differential_square_zero_and_h0():
    # Hom(C, C) for C = (Z --2--> Z): H^0 contains the identity class
    c = Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    sub = hom_fp_complex(free_terms(c), c.diffs, c)
    assert_square_zero(sub, -2, 2)
    assert not sub.homology_data(0)[0].is_zero()


def test_hom_fp_complex_square_zero_on_random_and_generator_sources():
    rng = random.Random(5)
    for ring in (ZZ, Fp(5), Zmod(4), Zmod(12)):
        for _ in range(4):
            x = random_bounded_complex(rng, ring)
            q = random_bounded_complex(rng, ring)
            assert_square_zero(hom_fp_complex(free_terms(x), x.diffs, q), -3, 3)
            pkg = build_generator(random_fp_module(rng, ring, max_rank=2))
            for shift in (-1, 0, 1):
                _, sub = hom_classes(pkg, q, shift)
                assert_square_zero(sub, -2, 2)


def test_hom_term_gens_span_the_maps_that_kill_relations():
    # Hom(M, R^q) = Hom(M, R^q[0])^0 is the kernel of
    # vec(F) |-> vec(F P) = (P^T (x) I_q) vec(F)
    rng = random.Random(7)
    for ring in (ZZ, Fp(5), Zmod(4), Zmod(8), Zmod(12)):
        for _ in range(8):
            m = random_fp_module(rng, ring)
            for q in (1, 2, 3):
                ref = kernel_right(m.presentation.transpose().kron(Mat.identity(ring, q)))
                gens = hom_into_complex(m, Complex(ring, m.side, {0: q}, {})).gens_at(0)
                # None is the whole ambient module: M is free or has no generators
                assert (gens is None) == (m.rank1 == 0 or m.rank0 == 0)
                if gens is None:
                    assert colspan_canonical(ref) == colspan_canonical(
                        Mat.identity(ring, q * m.rank0))
                else:
                    assert colspan_canonical(gens) == colspan_canonical(ref)


def test_split_and_join_are_inverse_on_the_block_layout():
    rng = random.Random(11)
    for ring in (ZZ, Zmod(12)):
        x = random_bounded_complex(rng, ring)
        q = random_bounded_complex(rng, ring)
        sub = hom_fp_complex(free_terms(x), x.diffs, q)
        for n in range(-2, 3):
            col = random_matrix(rng, ring, sub.ambient_rank(n), 1)
            blocks = sub.split(n, col)
            assert sorted(blocks) == [i for (i, _, _) in sub.layout(n)]
            for (i, r0, qr) in sub.layout(n):
                assert (blocks[i].rows, blocks[i].cols) == (qr, r0)
                assert q.rank(i + n) == qr and x.rank(i) == r0
            assert sub.join(n, blocks) == col


def test_an_oversized_hom_complex_is_refused_before_any_block(monkeypatch):
    # ranks 4096 in degrees 0 and 1: Hom^-1 has rank 4096^2 and Hom^0
    # rank 2 * 4096^2, so d^-1 would have 2^49 cells
    def refuse(*args):
        raise AssertionError("a block was built")
    x = Complex(ZZ, "left", {0: SIZE_LIMIT, 1: SIZE_LIMIT}, {})
    sub = hom_fp_complex(free_terms(x), {}, x)
    monkeypatch.setattr(homspaces, "block_diag", refuse)
    monkeypatch.setattr(Mat, "_trusted", classmethod(refuse))
    monkeypatch.setattr(Mat, "identity", staticmethod(refuse))
    monkeypatch.setattr(Mat, "kron", refuse)
    with pytest.raises(MatrixError, match=f"degree -1 would have {2 ** 49} cells"):
        sub.ambient_diff(-1)


EXACTNESS_RINGS = [ZZ, Fp(7), Zmod(4), Zmod(8), Zmod(12)]


def assert_exactness_agrees(forms, degrees) -> list[tuple[Mat, Mat | None]]:
    """The containment test and its witness against the homology module,
    degree by degree: Y is None exactly where H^j is nonzero, and where
    it is given, d^(j-1) Y = Z holds by multiplication.  Returns the
    (Z, Y) of each degree."""
    out = []
    for j in degrees:
        z, y = forms.exactness(j)
        assert forms.is_exact_at(j) == (y is not None) == forms.homology_data(j)[0].is_zero(), j
        assert y is None or forms.matrix(j - 1) @ y == z, j
        out.append((z, y))
    return out


@pytest.mark.parametrize("ring", EXACTNESS_RINGS, ids=str)
def test_exactness_agrees_with_homology_on_multiplication_by_two(ring):
    # R --2--> R in degrees -1, 0: d^-1 has no boundaries (d^-2 has 0
    # columns) and over Z and F_7 no cycles either (its kernel has 0
    # columns); H^0 = R/2, zero only over F_7
    two = Complex(ring, "left", {-1: 1, 0: 1}, {-1: Mat(ring, 1, 1, (2,))})
    witnesses = assert_exactness_agrees(Forms(two), range(-3, 3))
    assert (witnesses[3][1] is not None) == (ring == Fp(7))
    assert two.diff(-2).cols == 0
    if ring in (ZZ, Fp(7)):
        assert kernel_right(two.diff(-1)).cols == 0
    # Hom(R, Q) = Q, with Q's own cycles and witnesses
    sub = hom_into_complex(FPModule.free(ring, "left", 1), two)
    assert assert_exactness_agrees(sub, range(-2, 3)) == witnesses[1:]


def test_exactness_agrees_with_homology_on_a_hom_complex_with_h0_z2():
    # Hom(C, C) for C = (Z --2--> Z) is Hom(Z/2, Z/2) in degree 0 and
    # Ext^1(Z/2, Z/2) in degree 1, both Z/2
    c = Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    sub = hom_fp_complex(free_terms(c), c.diffs, c)
    exact = [y is not None for _, y in assert_exactness_agrees(sub, range(-1, 3))]
    assert exact == [True, False, False, True]
    assert modules_isomorphic(sub.homology_data(0)[0], FPModule.cyclic(ZZ, "left", 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXACTNESS_RINGS), st.integers(0, 2 ** 32))
def test_exactness_agrees_with_homology_on_random_complexes(ring, seed):
    rng = random.Random(seed)
    q = random_bounded_complex(rng, ring)
    witnesses = assert_exactness_agrees(Forms(q), range(-4, 5))
    x = random_bounded_complex(rng, ring, max_pieces=2)
    for sub in (hom_into_complex(random_fp_module(rng, ring, max_rank=2), q),
                hom_fp_complex(free_terms(x), x.diffs, q)):
        assert_exactness_agrees(sub, range(-2, 3))
    # Hom(R, Q) = Q, with Q's own cycles and witnesses
    sub = hom_into_complex(FPModule.free(ring, q.side, 1), q)
    assert assert_exactness_agrees(sub, range(-4, 5)) == witnesses


# -- degrees built on first use ---------------------------------------


def _z4_two_chain():
    # Z/4 --2--> Z/4 --2--> Z/4 in degrees -1..1
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    return Complex(ring, "left", {-1: 1, 0: 1, 1: 1}, {-1: two, 0: two})


def test_hom_classes_builds_only_the_differentials_h0_reads(monkeypatch):
    built = []
    ambient_diff = homspaces.SubComplex.ambient_diff

    def counting(sub, n):
        d = ambient_diff(sub, n)
        built.append((d.rows, d.cols))
        return d

    monkeypatch.setattr(homspaces.SubComplex, "ambient_diff", counting)
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    (h0, _, _), sub = hom_classes(pkg, _z4_two_chain())
    # H^0 reads the ambient differentials of degrees -1 and 0, each once,
    # the one below first, so that an equal one above could reuse its form
    assert len(built) == 2
    assert built == [(sub.ambient_rank(0), sub.ambient_rank(-1)),
                     (sub.ambient_rank(1), sub.ambient_rank(0))]
    assert not h0.is_zero()


def test_an_all_free_hom_complex_multiplies_by_no_identity(monkeypatch):
    # every term is the whole ambient module: no generator block is
    # built, and exactness is one kernel and one solve with no product
    rng = random.Random(13)
    products = []
    matmul = Mat.__matmul__

    def recording(a, b):
        products.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    for ring in EXACTNESS_RINGS:
        x = random_bounded_complex(rng, ring, max_pieces=2)
        q = random_bounded_complex(rng, ring)
        sub = hom_fp_complex(free_terms(x), x.diffs, q)
        monkeypatch.setattr(Mat, "__matmul__", recording)
        exact = [sub.is_exact_at(n) for n in range(-3, 4)]
        monkeypatch.setattr(Mat, "__matmul__", matmul)
        assert all(sub.gens_at(n) is None for n in range(-4, 4))
        assert exact == [sub.homology_data(n)[0].is_zero() for n in range(-3, 4)]
    assert products == []


@pytest.mark.parametrize("ring", EXACTNESS_RINGS, ids=str)
def test_hom_from_the_ring_has_the_homology_of_its_target_in_every_degree(ring):
    rng = random.Random(f"hom-from-R/{ring}")
    for _ in range(4):
        q = random_bounded_complex(rng, ring)
        span = q.support() or (0, 0)
        sub = hom_into_complex(FPModule.free(ring, "left", 1), q)
        for n in range(span[0] - 3, span[1] + 4):
            assert modules_isomorphic(sub.homology_data(n)[0], homology(q, n)), n


def test_each_restricted_differential_is_formed_once(monkeypatch):
    # the Hom complex of the cone of M -> P* has M = Z/4/(2) in degree -1
    # and frees above it, so its layouts mix a presented term with free
    # ones; ambient_diff(n) @ gens_at(n) serves the cycles at n and the
    # boundaries at n + 1, and is formed once
    subs, products, diffs = [], [], {}
    monkeypatch.setattr(generator, "hom_fp_complex",
                        lambda *args: subs.append(hom_fp_complex(*args)) or subs[-1])
    ambient_diff = homspaces.SubComplex.ambient_diff
    monkeypatch.setattr(homspaces.SubComplex, "ambient_diff",
                        lambda sub, n: diffs.setdefault(n, []).append(ambient_diff(sub, n))
                        or diffs[n][-1])
    matmul = Mat.__matmul__

    def recording(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", recording)
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    assert generator.verify_generator_quasi_iso(pkg, _z4_two_chain(), (-3, 3)).ok
    monkeypatch.setattr(Mat, "__matmul__", matmul)
    (sub,) = subs
    mixed = [n for n in range(-4, 4) if sub.gens_at(n) is not None and sub.layout(n + 1)]
    assert mixed
    for n in mixed:
        # built once, and multiplied by its generator block once
        (d,), u = diffs[n], sub.gens_at(n)
        assert sum(a is d and b is u for a, b in products) == 1, n


def test_induced_h0_map_is_one_solve(monkeypatch):
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    q = _z4_two_chain()
    src, src_sub = hom_classes(pkg, q)
    tgt_sub = hom_into_complex(pkg.module, q)
    tgt = tgt_sub.homology_data(0)

    def push(col):
        f0 = src_sub.split(0, col).get(0)
        return tgt_sub.join(0, {} if f0 is None else {0: f0 @ pkg.comparison})

    solves = []
    solve = homspaces.solve_right
    monkeypatch.setattr(homspaces, "solve_right", lambda a, b: solves.append(b.cols) or solve(a, b))
    f = homspaces.induced_h0_map(src, tgt, push)
    assert solves == [src[1].cols] and src[1].cols > 1
    # column by column, the same map
    s_cycles, (_, t_cycles, t_bounds) = src[1], tgt
    for c in range(s_cycles.cols):
        x = solve(t_cycles.hstack(t_bounds), push(s_cycles.submatrix(range(s_cycles.rows), [c])))
        assert x.submatrix(range(t_cycles.cols), [0]) == \
            f.matrix.submatrix(range(t_cycles.cols), [c])
    assert f.is_isomorphism()


def test_a_quasi_iso_sweep_eliminates_each_restricted_differential_once(monkeypatch,
                                                                        count_eliminations):
    # the cone of M -> P* for M = Z/4/(2) against Z/4 --2--> Z/4 --2--> Z/4:
    # the matrix of degree n serves the cycles at n and the solve at n + 1,
    # a restricted differential equal to the one below stands in for it,
    # and the functionals of M, which the package's dual already took,
    # are not eliminated again in any degree
    subs = []
    monkeypatch.setattr(generator, "hom_fp_complex",
                        lambda *args: subs.append(hom_fp_complex(*args)) or subs[-1])
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    assert "functionals" in vars(pkg.module)  # eliminated for M*
    eliminated = count_eliminations()
    assert generator.verify_generator_quasi_iso(pkg, _z4_two_chain(), (-4, 4)).ok
    (sub,) = subs
    assert any(m is pkg.module for m in sub.terms.values())
    assert {n for kind, n in sub._cache if kind == "matrix"} == set(range(-5, 3))
    formed = [sub.matrix(n) for n in range(-5, 3)]
    kept = list({id(a): a for a in formed}.values())
    nonzero = [a for a in kept if not a.is_zero()]
    # degrees -5..2 have eight restricted differentials; the five of
    # degrees -5..-1 are equal and one matrix stands in for them, so four
    # are kept and three eliminated (eight and seven when each degree had
    # its own)
    assert (len(kept), len(nonzero)) == (4, 3)
    assert sorted(eliminated) == sorted(eliminated.stacked(a) for a in nonzero)
    assert all(sub.matrix(n) is sub.matrix(-5) for n in range(-5, 0))
    zero_ambient = [n for n in range(-4, 5) if not sub.layout(n)]
    assert zero_ambient


def test_a_zero_ambient_degree_is_exact_without_building_anything(monkeypatch):
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    _, sub = hom_classes(pkg, _z4_two_chain())
    empty = [n for n in range(-8, 9) if not sub.layout(n)]
    assert empty

    def refuse(*args):
        raise AssertionError("built a block for a zero ambient module")

    monkeypatch.setattr(Mat, "_trusted", classmethod(refuse))
    monkeypatch.setattr(homspaces, "block_diag", refuse)
    monkeypatch.setattr(complexes, "kernel_right", refuse)
    monkeypatch.setattr(complexes, "solve_right", refuse)
    assert all(sub.is_exact_at(n) for n in empty)


# -- the ambient differential, written from its Kronecker blocks -------


def _kron_ambient_diff(sub, n):
    """SubComplex.ambient_diff as it was built block by block from
    Mat.identity, kron, transpose, scale and assemble_blocks (without
    its cache and size guard): the reference of the direct assembly."""
    src, tgt = sub.layout(n), sub.layout(n + 1)
    rows, cols = [r0 * qr for (_, r0, qr) in tgt], [r0 * qr for (_, r0, qr) in src]
    ring = sub.q.ring
    tgt_index = {i: pos for pos, (i, _, _) in enumerate(tgt)}
    grid = [[None] * len(src) for _ in tgt]
    for spos, (i, r0, qr) in enumerate(src):
        if i in tgt_index:
            dq = sub.q.diff(i + n)
            if not dq.is_zero():
                grid[tgt_index[i]][spos] = Mat.identity(ring, r0).kron(dq)
        if (i - 1) in tgt_index:
            t = sub.diffs.get(i - 1)
            if t is not None and not t.is_zero():
                m = t.transpose().kron(Mat.identity(ring, qr)).scale(1 if n % 2 else -1)
                prev = grid[tgt_index[i - 1]][spos]
                grid[tgt_index[i - 1]][spos] = m if prev is None else prev + m
    return assemble_blocks(ring, grid, rows, cols)


AMBIENT_RINGS = [ZZ, Fp(5), Zmod(4), Zmod(8), Zmod(12)]


def _random_source(rng, ring):
    """Terms in consecutive degrees, each free or presented (rank 0
    included), and between neighbours a differential that is absent,
    zero or random."""
    lo = rng.randint(-2, 0)
    terms = {i: FPModule.free(ring, "left", rng.randint(0, 3)) if rng.random() < 0.5
             else random_fp_module(rng, ring, max_rank=3)
             for i in range(lo, lo + rng.randint(1, 4))}
    diffs = {}
    for i in terms:
        if i + 1 in terms:
            shape = (terms[i + 1].rank0, terms[i].rank0)
            kind = rng.choice(("absent", "zero", "random"))
            if kind != "absent":
                diffs[i] = (Mat.zero(ring, *shape) if kind == "zero"
                            else random_matrix(rng, ring, *shape))
    return terms, diffs


@pytest.mark.parametrize("ring", AMBIENT_RINGS, ids=str)
def test_ambient_diff_equals_the_kronecker_assembly(ring):
    rng = random.Random(f"ambient/{ring}")
    seen = set()
    for _ in range(40):
        q = random_bounded_complex(rng, ring)
        terms, diffs = _random_source(rng, ring)
        sub = hom_fp_complex(terms, diffs, q)
        span = q.support() or (0, 0)
        for n in range(span[0] - max(terms) - 2, span[1] - min(terms) + 2):
            d = sub.ambient_diff(n)
            assert d == _kron_ambient_diff(sub, n), n
            src, tgt = {i for (i, _, _) in sub.layout(n)}, {i for (i, _, _) in sub.layout(n + 1)}
            seen.add(("empty", not src, not tgt))
            seen.update(("presented", n % 2) for i in src & tgt if terms[i].rank1)
            for i in src:
                if i - 1 in tgt:
                    t = diffs.get(i - 1)
                    seen.add(("t", n % 2, "absent" if t is None else "zero" if t.is_zero()
                              else "random"))
    # every kind of t under a nonempty block and presented terms, both
    # with either sign, and layouts empty on either side
    assert seen >= {("presented", 0), ("presented", 1),
                    ("empty", True, False), ("empty", False, True), ("empty", False, False)}
    assert seen >= {("t", p, kind) for p in (0, 1) for kind in ("absent", "zero", "random")}


def test_a_source_differential_of_the_wrong_shape_or_ring_is_refused():
    ring = Zmod(4)
    free = partial(FPModule.free, ring, "left")
    q = Complex(ring, "left", {0: 1}, {})
    with pytest.raises(MatrixError, match="degree -1 is 1x2, expected 1x1"):
        hom_fp_complex({-1: free(1), 0: free(1)}, {-1: Mat.zero(ring, 1, 2)}, q)
    with pytest.raises(MatrixError, match="degree 0 is 1x1, expected 0x1"):
        hom_fp_complex({0: free(1)}, {0: Mat.zero(ring, 1, 1)}, q)
    with pytest.raises(MatrixError, match="same ring"):
        hom_fp_complex({-1: free(1), 0: free(1)}, {-1: Mat.identity(ZZ, 1)}, q)


def test_a_free_hom_complex_builds_no_identity_and_no_kron(monkeypatch):
    rng = random.Random(31)
    subs = []
    for ring in AMBIENT_RINGS:
        x = random_bounded_complex(rng, ring, max_pieces=2)
        q = random_bounded_complex(rng, ring)
        subs.append(hom_fp_complex(free_terms(x), x.diffs, q))

    def refuse(*args):
        raise AssertionError("an identity or a Kronecker product was built")

    monkeypatch.setattr(Mat, "identity", staticmethod(refuse))
    monkeypatch.setattr(Mat, "kron", refuse)
    built = [sub.ambient_diff(n) for sub in subs for n in range(-5, 5)]
    assert any(not d.is_zero() for d in built)
