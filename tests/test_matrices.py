import gc
import random
import sys
import threading
import tracemalloc
import weakref
from itertools import combinations
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from homcert.matrices import (SIZE_LIMIT, Mat, MatrixError, _bareiss, _from_cols, _hnf, _xgcd,
                              assemble_blocks, block_diag, colspan_canonical, kernel_right,
                              smith_invariants, solve_right)
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import random_invertible, random_matrix

RINGS = [ZZ, Fp(5), Zmod(4), Zmod(6)]


def test_construction_normalizes_entries():
    m = Mat(Zmod(4), 1, 3, (5, -1, 4))
    assert m.row_list() == [[1, 3, 0]]


def test_shape_mismatch_rejected():
    with pytest.raises(MatrixError):
        Mat(ZZ, 2, 2, (1, 2, 3))


def test_submatrix_indices_stay_inside_the_shape():
    m = Mat(ZZ, 2, 2, (1, 2, 3, 4))
    assert m.submatrix(range(1, 2), [0]) == Mat(ZZ, 1, 1, (3,))
    assert m.submatrix(range(0), range(2)) == Mat(ZZ, 0, 2)
    for rows, cols in [(range(1), range(3)), (range(-1, 0), range(2)),
                       (range(3), range(2)), ([0], [2])]:
        with pytest.raises(MatrixError, match="outside a 2x2 matrix"):
            m.submatrix(rows, cols)


def test_matmul_and_identity():
    a = Mat(ZZ, 2, 3, (1, 2, 3, 4, 5, 6))
    assert Mat.identity(ZZ, 2) @ a == a
    assert a @ Mat.identity(ZZ, 3) == a


def test_kernel_of_integer_row():
    k = kernel_right(Mat(ZZ, 1, 2, (2, 3)))
    assert k.cols == 1
    assert (Mat(ZZ, 1, 2, (2, 3)) @ k).is_zero()
    assert k.columns()[0] in ([3, -2], [-3, 2])


def test_kernel_of_zero_row_is_full():
    k = kernel_right(Mat(Zmod(4), 1, 1, (0,)))
    assert k.cols == 1 and k[0, 0] == 1


def test_kernel_of_unit_is_empty():
    k = kernel_right(Mat(Zmod(4), 1, 1, (1,)))
    assert k.cols == 0


def test_kernel_catches_torsion():
    # 2 * 2 = 0 in Z/4 even though 2 is not a zero divisor in Z
    k = kernel_right(Mat(Zmod(4), 1, 1, (2,)))
    assert k.cols == 1 and k[0, 0] == 2


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_kernel_solve_roundtrip_random(ring):
    rng = random.Random(11)
    for _ in range(60):
        a = random_matrix(rng, ring, rng.randint(0, 3), rng.randint(0, 3))
        k = kernel_right(a)
        assert (a @ k).is_zero()
        # every kernel column solves back through the kernel basis
        assert solve_right(k, k) is not None


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_solve_right_exactness(ring):
    rng = random.Random(7)
    hits = 0
    for _ in range(80):
        a = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 3))
        x = random_matrix(rng, ring, a.cols, 2)
        b = a @ x
        y = solve_right(a, b)
        assert y is not None
        assert a @ y == b
        hits += 1
    assert hits == 80


def test_solve_right_reports_unsolvable():
    assert solve_right(Mat(ZZ, 1, 1, (2,)), Mat(ZZ, 1, 1, (1,))) is None
    assert solve_right(Mat(Zmod(4), 1, 1, (2,)), Mat(Zmod(4), 1, 1, (1,))) is None


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_left_kernel_annihilates(ring):
    rng = random.Random(3)
    for _ in range(40):
        a = random_matrix(rng, ring, rng.randint(0, 3), rng.randint(0, 3))
        k = kernel_right(a.transpose()).transpose()  # rows generate {x : x a = 0}
        assert (k @ a).is_zero()


def test_colspan_canonical_is_deterministic_and_spanning():
    rng = random.Random(5)
    for ring in RINGS:
        for _ in range(30):
            a = random_matrix(rng, ring, 3, rng.randint(0, 4))
            c = colspan_canonical(a)
            # same span both ways
            assert solve_right(c, a) is not None or a.cols == 0
            assert solve_right(a, c) is not None or c.cols == 0
            assert colspan_canonical(c) == c
            assert c.cols <= c.rows


def test_smith_invariants_frozen_examples():
    assert smith_invariants(Mat(ZZ, 2, 2, (2, 0, 0, 3))) == [1, 6]
    assert smith_invariants(Mat(ZZ, 2, 2, (0, 0, 0, 0))) == []
    assert smith_invariants(Mat(ZZ, 2, 3, (1, 2, 3, 4, 5, 6))) == [1, 3]
    assert smith_invariants(Mat(Zmod(12), 2, 2, (2, 0, 0, 3))) == [1, 6]
    assert smith_invariants(Mat(Zmod(4), 2, 1, (2, 0))) == [2, 4]
    assert smith_invariants(Mat(Fp(5), 2, 2, (1, 2, 2, 4))) == [1, 5]


def test_smith_invariants_divisibility():
    rng = random.Random(17)
    for _ in range(50):
        a = random_matrix(rng, ZZ, rng.randint(1, 4), rng.randint(1, 4))
        inv = smith_invariants(a)
        for x, y in zip(inv, inv[1:]):
            assert y == 0 if x == 0 else y % x == 0


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_inverse_of_random_invertible(ring):
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        u = random_invertible(rng, ring, n)
        v = solve_right(u, Mat.identity(ring, n))
        assert u @ v == Mat.identity(ring, n)
        assert v @ u == Mat.identity(ring, n)


def test_block_diag_shapes():
    a = Mat(ZZ, 1, 2, (1, 2))
    b = Mat(ZZ, 2, 1, (3, 4))
    d = block_diag(ZZ, [a, b])
    assert (d.rows, d.cols) == (3, 3)
    assert d.row_list() == [[1, 2, 0], [0, 0, 3], [0, 0, 4]]
    assert block_diag(ZZ, []) == Mat(ZZ, 0, 0)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_hstack_with_no_rows_or_no_columns_on_either_side(ring):
    a = Mat(ring, 2, 2, (1, 2, 3, 5))
    empty = Mat.zero(ring, 2, 0)
    assert a.hstack(empty) == a and empty.hstack(a) == a
    assert empty.hstack(empty) == empty
    assert Mat.zero(ring, 0, 2).hstack(Mat.zero(ring, 0, 3)) == Mat(ring, 0, 5)
    assert Mat.zero(ring, 0, 0).hstack(Mat.zero(ring, 0, 0)) == Mat(ring, 0, 0)
    assert a.hstack(Mat(ring, 2, 1, (7, 11))) == Mat(ring, 2, 3, (1, 2, 7, 3, 5, 11))
    with pytest.raises(MatrixError, match="row count"):
        Mat.zero(ring, 0, 1).hstack(Mat.zero(ring, 1, 0))


def test_blocks_over_another_ring_are_refused():
    # read over F3, the Z/4 entry 3 would silently become 0
    three = Mat(Zmod(4), 1, 1, (3,))
    with pytest.raises(MatrixError, match="ring"):
        block_diag(Fp(3), [three])
    with pytest.raises(MatrixError, match="ring"):
        assemble_blocks(Fp(3), [[None, three]], [1], [1, 1])
    with pytest.raises(MatrixError, match="ring"):
        assemble_blocks(ZZ, [[Mat.identity(Zmod(4), 1)]], [1], [1])


def test_kron_vec_identity():
    rng = random.Random(31)
    for ring in RINGS:
        a = random_matrix(rng, ring, 2, 2)
        x = random_matrix(rng, ring, 2, 3)
        b = random_matrix(rng, ring, 3, 2)
        lhs = (a @ x @ b).vec()
        rhs = b.transpose().kron(a) @ x.vec()
        assert lhs == rhs
        assert Mat.unvec(ring, x.vec(), 2, 3) == x


def _entry_kron(a, b):
    """Mat.kron entry by entry through __getitem__: the reference of the
    slice-written product."""
    r, c = a.rows * b.rows, a.cols * b.cols
    n = a.ring.modulus
    ent = [0] * (r * c)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            x = a[i1, j1]
            if x == 0:
                continue
            for i2 in range(b.rows):
                for j2 in range(b.cols):
                    v = x * b[i2, j2]
                    ent[(i1 * b.rows + i2) * c + (j1 * b.cols + j2)] = v if n is None else v % n
    return Mat(a.ring, r, c, tuple(ent))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([ZZ, Fp(5), Zmod(4), Zmod(8), Zmod(12)]),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2 ** 32), st.booleans())
def test_kron_equals_the_entrywise_product(ring, r1, c1, r2, c2, seed, identity):
    rng = random.Random(seed)
    a = random_matrix(rng, ring, r1, c1, bound=20)
    b = Mat.identity(ring, r2) if identity else random_matrix(rng, ring, r2, c2, bound=20)
    for x, y in ((a, b), (b, a), (a, a.transpose())):
        k = x.kron(y)
        assert k == _entry_kron(x, y)
        assert type(k.entries) is tuple


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=60)
def test_arithmetic_matches_integers_mod_6(a, b, c):
    ring = Zmod(6)
    m = Mat(ring, 1, 1, (ring.normalize(a),))
    n = Mat(ring, 1, 1, (ring.normalize(b),))
    assert (m + n)[0, 0] == (a + b) % 6
    assert (m @ n)[0, 0] == (a * b) % 6
    assert m.scale(c)[0, 0] == (a * c) % 6


# -- modular elimination, checked by enumeration and multiplication -----

MOD_RINGS = [Fp(5), Fp(7), Zmod(4), Zmod(8), Zmod(12)]


@st.composite
def small_mod_matrix(draw, max_rows=3, max_cols=3):
    ring = draw(st.sampled_from(MOD_RINGS))
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    ent = draw(st.lists(st.integers(0, ring.n - 1), min_size=r * c, max_size=r * c))
    return Mat(ring, r, c, tuple(ent))


def _all_vectors(n, length):
    vecs = [()]
    for _ in range(length):
        vecs = [v + (x,) for v in vecs for x in range(n)]
    return vecs


def _image(a):
    """{A x : x in (Z/n)^c} by enumeration."""
    n = a.ring.n
    rows = a.row_list()
    return {tuple(sum(u * v for u, v in zip(row, x)) % n for row in rows)
            for x in _all_vectors(n, a.cols)}


@given(small_mod_matrix())
@settings(max_examples=80, deadline=None)
def test_kernel_right_spans_the_enumerated_kernel(a):
    n = a.ring.n
    k = kernel_right(a)
    assert k.rows == a.cols and (a @ k).is_zero()
    zeros = (0,) * a.rows
    rows = a.row_list()
    kernel = {x for x in _all_vectors(n, a.cols)
              if tuple(sum(u * v for u, v in zip(row, x)) % n for row in rows) == zeros}
    assert _image(k) == kernel


@given(small_mod_matrix(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_right_is_none_iff_no_solution_is_enumerated(a, data):
    n = a.ring.n
    k = data.draw(st.integers(0, 2))
    ent = data.draw(st.lists(st.integers(0, n - 1), min_size=a.rows * k,
                             max_size=a.rows * k))
    b = Mat(a.ring, a.rows, k, tuple(ent))
    if data.draw(st.booleans()):  # make it solvable half the time
        xs = data.draw(st.lists(st.integers(0, n - 1), min_size=a.cols * k,
                                max_size=a.cols * k))
        b = a @ Mat(a.ring, a.cols, k, tuple(xs))
    image = _image(a)
    solvable = all(tuple(col) in image for col in b.columns())
    x = solve_right(a, b)
    assert (x is not None) == solvable
    if x is not None:
        assert a @ x == b


@given(small_mod_matrix(max_rows=4, max_cols=4), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_colspan_canonical_ignores_generator_order_and_redundancy(a, rnd):
    canon = colspan_canonical(a)
    cols = a.columns()
    rnd.shuffle(cols)
    weights = [rnd.randrange(a.ring.n) for _ in cols]
    redundant = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(a.rows)]

    def from_cols(cs):
        return Mat(a.ring, len(cs), a.rows, tuple(v for c in cs for v in c)).transpose()

    assert colspan_canonical(from_cols(cols)) == canon
    assert colspan_canonical(from_cols(cols + [redundant])) == canon
    assert colspan_canonical(a.hstack(from_cols([redundant]))) == canon


@pytest.mark.parametrize("ring", [Fp(7), Zmod(4), Zmod(12)], ids=str)
def test_kernel_and_solve_at_32_by_34(ring):
    rng = random.Random(32)
    a = random_matrix(rng, ring, 32, 34)
    k = kernel_right(a)
    # the index of the kernel lattice is at most n^32 < n^33, so at
    # least two of its 34 Hermite pivots are below n
    assert k.cols >= 2 and (a @ k).is_zero()
    b = a @ random_matrix(rng, ring, 34, 3)
    x = solve_right(a, b)
    assert x is not None and a @ x == b


# -- Smith invariants, checked by determinantal divisors ---------------

SMITH_RINGS = [ZZ, Fp(5), Fp(7), Zmod(4), Zmod(8), Zmod(12)]


@st.composite
def small_matrix(draw, rings, max_rows=3, max_cols=4):
    ring = draw(st.sampled_from(rings))
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    n = ring.modulus
    entries = st.integers(-9, 9) if n is None else st.integers(0, n - 1)
    return Mat(ring, r, c, tuple(draw(st.lists(entries, min_size=r * c, max_size=r * c))))


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * v * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, v in enumerate(m[0]) if v)


def _lift(a):
    """A itself over Z; [A | nI] over Z/n and F_p, as an integer matrix."""
    n = a.ring.modulus
    lifted = Mat(ZZ, a.rows, a.cols, a.entries)
    return lifted if n is None else lifted.hstack(Mat.identity(ZZ, a.rows).scale(n))


def _smith_by_minors(a):
    """d_k / d_(k-1), d_k the gcd of the k x k minors, while d_k != 0."""
    rows = a.row_list()
    out, prev = [], 1
    for k in range(1, min(a.rows, a.cols) + 1):
        d = 0
        for rs in combinations(range(a.rows), k):
            for cs in combinations(range(a.cols), k):
                d = gcd(d, _det([[rows[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


@given(small_matrix(SMITH_RINGS))
@settings(max_examples=150, deadline=None)
def test_smith_invariants_match_determinantal_divisors(a):
    lifted = _lift(a)
    expected = _smith_by_minors(lifted)
    assert smith_invariants(a) == expected
    assert smith_invariants(lifted) == expected


@given(small_matrix(MOD_RINGS, max_cols=3))
@settings(max_examples=80, deadline=None)
def test_abelian_invariants_order_matches_the_enumerated_span(a):
    free, torsion = FPModule(a.ring, "left", a).abelian_invariants()
    assert free == 0 and all(t > 1 for t in torsion)
    assert prod(torsion) * len(_image(a)) == a.ring.n ** a.rows


@pytest.mark.parametrize("ring", SMITH_RINGS, ids=str)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_invariants_and_spans_of_empty_and_zero_matrices(ring, shape):
    z = Mat.zero(ring, *shape)
    n = ring.modulus
    rows = shape[0]
    assert FPModule(ring, "left", z).abelian_invariants() == (
        (rows, ()) if n is None else (0, (n,) * rows))
    assert smith_invariants(z) == smith_invariants(_lift(z)) == (
        [] if n is None else [n] * rows)
    assert colspan_canonical(z) == Mat.zero(ring, rows, 0)
    cols = shape[1]
    assert kernel_right(z) == Mat.identity(ring, cols)
    assert solve_right(z, Mat.zero(ring, rows, 2)) == Mat.zero(ring, cols, 2)
    if rows:
        assert solve_right(z, Mat(ring, rows, 1, (1,) + (0,) * (rows - 1))) is None


def test_dense_builders_refuse_a_matrix_beyond_the_size_limit_before_building_it():
    # one cell past SIZE_LIMIT**2 is refused, with nothing of that size
    # allocated; negative dimensions keep their own refusal
    n = SIZE_LIMIT
    row, tall = Mat.zero(ZZ, 1, n), Mat.zero(ZZ, n, 2)  # their product: n x 2n
    builders = {"an identity matrix": lambda: Mat.identity(ZZ, n + 1),
                "a zero matrix": lambda: Mat.zero(ZZ, n, n + 1),
                "a Kronecker product": lambda: row.kron(tall),
                "a block matrix": lambda: assemble_blocks(ZZ, [[None]], [n + 1], [n])}
    tracemalloc.start()
    try:
        for what, build in builders.items():
            with pytest.raises(MatrixError, match=f"^{what} would have .* more than {n * n}$"):
                build()
        for negative in (lambda: Mat.identity(ZZ, -1), lambda: Mat.zero(ZZ, 2, -1)):
            with pytest.raises(MatrixError, match="negative dimension"):
                negative()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22, peak
    assert Mat.zero(ZZ, 1, n * n).cols == n * n  # the limit itself is allowed


@pytest.mark.parametrize("ring", [ZZ, Fp(5), Zmod(4), Zmod(12)], ids=str)
def test_a_zero_span_runs_no_elimination(count_eliminations, ring):
    # a zero matrix has no span to eliminate on any ring: over Z/n and
    # F_p every pivot is n, the HNF that a run of the core would return;
    # nor has its Smith form a round to run: over Z it has no factor
    n = ring.modulus
    for shape in ((3, 0), (0, 3), (3, 4)):
        calls = count_eliminations()
        assert colspan_canonical(Mat.zero(ring, *shape)) == Mat.zero(ring, shape[0], 0)
        assert smith_invariants(Mat.zero(ring, *shape)) == ([] if n is None else [n] * shape[0])
        assert calls == [] and calls.bareiss == []


def _solve_a_multiple(a: Mat) -> Mat | None:
    return solve_right(a, a @ Mat.identity(ZZ, a.cols).scale(3))


def test_z_kernels_and_solves_never_run_the_integer_hnf(count_eliminations):
    # no Z question runs an integer Hermite core: every core run is mod a
    # positive modulus, on entries in [0, n); a span runs it once, modulo
    # a divisor of the |d| of the pass it read: A's own when A has full
    # row rank and a kernel or solve kept it, else one pass over A^T
    rng = random.Random(41)
    inputs = [random_matrix(rng, ZZ, rng.randint(0, 6), rng.randint(0, 7)) for _ in range(40)]
    inputs += [random_matrix(rng, ZZ, 4, 6), _rank_deficient(rng, 5, 6, 3)]
    read_kept = set()
    for a in inputs:
        rank = len(_bareiss(a.row_list(), a.cols)[1])
        for first in (None, kernel_right, _solve_a_multiple):
            f = _fresh(a)
            if first is not None:
                first(f)
            calls = count_eliminations()
            colspan_canonical(f)
            if a.is_zero():
                assert calls == [] and calls.bareiss == []
                continue
            if first is None or rank < a.rows:
                assert calls.passes == [a.transpose().row_list()]
                read = a.transpose().row_list()
            else:
                assert calls.passes == []
                read = a.row_list()
                read_kept.add(first)
            assert len(calls.moduli) == 1 and _bareiss(read, len(read[0]))[0] % calls.moduli[0] == 0
            kernel_right(f)
            smith_invariants(f)
            assert a @ _solve_a_multiple(f) == a.scale(3)
            assert all(n > 0 and all(0 <= v < n for col in gens for v in col)
                       for n, (_, gens) in zip(calls.moduli, calls))
    assert read_kept == {kernel_right, _solve_a_multiple}


# -- the Hermite core --------------------------------------------------------


@pytest.mark.parametrize("n", [None, 12])
def test_hnf_of_leads_that_do_not_divide_each_other(n):
    # (4, 1) and (6, 0) span the lattice of index 6 whose HNF has pivots
    # 2 and 3, mod 12 as over Z; row 0 needs an extended-gcd step.  Over Z
    # the span is the HNF modulo a gcd of 2 x 2 minors, here |-6| alone
    core = 6 if n is None else n
    assert _hnf(core, 2, [[4, 1], [6, 0]]) == {0: [2, 2], 1: [0, 3]}
    assert _hnf(core, 2, [[6, 0], [4, 1]], 1) == {1: [0, 3]}
    ring = ZZ if n is None else Zmod(n)
    for gens in ([[4, 1], [6, 0]], [[6, 0], [4, 1]]):
        assert colspan_canonical(_from_cols(ring, 2, gens)) == _from_cols(ring, 2, [[2, 2], [0, 3]])


HNF_RINGS = [Fp(5), Zmod(4), Zmod(8), Zmod(12), Zmod(36), Fp(2**61 - 1)]


@st.composite
def hnf_input(draw):
    ring = draw(st.sampled_from(HNF_RINGS))
    rows = draw(st.integers(0, 6))
    gens = draw(st.lists(st.lists(st.integers(0, ring.n - 1), min_size=rows, max_size=rows),
                         max_size=7))
    return ring.modulus, rows, gens, draw(st.integers(0, rows))


@given(hnf_input())
@example((12, 3, [[4, 1, 0], [6, 0, 1], [0, 2, 5]], 1))
@example((38, 3, [[4, 1, 0], [6, 0, 1], [0, 2, 5]], 1))  # 38: the determinant over Z
@settings(max_examples=200, deadline=None)
def test_hnf_from_a_start_row_keeps_the_full_pivots_at_and_below_it(case):
    n, rows, gens, start = case
    full = _hnf(n, rows, gens)
    assert _hnf(n, rows, gens, start) == {i: p for i, p in full.items() if i >= start}


# The packed core against the list-based one it replaced: moduli on each
# side of bit-length boundaries, one (255) whose extended-gcd steps reach
# slot values near 1.05 * n**2, a Mersenne prime and a modulus above
# 2**100 (2**100 + 7 = 6841 * ...), so that slot widths of every size
# are exercised.
PACKED_MODULI = [2, 3, 4, 7, 8, 9, 12, 15, 16, 17, 36, 255, 2**61 - 1, 2**100 + 7]


def _list_hnf(n: int | None, rows: int, gens: list[list[int]],
              start: int = 0) -> dict[int, list[int]]:
    """The list-based Hermite core the packed one replaced, kept verbatim."""
    pivots: dict[int, list[int]] = {}
    # active columns hold entries from row i down and span (with n*Z)
    # the part of the lattice that vanishes above row i
    if n is None:
        active = [list(c) for c in gens if any(c)]
    else:
        active = [t for t in ([v % n for v in c] for c in gens) if any(t)]
    for i in range(rows):
        c, rest = None, []
        for a in active:
            a0 = a[0]
            if not a0:
                rest.append(a)
            elif c is None:
                c, g = a, a0
                if n is not None:
                    # s*c has lead g = gcd(c[0], n); with (n/g)*c, the
                    # multiples of c that vanish at row i mod n, it spans c
                    s, _, g = _xgcd(a0, n)
                    if g > 1:
                        rest.append([n // g * v % n for v in a])
                    c = [s * v % n for v in a]
            elif not a0 % g:
                q = a0 // g
                rest.append([v - q * u for u, v in zip(c, a)] if n is None
                            else [(v - q * u) % n for u, v in zip(c, a)])
            else:  # unimodular step: gcd(g, a[0]) into c, 0 into a
                x, y, h = _xgcd(g, a0)
                cg, ag = g // h, a0 // h
                if n is None:
                    c, a = ([x * u + y * v for u, v in zip(c, a)],
                            [cg * v - ag * u for u, v in zip(c, a)])
                else:
                    c, a = ([(x * u + y * v) % n for u, v in zip(c, a)],
                            [(cg * v - ag * u) % n for u, v in zip(c, a)])
                    if h > 1:  # h divides n: c needs no scaling, only (n/h)*c
                        rest.append([n // h * v % n for v in c])
                rest.append(a)
                g = h
        if c is not None:
            if g < 0:
                c, g = [-v for v in c], -g
            for col in pivots.values():
                q = col[i] // g
                if q:
                    col[i:] = ([u - q * v for u, v in zip(col[i:], c)] if n is None
                               else [(u - q * v) % n for u, v in zip(col[i:], c)])
            if i >= start:
                pivots[i] = [0] * i + c
        active = [t for t in (a[1:] for a in rest) if any(t)]
    return pivots


@st.composite
def packed_input(draw):
    n = draw(st.sampled_from(PACKED_MODULI))
    rows = draw(st.integers(0, 7))
    # n - 1 everywhere fills every slot as far as a column step can;
    # divisors of n as leads force scalings, annihilators and
    # extended-gcd steps; entries outside [0, n) come from Z reductions
    special = [0, 1, n - 1, n, -1] + [d for d in (2, 3, 4, 6, 6841) if n % d == 0]
    entry = st.one_of(st.sampled_from(special), st.integers(-2 * n, 2 * n))
    gens = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=8))
    return n, rows, gens


def _check_packed(n, rows, gens):
    for start in range(rows + 1):
        assert _hnf(n, rows, gens, start) == _list_hnf(n, rows, gens, start)


@given(packed_input())
@example((255, 2, [[68, 254], [4, 254]]))
@settings(max_examples=400, deadline=None)
def test_packed_hnf_matches_the_list_core_from_every_start_row(case):
    _check_packed(*case)


@pytest.mark.parametrize("n", PACKED_MODULI)
def test_packed_hnf_matches_the_list_core_on_full_slots(n):
    # every entry n - 1 but the leads: n/p, for p the least prime factor
    # of n, and then a small a that n/p does not divide, so the step is
    # an extended-gcd one (over a prime n/p = 1 and there is none)
    p = next((d for d in range(2, 7000) if n % d == 0), n)
    for rows in range(7):
        full = [n - 1] * rows
        _check_packed(n, rows, [])
        _check_packed(n, rows, [[0] * rows, [n] * rows])
        _check_packed(n, rows, [full] * 3)
        for a in range(1, 9) if rows else ():
            tail = [n - 1] * (rows - 1)
            _check_packed(n, rows, [[0] * rows, [n // p] + tail, [a] + tail, full])


# -- Z spans and Smith against the list core ---------------------------------


def _list_smith(a: Mat) -> list[int]:
    """Smith invariants over Z from the list core alone: Hermite forms of
    the first form's rows, then of the transpose, alternate until the form
    is diagonal, and its diagonal is sorted into a divisibility chain."""
    first = _list_hnf(None, a.rows, a.columns())
    k = len(first)
    gens = [[c[i] for c in first.values()] for i in range(a.rows)]
    while True:
        h = _list_hnf(None, k, gens)
        if not any(any(c[i + 1:]) for i, c in h.items()):
            break
        gens = [[h[j][i] for j in range(k)] for i in range(k)]
    diag = [h[i][i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _z_reference_inputs():
    """Z matrices of every row profile: full row rank, square, one row, rank
    0 and rank-deficient, with a row scaled so that the span is not
    saturated in its rational hull, at small sizes and at n = 24."""
    rng = random.Random(83)
    for rows, cols in [(1, 1), (1, 4), (3, 3), (4, 4), (5, 7), (6, 8), (8, 10)]:
        yield random_matrix(rng, ZZ, rows, cols, 9)
        yield Mat.zero(ZZ, rows, cols)
        if rows > 1:
            low = _rank_deficient(rng, rows, cols, rng.randint(1, min(rows, cols) - 1), 3)
            yield low
            k = rng.randrange(rows)
            yield Mat(ZZ, rows, cols, tuple(v * (1 + 5 * (i // cols == k))
                                            for i, v in enumerate(low.entries)))
    yield Mat(ZZ, 1, 3, (6, 10, 15))
    yield Mat(ZZ, 3, 3, (2, 0, 0, 0, 4, 0, 2, 4, 0))
    yield random_matrix(rng, ZZ, 24, 26, 9)
    yield _rank_deficient(rng, 24, 26, 21, 3)


def test_z_spans_and_smith_invariants_match_the_list_core():
    # the span runs the packed core mod a gcd of maximal minors on A's row
    # profile and lifts the rows off it; Smith starts from that span.  The
    # list core over Z, which needs no modulus, must give the same forms,
    # whether the span is asked first (one pass over A^T) or after a
    # kernel or solve (A's own pass, read where A has full row rank)
    count = 0
    for a in _z_reference_inputs():
        span = _from_cols(ZZ, a.rows, list(_list_hnf(None, a.rows, a.columns()).values()))
        smith = _list_smith(a)
        for first in (None, kernel_right, lambda m: solve_right(m, m @ Mat.identity(ZZ, m.cols))):
            f = _fresh(a)
            if first is not None:
                first(f)
            assert (colspan_canonical(f), smith_invariants(f)) == (span, smith), a
            count += 1
    assert count == 3 * 28


# -- one form of [A; I] against the stacked system it replaced ---------------


def _modular_kernel(n: int, rows: int, cols: list[list[int]],
                    core=_hnf) -> dict[int, list[int]]:
    """Hermite form of {x in Z^c : A x = 0 mod n}, A given by its columns.

    Returns {i: column} for the pivots below n; every other pivot is n,
    with HNF column n*e_i.  core is the Hermite core that eliminates.
    """
    c = len(cols)
    # the pivots of [A; I_c] below the rows of A carry the kernel lattice
    gens = [a + [int(i == j) for i in range(c)] for j, a in enumerate(cols)]
    return {i - rows: p[rows:] for i, p in core(n, rows + c, gens, rows).items()}


def _modular_solve(n: int, rows: int, a_cols: list[list[int]],
                   b_cols: list[list[int]], core=_hnf) -> list[list[int]] | None:
    """Solution columns of A X = B mod n, reduced modulo the kernel's HNF, or
    None; core is the Hermite core that eliminates."""
    c, k = len(a_cols), len(b_cols)
    # the columns of [[A, -B], [0, I_k], [I_c, 0]] span the (x, y) with
    # A x = B y; AX = B is solvable iff every y-row has pivot 1
    gens = [a + [0] * k + [int(i == j) for i in range(c)] for j, a in enumerate(a_cols)]
    gens += [[-v for v in b] + [int(i == j) for i in range(k)] + [0] * c
             for j, b in enumerate(b_cols)]
    pivots = core(n, rows + k + c, gens, rows)
    if not all(rows + j in pivots and pivots[rows + j][rows + j] == 1 for j in range(k)):
        return None
    return [pivots[rows + j][rows + k:] for j in range(k)]


def _z_reduce(A: Mat, B: Mat | None):
    """One Bareiss pass over [A | B], as every Z solve ran it before a matrix
    kept its pass: (delta, rank, X columns, Y columns, lift), or None when
    some b is not in the rational span of A."""
    c, k = A.cols, 0 if B is None else B.cols
    m = A.row_list() if B is None else [a + b for a, b in zip(A.row_list(), B.row_list())]
    d, piv, free, _ = _bareiss(m, c)
    rank, f = len(piv), len(free)
    if k and any(any(row) for row in m[rank:]):
        return None
    s, delta = (1, d) if d > 0 else (-1, -d)
    xrows = [[s * v for v in row[:f]] for row in m[:rank]]
    xcols = [[row[i] for row in xrows] for i in range(f)]
    ycols = [[s * row[f + l] for row in m[:rank]] for l in range(k)]

    def lift(x2: list[int], y: list[int]) -> list[int]:
        x = [0] * c
        for j, e in zip(free, x2):
            x[j] = e
        for j, yt, row in zip(piv, y, xrows):
            x[j], rem = divmod(yt - sum(v * e for v, e in zip(row, x2)), delta)
            assert not rem
        return x

    return delta, rank, xcols, ycols, lift


def _stacked_solve(A: Mat, B: Mat) -> Mat | None:
    """The solve through the stacked system that the form replaced, kept
    verbatim, over Z one pass over [A | B]."""
    A._check_same_ring(B)
    if A.rows != B.rows:
        raise MatrixError("solve_right: row count mismatch")
    n = A.ring.modulus
    if not B.cols or A.is_zero():
        return Mat.zero(A.ring, A.cols, B.cols) if B.is_zero() else None
    if n is None:
        red = _z_reduce(A, B)
        if red is None:
            return None
        delta, rank, xcols, ycols, lift = red
        # x2 = 0 is reduced, so it is the canonical x2 whenever it solves
        x2s = ([[0] * len(xcols)] * len(ycols) if all(v % delta == 0 for y in ycols for v in y)
               else _modular_solve(delta, rank, xcols, ycols))
        sols = None if x2s is None else [lift(v, y) for v, y in zip(x2s, ycols)]
    else:
        sols = _modular_solve(n, A.rows, A.columns(), B.columns())
    return None if sols is None else _from_cols(A.ring, A.cols, sols)


def _stacked_kernel(A: Mat) -> Mat:
    """The kernel as it was computed beside the stacked solve, kept verbatim."""
    if A.is_zero():
        return Mat.identity(A.ring, A.cols)
    n = A.ring.modulus
    if n is None:
        delta, rank, xcols, _, lift = _z_reduce(A, None)
        f = len(xcols)
        h = _modular_kernel(delta, rank, xcols) if delta > 1 and f else {}
        # a row without a pivot below delta has the Hermite column delta*e_i
        cols = [lift(h[i] if i in h else [delta * (l == i) for l in range(f)], [0] * rank)
                for i in range(f)]
    else:
        cols = list(_modular_kernel(n, A.rows, A.columns()).values())
    return _from_cols(A.ring, A.cols, cols)


FORM_RINGS = ([ZZ] + [Zmod(n) for n in range(2, 37)]
              + [Fp(p) for p in (2, 3, 5, 7, 2**61 - 1)])


@st.composite
def form_input(draw):
    """(A, B) with B = A X for a drawn X, an arbitrary B (often not in the
    span), a zero A, a rank-deficient A, and empty shapes."""
    ring = draw(st.sampled_from(FORM_RINGS))
    n = ring.modulus
    entry = st.integers(-9, 9) if n is None else st.one_of(
        st.sampled_from([0, 1, n - 1] + [d for d in (2, 3, 4, 6) if n % d == 0 and d < n]),
        st.integers(0, n - 1))
    rows, cols, k = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 4))

    def matrix(r, c):
        return Mat(ring, r, c, tuple(draw(st.lists(entry, min_size=r * c, max_size=r * c))))

    shape = draw(st.sampled_from(["any", "zero", "deficient"]))
    if shape == "zero":
        a = Mat.zero(ring, rows, cols)
    elif shape == "deficient":
        rank = draw(st.integers(0, min(rows, cols)))
        a = matrix(rows, rank) @ matrix(rank, cols)
    else:
        a = matrix(rows, cols)
    b = a @ matrix(cols, k) if draw(st.booleans()) else matrix(rows, k)
    return a, b


def _fresh(a: Mat) -> Mat:
    """An equal Mat that has eliminated nothing."""
    return Mat(a.ring, a.rows, a.cols, a.entries)


@given(form_input())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_the_form_solves_and_kernels_as_the_stacked_system_did(case):
    a, b = case
    expected, kernel = _stacked_solve(a, b), _stacked_kernel(a)
    # one matrix answers both, in either order and repeatedly
    assert solve_right(a, b) == expected and kernel_right(a) == kernel
    assert solve_right(a, b) == expected
    a = _fresh(a)
    assert kernel_right(a) == kernel and solve_right(a, b) == expected
    assert solve_right(a, b) == expected and kernel_right(a) is kernel_right(a)
    if expected is not None:
        assert a @ expected == b


# -- the packed boundaries against the list core ----------------------------


def _list_answers(a: Mat, b: Mat) -> tuple[Mat, Mat | None, Mat]:
    """(kernel, solve, span) of A and B through the list core alone; over Z
    the list core reduces X, as _z_reduce returns it, mod delta itself."""
    ring, n = a.ring, a.ring.modulus
    c = a.cols
    span = _from_cols(ring, a.rows, list(_list_hnf(n, a.rows, a.columns()).values()))
    if a.is_zero():
        kernel = Mat.identity(ring, c)
        solve = Mat.zero(ring, c, b.cols) if b.is_zero() else None
        return kernel, solve, span
    if n is not None:
        kernel = _from_cols(ring, c, list(_modular_kernel(n, a.rows, a.columns(),
                                                          _list_hnf).values()))
        sols = _modular_solve(n, a.rows, a.columns(), b.columns(), _list_hnf)
        return kernel, None if sols is None else _from_cols(ring, c, sols), span
    delta, rank, xcols, _, lift = _z_reduce(a, None)
    f = len(xcols)
    h = _modular_kernel(delta, rank, xcols, _list_hnf) if delta > 1 and f else {}
    kernel = _from_cols(ring, c, [lift(h[i] if i in h else [delta * (l == i) for l in range(f)],
                                       [0] * rank) for i in range(f)])
    red = _z_reduce(a, b)
    if red is None:
        return kernel, None, span
    delta, rank, xcols, ycols, lift = red
    # x2 = 0 is reduced, so it is the canonical x2 whenever it solves
    x2s = ([[0] * f] * len(ycols) if all(v % delta == 0 for y in ycols for v in y)
           else _modular_solve(delta, rank, xcols, ycols, _list_hnf))
    sols = None if x2s is None else [lift(v, y) for v, y in zip(x2s, ycols)]
    return kernel, None if sols is None else _from_cols(ring, c, sols), span


def _boundary_inputs(ring, rng: random.Random):
    """(A, B) at elim shapes up to 16 x 18 and at small and empty ones: full
    and rank-deficient A, A with zero columns, a zero A, B in the span and
    an arbitrary B, and B with no columns."""
    n = ring.modulus
    special = [1, -1] if n is None else [n - 1] + [d for d in (2, 3, 4, 6) if n % d == 0 and d < n]

    def matrix(r, c):
        return Mat(ring, r, c, tuple(rng.choice(special) if rng.random() < 0.2
                                     else rng.randint(-9, 9) if n is None else rng.randrange(n)
                                     for _ in range(r * c)))

    for rows, cols in [(16, 18), (12, 14), (8, 10), (5, 3), (3, 5), (0, 3), (3, 0)]:
        full = matrix(rows, cols)
        rank = rng.randint(0, min(rows, cols))
        deficient = matrix(rows, rank) @ matrix(rank, cols)
        zero_cols = Mat(ring, rows, cols, tuple(0 if k % cols % 3 == 1 else v
                                                for k, v in enumerate(full.entries)))
        for a in (full, deficient, zero_cols, Mat.zero(ring, rows, cols)):
            yield a, a @ matrix(cols, 2)
            yield a, matrix(rows, 1)
            yield a, Mat.zero(ring, rows, 0)


BOUNDARY_RINGS = [ZZ, Fp(5), Fp(2**61 - 1)] + [Zmod(n) for n in PACKED_MODULI if n != 2**61 - 1]


@pytest.mark.parametrize("ring", BOUNDARY_RINGS, ids=str)
def test_packed_boundaries_answer_as_the_list_core(ring):
    # kernel_right, solve_right and colspan_canonical pack
    # A's entries and unpack their answers straight into rows; the list
    # core, fed A's columns, must give the same matrices
    rng = random.Random(f"boundaries:{ring}")
    for a, b in _boundary_inputs(ring, rng):
        kernel, solve, span = _list_answers(a, b)
        assert (kernel_right(a), solve_right(a, b), colspan_canonical(a)) == (kernel, solve, span)
        a = _fresh(a)
        assert solve_right(a, b) == solve and kernel_right(a) == kernel
        assert colspan_canonical(a) == span and kernel_right(a) is kernel_right(a)


# -- a matrix keeps its elimination ------------------------------------------


def _elim_shaped(rng: random.Random, ring, n: int, deficient: bool) -> tuple[Mat, Mat, Mat]:
    """(A, A x, B) with A n x (n+2) as the elim benchmark draws it: entries up
    to 9, or a product through rank n-1..n-4 of entries up to 3; B arbitrary."""
    if deficient:
        rank = n - rng.randint(1, 4)
        a = Mat(ring, n, n + 2, (random_matrix(rng, ZZ, n, rank, 3)
                                 @ random_matrix(rng, ZZ, rank, n + 2, 3)).entries)
    else:
        a = Mat(ring, n, n + 2, random_matrix(rng, ZZ, n, n + 2, 9).entries)
    x = Mat(ring, n + 2, 1, random_matrix(rng, ZZ, n + 2, 1, 9).entries)
    return a, a @ x, Mat(ring, n, 1, random_matrix(rng, ZZ, n, 1, 9).entries)


QUESTIONS = (lambda a, b, c: kernel_right(a), lambda a, b, c: solve_right(a, b),
             lambda a, b, c: colspan_canonical(a), lambda a, b, c: smith_invariants(a),
             lambda a, b, c: solve_right(a, c))


@pytest.mark.parametrize("ring", [ZZ, Fp(7), Zmod(4), Zmod(12)], ids=str)
def test_one_matrix_answers_four_questions_from_one_elimination_each(count_eliminations, ring):
    # kernel, solve, span, Smith and a second solve of one Mat: mod n one
    # elimination of [A; I], whose pivots at A's rows, back-reduced, are
    # the span's HNF and Smith's first round;
    # over Z one Bareiss pass, one form of its rows mod |d| where the kernel
    # needs one, replays, and the span's HNF on A's row profile modulo a
    # divisor of the |d| of A's pass, or, where A's rank falls short of
    # its rows, of one more pass, over A^T
    rng = random.Random(f"four-questions:{ring}")
    for n, deficient in [(8, False), (8, True), (10, True), (11, False)]:
        a, b, c = _elim_shaped(rng, ring, n, deficient)
        expected = [ask(_fresh(a), b, c) for ask in QUESTIONS]
        calls = count_eliminations()
        assert [ask(a, b, c) for ask in QUESTIONS] == expected
        asked, bareiss = list(calls), calls.bareiss
        later = count_eliminations()  # Smith's rounds after its first
        smith_invariants(_fresh(a))
        if ring.modulus is None:
            d, piv, free, _ = _bareiss(a.row_list(), a.cols)
            form = [abs(d)] if abs(d) > 1 and free else []
            span = calls.moduli[len(form)]
            if len(piv) == a.rows:
                assert bareiss == ["kernel", "replay", "replay"] and d % span == 0
            else:
                assert bareiss == ["kernel", "replay", "kernel", "replay"]
                assert calls.passes[1] == a.transpose().row_list()
                assert _bareiss(a.transpose().row_list(), a.rows)[0] % span == 0
            assert calls.moduli == form + [span] + later.moduli[1:]
            assert asked[len(form)][0] == len(piv) and asked[len(form) + 1:] == later[1:]
        else:
            assert bareiss == []
            assert asked == [calls.stacked(a)] + later[1:]
        # in any order, each answer is the one a fresh equal Mat gives
        for order in ([4, 3, 2, 1, 0], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 1, 4, 2, 0]):
            f = _fresh(a)
            assert [QUESTIONS[i](f, b, c) for i in order] == [expected[i] for i in order]


def _kept_form_cases(rng, ring):
    """Mod-n inputs, seeded: no rows, no columns, zero, more rows than
    columns, rank-deficient, full rank, entries over all of [0, n), and
    multiples of the least prime of n (pivots that are not units)."""
    n = ring.modulus
    p = next(q for q in range(2, n + 1) if n % q == 0)
    yield from (Mat.zero(ring, 0, 3), Mat.zero(ring, 3, 0), Mat.zero(ring, 0, 0), Mat.zero(ring, 3, 4))
    for r, c in ((5, 3), (4, 6), (6, 6), (1, 5), (8, 2), (7, 7)):
        yield random_matrix(rng, ring, r, c)
        yield random_matrix(rng, ring, r, 2) @ random_matrix(rng, ring, 2, c)
        yield Mat(ring, r, c, tuple(rng.randrange(n) for _ in range(r * c)))
        yield random_matrix(rng, ring, r, c).scale(p)


KEPT_FORM_RINGS = [Zmod(2), Zmod(4), Zmod(12), Zmod(36), Zmod(2 ** 40), Fp(2), Fp(7), Fp(101)]


@pytest.mark.parametrize("ring", KEPT_FORM_RINGS, ids=str)
def test_a_kept_form_answers_the_span_and_smith_with_no_elimination(count_eliminations,
                                                                     monkeypatch, ring):
    # mod n the span of a Mat whose kernel or solve kept [A; I] is read off
    # that elimination: its pivots at A's rows, the I_c slots masked off
    # and back-reduced, are the HNF that the core finds over A alone; a
    # kernel is its own span's HNF.  Asked in any order, each answer is a
    # fresh Mat's, and no core run follows the one over [A; I] but Smith's
    # rounds after its first
    from homcert import matrices
    back_reduce = matrices._back_reduce

    def within_rows(n, w, barrett, found, start):
        # each column, packed from its row down, holds no slot below the last row
        assert all(c >> w * (len(found) - i) == 0 for i, c in enumerate(found))
        return back_reduce(n, w, barrett, found, start)

    monkeypatch.setattr(matrices, "_back_reduce", within_rows)
    rng = random.Random(f"kept-form:{ring}")
    for a in _kept_form_cases(rng, ring):
        b = a @ random_matrix(rng, ring, a.cols, 2)
        span = colspan_canonical(_fresh(a))
        calls = count_eliminations()
        smith = smith_invariants(_fresh(a))
        first_round, rounds = calls[:1], calls[1:]
        assert first_round == ([] if a.is_zero() else [(a.rows, a.columns())])
        for first in (kernel_right, lambda f: solve_right(f, b)):
            f = _fresh(a)
            first(f)
            calls = count_eliminations()
            assert colspan_canonical(f) == span and calls == []
            assert smith_invariants(f) == smith and calls == rounds
        f = _fresh(a)
        assert (colspan_canonical(f), smith_invariants(f)) == (span, smith)
        kernel = kernel_right(f)
        assert (colspan_canonical(f), smith_invariants(f)) == (span, smith)
        calls = count_eliminations()
        assert colspan_canonical(kernel) == kernel
        assert calls == [] or a.is_zero()  # a zero A's kernel, I_c, is built with no form
        assert smith_invariants(kernel) == smith_invariants(_fresh(kernel))


def _replay_cases():
    """(A, B) over Z, seeded: B inconsistent, B in the rational but not the
    integer span, B empty or zero, B of several columns, and a
    rank-deficient A, an A whose pivot minor has determinant 1, a zero A."""
    rng = random.Random(61)
    for _ in range(8):
        r, c = rng.randint(2, 6), rng.randint(2, 7)
        a = random_matrix(rng, ZZ, r, c, 6)
        low = _rank_deficient(rng, r, c, rng.randint(1, min(r, c) - 1), 3)
        even = a.scale(2)
        unit = Mat.identity(ZZ, r).hstack(random_matrix(rng, ZZ, r, c, 6))
        for m in (a, low, even, unit, Mat.zero(ZZ, r, c)):
            yield m, m @ random_matrix(rng, ZZ, m.cols, 3)
            yield m, random_matrix(rng, ZZ, r, 1, 6)
            yield m, m @ random_matrix(rng, ZZ, m.cols, 1) + Mat(ZZ, r, 1, (1,) + (0,) * (r - 1))
            yield m, Mat.zero(ZZ, r, 0)
            yield m, Mat.zero(ZZ, r, 2)


def test_replayed_z_solves_equal_the_pass_over_a_and_b(count_eliminations):
    # every solve, the first included, runs A's one Bareiss pass if it is
    # not kept and replays the recorded steps on B alone; it must give
    # what one pass over [A | B] gives
    kinds = set()
    for a, b in _replay_cases():
        expected = _stacked_solve(a, b)
        calls = count_eliminations()
        solved_first = _fresh(a)  # a pass over A, then a replay per solve
        assert solve_right(solved_first, b) == expected
        assert solve_right(solved_first, b) == expected
        kernel_first = _fresh(a)  # a pass over A, then a replay
        kernel_right(kernel_first)
        assert solve_right(kernel_first, b) == expected
        if a.is_zero():
            assert calls.bareiss == []
        elif not b.cols:
            assert calls.bareiss == ["kernel"]
        else:
            assert calls.bareiss == ["kernel", "replay", "replay", "kernel", "replay"]
            assert calls.passes == [a.row_list()] * 2
            assert calls.replays == [b.columns()] * 3
        kinds.add((expected is None, b.cols, a.is_zero()))
    # not vacuous: solvable and not, one column and several, a zero A
    assert {(True, 1, False), (False, 1, False), (False, 3, False), (False, 0, False),
            (False, 2, True), (True, 1, True)} <= kinds
    rational = Mat(ZZ, 2, 3, (2, 4, 6, 0, 2, 4))  # spans 2Z x 2Z over Z, Q^2 over Q
    assert solve_right(rational, Mat(ZZ, 2, 1, (1, 1))) is None
    assert _stacked_solve(rational, Mat(ZZ, 2, 1, (1, 1))) is None


def test_a_matrix_and_its_kept_elimination_die_together_and_compare_as_values():
    # the kept elimination references no Mat, so no cycle keeps one alive
    # for the cyclic collector, and it takes no part in == , hash, repr or
    # documents
    from homcert import documents

    for ring in (ZZ, Zmod(12), Fp(7)):
        a = Mat(ring, 3, 4, (2, 4, 6, 1, 0, 3, 9, 5, 2, 7, 15, 7))
        b = a @ Mat(ring, 4, 1, (1, -2, 3, 1))
        fresh = _fresh(a)
        kernel_right(a), solve_right(a, b), colspan_canonical(a), smith_invariants(a)
        assert "_kept" in vars(a) and "_kept" not in vars(fresh)
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        emitted = [documents.emit_document(documents.make_document(ring, "matrix", m))
                   for m in (a, fresh)]
        assert emitted[0] == emitted[1]
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = weakref.ref(a)
            del a
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def test_threads_that_race_on_one_matrix_get_the_answers_of_a_fresh_one():
    # threads asking one Mat may both eliminate it; every kept value is
    # deterministic, so whichever write lands last, each answer must be
    # the one a fresh equal Mat gives
    rng = random.Random(67)
    cases = []
    for ring in (ZZ, Zmod(12), Fp(7)):
        for deficient in (False, True):
            a, b, c = _elim_shaped(rng, ring, 6, deficient)
            cases.append((a, b, c, [ask(_fresh(a), b, c) for ask in QUESTIONS]))
    shared = [(_fresh(a), b, c, expected) for _ in range(90) for a, b, c, expected in cases]
    wrong = []

    def ask_all(order):
        for a, b, c, expected in shared:
            for i in order:
                try:
                    if QUESTIONS[i](a, b, c) != expected[i]:
                        wrong.append((a, i))
                except Exception as exc:  # a half-built kept state, say
                    wrong.append((a, i, exc))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        orders = [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 4, 0, 3, 2], [2, 0, 4, 1, 3]] * 2
        threads = [threading.Thread(target=ask_all, args=(order,)) for order in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _hadamard(a):
    """A bound on every minor of a: the product of its nonzero row norms."""
    return prod(max(1, isqrt(sum(v * v for v in row)) + 1) for row in a.row_list())


def _rank_deficient(rng, rows, cols, rank, bound=4):
    return random_matrix(rng, ZZ, rows, rank, bound) @ random_matrix(rng, ZZ, rank, cols, bound)


def _nonsingular(rng, n):
    while True:
        g = random_matrix(rng, ZZ, n, n, 3)
        if len(smith_invariants(g)) == n:
            return g


def test_z_kernel_and_solve_do_not_depend_on_the_rows_of_a():
    rng = random.Random(53)
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        a = _rank_deficient(rng, r, c, rng.randint(1, min(r, c)))
        b = a @ random_matrix(rng, ZZ, c, 2)
        g = _nonsingular(rng, r)
        assert kernel_right(g @ a) == kernel_right(a)
        assert solve_right(g @ a, g @ b) == solve_right(a, b)


def _check_z_kernel_and_solve(a, b):
    """A K = 0 and A X = B, with every entry within Hadamard's bound
    times the number of free columns (plus one for B)."""
    k, x = kernel_right(a), solve_right(a, b)
    free = a.cols - colspan_canonical(a.transpose()).cols
    assert k.cols == free and (a @ k).is_zero()
    assert x is not None and a @ x == b
    assert all(abs(v) <= free * _hadamard(a) for v in k.entries)
    assert all(abs(v) <= (free + 1) * _hadamard(a.hstack(b)) for v in x.entries)


def test_z_kernel_and_solve_entries_stay_within_hadamards_bound():
    rng = random.Random(59)
    for _ in range(150):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        full = rng.random() < 0.5
        a = (random_matrix(rng, ZZ, r, c, 9) if full
             else _rank_deficient(rng, r, c, rng.randint(1, min(r, c))))
        _check_z_kernel_and_solve(a, a @ random_matrix(rng, ZZ, c, 2, 9))


@pytest.mark.parametrize("rank", [32, 27])
def test_z_kernel_and_solve_at_32_by_34(rank):
    rng = random.Random(34)
    a = (random_matrix(rng, ZZ, 32, 34, 9) if rank == 32
         else _rank_deficient(rng, 32, 34, rank, 3))
    _check_z_kernel_and_solve(a, a @ random_matrix(rng, ZZ, 34, 3, 9))
