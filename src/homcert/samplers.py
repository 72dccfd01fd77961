"""Seeded random generators for modules, complexes, maps and relations.

Everything takes an explicit random.Random instance so failures can be
replayed from a seed.  Complexes are built from pieces that satisfy
d^2 = 0 by construction (single frees and disjoint two-term pieces)
and then scrambled by invertible change of basis in each degree, which
preserves d^2 = 0 and exactness properties while hiding the block
structure.
"""

from __future__ import annotations

import random

from .matrices import Mat, kernel_right, solve_right
from .modules import FPModule
from .complexes import ChainMap, Complex
from .rings import RingDescriptor


def random_entry(rng: random.Random, ring: RingDescriptor, bound: int = 5) -> int:
    if ring.modulus is not None:
        return rng.randrange(ring.modulus)
    return rng.randint(-bound, bound)


def random_matrix(rng: random.Random, ring: RingDescriptor, rows: int, cols: int,
                  bound: int = 5) -> Mat:
    return Mat(ring, rows, cols,
               tuple(random_entry(rng, ring, bound) for _ in range(rows * cols)))


def random_invertible(rng: random.Random, ring: RingDescriptor, n: int,
                      steps: int | None = None) -> Mat:
    """Product of elementary row operations applied to the identity."""
    if steps is None:
        steps = 3 * n
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 1:
            break
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = random_entry(rng, ring, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    return Mat.from_rows(ring, rows)


def random_fp_module(rng: random.Random, ring: RingDescriptor, side: str = "left",
                     max_rank: int = 3, bound: int = 5) -> FPModule:
    r0 = rng.randint(0, max_rank)
    r1 = rng.randint(0, max_rank)
    return FPModule(ring, side, random_matrix(rng, ring, r0, r1, bound))


def scramble_complex(rng: random.Random, c: Complex) -> Complex:
    """Conjugate every differential by invertible matrices per degree."""
    span = c.support()
    if span is None:
        return c
    lo, hi = span
    change = {j: random_invertible(rng, c.ring, c.rank(j)) for j in range(lo, hi + 1)}
    ranks = {j: c.rank(j) for j in range(lo, hi + 1) if c.rank(j)}
    diffs = {}
    for j in range(lo, hi):
        d = c.diff(j)
        if d.rows and d.cols:
            diffs[j] = solve_right(change[j + 1], d @ change[j])
    return Complex(c.ring, c.side, ranks, diffs)


def random_bounded_complex(rng: random.Random, ring: RingDescriptor,
                           side: str = "left", max_length: int = 3,
                           max_pieces: int = 3, lo: int = -2, hi: int = 2,
                           bound: int = 5) -> Complex:
    """Direct sum of single frees and two-term pieces (R -> aR), placed
    at random degrees within [lo, hi], then scrambled."""
    ranks: dict[int, int] = {}
    diff_entries: dict[int, list[tuple[int, int, int]]] = {}
    pieces = rng.randint(1, max_pieces)
    for _ in range(pieces):
        if rng.random() < 0.4:
            j = rng.randint(lo, hi)
            ranks[j] = ranks.get(j, 0) + 1
        else:
            j = rng.randint(lo, hi - 1)
            a = random_entry(rng, ring, bound)
            src = ranks.get(j, 0)
            tgt = ranks.get(j + 1, 0)
            ranks[j] = src + 1
            ranks[j + 1] = tgt + 1
            diff_entries.setdefault(j, []).append((tgt, src, a))
    diffs = {}
    for j, triples in diff_entries.items():
        d = [[0] * ranks[j] for _ in range(ranks[j + 1])]
        for (r, c, a) in triples:
            d[r][c] = a
        diffs[j] = Mat.from_rows(ring, d)
    # fill explicit zero differentials between adjacent nonzero terms
    for j in list(ranks):
        if j + 1 in ranks and j not in diffs:
            diffs[j] = Mat.zero(ring, ranks[j + 1], ranks[j])
    c = Complex(ring, side, {j: r for j, r in ranks.items() if r},
                {j: d for j, d in diffs.items() if d.rows and d.cols})
    return scramble_complex(rng, c)


def random_contractible_complex(rng: random.Random, ring: RingDescriptor,
                                side: str = "left", max_pieces: int = 4,
                                lo: int = -3, hi: int = 2) -> Complex:
    """Direct sum of identity two-term pieces, scrambled: a split exact
    complex of frees with the splitting hidden by change of basis."""
    ranks: dict[int, int] = {}
    diff_entries: dict[int, list[tuple[int, int]]] = {}
    for _ in range(rng.randint(1, max_pieces)):
        j = rng.randint(lo, hi - 1)
        src = ranks.get(j, 0)
        tgt = ranks.get(j + 1, 0)
        ranks[j] = src + 1
        ranks[j + 1] = tgt + 1
        diff_entries.setdefault(j, []).append((tgt, src))
    diffs = {}
    for j, pairs in diff_entries.items():
        d = [[0] * ranks[j] for _ in range(ranks[j + 1])]
        for (r, c) in pairs:
            d[r][c] = 1
        diffs[j] = Mat.from_rows(ring, d)
    for j in list(ranks):
        if j + 1 in ranks and j not in diffs:
            diffs[j] = Mat.zero(ring, ranks[j + 1], ranks[j])
    c = Complex(ring, side, ranks, {j: d for j, d in diffs.items() if d.rows and d.cols})
    return scramble_complex(rng, c)


def random_null_homotopic_map(rng: random.Random, x: Complex, y: Complex,
                              bound: int = 3) -> ChainMap:
    """d_Y h + h d_X for a random degree -1 collection h; always a
    chain map."""
    sx = x.support()
    sy = y.support()
    lo = min(sx[0] if sx else 0, sy[0] if sy else 0) - 1
    hi = max(sx[1] if sx else 0, sy[1] if sy else 0) + 1
    h = {j: random_matrix(rng, x.ring, y.rank(j - 1), x.rank(j), bound)
         for j in range(lo, hi + 1)}
    comps = {}
    for j in range(lo, hi + 1):
        m = y.diff(j - 1) @ h[j] + (h[j + 1] @ x.diff(j) if j + 1 in h
                                    else Mat.zero(x.ring, y.rank(j), x.rank(j)))
        if not m.is_zero():
            comps[j] = m
    return ChainMap(x, y, comps)


def random_relation(rng: random.Random, ring: RingDescriptor, length: int,
                    ambient_rank: int, bound: int = 5) -> tuple[Mat, Mat]:
    """(a, Z): a 1 x length row, Z ambient_rank x length columns with
    sum_s a_s z_s = 0 exactly (Z a^T = 0 by construction)."""
    a = random_matrix(rng, ring, 1, length, bound)
    k = kernel_right(a)  # length x k
    w = random_matrix(rng, ring, ambient_rank, k.cols, bound)
    z = w @ k.transpose()
    return a, z
