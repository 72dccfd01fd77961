"""Properties over Z/8 and Z/12, rings with repeated prime factors.

dual_data, canonical_double_dual_map and periodic resolve_module output
are checked by multiplication and by enumerating the finite modules
involved, never through the elimination core that produced them:

* K P = 0, and every functional on M is a combination of the rows of K;
* the presentation of M* is complete: its columns span every relation
  among the rows of K;
* the evaluation map M -> M** sends generator i to column i of K, and
  is an isomorphism (Z/n is self-injective, so every module is
  reflexive);
* resolutions satisfy d^2 = 0 and are exact in every degree of a window
  that reaches into their periodic tail.
"""

import itertools
import random

import pytest

from homcert.generator import resolve_module
from homcert.matrices import Mat
from homcert.modules import FPModule, canonical_double_dual_map, dual_data
from homcert.rings import Zmod
from homcert.samplers import random_fp_module

MODULI = (8, 12)


def _mul(a, b, n):
    """a @ b mod n on row lists; a is r x s, b is s x c."""
    return [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*b)] for row in a]


def _columns(rows, ncols):
    return [tuple(row[j] for row in rows) for j in range(ncols)]


def _span(gens, dim, n):
    """Every Z/n-combination of the vectors in gens, in (Z/n)^dim."""
    span = {(0,) * dim}
    for g in gens:
        span = {tuple((s + c * x) % n for s, x in zip(v, g)) for v in span for c in range(n)}
    return span


def _solutions(rows, dim, n):
    """Every x in (Z/n)^dim with rows @ x = 0."""
    return {x for x in itertools.product(range(n), repeat=dim)
            if all(sum(a * b for a, b in zip(row, x)) % n == 0 for row in rows)}


def _transpose(rows, ncols):
    return [list(c) for c in _columns(rows, ncols)]


def _modules(n):
    ring = Zmod(n)
    divisors = [a for a in range(1, n + 1) if n % a == 0]
    mods = [FPModule.cyclic(ring, "left", a % n) for a in divisors]
    mods += [FPModule(ring, "left", Mat(ring, 2, 2, (a % n, 0, 0, b % n)))
             for a, b in itertools.combinations(divisors[1:-1], 2)]
    rng = random.Random(f"zn-properties/{n}")
    mods += [random_fp_module(rng, ring, max_rank=2) for _ in range(12)]
    return mods


CASES = [(n, i, m) for n in MODULI for i, m in enumerate(_modules(n))]


@pytest.mark.parametrize("n, m", [(n, m) for n, _, m in CASES],
                         ids=[f"Z{n}-{i}" for n, i, _ in CASES])
def test_dual_data_and_double_dual_map(n, m):
    r0, r1 = m.rank0, m.rank1
    p = m.presentation.row_list()
    mstar, k = dual_data(m)
    krows, nk = k.row_list(), k.rows
    # the rows of K are exactly the functionals on M
    assert all(v == 0 for row in _mul(krows, p, n) for v in row)
    functionals = _solutions(_transpose(p, r1), r0, n)
    assert _span([tuple(r) for r in krows], r0, n) == functionals
    # the presentation of M* spans every relation among the rows of K
    pstar = mstar.presentation
    assert pstar.rows == nk
    relations = _solutions(_transpose(krows, r0), nk, n)
    assert _span(_columns(pstar.row_list(), pstar.cols), nk, n) == relations

    mu = canonical_double_dual_map(m, mstar, k)
    mstarstar, k2 = dual_data(mstar)
    assert mu.target == mstarstar
    # generator i of M evaluates the dual generators to column i of K
    c = mu.matrix.row_list()
    assert _mul(_transpose(c, r0), k2.row_list(), n) == _transpose(krows, r0)
    # M -> M** is injective, and |M| = |M**|
    p2 = mstarstar.presentation
    zero2 = _span(_columns(p2.row_list(), p2.cols), p2.rows, n)
    rel = _span(_columns(p, r1), r0, n)
    kernel = {x for x in itertools.product(range(n), repeat=r0)
              if tuple(sum(a * b for a, b in zip(row, x)) % n for row in c) in zero2}
    assert kernel == rel
    assert n ** r0 // len(rel) == n ** p2.rows // len(zero2)


@pytest.mark.parametrize("n, m", [(n, m) for n, _, m in CASES],
                         ids=[f"Z{n}-{i}" for n, i, _ in CASES])
def test_resolutions_are_exact_into_the_tail(n, m):
    q, complete = resolve_module(m)
    assert complete
    assert q.rank(0) == m.rank0
    if m.rank0 and m.rank1:
        assert q.diff(-1).row_list() == m.presentation.row_list()
    lo = -10 if q.is_bounded else q.tail_below.threshold - 3 * q.tail_below.period
    for j in range(lo, 0):
        d, below = q.diff(j).row_list(), q.diff(j - 1).row_list()
        assert all(v == 0 for row in _mul(d, below, n) for v in row), j
        boundaries = _span(_columns(below, q.rank(j - 1)), q.rank(j), n)
        assert _solutions(d, q.rank(j), n) == boundaries, j


def test_the_cases_reach_periodic_resolutions_and_nonzero_duals():
    resolved = [resolve_module(m)[0] for _, _, m in CASES]
    assert sum(not q.is_bounded for q in resolved) >= 10
    assert sum(dual_data(m)[1].rows >= 2 for _, _, m in CASES) >= 5
