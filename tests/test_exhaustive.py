"""Exhaustive small-scope oracle for the split check and its collapse.

Every complex over Z/4, Z/6, F_2 and F_3 with ranks at most 1 in
degrees -2..1 is enumerated, and over Z/4 and Z/6 the same explicit data
with period-1 or period-2 tails below and above.  Over a finite ring
each verdict has an oracle that uses no elimination: a term of rank 1
is the ring itself, a differential is a scalar, and kernels, images,
contractions and direct-summand decompositions are finite sets to
enumerate.

  * Bounded: split_exactness_check gives one verdict, code and details,
    for every window; it passes exactly when some scalars s^j give
    d s + s d = 1, with a witness that bounds the identity; a not_exact
    degree is the lowest one whose kernel and image differ.
    pd_bound_collapse gives that verdict for every window, however
    narrow: its width check is for tails.
  * Tailed: inside the window the check names the lowest degree that is
    not exact, then the lowest whose cycle ideal is not a direct summand
    of the ring, which is always the lowest degree read; the collapse
    reports the same degree, as not_exact or cycle_not_projective.
"""

import itertools

from homcert.complexes import ChainMap, Complex, ComplexError, PeriodicTail, split_exactness_check
from homcert.documents import emit_document, make_document
from homcert.flatness import EngineConfig, pd_bound_collapse
from homcert.matrices import Mat
from homcert.rings import Fp, Zmod

DEGREES = range(-2, 2)
BOUNDED_RINGS = [Zmod(4), Zmod(6), Fp(2), Fp(3)]
TAILED_RINGS = [Zmod(4), Zmod(6)]


def explicit_data(ring):
    """(ranks, scalar differentials) with ranks <= 1 in DEGREES and d^2 = 0."""
    n = ring.n
    for bits in itertools.product((0, 1), repeat=len(DEGREES)):
        ranks = {j: 1 for j, r in zip(DEGREES, bits) if r}
        slots = [j for j in ranks if j + 1 in ranks]
        for values in itertools.product(range(n), repeat=len(slots)):
            d = dict(zip(slots, values))
            if all(d[j] * d.get(j + 1, 0) % n == 0 for j in slots):
                yield ranks, {j: a for j, a in d.items() if a}


def build(ring, ranks, d, tail_below=None, tail_above=None):
    return Complex(ring, "left", ranks, {j: Mat(ring, 1, 1, (a,)) for j, a in d.items()},
                   tail_below=tail_below, tail_above=tail_above)


def scalar(c, j):
    """d^j as an element of the ring, 0 where either term is zero."""
    m = c.diff(j)
    return m.entries[0] if m.rows and m.cols else 0


def kernel(c, j):
    """The cycles of degree j, as a subset of the ring (or of 0)."""
    n = c.ring.n
    return {x for x in range(n if c.rank(j) else 1) if scalar(c, j) * x % n == 0}


def exact_at(c, j):
    n = c.ring.n
    return kernel(c, j) == {scalar(c, j - 1) * y % n for y in range(n)}


def is_summand(ideal, n):
    """The ideal is a direct summand of Z/n, that is, projective."""
    return any(ideal & other == {0} and {(x + y) % n for x in ideal for y in other} == set(range(n))
               for other in ({a * y % n for y in range(n)} for a in range(n)))


def contractible(c, lo, hi):
    """Some scalars s^j: C^j -> C^(j-1) give d s + s d = 1 in every degree."""
    n = c.ring.n
    slots = [j for j in range(lo, hi + 1) if c.rank(j) and c.rank(j - 1)]
    terms = [j for j in range(lo, hi + 1) if c.rank(j)]
    for values in itertools.product(range(n), repeat=len(slots)):
        s = dict(zip(slots, values))
        if all((scalar(c, j - 1) * s.get(j, 0) + s.get(j + 1, 0) * scalar(c, j)) % n == 1
               for j in terms):
            return True
    return False


def emitted(ring, v):
    return emit_document(make_document(ring, "verdict", v))


def bounded_complexes():
    for ring in BOUNDED_RINGS:
        for ranks, d in explicit_data(ring):
            yield build(ring, ranks, d)


def test_the_bounded_enumeration_is_complete():
    # 66 over Z/4, 123 over Z/6, 29 over F_2 and 44 over F_3
    assert sum(1 for _ in bounded_complexes()) == 262


def test_a_bounded_complex_is_decided_whole():
    codes = set()
    for c in bounded_complexes():
        lo, hi = c.support() or (0, 0)
        windows = [(lo - 2, hi + 2), (lo, hi), (lo + 1, hi - 1), (lo - 3, lo), (hi, hi + 3),
                   (hi + 5, hi + 9)]
        split = {emitted(c.ring, split_exactness_check(c, w)) for w in windows}
        assert len(split) == 1, c
        v = split_exactness_check(c, windows[0])
        codes.add(v.code)
        assert v.ok == contractible(c, lo, hi), c
        if v.ok:
            assert v.code == "split_exact" and v.details["homotopy"].bounds(ChainMap.identity(c))
        else:
            assert v.code == "not_exact"
            assert v.details["degree"] == min(j for j in range(lo, hi + 1) if not exact_at(c, j))
        expected = ("collapsed", v.details) if v.ok else ("not_exact", {"degree": v.details["degree"]})
        for w in windows:
            u = pd_bound_collapse(c, EngineConfig(0), w)
            assert (u.code, u.details, u.window_relative) == (*expected, False), (c, w)
    assert codes == {"split_exact", "not_exact"}


def tailed_complexes():
    tails = [None, 1, 2]
    for ring in TAILED_RINGS:
        for ranks, d in explicit_data(ring):
            for below, above in itertools.product(tails, tails):
                if below is None and above is None:
                    continue
                try:
                    yield build(ring, ranks, d,
                                below and PeriodicTail(-1, DEGREES[0], below),
                                above and PeriodicTail(1, DEGREES[-1], above))
                except ComplexError:  # shapes or d^2 = 0 fail on the repeats
                    pass


def test_a_tailed_complex_fails_first_where_the_window_starts():
    codes, count = set(), 0
    for c in tailed_complexes():
        count += 1
        for lo, hi in [(-4, 4), (-1, 3)]:
            inside = range(lo + 1, hi)
            v = split_exactness_check(c, (lo, hi))
            assert v.window_relative
            codes.add(v.code)
            holes = [j for j in inside if not exact_at(c, j)]
            split = [j for j in inside if not is_summand(kernel(c, j), c.ring.n)]
            if holes:
                assert (v.code, v.details["degree"]) == ("not_exact", holes[0])
            elif split:
                assert (v.code, v.details["degree"]) == ("exact_not_split", split[0])
                assert split[0] == lo + 1
            else:
                assert (v.ok, v.code) == (True, "split_exact")
            as_collapse = {"split_exact": "collapsed",
                           "exact_not_split": "cycle_not_projective"}.get(v.code, v.code)
            for bound in (0, hi - lo - 2):
                u = pd_bound_collapse(c, EngineConfig(bound), (lo, hi))
                assert u.code == as_collapse
                assert u.ok or u.details["degree"] == v.details["degree"]
    assert codes == {"split_exact", "not_exact", "exact_not_split"}
    assert count == 999
