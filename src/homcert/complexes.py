"""Complexes of finite-rank free modules, chain maps and homotopies.

Cohomological indexing throughout: the differential in degree j maps
term j to term j+1.  Fixed sign conventions:

* suspension: (S^i C)^j = C^(j+i) with differential (-1)^i d;
  consequently H^j(S C) = H^(j+1)(C);
* twisted sum of L and Y by g (g^j: L^j -> Y^(j+1)): term L^j (+) Y^j
  with differential [[d_L, 0], [g, d_Y]];
* cone(f: X -> Y): the twisted sum of S X and Y by g^(j-1) = f^j, so
  term X^(j+1) (+) Y^j with differential [[-d_X, 0], [f, d_Y]]; only
  the complex is built, not the triangle maps Y -> cone -> S X;
* dual: (C~)^j = (C^(-j))~ with differential the transpose of
  d^(-j-1), no sign, so dualizing twice is the identity on the nose;
* Hom complex: d(f) = d_Q o f - (-1)^n f o d_X for f of degree n; the
  one construction of Hom complexes is homspaces.hom_fp_complex, which
  takes free terms as modules with empty presentations; a null homotopy
  of a given map is solved there, in degree -1 (null_homotopy_witness).
  A contraction needs no Hom complex: a complex is its own homology
  engine (Forms), and it is lifted degree by degree through the forms the
  complex keeps of its differentials, which every question to it shares.

A complex is either bounded (explicit finite support) or carries
eventually-periodic tails; tail evaluation is a pure lookup, so values
are immutable and freely shareable between threads.  One fold rule
serves ranks and differentials: an explicit entry, an explicit zero
rank included, replaces the repeated one; a lower tail repeats each
differential with its source term and an upper tail with its target
term; the two tails of a complex may not overlap.  Past the explicit
entries both tails repeat: `first_difference` compares in every degree.

The public `Complex(...)` constructor checks the side, every shape and
the product d^(j+1) d^j = 0 in every degree: beyond a tail's farthest
explicit entry the checks repeat with the period, so one band per tail
covers the tail.  `suspension`, `Complex.restrict` and `.below`,
`dualize_complex` and `twisted_sum` (so `cone`, `finite_coproduct`)
build from complexes that passed it and skip it (`Complex._trusted`):
shifting, negating, transposing and brutal truncation keep both, and a
twisted sum checks d_Y g + g d_L = 0 instead, which for checked L and Y
is d^2 = 0 on the sum.  Chain maps, homotopies and twisting maps share
`_GradedMap`, which checks that source and target are on one side, and
each component's ring and its shape in its degree.  Their conditions
relate components j and j + 1, so they can fail only in degrees j - 1
and j for each component j: read there, each is total, with no window.

A twisted sum has one form: nonzero ranks in increasing degree, a
differential for exactly each adjacent pair of terms, and L's lower tail.
`restrict` and `below` give it too; all mark what they build and
`suspension` keeps the mark.  A sum whose larger summand is marked costs
what its smaller summand's degrees cost: iterated cones take linear time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrices import (Mat, MatrixError, assemble_blocks, colspan_canonical, kernel_right,
                       solve_right)
from .modules import FPModule, is_projective, opposite, subquotient_module
from .rings import RingDescriptor
from .verdicts import Verdict


class ComplexError(ValueError):
    pass


class ChainMapError(ComplexError):
    """A map that must be a chain map does not commute with the differentials;
    `degree` is where the square it forms fails."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


class Forms:
    """A complex's homology engine, one elimination per differential:
    matrix(n) keeps restricted(n), the differential on the generators
    gens_at(n) (None: the whole ambient module, of rank ambient_rank(n)),
    or an equal one kept before, as a tail's are, and the matrix keeps its
    elimination: kernel(n) gives the cycles at n, solve(n, .) exactness at
    n + 1.  The hooks read the complex itself (the hook restricted(n) is
    d^n; restrict(lo, hi) truncates); SubComplex overrides them.  `_cache`
    is set where a complex is built; threads scan a snapshot of it."""

    def restricted(self, n: int) -> Mat:
        return self.diff(n)

    def gens_at(self, n: int) -> Mat | None:
        return None

    def ambient_rank(self, n: int) -> int:
        return self.rank(n)

    def matrix(self, n: int) -> Mat:
        key = ("matrix", n)
        if key not in self._cache:
            d = self.restricted(n)
            self._cache[key] = next((f for k, f in list(self._cache.items())
                                     if k[0] == "matrix" and f == d), d)
        return self._cache[key]

    def kernel(self, n: int) -> Mat:
        return kernel_right(self.matrix(n))

    def solve(self, n: int, b: Mat) -> Mat | None:
        return solve_right(self.matrix(n), b)

    def cycles_and_boundaries(self, n: int) -> tuple[Mat, Mat]:
        """(cycle generators, boundary generators) of degree n as ambient
        columns: the kernel of matrix(n), pushed through gens_at(n), and
        matrix(n - 1), kept first for matrix(n) to reuse."""
        boundaries = self.matrix(n - 1)
        u, cycles = self.gens_at(n), self.kernel(n)
        return (cycles if u is None else u @ cycles), boundaries

    def homology_data(self, n: int) -> tuple[FPModule, Mat, Mat]:
        """(H^n on the cycle generators, cycle gens, boundary gens)."""
        cycles, boundaries = self.cycles_and_boundaries(n)
        return subquotient_module(self.ring, self.side, cycles, boundaries), cycles, boundaries

    def exactness(self, n: int) -> tuple[Mat, Mat | None]:
        """(Z, Y): the cycle generators Z at n and a solution Y of
        matrix(n - 1) @ Y = Z, the witness of H^n = 0, or None."""
        cycles, _ = self.cycles_and_boundaries(n)
        return cycles, self.solve(n - 1, cycles)

    def is_exact_at(self, n: int) -> bool:
        """H^n = 0, without building H^n; a zero ambient module builds nothing."""
        return not self.ambient_rank(n) or self.exactness(n)[1] is not None


@dataclass(frozen=True)
class PeriodicTail:
    """Degrees beyond `threshold` in `direction` repeat with `period`.

    direction -1 extends below (the explicit block
    [threshold, threshold+period) repeats towards -infinity);
    direction +1 extends above ((threshold-period, threshold] repeats
    towards +infinity).  A lower tail repeats each differential with its
    source term and an upper tail with its target term, so d^j folds
    with j in a lower tail and with j + 1 in an upper one.
    """

    direction: int
    threshold: int
    period: int

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ComplexError("tail direction must be -1 or +1")
        if self.period < 1:
            raise ComplexError("tail period must be >= 1")

    def maps(self, j: int) -> bool:
        return j < self.threshold if self.direction == -1 else j > self.threshold

    def fold(self, j: int) -> int:
        if self.direction == -1:
            return self.threshold + ((j - self.threshold) % self.period)
        return self.threshold - ((self.threshold - j) % self.period)


@dataclass(frozen=True)
class Complex(Forms):
    ring: RingDescriptor
    side: str
    ranks: dict[int, int]
    diffs: dict[int, Mat]
    tail_below: PeriodicTail | None = None
    tail_above: PeriodicTail | None = None
    # True on a complex known to be in twisted_sum's form: set by
    # restrict and twisted_sum, kept by suspension; a public Complex is
    # never marked.  It and Forms' _cache are not fields: not in ==.
    _sum_form = False

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        if self.side not in ("left", "right"):
            raise ComplexError(f"side must be 'left' or 'right', got {self.side!r}")
        for j, r in self.ranks.items():
            if r < 0:
                raise ComplexError(f"negative rank in degree {j}")
        below, above = self.tail_below, self.tail_above
        if below is not None and below.direction != -1 \
                or above is not None and above.direction != 1:
            raise ComplexError("tail_below must have direction -1 and tail_above +1")
        if below is not None and above is not None and below.threshold > above.threshold:
            raise ComplexError(f"tails overlap: tail_below at {below.threshold} is above "
                               f"tail_above at {above.threshold}")
        # beyond a tail's farthest explicit entry every degree repeats
        # with its period, so one band per tail checks the whole tail:
        # one period (plus the two degrees a product reads) past that
        # entry, through one period past the threshold.  Then every
        # differential a product reads has been shape-checked here or
        # repeats one that has, or is a zero of the right shape.
        degrees = set(self.diffs)
        for t in (below, above):
            if t is not None:
                ends = [t.threshold, *(j for j in self.ranks.keys() | self.diffs.keys()
                                       if t.maps(j))]
                degrees.update(range(min(ends) - t.period - 2, max(ends) + t.period + 1))
        degrees = sorted(degrees)
        for j in degrees:
            d = self.diff(j)
            if d.ring != self.ring:
                raise ComplexError("differential over wrong ring")
            if d.rows != self.rank(j + 1) or d.cols != self.rank(j):
                raise ComplexError(
                    f"differential in degree {j} is {d.rows}x{d.cols}, expected "
                    f"{self.rank(j + 1)}x{self.rank(j)}"
                )
        for j in degrees:
            prod = self.diff(j + 1) @ self.diff(j)
            if not prod.is_zero():
                raise ComplexError(f"d^2 != 0 at degree {j}: product {prod.row_list()}")

    @classmethod
    def _trusted(cls, ring: RingDescriptor, side: str, ranks: dict[int, int],
                 diffs: dict[int, Mat], tail_below: PeriodicTail | None = None,
                 tail_above: PeriodicTail | None = None,
                 sum_form: bool = False) -> "Complex":
        """A Complex whose shapes and d^2 = 0 already hold, unchecked;
        sum_form marks one in twisted_sum's form."""
        c = object.__new__(cls)
        c.__dict__.update(ring=ring, side=side, ranks=ranks, diffs=diffs,
                          tail_below=tail_below, tail_above=tail_above, _sum_form=sum_form,
                          _cache={})
        return c

    # -- evaluation ----------------------------------------------------

    def rank(self, j: int) -> int:
        if j in self.ranks:
            return self.ranks[j]
        for tail in (self.tail_below, self.tail_above):
            if tail is not None and tail.maps(j):
                return self.ranks.get(tail.fold(j), 0)
        return 0

    def diff(self, j: int) -> Mat:
        d = self._given(j)
        return d if d is not None else Mat.zero(self.ring, self.rank(j + 1), self.rank(j))

    def _given(self, j: int) -> Mat | None:
        """d^j as given or repeated by a tail; None where it is absent (zero)."""
        if j in self.diffs:
            return self.diffs[j]
        for tail, e in ((self.tail_below, 0), (self.tail_above, 1)):
            # a lower tail repeats d^j with its source term j, an upper
            # tail with its target term j + 1
            if tail is not None and tail.maps(j + e):
                return self.diffs.get(tail.fold(j + e) - e)
        return None

    @property
    def is_bounded(self) -> bool:
        return self.tail_below is None and self.tail_above is None

    def support(self) -> tuple[int, int] | None:
        """(min, max) nonzero explicit degrees; None for the zero complex."""
        degs = [j for j, r in self.ranks.items() if r > 0]
        if not degs:
            return None
        return min(degs), max(degs)

    def restrict(self, lo: int, hi: int) -> "Complex":
        """Bounded brutal truncation to degrees [lo, hi]."""
        ranks = {j: r for j in range(lo, hi + 1) if (r := self.rank(j)) > 0}
        diffs = {j: self.diff(j) for j in ranks if j + 1 in ranks}
        return Complex._trusted(self.ring, self.side, ranks, diffs, sum_form=True)

    def below(self, hi: int) -> "Complex":
        """Brutal truncation to degrees <= hi, the lower tail kept: its block
        moves a whole period below hi and the degree under the tail's farthest
        explicit entry (whose rank can shape the zero differential below it),
        and the degrees from there up to hi are written out."""
        t = self.tail_below
        if t is None:
            return self.restrict(min(self.ranks, default=hi), hi)
        lo = min(hi + 1, t.threshold, *(j for j in self.ranks.keys() | self.diffs.keys()
                                        if t.maps(j))) - 1 - t.period
        c = self.restrict(lo, hi)
        return Complex._trusted(self.ring, self.side, c.ranks, c.diffs,
                                PeriodicTail(-1, lo, t.period), sum_form=True)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ring: RingDescriptor, side: str) -> "Complex":
        return Complex(ring, side, {}, {})


def first_difference(a: Complex, b: Complex) -> int | None:
    """The first degree where a and b differ in rank or in differential,
    or None when they agree in every degree.  Beyond the hull of their
    explicit entries and tail thresholds, both are zero on a side where
    neither has a tail, and both repeat with the lcm p of their periods
    on a side where one has, so the hull widened by p + 2 on each side
    with a tail decides.  A term whose rank differs is named, not the
    differential into it, and a differential absent from both is compared
    without building a zero matrix."""
    below = [t for c in (a, b) if (t := c.tail_below) is not None]
    above = [t for c in (a, b) if (t := c.tail_above) is not None]
    ends = [t.threshold for t in below + above] + [j for c in (a, b) for j in (*c.ranks, *c.diffs)]
    pad = math.lcm(*(t.period for t in below + above)) + 2
    lo, hi = min(ends, default=0) - pad * bool(below), max(ends, default=0) + pad * bool(above)
    return next((j for j in range(lo, hi + 1) if a.rank(j) != b.rank(j)
                 or a.rank(j + 1) == b.rank(j + 1)
                 and (a._given(j) is not None or b._given(j) is not None or a.ring != b.ring)
                 and a.diff(j) != b.diff(j)), None)


@dataclass(frozen=True)
class _GradedMap:
    """Finitely many components, the one in degree j a map
    source^j -> target^(j + _shift); an absent component is zero."""

    source: Complex
    target: Complex
    components: dict[int, Mat]
    # not fields: the degree of the map and its name in errors
    _shift = 0
    _what = "chain map"

    def __post_init__(self):
        source, target, ring = self.source, self.target, self.source.ring
        if target.side != source.side:
            raise ComplexError(f"{self._what} from a {source.side} complex to a {target.side} one")
        if target.ring != ring:
            raise MatrixError(f"{self._what} from a complex over {ring} to one over {target.ring}")
        for j, m in self.components.items():
            rows, cols = target.rank(j + self._shift), source.rank(j)
            if m.ring != ring:
                raise MatrixError(f"component in degree {j} is over {m.ring}, expected {ring}")
            if m.rows != rows or m.cols != cols:
                raise MatrixError(f"component in degree {j} has shape {m.rows}x{m.cols}, "
                                  f"expected {rows}x{cols}")

    def component(self, j: int) -> Mat:
        m = self.components.get(j)
        return m if m is not None else \
            Mat.zero(self.source.ring, self.target.rank(j + self._shift), self.source.rank(j))

    def degrees(self) -> list[int]:
        """j - 1 and j for each component j, in increasing order."""
        return sorted({k for j in self.components for k in (j - 1, j)})


class ChainMap(_GradedMap):
    def commutes(self) -> bool:
        """d f = f d in every degree."""
        return all(self.target.diff(j) @ self.component(j)
                   == self.component(j + 1) @ self.source.diff(j) for j in self.degrees())

    @staticmethod
    def identity(c: Complex) -> "ChainMap":
        """The identity on the explicit terms of c."""
        return ChainMap(c, c, {j: Mat.identity(c.ring, r)
                               for j, r in sorted(c.ranks.items()) if r > 0})


class Homotopy(_GradedMap):
    """Components s^j : source^j -> target^(j-1)."""

    _shift, _what = -1, "homotopy"

    def bounds(self, f: ChainMap) -> bool:
        """f runs between the homotopy's complexes and f = d s + s d in
        every degree: next to a component of s, or at one of f."""
        return first_difference(f.source, self.source) is None \
            and first_difference(f.target, self.target) is None \
            and all(f.component(j) == self.target.diff(j - 1) @ self.component(j)
                    + self.component(j + 1) @ self.source.diff(j)
                    for j in sorted(f.components.keys() | self.degrees()))


class _TwistingMap(_GradedMap):
    """twisted_sum's g, with components g^j: L^j -> Y^(j+1)."""

    _shift, _what = 1, "twisting map"


# -- elementary constructions -----------------------------------------


def suspension(c: Complex, i: int = 1) -> Complex:
    sign = -1 if i % 2 else 1
    ranks = {j - i: r for j, r in c.ranks.items()}
    diffs = {j - i: (d.scale(sign) if sign < 0 else d) for j, d in c.diffs.items()}
    def shift_tail(t: PeriodicTail | None) -> PeriodicTail | None:
        if t is None:
            return None
        return PeriodicTail(t.direction, t.threshold - i, t.period)
    return Complex._trusted(c.ring, c.side, ranks, diffs, shift_tail(c.tail_below),
                            shift_tail(c.tail_above), sum_form=c._sum_form)


def dualize_complex(c: Complex) -> Complex:
    """(C~)^j = (C^(-j))~ with differential the transpose of d^(-j-1).

    Negating the degrees of every explicit entry (explicit zero ranks
    included), transposing and flipping the tails gives that in every
    degree, tails included, because an upper tail folds d^j with its
    target term and the lower tail it becomes folds it with its source.
    The degreewise transpose of a checked complex is checked, so the
    dual is built trusted.
    """
    def flip(t: PeriodicTail | None) -> PeriodicTail | None:
        return None if t is None else PeriodicTail(-t.direction, -t.threshold, t.period)

    return Complex._trusted(c.ring, opposite(c.side), {-j: r for j, r in c.ranks.items()},
                            {-j - 1: d.transpose() for j, d in c.diffs.items()},
                            flip(c.tail_above), flip(c.tail_below))


def twisted_sum(L: Complex, Y: Complex, g: dict[int, Mat]) -> Complex:
    """Terms L^j (+) Y^j, differential [[d_L^j, 0], [g^j, d_Y^j]] with
    g^j: L^j -> Y^(j+1).

    Its d^2 in degree j is [[d_L d_L, 0], [d_Y^(j+1) g^j + g^(j+1) d_L^j,
    d_Y d_Y]], so for checked L and Y it vanishes exactly when
    d_Y g + g d_L = 0.  g is checked as a _TwistingMap, and the condition
    in its degrees (ChainMapError) instead of forming d^2; an absent
    component makes its side zero, so no product is formed for it.

    Y is bounded and L bounded above, with a lower tail only if every
    nonzero term of Y lies above L's explicit entries and threshold.

    The result has nonzero ranks only, in increasing degree, and a
    differential for exactly each pair of adjacent terms.  The summand
    with more explicit degrees, or L with a tail, is brought to that form
    (below) unless marked as having it (Complex._sum_form); the sum starts
    from copies of its ranks, differentials and tail and recomputes only
    the degrees within one step of the other summand's terms, so for a
    marked larger summand the cost follows the smaller one.  A block
    matrix is built only in degrees where L and Y meet; every other
    differential is L's, Y's or g's Mat.
    """
    t, span = L.tail_below, Y.support()
    if not Y.is_bounded or L.tail_above is not None or t is not None and span is not None \
            and span[0] <= max(t.threshold, *L.ranks, *L.diffs):
        raise ComplexError("twisted sum requires a bounded Y and an L bounded above "
                           "whose lower tail and explicit entries lie below Y's terms")
    ring = L.ring

    # d_Y g = -(g d_L), compared as ChainMap.commutes compares: no
    # checked Mat is built.  Both sides map L^j to Y^(j+2); where either
    # is zero there is nothing to compare.
    for j in _TwistingMap(L, Y, g).degrees():
        if not (L.rank(j) and Y.rank(j + 2)):
            continue
        if j in g and j + 1 in g:
            ok = Y.diff(j + 1) @ g[j] == (g[j + 1] @ L.diff(j)).scale(-1)
        elif j in g:
            ok = (Y.diff(j + 1) @ g[j]).is_zero()
        else:
            ok = j + 1 not in g or (g[j + 1] @ L.diff(j)).is_zero()
        if not ok:
            raise ChainMapError(f"twisting map fails d g + g d = 0 in degree {j}", j)
    # both are bounded, or L's tail lies below the degrees read here, so
    # a degree missing from ranks has rank 0
    lr, yr = L.ranks, Y.ranks
    big, small = (L, Y) if t is not None or len(lr) >= len(yr) else (Y, L)
    if not big._sum_form:
        big = big.below(max(big.ranks, default=0))
    # where the smaller summand has no term the larger one's rank and
    # differential stand as they are
    ranks, diffs = dict(big.ranks), dict(big.diffs)
    touched = [j for j, r in small.ranks.items() if r]
    for j in sorted(touched):
        if r := lr.get(j, 0) + yr.get(j, 0):
            ranks[j] = r
    if list(ranks) != sorted(ranks):
        ranks = dict(sorted(ranks.items()))
    for j in sorted({j - 1 for j in touched}.union(touched)):
        if j not in ranks or j + 1 not in ranks:
            continue
        rows, cols = (lr.get(j + 1, 0), yr.get(j + 1, 0)), (lr.get(j, 0), yr.get(j, 0))
        if not (rows[0] or cols[0]):
            diffs[j] = Y.diff(j)
        elif not (rows[1] or cols[1]):
            diffs[j] = L.diff(j)
        elif not (rows[0] or cols[1]):
            diffs[j] = g[j] if j in g else Mat.zero(ring, rows[1], cols[0])
        else:
            diffs[j] = assemble_blocks(ring, [[L.diff(j), None], [g.get(j), Y.diff(j)]],
                                       rows, cols)
    return Complex._trusted(ring, L.side, ranks, diffs, big.tail_below, sum_form=True)


def cone(f: ChainMap) -> Complex:
    """Mapping cone of f: X -> Y, the complex alone.

    Its term in degree j is X^(j+1) (+) Y^j: the twisted sum of S X and
    Y by g^(j-1) = f^j, whose condition d_Y g + g d_(S X) = 0 is
    d_Y f - f d_X = 0, so the twisted sum checks that f is a chain map
    in every degree, as f.commutes() does.
    """
    return twisted_sum(suspension(f.source, 1), f.target,
                       {j - 1: m for j, m in f.components.items()})


def finite_coproduct(summands: list[Complex]) -> tuple[Complex, list[ChainMap]]:
    """The direct sum of bounded complexes with its injections.

    The sum is a fold of untwisted sums (twisted_sum by g = {}), which
    refuses an unbounded summand (ComplexError) and mixed rings
    (MatrixError).  Each injection is an identity block at the running
    offset of its summand; the projections are their transposes.
    """
    if not summands:
        raise ComplexError("empty coproduct needs an ambient ring")
    total = Complex.zero(summands[0].ring, summands[0].side)
    for c in summands:
        total = twisted_sum(total, c, {})
    ring = total.ring
    offsets: dict[int, int] = {}
    injections = []
    for c in summands:
        inj = {}
        for j, r in c.ranks.items():
            if r:
                at = offsets.get(j, 0)
                inj[j] = assemble_blocks(ring, [[None], [Mat.identity(ring, r)], [None]],
                                         [at, r, total.rank(j) - at - r], [r])
                offsets[j] = at + r
        injections.append(ChainMap(c, total, inj))
    return total, injections


# -- homology and cycles ----------------------------------------------
#
# H^j is presented on the cycle generators Z = ker d^j modulo the
# boundaries B = im d^(j-1) (subquotient_module).  Exactness needs no
# module: it is the containment span Z in span B, one solve
# d^(j-1) Y = Z whose Y is the witness.  The module is built only where
# it is wanted: H^0 comparisons, the homology command and the report of
# a non-exact degree.  Forms asks both, of complexes and Hom complexes.


def homology_data(c: Complex, j: int) -> tuple[FPModule, Mat, Mat]:
    """c.homology_data(j), as a function that a tracer can hook by name."""
    return c.homology_data(j)


# -- homotopies -------------------------------------------------------


def null_homotopy_witness(f: ChainMap) -> Homotopy | None:
    """Solve f = d s + s d exactly; None when the system has no solution.

    s is a degree -1 element of Hom(X, Y), where the Hom differential is
    d(s) = d_Y s + s d_X, so the system is that differential with the
    components of f, a degree 0 element, as right-hand side.  The Hom
    differential is refused (MatrixError) past the size guard of
    homspaces before anything of that size is allocated.
    """
    from .homspaces import free_terms, hom_fp_complex

    X, Y = f.source, f.target
    if not (X.is_bounded and Y.is_bounded):
        raise ComplexError("null homotopy requires bounded complexes")
    hom = hom_fp_complex(*free_terms(X), Y)
    s = hom.solve(-1, hom.join(0, f.components))
    if s is None:
        return None
    return Homotopy(X, Y, hom.split(-1, s))


def contraction(c: Complex) -> Homotopy | None:
    """A null homotopy s of the identity of a bounded c, or None when c
    is not contractible.

    s is lifted one degree at a time, from the top of the support down:
    with s^(hi+1) = 0, e^j = 1 - s^(j+1) d^j and s^j solves
    d^(j-1) s^j = e^j through solve(j - 1, e^j), so d s + s d = 1 in degree j.
    As that holds in degree j + 1, d^j e^j = 0: e^j is a cycle, and a
    bounded complex of projectives is contractible exactly when it is
    exact.  So a lift fails exactly when c is not exact in some degree
    of its support, and no Hom complex is built.  A nonzero term between
    two zero differentials is not exact, and fails before any matrix is
    built.
    """
    if not c.is_bounded:
        raise ComplexError("null homotopy requires bounded complexes")
    lo, hi = c.support() or (0, -1)  # the zero complex has no degree to lift
    live = {j for j, d in c.diffs.items() if not d.is_zero()}
    if any(r and j - 1 not in live and j not in live for j, r in c.ranks.items()):
        return None
    s, above = {}, None  # above: s^(j+1), None where it is zero
    for j in range(hi, lo - 1, -1):
        if not (r := c.rank(j)):
            above = None
            continue
        if above is not None and j in live:  # 1 - p: every (r + 1)-th entry is diagonal
            p = (above @ c.diffs[j]).entries
            e = Mat(c.ring, r, r, tuple(int(k % (r + 1) == 0) - x for k, x in enumerate(p)))
        else:
            e = Mat.identity(c.ring, r)
        if not c.rank(j - 1):  # nothing to lift into: e must vanish
            if not e.is_zero():
                return None
            above = None
            continue
        above = c.solve(j - 1, e)
        if above is None:
            return None
        s[j] = above
    return Homotopy(c, c, dict(sorted(s.items())))


# -- split exactness --------------------------------------------------


def split_exactness_check(c: Complex, window: tuple[int, int]) -> Verdict:
    """Split exactness of c: decided in every degree when c is bounded,
    inside the window when it has a tail.

    A bounded complex of projectives is split exact exactly when it is
    contractible, so a bounded c is decided whole and the window is not
    read: the witness is a null homotopy of the identity (contraction),
    lifted through the forms of c's own differentials, and when the lift
    fails the sweep over c's support shares those forms and names the
    lowest degree that is not exact (the only way a lift can fail).  On
    a complex with a tail, homology must vanish strictly inside the
    window, and then the lowest cycle module Z^(lo+1) decides: over Z/n,
    which is self-injective, a projective Z^j is injective, so
    0 -> Z^j -> c^j -> Z^(j+1) -> 0 splits and Z^(j+1) is projective
    too; over Z and F_p every cycle of an exact complex of frees is.
    The verdict names the first degree that is not exact, or lo + 1, or
    passes relative to the window; a window with no interior degree is
    window_too_small: nothing was checked.
    """
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
        if c.exactness(j)[1] is None:
            return Verdict(False, "not_exact", {"degree": j, "homology": c.homology_data(j)[0]},
                           not c.is_bounded)
    if c.is_bounded:
        raise ComplexError("exact bounded complex has no contraction; solver invariant broken")
    cycle = FPModule(c.ring, c.side, colspan_canonical(kernel_right(c.kernel(lo + 1))))
    if is_projective(cycle) is None:
        return Verdict(False, "exact_not_split", {"degree": lo + 1, "cycle": cycle}, True)
    return Verdict(True, "split_exact", {"window": window}, True)
