"""Complexes of finite-rank free modules, chain maps and homotopies.

Cohomological indexing throughout: the differential in degree j maps
term j to term j+1.  Fixed sign conventions:

* suspension: (S^i C)^j = C^(j+i) with differential (-1)^i d;
  consequently H^j(S C) = H^(j+1)(C);
* cone(f: X -> Y): term X^(j+1) (+) Y^j with differential
  [[-d_X, 0], [f, d_Y]]; only the complex is built, not the triangle
  maps Y -> cone -> S X;
* dual: (C~)^j = (C^(-j))~ with differential the transpose of
  d^(-j-1), no sign, so dualizing twice is the identity on the nose;
* Hom complex: d(f) = d_Q o f - (-1)^n f o d_X for f of degree n; the
  one construction of Hom complexes is homspaces.hom_fp_complex, which
  takes free terms as modules with empty presentations.

A complex is either bounded (explicit finite support) or carries
eventually-periodic tails; tail evaluation is a pure lookup, so values
are immutable and freely shareable between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Mat, MatrixError, assemble_blocks, kernel_right, solve_right
from .modules import FPModule, opposite, subquotient_module
from .rings import RingDescriptor
from .verdicts import Verdict


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicTail:
    """Degrees beyond `threshold` in `direction` repeat with `period`.

    direction -1 extends below (the explicit block
    [threshold, threshold+period) repeats towards -infinity);
    direction +1 extends above ((threshold-period, threshold] repeats
    towards +infinity).
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

    # the degree-j differential maps term j to term j+1, so for an upper
    # tail the differential at the threshold itself already points into
    # the tail and must fold one period lower than the terms do
    def maps_diff(self, j: int) -> bool:
        return j < self.threshold if self.direction == -1 else j >= self.threshold

    def fold_diff(self, j: int) -> int:
        if self.direction == -1:
            return self.threshold + ((j - self.threshold) % self.period)
        return self.threshold - self.period + ((j - self.threshold) % self.period)


@dataclass(frozen=True)
class Complex:
    ring: RingDescriptor
    side: str
    ranks: dict[int, int]
    diffs: dict[int, Mat]
    tail_below: PeriodicTail | None = None
    tail_above: PeriodicTail | None = None

    def __post_init__(self):
        for j, r in self.ranks.items():
            if r < 0:
                raise ComplexError(f"negative rank in degree {j}")
        # one period on each side of a tail threshold covers the seam and
        # every differential and product the tail repeats
        degrees = sorted(set(self.diffs).union(
            *(range(t.threshold - t.period - 1, t.threshold + t.period + 1)
              for t in (self.tail_below, self.tail_above) if t is not None)))
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

    # -- evaluation ----------------------------------------------------

    def rank(self, j: int) -> int:
        if j in self.ranks:
            return self.ranks[j]
        for tail in (self.tail_below, self.tail_above):
            if tail is not None and tail.maps(j):
                return self.ranks.get(tail.fold(j), 0)
        return 0

    def diff(self, j: int) -> Mat:
        if j in self.diffs:
            return self.diffs[j]
        for tail in (self.tail_below, self.tail_above):
            if tail is not None and tail.maps_diff(j):
                folded = self.diffs.get(tail.fold_diff(j))
                if folded is not None:
                    return folded
        return Mat.zero(self.ring, self.rank(j + 1), self.rank(j))

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
        ranks = {j: self.rank(j) for j in range(lo, hi + 1) if self.rank(j) > 0}
        diffs = {j: self.diff(j) for j in range(lo, hi) if self.rank(j) > 0 and self.rank(j + 1) > 0}
        return Complex(self.ring, self.side, ranks, diffs)

    def same_as(self, other: "Complex", lo: int, hi: int) -> bool:
        if self.ring != other.ring:
            return False
        for j in range(lo, hi + 1):
            if self.rank(j) != other.rank(j) or self.diff(j) != other.diff(j):
                return False
        return True

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ring: RingDescriptor, side: str) -> "Complex":
        return Complex(ring, side, {}, {})

    @staticmethod
    def single(ring: RingDescriptor, side: str, rank: int, degree: int = 0) -> "Complex":
        return Complex(ring, side, {degree: rank}, {})


@dataclass(frozen=True)
class ChainMap:
    source: Complex
    target: Complex
    components: dict[int, Mat]

    def component(self, j: int) -> Mat:
        if j in self.components:
            return self.components[j]
        return Mat.zero(self.source.ring, self.target.rank(j), self.source.rank(j))

    def commutes(self, lo: int, hi: int) -> bool:
        for j in range(lo, hi + 1):
            lhs = self.target.diff(j) @ self.component(j)
            rhs = self.component(j + 1) @ self.source.diff(j)
            if lhs != rhs:
                return False
        return True

    @staticmethod
    def identity(c: Complex, lo: int | None = None, hi: int | None = None) -> "ChainMap":
        if lo is None or hi is None:
            span = c.support()
            if span is None:
                return ChainMap(c, c, {})
            lo, hi = span
        comps = {j: Mat.identity(c.ring, c.rank(j)) for j in range(lo, hi + 1) if c.rank(j) > 0}
        return ChainMap(c, c, comps)

    def compose(self, first: "ChainMap") -> "ChainMap":
        degs = set(self.components) | set(first.components)
        comps = {}
        for j in degs:
            m = self.component(j) @ first.component(j)
            if not m.is_zero():
                comps[j] = m
        return ChainMap(first.source, self.target, comps)


@dataclass(frozen=True)
class Homotopy:
    source: Complex
    target: Complex
    components: dict[int, Mat]  # degree j -> s^j : source^j -> target^(j-1)

    def component(self, j: int) -> Mat:
        if j in self.components:
            return self.components[j]
        return Mat.zero(self.source.ring, self.target.rank(j - 1), self.source.rank(j))

    def bounds(self, f: ChainMap, g: ChainMap | None, lo: int, hi: int) -> bool:
        """Check f - g = d s + s d in [lo, hi] (g omitted means 0)."""
        for j in range(lo, hi + 1):
            want = f.component(j)
            if g is not None:
                want = want - g.component(j)
            got = (self.target.diff(j - 1) @ self.component(j)
                   + self.component(j + 1) @ self.source.diff(j))
            if want != got:
                return False
        return True


# -- elementary constructions -----------------------------------------


def suspension(c: Complex, i: int = 1) -> Complex:
    sign = -1 if i % 2 else 1
    ranks = {j - i: r for j, r in c.ranks.items()}
    diffs = {j - i: (d.scale(sign) if sign < 0 else d) for j, d in c.diffs.items()}
    def shift_tail(t: PeriodicTail | None) -> PeriodicTail | None:
        if t is None:
            return None
        return PeriodicTail(t.direction, t.threshold - i, t.period)
    return Complex(c.ring, c.side, ranks, diffs,
                   shift_tail(c.tail_below), shift_tail(c.tail_above))


def dualize_complex(c: Complex) -> Complex:
    ranks = {-j: r for j, r in c.ranks.items() if r}
    diffs = {-j - 1: d.transpose() for j, d in c.diffs.items()}

    def flip_tail(t: PeriodicTail | None) -> PeriodicTail | None:
        if t is None:
            return None
        return PeriodicTail(-t.direction, -t.threshold, t.period)

    below = flip_tail(c.tail_above)
    above = flip_tail(c.tail_below)
    # tail folding indexes into the explicit block next to the flipped
    # threshold; copy whatever that block needs from the original tails
    for tail in (below, above):
        if tail is None:
            continue
        if tail.direction == -1:
            rank_block = range(tail.threshold, tail.threshold + tail.period)
            diff_block = rank_block
        else:
            rank_block = range(tail.threshold - tail.period + 1, tail.threshold + 1)
            diff_block = range(tail.threshold - tail.period, tail.threshold)
        for j in rank_block:
            r = c.rank(-j)
            if r and j not in ranks:
                ranks[j] = r
        for j in diff_block:
            d = c.diff(-j - 1)
            if d.rows and d.cols and j not in diffs:
                diffs[j] = d.transpose()
    return Complex(c.ring, opposite(c.side), ranks, diffs, below, above)


def cone(f: ChainMap) -> Complex:
    """Mapping cone of f: X -> Y, the complex alone.

    Its term in degree j is X^(j+1) (+) Y^j; d^2 = 0 holds exactly when
    f is a chain map, which the constructor checks.
    """
    X, Y = f.source, f.target
    if not (X.is_bounded and Y.is_bounded):
        raise ComplexError("cone requires bounded complexes")
    if X.ring != Y.ring:
        raise MatrixError("cone across different rings")
    ring = X.ring
    degs = set()
    for c, shift in ((X, -1), (Y, 0)):
        span = c.support()
        if span:
            degs.update(range(span[0] + shift, span[1] + 1 + shift))
    ranks = {j: X.rank(j + 1) + Y.rank(j) for j in sorted(degs)}
    ranks = {j: r for j, r in ranks.items() if r}
    diffs = {j: assemble_blocks(
        ring,
        [[X.diff(j + 1).scale(-1), None], [f.component(j + 1), Y.diff(j)]],
        [X.rank(j + 2), Y.rank(j + 1)],
        [X.rank(j + 1), Y.rank(j)],
    ) for j in ranks if j + 1 in ranks}
    return Complex(ring, X.side, ranks, diffs)


def finite_coproduct(summands: list[Complex]) -> tuple[Complex, list[ChainMap], list[ChainMap]]:
    if not summands:
        raise ComplexError("empty coproduct needs an ambient ring")
    ring = summands[0].ring
    side = summands[0].side
    for c in summands:
        if c.ring != ring:
            raise MatrixError("coproduct across different rings")
        if not c.is_bounded:
            raise ComplexError("coproduct requires bounded complexes")
    degs = set()
    for c in summands:
        span = c.support()
        if span:
            degs.update(range(span[0], span[1] + 1))
    ranks = {j: sum(c.rank(j) for c in summands) for j in degs}
    ranks = {j: r for j, r in ranks.items() if r}
    diffs = {}
    for j in degs:
        if ranks.get(j, 0) and ranks.get(j + 1, 0):
            diffs[j] = assemble_blocks(
                ring,
                [[summands[i].diff(j) if i == k else None for k in range(len(summands))]
                 for i in range(len(summands))],
                [c.rank(j + 1) for c in summands],
                [c.rank(j) for c in summands],
            )
    total = Complex(ring, side, ranks, diffs)
    injections = []
    projections = []
    for idx, c in enumerate(summands):
        inj = {}
        prj = {}
        for j in degs:
            if ranks.get(j, 0) == 0:
                continue
            cols = [[Mat.identity(ring, c.rank(j))] if k == idx else [None]
                    for k in range(len(summands))]
            inj_m = assemble_blocks(ring, cols, [s.rank(j) for s in summands], [c.rank(j)])
            prj_m = inj_m.transpose()
            if c.rank(j):
                inj[j] = inj_m
                prj[j] = prj_m
        injections.append(ChainMap(c, total, inj))
        projections.append(ChainMap(total, c, prj))
    return total, injections, projections


# -- homology and cycles ----------------------------------------------


def homology_data(c: Complex, j: int) -> tuple[FPModule, Mat, Mat]:
    """(H^j as a module on the kernel generators, cycle gens, boundary gens)."""
    U = kernel_right(c.diff(j))
    V = c.diff(j - 1)
    mod = subquotient_module(c.ring, c.side, U, V)
    return mod, U, V


def homology(c: Complex, j: int) -> FPModule:
    return homology_data(c, j)[0]


@dataclass(frozen=True)
class CycleData:
    module: FPModule
    inclusion: Mat  # term_rank x gens, columns are the cycle generators
    sigma: Mat | None  # gens x rank(j-1); the surjection from term j-1 when exact at j


def cycle_module(c: Complex, j: int) -> CycleData:
    U = kernel_right(c.diff(j))
    pres = subquotient_module(c.ring, c.side, U, Mat.zero(c.ring, U.rows, 0))
    sigma = solve_right(U, c.diff(j - 1))
    return CycleData(pres, U, sigma)


# -- homotopies -------------------------------------------------------


def null_homotopy_witness(f: ChainMap, window: tuple[int, int] | None = None) -> Homotopy | None:
    """Solve f = d s + s d exactly; None when the system has no solution."""
    X, Y = f.source, f.target
    if not (X.is_bounded and Y.is_bounded):
        if window is None:
            raise ComplexError("null homotopy of unbounded complexes needs a window")
        X = X.restrict(*window)
        Y = Y.restrict(*window)
        f = ChainMap(X, Y, {j: f.component(j) for j in range(window[0], window[1] + 1)
                            if not f.component(j).is_zero()})
    ring = X.ring
    spans = [s for s in (X.support(), Y.support()) if s]
    if not spans:
        return Homotopy(X, Y, {})
    lo = min(s[0] for s in spans)
    hi = max(s[1] for s in spans)
    unknown_degrees = [j for j in range(lo, hi + 1) if X.rank(j) and Y.rank(j - 1)]
    sizes = {j: X.rank(j) * Y.rank(j - 1) for j in unknown_degrees}
    eq_degrees = [j for j in range(lo, hi + 1) if X.rank(j) and Y.rank(j)]
    grid: list[list[Mat | None]] = []
    rhs_blocks: list[list[Mat | None]] = []
    for j in eq_degrees:
        row: list[Mat | None] = [None] * len(unknown_degrees)
        if j in sizes:
            # d_Y^(j-1) s^j
            row[unknown_degrees.index(j)] = (
                Mat.identity(ring, X.rank(j)).kron(Y.diff(j - 1)))
        if (j + 1) in sizes:
            # s^(j+1) d_X^j
            row[unknown_degrees.index(j + 1)] = (
                X.diff(j).transpose().kron(Mat.identity(ring, Y.rank(j))))
        grid.append(row)
        rhs_blocks.append([f.component(j).vec()])
    if not unknown_degrees:
        # nothing to solve with: f must already vanish
        if all(f.component(j).is_zero() for j in eq_degrees):
            return Homotopy(X, Y, {})
        return None
    system = assemble_blocks(
        ring, grid,
        [X.rank(j) * Y.rank(j) for j in eq_degrees],
        [sizes[j] for j in unknown_degrees],
    )
    rhs = assemble_blocks(ring, rhs_blocks, [X.rank(j) * Y.rank(j) for j in eq_degrees], [1])
    sol = solve_right(system, rhs)
    if sol is None:
        return None
    comps = {}
    offset = 0
    for j in unknown_degrees:
        size = sizes[j]
        block = sol.submatrix(range(offset, offset + size), range(1))
        comps[j] = Mat.unvec(ring, block, Y.rank(j - 1), X.rank(j))
        offset += size
    return Homotopy(X, Y, comps)


def contraction(c: Complex, window: tuple[int, int] | None = None) -> Homotopy | None:
    """Null homotopy of the identity; exists iff the complex is contractible."""
    return null_homotopy_witness(ChainMap.identity(c), window)


# -- split exactness --------------------------------------------------


def split_exactness_check(c: Complex, window: tuple[int, int]) -> Verdict:
    """Homology vanishing, then projective cycles, then an assembled
    null homotopy of the identity built from the cycle splittings."""
    from .modules import is_projective

    lo, hi = window
    window_relative = not c.is_bounded
    for j in range(lo + 1, hi):
        h = homology(c, j)
        if not h.is_zero():
            return Verdict(False, "not_exact", {"degree": j, "homology": h},
                           window_relative)
    cycles: dict[int, CycleData] = {}
    sections: dict[int, Mat] = {}
    for j in range(lo + 1, hi):
        cd = cycle_module(c, j)
        cycles[j] = cd
        sec = is_projective(cd.module)
        if sec is None:
            return Verdict(False, "exact_not_split",
                           {"degree": j, "cycle": cd.module}, window_relative)
        sections[j] = sec.matrix
    # assemble the contraction: with Z^(j+1) projective the sequence
    # 0 -> Z^j -> C^j -> Z^(j+1) -> 0 splits; tau lifts the cycle
    # generators through d and rho retracts onto Z^j, and
    # s^j = tau_(j-1) rho_j satisfies d s + s d = id.
    inner_lo, inner_hi = lo + 2, hi - 2
    if window_relative and inner_hi < inner_lo:
        return Verdict(True, "split_exact", {"cycles": cycles}, True)
    comps: dict[int, Mat] = {}
    taus: dict[int, Mat] = {}
    for j in range(lo + 1, hi - 1):
        # tau_j : Z^(j+1) -> C^j with sigma-bar tau = id
        cd_next = cycles[j + 1]
        lift = solve_right(c.diff(j), cd_next.inclusion)
        if lift is None:
            return Verdict(False, "not_exact", {"degree": j + 1}, window_relative)
        taus[j] = lift @ sections[j + 1]
    if not window_relative:
        span = c.support()
        if span is None:
            return Verdict(True, "split_exact", {"homotopy": Homotopy(c, c, {})})
        clo, chi = span
        if clo <= lo + 1 or chi >= hi - 1:
            return Verdict(False, "window_too_small",
                           {"support": span, "window": window})
        for j in range(clo, chi + 1):
            cd = cycles[j]
            # rho_j : C^j -> Z^j with iota rho = id - tau sigma-bar
            sigma_bar = solve_right(cycles[j + 1].inclusion, c.diff(j)) \
                if (j + 1) in cycles else Mat.zero(c.ring, 0, c.rank(j))
            tau_mat = taus.get(j)
            if tau_mat is None:
                tau_mat = Mat.zero(c.ring, c.rank(j), sigma_bar.rows)
            complement = Mat.identity(c.ring, c.rank(j)) - tau_mat @ sigma_bar
            rho = solve_right(cd.inclusion, complement)
            if rho is None:
                return Verdict(False, "splitting_assembly_failed", {"degree": j})
            tau_prev = taus.get(j - 1)
            if tau_prev is None:
                tau_prev = Mat.zero(c.ring, c.rank(j - 1), cd.module.rank0)
            s = tau_prev @ rho
            if not s.is_zero():
                comps[j] = s
        hom = Homotopy(c, c, comps)
        ident = ChainMap.identity(c)
        if not hom.bounds(ident, None, clo - 1, chi + 1):
            return Verdict(False, "homotopy_identity_failed", {})
        return Verdict(True, "split_exact", {"homotopy": hom, "cycles": cycles})
    return Verdict(True, "split_exact", {"cycles": cycles}, True)
