"""The compact generator attached to a finitely presented module.

From a module M we form its dual M*, a projective resolution P of M*
by finite-rank frees in degrees <= 0 (with eventual periodicity
detected and recorded as a lazy tail), and the dual complex P* in
degrees >= 0.  The comparison map M -> P*^0 sends a generator of M to
its evaluation functional on the generators of M*; it extends the
double-dual map (modules.canonical_double_dual_map) and exhibits P* as a
projective replacement for M in the homotopy category.  A package is M
and the depth of P's search; M*, the comparison, P, its completeness
and P* are derived from them, each once.

Verification entry points check, the first and third inside a window:
  * the resolution property of P (homology M* in degree 0, zero below);
  * that dualizing twice returns P itself, component by component;
  * exactness of the Hom complex of cone(comparison) into a target
    complex, which is the quasi-isomorphism statement;
  * that homotopy classes of maps P* -> Q agree with H^0 Hom(M, Q)
    through the comparison map, and the suspension chain for M = A;
  * compatibility of homotopy classes with finite coproducts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .matrices import Mat, block_diag, kernel_right
from .modules import FPModule, ModuleMap, dual_data, modules_isomorphic
from .complexes import (Complex, PeriodicTail, dualize_complex, finite_coproduct,
                        first_difference, homology_data, suspension)
from .homspaces import free_terms, hom_fp_complex, hom_into_complex, induced_h0_map
from .verdicts import Verdict


@dataclass(frozen=True)
class GeneratorPackage:
    """M and the depth of P's search; the rest is derived once, on first read."""
    module: FPModule
    depth: int

    @cached_property
    def _dual_data(self) -> tuple[FPModule, Mat]:
        # (M*, K): the comparison M -> P*^0 is K, whose rows are M*'s generators
        # as functionals on M, the double-dual map read in M**'s generators
        return dual_data(self.module)

    @cached_property
    def _resolved(self) -> tuple[Complex, bool]:  # P, degrees <= 0, and whether it is complete
        return resolve_module(self.dual, self.depth)

    dual = property(lambda self: self._dual_data[0])
    comparison = dual_gens = property(lambda self: self._dual_data[1])
    resolution = property(lambda self: self._resolved[0])
    complete = property(lambda self: self._resolved[1])  # P exact in all degrees

    @cached_property
    def dual_complex(self) -> Complex:  # P*, degrees >= 0
        return dualize_complex(self.resolution)


def resolve_module(m: FPModule, depth: int = 24) -> tuple[Complex, bool]:
    """Free resolution of M in degrees <= 0 (H^0 = M, exact below).

    The resolution step is deterministic (each differential is the
    canonical kernel of the previous one), so over Z/n eventual
    periodicity shows up as a literal repetition of differential
    matrices and is recorded as a lazy tail; over Z and F_p the
    iteration reaches a zero kernel.  Returns (complex, complete):
    complete means exact in all degrees, by finiteness or periodicity.
    Each differential is the kernel of the one before and the tail
    repeats one of them, so shapes and d^2 = 0 hold unchecked.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ring = m.ring
    side = m.side
    if m.rank0 == 0:
        return Complex.zero(ring, side), True
    seq = [m.presentation]  # seq[j-1] is the differential P^-j -> P^-j+1
    seen = {m.presentation: 0}  # differential -> its index in seq
    complete = m.rank1 == 0
    tail = None
    while not complete and len(seq) < depth:
        nxt = kernel_right(seq[-1])
        if nxt.cols == 0:
            complete = True
            break
        seq.append(nxt)
        if nxt in seen:
            tail = PeriodicTail(-1, -(len(seq) - 1), len(seq) - 1 - seen[nxt])
            complete = True
        seen[nxt] = len(seq) - 1
    ranks = {0: m.rank0}
    diffs = {}
    for j, d in enumerate(seq, start=1):
        if d.cols:
            ranks[-j] = d.cols
        if d.rows and d.cols:
            diffs[-j] = d
    return Complex._trusted(ring, side, ranks, diffs, tail_below=tail), complete


def build_generator(m: FPModule, depth: int = 24) -> GeneratorPackage:
    """The package for M; depth bounds the resolution search.  P is
    resolved here, so a module or depth that cannot be resolved fails
    where the package is made, not in a later check."""
    pkg = GeneratorPackage(m, depth)
    pkg.resolution  # computes M* and P now
    return pkg


def _trusted_resolution_floor(pkg: GeneratorPackage) -> int | None:
    """Lowest degree at which the resolution's homology is meaningful,
    or None when every degree is (finite or periodic resolution)."""
    if pkg.complete:
        return None
    span = pkg.resolution.support()
    return span[0] + 1 if span else 0


def _reaches(pkg: GeneratorPackage, depth: int) -> bool:
    """P is complete, or its explicit terms reach `depth` degrees down."""
    return pkg.complete or (have := pkg.resolution.support()) is not None and -have[0] >= depth


def verify_resolution(pkg: GeneratorPackage, window: tuple[int, int] = (-6, 0)) -> Verdict:
    """P resolves M*: H^0(P) = M*, H^j(P) = 0 for j < 0, from the floor of a
    truncated resolution up (window_too_small wholly below it), all asked of P."""
    lo, hi = window
    hi = min(hi, 0)
    floor = _trusted_resolution_floor(pkg)
    window_relative = floor is not None and lo < floor
    if window_relative:
        lo = floor
        if lo > hi:
            return Verdict(False, "window_too_small", {"window": window, "floor": floor},
                           window_relative)
    h0 = homology_data(pkg.resolution, 0)[0]
    if not modules_isomorphic(h0, pkg.dual):
        return Verdict(False, "degree_zero_mismatch", {"computed": h0, "expected": pkg.dual},
                       window_relative)
    for j in range(lo, min(hi, -1) + 1):
        if not pkg.resolution.is_exact_at(j):
            return Verdict(False, "not_exact_below", {"degree": j}, window_relative)
    return Verdict(True, "quasi_isomorphism", {"window": (lo, hi)}, window_relative)


def double_dual_check(pkg: GeneratorPackage) -> Verdict:
    """P -> P** is the identity component by component.

    The dual convention carries no signs, so the canonical map is
    literally the identity matrix in every degree; the check verifies
    the double dual agrees with P degreewise, which makes each
    component an invertible (identity) matrix.
    """
    bad = first_difference(dualize_complex(pkg.dual_complex), pkg.resolution)
    if bad is not None:
        return Verdict(False, "double_dual_mismatch", {"degree": bad})
    return Verdict(True, "double_dual_identity", {})


def verify_generator_quasi_iso(pkg: GeneratorPackage, q: Complex,
                               window: tuple[int, int] = (-4, 4)) -> Verdict:
    """Exactness of Hom(cone(comparison), Q) in the degrees of the window.

    The cone has M in degree -1 and P* in degrees >= 0; its Hom
    complex into Q being exact says precomposition with the comparison
    map is a quasi-isomorphism Hom(P*, Q) -> Hom(M, Q).  The window
    bounds the degrees checked, and so the truncation of P* used.  A
    lower tail of Q is read only in the finitely many degrees the window
    reaches; an upper tail would need all of P*, and is refused.  A pass
    is window-relative unless the window covers every degree where Hom
    can be nonzero, which needs P complete without a tail and Q bounded.
    """
    lo, hi = window
    span = q.support()
    if span is None:
        return Verdict(True, "hom_exact", {"window": window, "note": "zero target"})
    if q.tail_above is not None:
        return Verdict(False, "unbounded_target", {})
    top = max(span[1] - lo + 2, 0)  # free degrees beyond this cannot hit Q inside the window
    if not _reaches(pkg, top):
        return Verdict(False, "window_too_small", {"needed_depth": top, "have": pkg.depth},
                       window_relative=True)
    terms, diffs = free_terms(pkg.dual_complex.restrict(0, top))
    terms[-1] = pkg.module
    if pkg.comparison.rows and pkg.comparison.cols:
        diffs[-1] = pkg.comparison
    sub = hom_fp_complex(terms, diffs, q)
    for n in range(lo, hi + 1):
        if not sub.is_exact_at(n):
            return Verdict(False, "hom_not_exact", {"degree": n})
    p = pkg.resolution  # the cone lives in [-1, top P*]: Hom^n = 0 off [min Q - top P*, max Q + 1]
    covered = (pkg.complete and p.tail_below is None and q.tail_below is None
               and lo <= span[0] + (p.support() or (0, 0))[0] and hi >= span[1] + 1)
    return Verdict(True, "hom_exact", {"window": window}, not covered)


def hom_classes(pkg: GeneratorPackage, q: Complex, shift: int = 0):
    """homology_data for chain maps S^shift P* -> Q modulo homotopy.

    Returns (H^0 data triple, the Hom complex); the source is the
    truncation of P* that can reach Q in Hom degrees -1 and 0, the only
    ones H^0 builds, suspended.  None when the package is incomplete and
    P does not reach top(Q) + |shift| + 4 degrees down.
    """
    span = q.support()
    top = (span[1] if span else 0) + abs(shift) + 2
    if not _reaches(pkg, top + 2):
        return None
    x = suspension(pkg.dual_complex.restrict(0, top), shift)
    sub = hom_fp_complex(*free_terms(x), q)
    return sub.homology_data(0), sub


def h0_hom_equivalence(pkg: GeneratorPackage, q: Complex) -> Verdict:
    """HomClasses(P*, Q) = H^0 Hom(M, Q) through the comparison map; Q
    may have a lower tail but not an upper one, as in the check above."""
    if q.tail_above is not None:
        return Verdict(False, "unbounded_target", {})
    classes = hom_classes(pkg, q)
    if classes is None:
        return Verdict(False, "window_too_small", {}, window_relative=True)
    src_data, src_sub = classes
    tgt_sub = hom_into_complex(pkg.module, q)
    tgt_data = tgt_sub.homology_data(0)

    def push(col: Mat) -> Mat:
        # precompose the block Hom(P*^0, Q^0) with the comparison
        # matrix; all other blocks die in Hom(M, Q^0)
        f0 = src_sub.split(0, col).get(0)
        return tgt_sub.join(0, {} if f0 is None else {0: f0 @ pkg.comparison})

    if src_data[0].rank0 == 0 and tgt_data[0].rank0 == 0:
        return Verdict(True, "h0_equivalence", {"note": "both zero"})
    f = induced_h0_map(src_data, tgt_data, push)
    if f is None:
        return Verdict(False, "comparison_does_not_descend", {})
    if not f.is_isomorphism():
        return Verdict(False, "h0_not_isomorphic",
                       {"source": src_data[0], "target": tgt_data[0]})
    return Verdict(True, "h0_equivalence", {"group": tgt_data[0]})


def suspension_homology_chain(pkg: GeneratorPackage, q: Complex,
                              shifts: range) -> Verdict:
    """HomClasses(S^i P*, Q) = H^(-i) Q for each i; meaningful when M
    is the ring itself, where P* is the ring in degree 0."""
    for i in shifts:
        classes = hom_classes(pkg, q, shift=i)
        if classes is None:
            return Verdict(False, "window_too_small", {}, window_relative=True)
        left, right = classes[0][0], homology_data(q, -i)[0]
        if not modules_isomorphic(left, right):
            return Verdict(False, "chain_mismatch",
                           {"shift": i, "left": left, "right": right})
    return Verdict(True, "suspension_chain", {"shifts": (shifts.start, shifts.stop - 1)})


def compactness_probe(pkg: GeneratorPackage, qs: list[Complex]) -> Verdict:
    """Finite-scale coproduct check: (+)_i HomClasses(P*, Q_i) maps
    isomorphically to HomClasses(P*, (+)_i Q_i).

    A finite probe of an infinite-coproduct statement; it can refute
    but never fully certify the infinite claim.
    """
    if not qs:
        return Verdict(True, "coproduct_respected", {"note": "empty family"})
    ring = pkg.module.ring
    total, injections = finite_coproduct(qs)
    classes = [hom_classes(pkg, x) for x in (total, *qs)]
    if None in classes:
        return Verdict(False, "window_too_small", {}, window_relative=True)
    (tgt_data, tgt_sub), *summands = classes
    summand_maps = []
    for idx, ((src_data, src_sub), inj) in enumerate(zip(summands, injections)):

        def push(col: Mat, src_sub=src_sub, inj=inj) -> Mat:
            return tgt_sub.join(0, {i: inj.component(i) @ f
                                    for i, f in src_sub.split(0, col).items()})

        f = induced_h0_map(src_data, tgt_data, push)
        if f is None:
            return Verdict(False, "injection_does_not_descend", {"index": idx})
        summand_maps.append((src_data[0], f))
    direct_sum = FPModule(ring, summand_maps[0][0].side if summand_maps else "left",
                          block_diag(ring, [m.presentation for m, _ in summand_maps]))
    matrix = Mat.zero(ring, tgt_data[0].rank0, 0)
    for _, f in summand_maps:
        matrix = matrix.hstack(f.matrix)
    canonical = ModuleMap(direct_sum, tgt_data[0], matrix)
    if not canonical.is_isomorphism():
        return Verdict(False, "coproduct_not_respected",
                       {"source": direct_sum, "target": tgt_data[0]})
    return Verdict(True, "coproduct_respected", {"family": len(qs)})
