"""Duality on complexes of frees and the build decomposition.

Dualizing a complex of finite-rank frees twice returns the original
complex on the nose under this library's sign-free convention, so the
canonical double-dual chain map has identity components; the roundtrip
check verifies this degreewise together with contravariance on test
maps.

A free resolution Q of a module (degrees <= 0) decomposes as an
iterated cone: level k splits off Q^-2k and Q^-2k-1 as single-free
leaves and glues them to level k + 1, the double suspension of a free
resolution of the cycle module Z^-2k-1 Q.  Every level reads its ranks
and differentials from Q itself, so no intermediate complex is built.
The decomposition reproduces Q exactly (not merely up to homotopy), so
the rebuild witnesses are identities.  Over rings where resolutions do
not terminate Q is periodic past a preperiod, and so are its levels:
the tree stops at the first level k0 that level k0 + q repeats and
closes a loop back to it, so it is finite and independent of any
depth.  A bounded complex deeper than the declared depth, or a loop
that would close deeper than MAX_LEVELS, ends in a residual leaf.
Either way the rebuild is compared in every degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

from .matrices import Mat, MatrixError
from .complexes import (ChainMap, ChainMapError, Complex, ComplexError, PeriodicTail,
                        dualize_complex, first_difference, suspension, twisted_sum)
from .verdicts import Verdict


# Build trees much deeper than this many levels overflow Python's
# recursion limit when they are evaluated or written (170 levels do).
MAX_LEVELS = 100


class LoopError(ComplexError):
    """A loop's body does not build the periodic extension of its band;
    `degree` is the first degree where the two differ."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


def dualize_chain_map(f: ChainMap) -> ChainMap:
    """f*: Y* -> X*, the transpose of each nonzero component f^j in
    degree -j."""
    return ChainMap(dualize_complex(f.target), dualize_complex(f.source),
                    {-j: m.transpose() for j, m in f.components.items() if not m.is_zero()})


def duality_roundtrip_check(g: Complex, test_map: ChainMap | None = None) -> Verdict:
    """G** = G and, optionally, contravariance on a test map, each
    checked in every degree."""
    bad = first_difference(dualize_complex(dualize_complex(g)), g)
    if bad is not None:
        return Verdict(False, "double_dual_mismatch", {"degree": bad})
    if test_map is not None:
        once = dualize_chain_map(test_map)
        if not once.commutes():
            return Verdict(False, "dual_map_not_chain_map", {})
        twice = dualize_chain_map(once)
        for j in sorted(twice.components.keys() | test_map.components.keys()):
            if twice.component(j) != test_map.component(j):
                return Verdict(False, "dual_not_involutive", {"degree": j})
    return Verdict(True, "roundtrip_identity", {})


# -- build trees ------------------------------------------------------


@dataclass(frozen=True)
class BuildTree:
    """kind: leaf | cone | susp | loop | back.

    target: the complex the tree claims to build; only the root carries
      one, since every inner node's complex is built from its children.
    leaf: payload is the complex itself (a single free, the zero
      complex, or a residual leaf: the rest of a complex, tail kept).
    susp: shift + one child.
    cone: two children (source, target) and attaching components; the
      node evaluates to cone(ChainMap(source, target, components)).
    loop: one child, its body: a cone whose chain of sources (through
      susp and cone nodes) ends in a back node, the only one in the body.
    back: no children; it stands for the loop above it again, a period
      lower, where the period is the shift from the loop down to it.  A
      loop is the complex X its body builds on X itself: periodic below
      its top.  The tree holds no Python cycle, so a walk over the
      children ends.
    evaluate is one post-order pass that builds each node once, with
    every shift pushed down to the leaves.
    """

    kind: str
    target: Complex | None = None
    payload: Complex | None = None
    shift: int = 0
    children: tuple["BuildTree", ...] = ()
    components: dict[int, Mat] | None = None

    @property
    def residual(self) -> bool:
        """A leaf with a tail or more than one nonzero term."""
        c = self.payload
        return self.kind == "leaf" and (not c.is_bounded or sum(map(bool, c.ranks.values())) > 1)

    def evaluate(self, shift: int = 0, head: tuple[Complex, int] | None = None) -> Complex:
        """S^shift of this node's complex, built once from its children.

        Shifts are pushed to the leaves: a susp node adds its shift, and
        a cone node uses S^i cone(f) = cone((-1)^i S^i f), the twisted
        sum of S^(i+1) of its source and S^i of its target by
        g^(j-1-i) = (-1)^i f^j.  Above the leaves no differential is
        negated or re-indexed.  twisted_sum checks that a cone node's
        components form a chain map; its ChainMapError names the failing
        degree of the shifted cone, so a degree of the root's complex.

        A cone node's complex is a twisted sum, marked with its form, so
        the cone above it copies it and recomputes only the degrees next
        to its other child: the differentials read and formed are linear
        in the degrees of the tree, not in depth times degrees.  Only a
        dict copy per cone node still grows with the lower level.

        A loop is expanded once.  Its body's target, the top of the
        loop's complex, is built first, and the back node evaluates to it
        a period lower (head: that complex and the shift it was built
        at).  That is all the glue across the back edge meets, so
        twisted_sum checks that glue as it checks every other.  The
        loop's complex is the body's complex from the top down one period,
        with a lower tail repeating that band; where the body's complex
        differs from it, the loop does not close (LoopError).  A loop
        body that is not a cone ending in a back node, or a back node
        outside a loop, is not a build tree (ValueError).
        """
        if self.kind == "leaf":
            return suspension(self.payload, shift) if shift else self.payload
        if self.kind == "susp":
            return self.children[0].evaluate(shift + self.shift, head)
        if self.kind == "cone":
            return self._cone(self.children[0].evaluate(shift + 1, head),
                              self.children[1].evaluate(shift, head), shift)
        if self.kind == "back" and head is not None:
            top, at = head
            return suspension(top, shift - at)
        if self.kind == "loop":
            return self._loop(shift)
        raise ValueError(f"cannot evaluate node kind {self.kind!r} here")

    def _cone(self, src: Complex, tgt: Complex, shift: int) -> Complex:
        return twisted_sum(src, tgt, {j - 1 - shift: m.scale(-1) if shift % 2 else m
                                      for j, m in (self.components or {}).items()})

    def _loop(self, shift: int) -> Complex:
        body, period = self.children[0], 0
        node = body
        while node.kind in ("cone", "susp"):  # down the sources to the back node
            period += node.shift if node.kind == "susp" else 1
            node = node.children[0]
        if body.kind != "cone" or node.kind != "back":
            raise ValueError("a loop's body must be a cone whose sources end in a back node")
        top = body.children[1].evaluate(shift)
        built = body._cone(body.children[0].evaluate(shift + 1, (top, shift)), top, shift)
        lo = -shift - period
        band = built.restrict(lo, -shift)
        x = Complex._trusted(built.ring, built.side, band.ranks, band.diffs,
                             PeriodicTail(-1, lo, period), sum_form=True)
        # x is built's band; below it built holds the copy of the target
        # the back node gave, which x must repeat, and above it nothing
        span = built.support() or (lo, -shift)
        bad = next((j for j in range(min(span[0], lo - 1), lo)
                    if x.rank(j) != built.rank(j) or x.diff(j) != built.diff(j)),
                   span[1] if span[1] > -shift else None)
        if bad is not None:
            raise LoopError(f"loop does not close: its body and its periodic extension "
                            f"differ in degree {bad}", bad)
        return x

    def leaves(self) -> Iterator["BuildTree"]:
        """The leaves from left to right, in one walk over the tree."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.kind == "leaf":
                yield node
            else:
                stack.extend(reversed(node.children))

    def free_leaf_count(self) -> int:
        return sum(1 for leaf in self.leaves()
                   if not leaf.residual and leaf.payload.support() is not None)

    def has_residual(self) -> bool:
        return any(leaf.residual for leaf in self.leaves())


def _leaf(c: Complex) -> BuildTree:
    return BuildTree("leaf", payload=c)


def decompose_resolution(q: Complex, depth: int = 8) -> BuildTree:
    """Cone tree over single-free leaves that evaluates back to Q.

    Level k splits off Q^-2k and Q^-2k-1 as its top cone and glues it
    to level k + 1, the double desuspension of the part of Q below,
    which is again a free resolution (of the cycle module Z^-2k-1 Q).
    Every level reads its ranks and differentials straight from Q.

    Level k is built from Q from degree -2k down only.  So when Q has a
    lower tail of period p, level k + q is level k again, q = lcm(p, 2)/2,
    as soon as Q from -2k down repeats with shift 2q, which it does below
    Q's explicit entries.  The tree stops at the first such level k0: a
    loop over levels k0 .. k0 + q - 1 whose back node stands for level
    k0 + q, so depth plays no part.  A bounded Q stops after depth
    levels, and a Q whose loop would end deeper than MAX_LEVELS levels
    stops after MAX_LEVELS; a leftover is recorded as a residual leaf,
    the part of Q from that level down (Complex.below, which keeps Q's
    lower tail).  The root's target is Q, or the payload when the root
    is itself a leaf.
    """
    ring, side = q.ring, q.side
    span = q.support()
    if span is None:
        zero = Complex.zero(ring, side)
        return BuildTree("leaf", target=zero, payload=zero)
    if span[1] > 0 or q.tail_above is not None:
        raise MatrixError("resolution must live in degrees <= 0")
    bounded, lo = q.is_bounded, span[0]
    # the levels before a residual leaf, and the first and last level of a loop
    stop, loop_at, end = depth, None, None
    if not bounded:
        # Q repeats with shift turn (2q, one turn of the loop) below the
        # lowest degree where its term or the differential into it does
        # not, which is above floor: below its explicit entries and
        # threshold Q repeats with its period
        turn = math.lcm(q.tail_below.period, 2)
        floor = min(q.tail_below.threshold, *q.ranks, *q.diffs) - turn
        lowest = min((j for j in range(floor, 1) if q.rank(j) != q.rank(j - turn)
                      or q.diff(j - 1) != q.diff(j - 1 - turn)), default=1)
        loop_at = (2 - lowest) // 2  # the first level whose top degree is below it
        end = loop_at + turn // 2
        stop = MAX_LEVELS
        if end > stop:  # too deep a loop: unroll, and the residual leaf keeps the tail
            loop_at = end = None
    levels = []  # (top cone, map glueing the level below to it) per level
    k = 0
    while k != end:
        top_degree = -2 * k
        if bounded and lo == top_degree or k >= stop:
            # the rest of Q from this level down: a single free, or what
            # the level limit leaves over, as a residual leaf
            rest = q if k == 0 else suspension(q.below(top_degree), top_degree)
            bottom = _leaf(rest)
            break
        r0, r1 = q.rank(top_degree), q.rank(top_degree - 1)
        # Complex(ring, side, {0: r}, {}) without its checks, which Q's
        # ring, side and ranks have passed
        top = BuildTree(
            "cone",
            children=(_leaf(Complex._trusted(ring, side, {0: r1}, {})),
                      _leaf(Complex._trusted(ring, side, {0: r0}, {}))),
            components={0: q.diff(top_degree - 1)} if r0 and r1 else {})
        if bounded and lo > top_degree - 2:
            bottom = top
            break
        levels.append((top, q.diff(top_degree - 2)))
        k += 1
    else:
        bottom = BuildTree("back")
    tree = bottom
    for k in reversed(range(len(levels))):
        top, glue = levels[k]
        # (S^i C)^j = C^(j+i): shift 2 places the lower level's degree 0 at -2
        lower = BuildTree("susp", shift=2, children=(tree,))
        tree = BuildTree(
            "cone",
            children=(BuildTree("susp", shift=-1, children=(lower,)), top),
            components={-1: glue} if glue.rows and glue.cols else {})
        if k == loop_at:
            tree = BuildTree("loop", children=(tree,))
    return replace(tree, target=tree.payload if tree.kind == "leaf" else q)


def rebuild_verify(tree: BuildTree) -> Verdict:
    """Evaluate the tree once and compare it with its claimed target.

    The single pass of BuildTree.evaluate checks the attaching map of
    every cone node, at any depth, before building that cone; a failure
    names the degree of the target where d^2 of the built complex would
    not vanish.  The decomposition reproduces the target exactly, so the
    homotopy equivalence witness is the identity pair with zero
    homotopies.  The built complex and the target are compared in every
    degree, tails included; a loop that does not close is a mismatch in
    the first degree where it differs from its periodic extension.
    """
    try:
        built = tree.evaluate()
    except ChainMapError as exc:
        return Verdict(False, "attaching_map_not_chain_map", {"degree": exc.degree})
    except LoopError as exc:
        return Verdict(False, "rebuild_mismatch", {"degree": exc.degree})
    bad = first_difference(built, tree.target)
    if bad is not None:
        return Verdict(False, "rebuild_mismatch", {"degree": bad})
    return Verdict(True, "rebuilt_identically", {"free_leaves": tree.free_leaf_count()})
