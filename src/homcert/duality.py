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
the rebuild witnesses are identities; over rings where resolutions do
not terminate the levels stop at a declared depth with a residual leaf
that keeps Q's periodic tail, so the rebuild is compared in every degree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .matrices import Mat, MatrixError
from .complexes import (ChainMap, ChainMapError, Complex, dualize_complex,
                        first_difference, suspension, twisted_sum)
from .verdicts import Verdict


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
    """kind: leaf | cone | susp.

    target: the complex the tree claims to build; only the root carries
      one, since every inner node's complex is built from its children.
    leaf: payload is the complex itself (a single free, the zero
      complex, or a residual leaf: the rest of a resolution, tail kept).
    susp: shift + one child.
    cone: two children (source, target) and attaching components; the
      node evaluates to cone(ChainMap(source, target, components)).
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

    def evaluate(self, shift: int = 0) -> Complex:
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
        """
        if self.kind == "leaf":
            return suspension(self.payload, shift) if shift else self.payload
        if self.kind == "susp":
            return self.children[0].evaluate(shift + self.shift)
        if self.kind == "cone":
            src = self.children[0].evaluate(shift + 1)
            tgt = self.children[1].evaluate(shift)
            g = {j - 1 - shift: m.scale(-1) if shift % 2 else m
                 for j, m in (self.components or {}).items()}
            return twisted_sum(src, tgt, g)
        raise ValueError(f"cannot evaluate node kind {self.kind!r}")

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
    Every level reads its ranks and differentials straight from Q, whose
    tails supply the periodic degrees.  depth bounds the number of
    levels; a leftover is recorded as a residual leaf, the part of Q
    from that level down (Complex.below, which keeps Q's lower tail), so
    the tree evaluates to Q in every degree.  The root's target is Q, or
    the payload when the root is itself a leaf.
    """
    ring, side = q.ring, q.side
    span = q.support()
    if span is None:
        zero = Complex.zero(ring, side)
        return BuildTree("leaf", target=zero, payload=zero)
    if span[1] > 0 or q.tail_above is not None:
        raise MatrixError("resolution must live in degrees <= 0")
    bounded, lo = q.is_bounded, span[0]
    levels = []  # (top cone, map glueing the level below to it) per level
    k = 0
    while True:
        top_degree = -2 * k
        single = bounded and lo == top_degree
        if single or k >= depth:
            # the rest of Q from this level down: a single free, or what
            # depth leaves over, as a residual leaf
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
    tree = bottom
    for top, glue in reversed(levels):
        # (S^i C)^j = C^(j+i): shift 2 places the lower level's degree 0 at -2
        lower = BuildTree("susp", shift=2, children=(tree,))
        tree = BuildTree(
            "cone",
            children=(BuildTree("susp", shift=-1, children=(lower,)), top),
            components={-1: glue} if glue.rows and glue.cols else {})
    return replace(tree, target=tree.payload if tree.kind == "leaf" else q)


def rebuild_verify(tree: BuildTree) -> Verdict:
    """Evaluate the tree once and compare it with its claimed target.

    The single pass of BuildTree.evaluate checks the attaching map of
    every cone node, at any depth, before building that cone; a failure
    names the degree of the target where d^2 of the built complex would
    not vanish.  The decomposition reproduces the target exactly, so the
    homotopy equivalence witness is the identity pair with zero
    homotopies.  The built complex and the target are compared in every
    degree, tails included.
    """
    try:
        built = tree.evaluate()
    except ChainMapError as exc:
        return Verdict(False, "attaching_map_not_chain_map", {"degree": exc.degree})
    bad = first_difference(built, tree.target)
    if bad is not None:
        return Verdict(False, "rebuild_mismatch", {"degree": bad})
    return Verdict(True, "rebuilt_identically", {"free_leaves": tree.free_leaf_count()})
