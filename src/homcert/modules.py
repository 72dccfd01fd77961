"""Finitely presented modules given by presentation matrices.

A module with presentation matrix P (rank0 x rank1) is the cokernel of
P : R^rank1 -> R^rank0; elements are generator-coordinate columns taken
modulo the column span of P.  The side tag ("left"/"right") is pure
bookkeeping over the supported commutative rings, but it is tracked so
dualization typechecks: duals live on the opposite side.

Dualizing a module M means Hom(M, R): its elements are the row vectors
x with x P = 0, so generators of the dual are the rows of K, where K^T
generates the kernel of P^T, and the relations among those rows are the
kernel of K^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .matrices import (Mat, MatrixError, colspan_canonical, kernel_right, smith_invariants,
                       solve_right)
from .rings import RingDescriptor


def opposite(side: str) -> str:
    if side == "left":
        return "right"
    if side == "right":
        return "left"
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True)
class FPModule:
    ring: RingDescriptor
    side: str
    presentation: Mat

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"bad side {self.side!r}")
        if self.presentation.ring != self.ring:
            raise MatrixError("presentation ring mismatch")

    @property
    def rank0(self) -> int:
        return self.presentation.rows

    @property
    def rank1(self) -> int:
        return self.presentation.cols

    @staticmethod
    def free(ring: RingDescriptor, side: str, rank: int) -> "FPModule":
        return FPModule(ring, side, Mat.zero(ring, rank, 0))

    @staticmethod
    def cyclic(ring: RingDescriptor, side: str, annihilator: int) -> "FPModule":
        """R / (a): e.g. cyclic(Z, 'left', 2) is Z/2 as a Z-module."""
        return FPModule(ring, side, Mat.from_rows(ring, [[annihilator]]))

    @cached_property
    def functionals(self) -> Mat:
        """K^T, the kernel of P^T (x P = 0 exactly when P^T x^T = 0): the generators
        of M* as functionals on M, eliminated once for M's dual and Hom terms."""
        return kernel_right(self.presentation.transpose())

    def is_zero(self) -> bool:
        return solve_right(self.presentation, Mat.identity(self.ring, self.rank0)) is not None

    def contains_in_relations(self, columns: Mat) -> bool:
        """True when every column lies in the span of the relations."""
        return solve_right(self.presentation, columns) is not None

    def abelian_invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion invariant factors) of the underlying group.

        A complete isomorphism invariant over all three supported rings:
        over Z/n and F_p the module structure is determined by the
        underlying abelian group together with the ring.
        """
        diag = smith_invariants(self.presentation)
        return self.rank0 - len(diag), tuple(d for d in diag if d != 1)


def modules_isomorphic(m1: FPModule, m2: FPModule) -> bool:
    """Same ring and side, and equal presentations or equal invariants."""
    if m1.ring != m2.ring or m1.side != m2.side:
        return False
    return m1.presentation == m2.presentation or \
        m1.abelian_invariants() == m2.abelian_invariants()


@dataclass(frozen=True)
class ModuleMap:
    source: FPModule
    target: FPModule
    matrix: Mat  # target.rank0 x source.rank0, acting on generator columns

    def __post_init__(self):
        if self.matrix.rows != self.target.rank0 or self.matrix.cols != self.source.rank0:
            raise MatrixError(
                f"map matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.rank0}x{self.source.rank0}"
            )
        if self.source.ring != self.target.ring:
            raise MatrixError("module map across different rings")

    @property
    def ring(self) -> RingDescriptor:
        return self.source.ring

    def is_well_defined(self) -> bool:
        image_of_relations = self.matrix @ self.source.presentation
        return self.target.contains_in_relations(image_of_relations)

    def is_isomorphism(self) -> bool:
        """Well defined, surjective and injective: [f | P_N] reaches every
        generator of N, and its kernel, read from the same elimination,
        projects into the relations of M."""
        if not self.is_well_defined():
            return False
        fp = self.matrix.hstack(self.target.presentation)
        if solve_right(fp, Mat.identity(self.ring, self.target.rank0)) is None:
            return False
        W = kernel_right(fp)
        return self.source.contains_in_relations(
            W.submatrix(range(self.source.rank0), range(W.cols)))


def subquotient_module(ring: RingDescriptor, side: str, gens: Mat, zeros: Mat) -> FPModule:
    """(span(gens) + span(zeros)) / span(zeros) inside an ambient free module.

    gens and zeros are column matrices with a common row count; the
    result is presented on the columns of gens.
    """
    if gens.rows != zeros.rows:
        raise MatrixError("ambient rank mismatch in subquotient")
    k = gens.cols
    W = kernel_right(gens.hstack(zeros))
    rel = W.submatrix(range(k), range(W.cols))
    return FPModule(ring, side, colspan_canonical(rel))


# -- duality -----------------------------------------------------------


def _dual_form(m: FPModule) -> tuple[FPModule, Mat, Mat]:
    """dual_data(M) and K^T = M.functionals, whose kept elimination is behind
    both: its kernel is the relations among the generators of M*, and its
    solves express functionals on M* in those generators."""
    kt = m.functionals  # rank0 x k
    return (FPModule(m.ring, opposite(m.side), colspan_canonical(kernel_right(kt))),
            kt.transpose(), kt)


def dual_data(m: FPModule) -> tuple[FPModule, Mat]:
    """(M*, K): K's rows are the generators of M* as functionals on M,
    and M* is presented by the kernel of K^T."""
    return _dual_form(m)[:2]


def dualize_map(f: ModuleMap) -> ModuleMap:
    """Hom(-, R) applied to f: M -> N gives f*: N* -> M*."""
    mstar, _, kt = _dual_form(f.source)
    nstar, K_n = dual_data(f.target)
    pulled = K_n @ f.matrix  # each row is a functional on M
    coeffs = solve_right(kt, pulled.transpose())
    if coeffs is None:
        raise MatrixError("dual functional not expressible; solver invariant broken")
    return ModuleMap(nstar, mstar, coeffs)


def canonical_double_dual_map(m: FPModule, mstar: FPModule, K: Mat) -> ModuleMap:
    """Evaluation map M -> M**, generator e_i |-> (phi |-> phi(e_i)),
    given (M*, K) = dual_data(M); an isomorphism over Z/n (reflexivity).  A
    generator package's comparison map factors through it."""
    mstarstar, _, k2t = _dual_form(mstar)
    # the i'th generator of M evaluates the dual generators to column i of
    # K, which is K2^T X for the generators K2 of M** and the map's matrix X
    coeffs = solve_right(k2t, K)
    if coeffs is None:
        raise MatrixError("double-dual evaluation not expressible; solver invariant broken")
    return ModuleMap(m, mstarstar, coeffs)


# -- projectivity and dimension ---------------------------------------


def is_projective(m: FPModule) -> ModuleMap | None:
    """A section of the generator cover R^rank0 -> M, or None.

    A section with matrix S needs S P = 0 (well-defined out of M) and
    S = I + P Y (splits the cover); substituting leaves the single
    linear system P Y P = -P in the entries of Y.
    """
    P = m.presentation
    sol = solve_right(P.transpose().kron(P), (-P).vec())  # vec(P Y P) = kron(P^T, P) vec(Y)
    if sol is None:
        return None
    Y = Mat.unvec(m.ring, sol, m.rank1, m.rank0)
    S = Mat.identity(m.ring, m.rank0) + P @ Y
    assert (S @ P).is_zero()
    return ModuleMap(m, FPModule.free(m.ring, m.side, m.rank0), S)
