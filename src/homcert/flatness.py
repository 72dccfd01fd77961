"""Equational flatness certificates and the cycle-projectivity collapse.

A relation sum_s a_s z_s = 0 in a module certifies as flat when there
are elements q_t and scalars a_st with z_s = sum_t a_st q_t and
sum_s a_s a_st = 0.  Over a free module such a certificate always
exists (columns of the kernel of the row a); for a cycle module Z^j of
an exact complex, the relation is first lifted through the surjection
sigma : Q^(j-1) -> Z^j, certified in the free term, and pushed back
down, exactly when the Hom-vanishing hypothesis H^j Hom(M, Q) = 0
holds for the module M spanned by the z's; the lift is a column of the
solve that decides that hypothesis in the Hom complex.

All certificates re-verify through an independent checker that only
multiplies matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Mat, MatrixError, colspan_canonical, kernel_right, solve_right
from .modules import FPModule
from .complexes import Complex, Forms, split_exactness_check
from .homspaces import hom_into_complex
from .rings import RingDescriptor
from .verdicts import Verdict


@dataclass(frozen=True)
class FlatRelation:
    """a: 1 x m row of scalars; z: ambient columns with Z a^T = 0."""

    ring: RingDescriptor
    a: Mat
    z: Mat

    def __post_init__(self):
        if self.a.rows != 1:
            raise MatrixError("relation row must be 1 x m")
        if self.z.cols != self.a.cols:
            raise MatrixError("relation needs one column of z per entry of a")
        if not (self.z @ self.a.transpose()).is_zero():
            raise MatrixError("relation sum a_s z_s = 0 does not hold")

    @property
    def length(self) -> int:
        return self.a.cols


@dataclass(frozen=True)
class FlatCertificate:
    ast: Mat  # m x n
    q: Mat  # ambient x n


@dataclass(frozen=True)
class EngineConfig:
    """Uniform projective-dimension bound for the collapse argument."""

    bound: int = 16

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be >= 0")

    @staticmethod
    def for_ring(ring: RingDescriptor) -> "EngineConfig":
        # Z is hereditary; Z/n and F_p are perfect, flats are projective
        if ring.kind == "Z":
            return EngineConfig(1)
        return EngineConfig(0)


def check_certificate(rel: FlatRelation, cert: FlatCertificate) -> bool:
    """Independent verification: matrix multiplication only."""
    if cert.ast.rows != rel.length or cert.q.cols != cert.ast.cols:
        return False
    if cert.q.rows != rel.z.rows:
        return False
    return (rel.z == cert.q @ cert.ast.transpose()) \
        and (rel.a @ cert.ast).is_zero()


def flat_certificate(rel: FlatRelation) -> FlatCertificate:
    """Certificate for a relation in a free module; always exists.

    The kernel columns of the row a serve as (a_st); each row of Z
    lies in that kernel, so the coefficients q solve by one lift.
    """
    k = kernel_right(rel.a)  # m x n
    y = solve_right(k, rel.z.transpose())
    if y is None:
        raise MatrixError("free-module certificate failed; solver invariant broken")
    cert = FlatCertificate(k, y.transpose())
    assert check_certificate(rel, cert)
    return cert


@dataclass(frozen=True)
class CycleCertificate:
    certificate: FlatCertificate
    lift: Mat  # images of the z generators in the term below
    preimages: Mat  # q before pushing through sigma


def cycle_flatness_probe(q: Complex, j: int, rel: FlatRelation) -> Verdict:
    """Certify a relation among cycles in Z^j of an exact complex.

    Pipeline: exactness at j; the Hom-vanishing hypothesis for the
    module M spanned by the z's; the free certificate in the term
    below; push-down.  Z is a degree-j cycle of Hom(M, Q), so the solve
    deciding H^j Hom(M, Q) = 0, with vec(Z) appended, lifts Z = d F to
    F in Hom(M, Q^(j-1)).  Failure of the hypothesis is reported with
    the non-vanishing Hom degree (the expected outcome for complexes
    not orthogonal to the generators).
    """
    ring = q.ring
    if rel.z.rows != q.rank(j):
        raise MatrixError("relation columns do not live in the degree-j term")
    if not (q.diff(j) @ rel.z).is_zero():
        return Verdict(False, "not_cycles", {"degree": j})
    if not Forms(q).is_exact_at(j):
        return Verdict(False, "not_exact", {"degree": j})
    # the module spanned by the z's, presented on them
    m = FPModule(ring, q.side, colspan_canonical(kernel_right(rel.z)))
    hom = hom_into_complex(m, q)
    cycles, _ = hom.cycles_and_boundaries(j)
    sol = hom.solve(j - 1, cycles.hstack(rel.z.vec()))
    if sol is None:
        return Verdict(False, "hom_hypothesis_fails", {"degree": j})
    y = sol.submatrix(range(sol.rows), [sol.cols - 1])
    u = hom.gens_at(j - 1)
    lift = hom.split(j - 1, y if u is None else u @ y).get(
        0, Mat.zero(ring, q.rank(j - 1), rel.length))
    free_cert = flat_certificate(FlatRelation(ring, rel.a, lift))
    final = FlatCertificate(free_cert.ast, q.diff(j - 1) @ free_cert.q)
    if not check_certificate(rel, final):
        return Verdict(False, "certificate_check_failed", {"degree": j})
    return Verdict(True, "certified",
                   {"certificate": CycleCertificate(final, lift, free_cert.q)})


def pd_bound_collapse(q: Complex, config: EngineConfig,
                      window: tuple[int, int] | None) -> Verdict:
    """Split exactness read through the projective-dimension bound.

    Dimension shifting along 0 -> Z^j -> Q^j -> ... -> Z^(j+N) -> 0
    forces pd Z^j <= 0 once pd Z^(j+N) <= N, so in an exact window at
    least N + 2 wide every cycle below hi - N is projective.  Everything
    but that width is one split-exactness check, whose witness (a null
    homotopy of the identity) is passed on.  A bounded q is decided in
    every degree, collapsed or not_exact, and reads no window, so it
    needs none and has no width to check.  On a tail the window must be
    that wide: the inner check reads it and tests its lowest cycle
    Z^(lo+1) alone, which lies below hi - N.
    """
    if not q.is_bounded and (width := window[1] - window[0]) < config.bound + 2:
        return Verdict(False, "window_too_narrow", {"width": width, "needed": config.bound + 2})
    inner = split_exactness_check(q, window)
    if inner.ok:
        return Verdict(True, "collapsed", inner.details, inner.window_relative)
    if inner.code == "not_exact":
        return Verdict(False, "not_exact", {"degree": inner.details["degree"]})
    return Verdict(False, "cycle_not_projective",
                   {"degree": inner.details["degree"], "cycle": inner.details["cycle"]})
