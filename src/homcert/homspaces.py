"""Hom complexes whose source terms are finitely presented modules.

A map from M = coker(P : R^r1 -> R^r0) into a free module R^q is a
q x r0 matrix F with F P = 0, so Hom(M, R^q) sits inside the free
module of all q x r0 matrices as the kernel of vec(F) |-> vec(F P).
Stringing these together over the terms of a target complex Q gives a
complex of submodules of free modules; its homology is the honest Hom
homology, computed by complexes.Forms, the engine that serves complexes
too, through three hooks: the ambient rank, the generators of each term
and the restricted differential.  Cycles and boundaries are generating
columns of a common ambient free module, so each Hom question is one
solve against the boundaries: exactness, a preimage of given cycles
(the flatness lift), or the coordinates of pushed cycles
(induced_h0_map).  Each degree's restricted differential is kept
(Forms.matrix) and eliminated once, and the homology module, where one
is wanted, is the subquotient presentation of cycles over boundaries.
No degree window is chosen: each degree's layout, generators and
restricted differential are built the first time a caller reads them.
An ambient differential is built on the way to its restriction and not
kept; it has only two kinds of block, I (x) d_Q and t^T (x) I, written
entry by entry into one list.  A presented term M = coker(P)
contributes the generators K^T of Hom(M, R), the kernel of P^T
(`FPModule.functionals`), eliminated once per module, its dual included.

The source may itself be a bounded complex of finitely presented
modules (differentials given on generators); free terms are the
special case of empty presentations.  This is the library's only Hom
complex construction: it serves Hom(P*, Q) for the homotopy classes of
the compact generator as well as Hom(M, Q) and the mapping cone of a
module map into a free complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrices import Mat, MatrixError, block_diag, check_cells, solve_right
from .modules import FPModule, ModuleMap
from .complexes import Complex, Forms


@dataclass(frozen=True)
class SubComplex(Forms):
    """Hom(X, Q), a complexes.Forms: the degree-n term is the span of
    gens_at(n) in an ambient free module, and the differential is
    restricted from ambient_diff(n).  Each degree's layout, generators
    and restricted differential are built on first use and cached."""

    terms: dict[int, FPModule]  # source term i in degree i, in increasing i
    diffs: dict[int, Mat]  # diffs[i]: term i -> term i+1, on generators
    q: Complex
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def layout(self, n: int) -> tuple[tuple[int, int, int], ...]:
        """(i, r0, qr) per source term i with a nonzero block
        Hom(R^r0, Q^(i+n)) of the degree-n ambient module, qr x r0
        matrices vectorized column-major, in increasing i."""
        key = ("layout", n)
        if key not in self._cache:
            self._cache[key] = tuple((i, m.rank0, qr) for i, m in self.terms.items()
                                     if m.rank0 and (qr := self.q.rank(i + n)))
        return self._cache[key]

    def ambient_rank(self, n: int) -> int:
        return sum(r0 * qr for (_, r0, qr) in self.layout(n))

    def split(self, n: int, col: Mat) -> dict[int, Mat]:
        """Cut a degree-n ambient column into its blocks, keyed by the
        source degree i, each as a qr x r0 matrix."""
        blocks = {}
        offset = 0
        for (i, r0, qr) in self.layout(n):
            size = r0 * qr
            piece = col.submatrix(range(offset, offset + size), [0])
            blocks[i] = Mat.unvec(self.q.ring, piece, qr, r0)
            offset += size
        return blocks

    def join(self, n: int, blocks: dict[int, Mat]) -> Mat:
        """Inverse of split: blocks missing from the dict are zero, and
        blocks outside the degree-n layout are dropped."""
        entries: list[int] = []
        for (i, r0, qr) in self.layout(n):
            block = blocks.get(i)
            entries.extend(block.vec().entries if block is not None else (0,) * (r0 * qr))
        return Mat(self.q.ring, len(entries), 1, tuple(entries))

    def gens_at(self, n: int) -> Mat | None:
        """Generators of the degree-n term as ambient columns, one block
        of _term_gens per layout entry; None when every term of the
        layout is free, so the term is the whole ambient module.  A
        presented term's functionals (its generators of Hom(M, R)) are
        eliminated once per module, whatever degrees the term appears in."""
        key = ("gens", n)
        if key not in self._cache:
            layout = self.layout(n)
            self._cache[key] = None if all(self.terms[i].rank1 == 0 for (i, _, _) in layout) \
                else block_diag(self.q.ring, [self._term_gens(i, qr) for (i, _, qr) in layout])
        return self._cache[key]

    def _term_gens(self, i: int, qr: int) -> Mat:
        """Generators of Hom(M, R^q), M = terms[i] and q = qr, as vectorized
        q x rank0 matrices.  Hom(M, R^q) = Hom(M, R)^q: the rows of a map F
        are functionals on M, so F = C K for the generators K of M* and
        vec(C K) = (K^T (x) I_q) vec(C), where K^T = M.functionals is the
        kernel of P^T."""
        m = self.terms[i]
        if m.rank1 == 0:
            return Mat.identity(self.q.ring, qr * m.rank0)
        k = m.functionals
        return k if qr == 1 else k.kron(Mat.identity(self.q.ring, qr))

    def ambient_diff(self, n: int) -> Mat:
        """The ambient map from degree n to n+1, with the Koszul sign
        d(f) = d_Q f - (-1)^n f d, written straight into one entry list:
        block (i, i) is I_r0 (x) d_Q^(i+n), r0 copies of d_Q down the
        diagonal, and block (i - 1, i) is -(-1)^n t^T (x) I_qr for the
        source differential t = diffs[i - 1], each entry on the diagonal
        of a qr x qr sub-block.  One too large for memory is refused before
        it is allocated (`check_cells`), as gens_at's generators are.  Not
        cached: matrix(n) keeps the restriction whose elimination is read."""
        rows, cols = self.ambient_rank(n + 1), self.ambient_rank(n)
        check_cells(rows, cols, f"the Hom differential in degree {n}")
        mod, sign = self.q.ring.modulus, 1 if n % 2 else -1
        top, r = {}, 0  # first row of each target block
        for (i, r0, qr) in self.layout(n + 1):
            top[i], r = r, r + r0 * qr
        ent = [0] * (rows * cols)
        c0 = 0
        for (i, r0, qr) in self.layout(n):
            if i in top and not (dq := self.q.diff(i + n)).is_zero():  # I_r0 (x) d_Q
                e, h = dq.entries, dq.rows
                for a in range(r0):
                    for k in range(h):
                        at = (top[i] + a * h + k) * cols + c0 + a * qr
                        ent[at:at + qr] = e[k * qr:(k + 1) * qr]
            t = self.diffs.get(i - 1)
            if i - 1 in top and t is not None:  # sign * t^T (x) I_qr
                for b in range(r0):
                    for a in range(t.cols):
                        if v := t.entries[b * t.cols + a]:
                            at = (top[i - 1] + a * qr) * cols + c0 + b * qr
                            ent[at:at + qr * (cols + 1):cols + 1] = \
                                [sign * v if mod is None else sign * v % mod] * qr
            c0 += r0 * qr
        return Mat._trusted(self.q.ring, rows, cols, tuple(ent))

    def restricted(self, n: int) -> Mat:
        """ambient_diff(n) @ gens_at(n), the differential on the term's generators."""
        u = self.gens_at(n)
        return self.ambient_diff(n) if u is None else self.ambient_diff(n) @ u


def free_terms(x: Complex) -> tuple[dict[int, FPModule], dict[int, Mat]]:
    """A bounded free complex as Hom-source terms and differentials."""
    terms = {j: FPModule.free(x.ring, x.side, r) for j, r in x.ranks.items()}
    return terms, dict(x.diffs)


def hom_fp_complex(terms: dict[int, FPModule], diffs: dict[int, Mat],
                   q: Complex) -> SubComplex:
    """Total Hom complex of a bounded complex of f.p. modules into Q.

    terms[i] sits in degree i; diffs[i] acts on generators, sending
    term i into term i+1 (and must carry relations into relations).
    Koszul sign as for free Hom complexes: d(f) = d_Q f - (-1)^n f d.
    Nothing is built here: every degree is built when first read.
    """
    for x in [*terms.values(), *diffs.values()]:
        if x.ring != q.ring:
            raise MatrixError("Hom needs source and target over the same ring")
    for i, t in diffs.items():
        shape = tuple(terms[j].rank0 if j in terms else 0 for j in (i + 1, i))
        if (t.rows, t.cols) != shape:
            raise MatrixError(f"the source differential in degree {i} is {t.rows}x{t.cols}, "
                              f"expected {shape[0]}x{shape[1]}")
    return SubComplex(dict(sorted(terms.items())), diffs, q)


def hom_into_complex(m: FPModule, q: Complex) -> SubComplex:
    """Hom(M, Q) with M placed in degree 0."""
    return hom_fp_complex({0: m}, {}, q)


def induced_h0_map(src: tuple[FPModule, Mat, Mat], tgt: tuple[FPModule, Mat, Mat],
                   push) -> ModuleMap | None:
    """The module map on homology induced by an ambient pushforward.

    src and tgt are homology_data triples; push maps an ambient column
    of the source degree to an ambient column of the target degree and
    must carry cycles to cycles and boundaries to boundaries.  All
    pushed cycles are expressed in the target's cycles and boundaries
    by one solve, whose top block (the cycle coordinates) is the map.
    Returns None when some pushed cycle is not expressible (push does
    not descend).
    """
    s_mod, s_cycles, _ = src
    t_mod, t_cycles, t_bounds = tgt
    cols = [push(s_cycles.submatrix(range(s_cycles.rows), [c])).entries
            for c in range(s_cycles.cols)]
    pushed = Mat(s_mod.ring, t_cycles.rows, len(cols),
                 tuple(col[r] for r in range(t_cycles.rows) for col in cols))
    x = solve_right(t_cycles.hstack(t_bounds), pushed)
    if x is None:
        return None
    return ModuleMap(s_mod, t_mod, x.submatrix(range(t_cycles.cols), range(s_cycles.cols)))
