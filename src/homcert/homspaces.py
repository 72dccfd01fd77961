"""Hom complexes whose source terms are finitely presented modules.

A map from M = coker(P : R^r1 -> R^r0) into a free module R^q is a
q x r0 matrix F with F P = 0, so Hom(M, R^q) sits inside the free
module of all q x r0 matrices as the kernel of vec(F) |-> vec(F P).
Stringing these together over the terms of a target complex Q gives a
complex of submodules of free modules; its homology is the honest Hom
homology.  Cycles and boundaries are generating columns of a common
ambient free module: exactness in a degree is one solve, every cycle a
combination of boundaries, and the homology module, where one is
wanted, is their subquotient presentation.

The source may itself be a bounded complex of finitely presented
modules (differentials given on generators); free terms are the
special case of empty presentations.  This is the library's only Hom
complex construction: it serves Hom(P*, Q) for the homotopy classes of
the compact generator as well as Hom(M, Q) and the mapping cone of a
module map into a free complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrices import (SIZE_LIMIT, Mat, MatrixError, assemble_blocks, block_diag,
    kernel_left, kernel_right, solve_right)
from .modules import FPModule, ModuleMap, subquotient_module
from .complexes import Complex
from .rings import RingDescriptor


@dataclass(frozen=True)
class SubComplex:
    """A complex whose degree-n term is the span of given columns
    inside an ambient free module, with differentials restricted from
    ambient maps that preserve the spans."""

    ring: RingDescriptor
    side: str
    ambient_ranks: dict[int, int]
    ambient_diffs: dict[int, Mat]  # ambient_ranks[n+1] x ambient_ranks[n]
    # layouts[n] lists (i, r0, qr): the block Hom(R^r0, Q^(i+n)) of the
    # degree-n ambient module for source term i, qr x r0 matrices
    # vectorized column-major, in increasing i
    layouts: dict[int, list[tuple[int, int, int]]]
    terms: dict[int, FPModule]  # the source terms, whose Hom modules gens_at spans
    _gens: dict[int, Mat] = field(default_factory=dict, compare=False, repr=False)

    def ambient_rank(self, n: int) -> int:
        return self.ambient_ranks.get(n, 0)

    def split(self, n: int, col: Mat) -> dict[int, Mat]:
        """Cut a degree-n ambient column into its blocks, keyed by the
        source degree i, each as a qr x r0 matrix."""
        blocks = {}
        offset = 0
        for (i, r0, qr) in self.layouts.get(n, []):
            size = r0 * qr
            piece = col.submatrix(range(offset, offset + size), [0])
            blocks[i] = Mat.unvec(self.ring, piece, qr, r0)
            offset += size
        return blocks

    def join(self, n: int, blocks: dict[int, Mat]) -> Mat:
        """Inverse of split: blocks missing from the dict are zero, and
        blocks outside the degree-n layout are dropped."""
        entries: list[int] = []
        for (i, r0, qr) in self.layouts.get(n, []):
            block = blocks.get(i)
            entries.extend(block.vec().entries if block is not None else (0,) * (r0 * qr))
        return Mat.column(self.ring, entries)

    def gens_at(self, n: int) -> Mat:
        """Generators of the degree-n term, ambient_rank(n) x (number of
        generators): one block of hom_term_gens per layout entry, built
        on first use, since solving in the ambient module never reads them."""
        g = self._gens.get(n)
        if g is None:
            g = self._gens[n] = block_diag(self.ring, [hom_term_gens(self.terms[i], qr)
                                                      for (i, _, qr) in self.layouts.get(n, [])])
        return g

    def ambient_diff(self, n: int) -> Mat:
        if n in self.ambient_diffs:
            return self.ambient_diffs[n]
        return Mat.zero(self.ring, self.ambient_rank(n + 1), self.ambient_rank(n))

    def _cycles_and_boundaries(self, n: int) -> tuple[Mat, Mat]:
        """(cycle generator columns, boundary generator columns), both in
        the degree-n ambient free module."""
        u = self.gens_at(n)
        cycles = u @ kernel_right(self.ambient_diff(n) @ u)
        return cycles, self.ambient_diff(n - 1) @ self.gens_at(n - 1)

    def homology_data(self, n: int) -> tuple[FPModule, Mat, Mat]:
        """(H^n, cycle generator columns, boundary generator columns),
        both sets of columns in the degree-n ambient free module."""
        cycles, boundaries = self._cycles_and_boundaries(n)
        return subquotient_module(self.ring, self.side, cycles, boundaries), cycles, boundaries

    def is_exact_at(self, n: int) -> bool:
        """H^n = 0: every cycle is a boundary, decided by one solve as in
        complexes.is_exact_at, without building H^n."""
        cycles, boundaries = self._cycles_and_boundaries(n)
        return solve_right(boundaries, cycles) is not None


def free_terms(x: Complex) -> tuple[dict[int, FPModule], dict[int, Mat]]:
    """A bounded free complex as Hom-source terms and differentials."""
    terms = {j: FPModule.free(x.ring, x.side, r) for j, r in x.ranks.items()}
    return terms, dict(x.diffs)


def hom_term_gens(m: FPModule, target_rank: int) -> Mat:
    """Generators of Hom(M, R^q) inside the free module of q x rank0
    matrices, columns being vectorized matrices.

    Hom(M, R^q) = Hom(M, R)^q: the rows of a map F are functionals on
    M, so F = C K for the generators K of M* and vec(C K) = (K^T (x) I_q)
    vec(C).
    """
    ring = m.ring
    if m.rank1 == 0:
        return Mat.identity(ring, target_rank * m.rank0)
    return kernel_left(m.presentation).transpose().kron(Mat.identity(ring, target_rank))


def hom_fp_complex(terms: dict[int, FPModule], diffs: dict[int, Mat],
                   q: Complex, window: tuple[int, int]) -> SubComplex:
    """Total Hom complex of a bounded complex of f.p. modules into Q.

    terms[i] sits in degree i; diffs[i] acts on generators, sending
    term i into term i+1 (and must carry relations into relations).
    Koszul sign as for free Hom complexes: d(f) = d_Q f - (-1)^n f d.
    An ambient differential of more than SIZE_LIMIT**2 cells is refused
    (MatrixError) before any block is built.
    """
    if not terms:
        return SubComplex(q.ring, q.side, {}, {}, {}, terms)
    ring = q.ring
    for m in terms.values():
        if m.ring != ring:
            raise MatrixError("Hom needs source and target over the same ring")
    lo, hi = window
    span = (min(terms), max(terms))
    layouts: dict[int, list[tuple[int, int, int]]] = {}
    ambient_ranks: dict[int, int] = {}
    for n in range(lo, hi + 2):
        layout = []
        for i in range(span[0], span[1] + 1):
            if i not in terms:
                continue
            r0, qr = terms[i].rank0, q.rank(i + n)
            if r0 and qr:
                layout.append((i, r0, qr))
        layouts[n] = layout
        amb = sum(r0 * qr for (_, r0, qr) in layout)
        if amb:
            ambient_ranks[n] = amb
    # refused before any block is built: a larger ambient differential
    # does not fit in memory as a dense matrix
    for n in range(lo, hi + 1):
        cells = ambient_ranks.get(n, 0) * ambient_ranks.get(n + 1, 0)
        if cells > SIZE_LIMIT ** 2:
            raise MatrixError(f"the Hom differential in degree {n} would have {cells} "
                              f"cells, more than {SIZE_LIMIT ** 2}")
    ambient_diffs: dict[int, Mat] = {}
    for n in range(lo, hi + 1):
        if not ambient_ranks.get(n) or not ambient_ranks.get(n + 1):
            continue
        src = layouts[n]
        tgt = layouts[n + 1]
        tgt_index = {i: pos for pos, (i, _, _) in enumerate(tgt)}
        grid: list[list[Mat | None]] = [[None] * len(src) for _ in tgt]
        sgn = -1 if n % 2 else 1
        for spos, (i, r0, qr) in enumerate(src):
            if i in tgt_index:
                dq = q.diff(i + n)
                if not dq.is_zero():
                    grid[tgt_index[i]][spos] = Mat.identity(ring, r0).kron(dq)
            if (i - 1) in tgt_index:
                t = diffs.get(i - 1)
                if t is not None and not t.is_zero():
                    m = t.transpose().kron(Mat.identity(ring, qr)).scale(-sgn)
                    prev = grid[tgt_index[i - 1]][spos]
                    grid[tgt_index[i - 1]][spos] = m if prev is None else prev + m
        ambient_diffs[n] = assemble_blocks(
            ring, grid,
            [r0 * qr for (_, r0, qr) in tgt],
            [r0 * qr for (_, r0, qr) in src],
        )
    return SubComplex(ring, q.side, ambient_ranks, ambient_diffs, layouts, terms)


def hom_into_complex(m: FPModule, q: Complex, window: tuple[int, int]) -> SubComplex:
    """Hom(M, Q) with M placed in degree 0."""
    return hom_fp_complex({0: m}, {}, q, window)


def hom_vanishing(m: FPModule, q: Complex, degrees: list[int]) -> tuple[bool, int | None]:
    """Whether H^j Hom(M, Q) = 0 for every j in degrees.

    Returns (all_zero, first failing degree).  Each degree is computed
    on its own window, one degree wider on each side than H^j reads.
    """
    for j in degrees:
        sub = hom_into_complex(m, q, (j - 2, j + 1))
        if not sub.is_exact_at(j):
            return False, j
    return True, None


def induced_h0_map(src: tuple[FPModule, Mat, Mat], tgt: tuple[FPModule, Mat, Mat],
                   push) -> ModuleMap | None:
    """The module map on homology induced by an ambient pushforward.

    src and tgt are homology_data triples; push maps an ambient column
    of the source degree to an ambient column of the target degree and
    must carry cycles to cycles and boundaries to boundaries.  Returns
    None when some pushed cycle is not expressible (push does not
    descend).
    """
    s_mod, s_cycles, _ = src
    t_mod, t_cycles, t_bounds = tgt
    cols = []
    stacked = t_cycles.hstack(t_bounds)
    for c in range(s_cycles.cols):
        pushed = push(s_cycles.submatrix(range(s_cycles.rows), [c]))
        x = solve_right(stacked, pushed)
        if x is None:
            return None
        cols.append([x.entries[r] for r in range(t_cycles.cols)])
    ring = s_mod.ring
    matrix = Mat(ring, t_cycles.cols, s_cycles.cols,
                 tuple(cols[c][r] for r in range(t_cycles.cols)
                       for c in range(s_cycles.cols)))
    return ModuleMap(s_mod, t_mod, matrix)
