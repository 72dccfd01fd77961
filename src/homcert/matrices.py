"""Exact matrices and exact linear algebra over the supported rings.

One column Hermite normal form (HNF) core, `_mod_hnf`, serves every
ring: the HNF of span + n*Z^r, computed with every entry in [0, n)
(Domich, Kannan & Trotter 1987; Cohen, GTM 138, Alg. 2.4.8); over F_p
that is Gauss-Jordan elimination.  A lattice of full rank contains
D*Z^r for every multiple D of its determinant, so its HNF is its HNF
mod D, and over Z every form runs the core modulo a D read from one
fraction-free (Bareiss) pass: kernels and solves modulo the
determinant of a pivot minor, spans modulo a gcd of maximal minors on
the rows where the rank grows.  So no entry outgrows Hadamard's bound.
Canonical column spans, Smith invariants, kernels and solves all come
from it.  An HNF is determined by its lattice, so spans, Smith
invariants and kernels do not depend on the generators they came from.

The pivoting rule is fixed: rows are processed top to bottom, the
pivot is the gcd of the surviving entries in the row, pivots are
positive, and entries left of a pivot are reduced into [0, pivot).
All outputs are therefore deterministic.  Within a row the first
column with a nonzero lead is the pivot candidate (mod n scaled once
to the lead g = gcd(lead, n)), and each other column whose lead g
divides is cleared by one subtraction, which leaves the candidate
alone; only a lead that g does not divide takes the two-column
extended-gcd step.

A Mat keeps what its eliminations find (`_Kept`): every later question
about the same object is answered without eliminating it again.  Mod n
one HNF of [A; I_c] gives the kernel of A and every solve against it
(Cohen, GTM 138, 2.4), so the core takes a start row and back-reduces
only the pivot columns from it down; over Z one Bareiss pass over A
records its pivot steps, and every solve replays them on B alone: no
larger system is stacked.  One column HNF gives the span and the first
round of Smith: mod n off a kept [A; I_c] (a kernel is its own span's
HNF), else over A; over Z off A's pass at full row rank, else over A^T.

Mod n each column is one int of fixed-width slots, one entry per slot,
so a column step is one big-integer multiply-add and one slotwise
Barrett reduction instead of a loop over the entries.  Columns are
packed once, straight from A's row-major entries, which a Mat keeps
canonical, so nothing is reduced mod n again, and I_c costs one set
bit per column; kernels, spans and solutions are unpacked straight
into row-major entries.

The public `Mat(...)` checks the shape and reduces every entry to its
canonical residue.  Results canonical by construction (products and
Kronecker products, scalings, transposes, submatrices, zero and
identity matrices, assembled blocks and the Hermite core's columns) go
through the private, unchecked `Mat._trusted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from operator import mul

from .rings import RingDescriptor

# Dimensions, degrees, shifts and depths beyond this are refused: at the
# limit a dense matrix has 2**24 cells and a degree span 2**13 steps;
# much larger values end in an OverflowError, a MemoryError or a hang.
SIZE_LIMIT = 1 << 12


class MatrixError(ValueError):
    """Dimension or ring mismatch."""


def check_cells(rows: int, cols: int, what: str) -> None:
    """Refuse a negative dimension, or a matrix too large for memory before it is built."""
    if rows < 0 or cols < 0:
        raise MatrixError("negative dimension")
    if rows * cols > SIZE_LIMIT ** 2:
        raise MatrixError(f"{what} would have {rows * cols} cells, more than {SIZE_LIMIT ** 2}")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


@dataclass(frozen=True)
class Mat:
    """An exact matrix over a fixed ring; entries row-major, canonical."""

    ring: RingDescriptor
    rows: int
    cols: int
    entries: tuple[int, ...] = field(default=())
    _kept = None  # once set, what this object's eliminations found (`_Kept`); not a field

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise MatrixError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise MatrixError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        norm = self.ring.normalize
        object.__setattr__(self, "entries", tuple(norm(e) for e in self.entries))

    @classmethod
    def _trusted(cls, ring: RingDescriptor, rows: int, cols: int,
                 entries: tuple[int, ...]) -> "Mat":
        """A Mat from a tuple of rows*cols canonical entries, unchecked."""
        m = object.__new__(cls)
        m.__dict__.update(ring=ring, rows=rows, cols=cols, entries=entries)
        return m

    # -- construction helpers ------------------------------------------

    @staticmethod
    def from_rows(ring: RingDescriptor, rows: list[list[int]]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != c:
                raise MatrixError("ragged rows")
        return Mat(ring, r, c, tuple(x for row in rows for x in row))

    @staticmethod
    def zero(ring: RingDescriptor, rows: int, cols: int) -> "Mat":
        check_cells(rows, cols, "a zero matrix")
        return Mat._trusted(ring, rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(ring: RingDescriptor, n: int) -> "Mat":
        check_cells(n, n, "an identity matrix")
        return Mat._trusted(ring, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    # -- access --------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def columns(self) -> list[list[int]]:
        return [list(self.entries[j::self.cols]) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    # -- arithmetic ----------------------------------------------------

    def _check_same_ring(self, other: "Mat"):
        if self.ring != other.ring:
            raise MatrixError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError("shape mismatch in addition")
        return Mat(self.ring, self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat(self.ring, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int) -> "Mat":
        n = self.ring.modulus
        ent = (tuple(c * a for a in self.entries) if n is None
               else tuple(c * a % n for a in self.entries))
        return Mat._trusted(self.ring, self.rows, self.cols, ent)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same_ring(other)
        if self.cols != other.rows:
            raise MatrixError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        a, b = self.entries, other.entries
        n, m, k = self.rows, other.cols, self.cols
        mod = self.ring.modulus
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            orow = i * m
            for l in range(k):
                coeff = a[base + l]
                if coeff:
                    brow = l * m
                    for j in range(m):
                        out[orow + j] += coeff * b[brow + j]
            if mod is not None:
                for j in range(orow, orow + m):
                    out[j] %= mod
        return Mat._trusted(self.ring, n, m, tuple(out))

    def transpose(self) -> "Mat":
        c, ent = self.cols, self.entries
        return Mat._trusted(self.ring, c, self.rows,
                            tuple(e for j in range(c) for e in ent[j::c]))

    # -- assembly ------------------------------------------------------

    def hstack(self, other: "Mat") -> "Mat":
        self._check_same_ring(other)
        if self.rows != other.rows:
            raise MatrixError("row count mismatch in hstack")
        a, b, p, q = self.entries, other.entries, self.cols, other.cols
        ent: list[int] = []
        for i in range(self.rows):
            ent += a[i * p:(i + 1) * p]
            ent += b[i * q:(i + 1) * q]
        return Mat._trusted(self.ring, self.rows, p + q, tuple(ent))

    def submatrix(self, row_range: range, col_range: range) -> "Mat":
        r, c, ent = self.rows, self.cols, self.entries
        if not all(0 <= i < r for i in row_range) or not all(0 <= j < c for j in col_range):
            raise MatrixError(f"submatrix {row_range} x {col_range} outside a {r}x{c} matrix")
        return Mat._trusted(self.ring, len(row_range), len(col_range),
                            tuple(ent[i * c + j] for i in row_range for j in col_range))

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; vec(A X B) = kron(B^T, A) vec(X), vec column-major."""
        self._check_same_ring(other)
        p, q, b = other.rows, other.cols, other.entries
        c = self.cols * q
        check_cells(self.rows * p, c, "a Kronecker product")
        n = self.ring.modulus
        ent = [0] * (self.rows * p * c)
        for i1 in range(self.rows):
            for j1, a in enumerate(self.entries[i1 * self.cols:(i1 + 1) * self.cols]):
                if a == 0:
                    continue
                for i2 in range(p):
                    row = b[i2 * q:(i2 + 1) * q]
                    at = (i1 * p + i2) * c + j1 * q
                    ent[at:at + q] = row if a == 1 else (
                        [a * v for v in row] if n is None else [a * v % n for v in row])
        return Mat._trusted(self.ring, self.rows * p, c, tuple(ent))

    def vec(self) -> "Mat":
        """Column-major vectorization as a column."""
        vals = [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        return Mat(self.ring, len(vals), 1, tuple(vals))

    @staticmethod
    def unvec(ring: RingDescriptor, v: "Mat", rows: int, cols: int) -> "Mat":
        if v.rows != rows * cols or v.cols != 1:
            raise MatrixError("unvec shape mismatch")
        ent = tuple(v.entries[j * rows + i] for i in range(rows) for j in range(cols))
        return Mat(ring, rows, cols, ent)


def block_diag(ring: RingDescriptor, blocks: list[Mat]) -> Mat:
    grid = [[b if i == k else None for k in range(len(blocks))] for i, b in enumerate(blocks)]
    return assemble_blocks(ring, grid, [b.rows for b in blocks], [b.cols for b in blocks])


def assemble_blocks(ring: RingDescriptor, grid: list[list[Mat | None]],
                    row_sizes: list[int], col_sizes: list[int]) -> Mat:
    """Assemble a block matrix over ring; None blocks are zero."""
    if min(row_sizes, default=0) < 0 or min(col_sizes, default=0) < 0:
        raise MatrixError("negative dimension")
    rows, cols = sum(row_sizes), sum(col_sizes)
    check_cells(rows, cols, "a block matrix")
    ent = [0] * (rows * cols)
    r0 = 0
    for bi, rs in enumerate(row_sizes):
        c0 = 0
        for bj, cs in enumerate(col_sizes):
            blk = grid[bi][bj]
            if blk is not None:
                if blk.ring != ring:
                    raise MatrixError(f"ring mismatch: block over {blk.ring} "
                                      f"in a matrix over {ring}")
                if blk.rows != rs or blk.cols != cs:
                    raise MatrixError("block size mismatch")
                for i in range(rs):
                    start = (r0 + i) * cols + c0
                    ent[start:start + cs] = blk.entries[i * cs:(i + 1) * cs]
            c0 += cs
        r0 += rs
    return Mat._trusted(ring, rows, cols, tuple(ent))


# -- Hermite normal form ---------------------------------------------


def _from_cols(ring: RingDescriptor, rows: int, cols: list[list[int]]) -> Mat:
    """The matrix with the given columns, each of canonical entries."""
    k = len(cols)
    ent = [0] * (rows * k)
    for t, col in enumerate(cols):
        ent[t::k] = col
    return Mat._trusted(ring, rows, k, tuple(ent))


def _width(n: int) -> int:
    """The slot width of the packed core mod n (see `_mod_hnf`)."""
    return 4 * n.bit_length() + 2


def _pack(cols, w: int) -> list[int]:
    """Each column (entries in [0, 2**w)) as one int of w-bit slots, slot i holding row i."""
    packed = []
    for col in cols:
        a = 0
        for v in reversed(col):
            a = a << w | v
        packed.append(a)
    return packed


def _columns(found: list[int], w: int, rows: int, start: int = 0) -> dict[int, list[int]]:
    """{i: column} for the nonzero found[i], i >= start, each packed from row i down."""
    lead = (1 << w) - 1
    return {i: [0] * i + [p >> s & lead for s in range(0, w * (rows - i), w)]
            for i, p in enumerate(found) if p and i >= start}


def _hnf(n: int, rows: int, gens: list[list[int]], start: int = 0) -> dict[int, list[int]]:
    """Column HNF of span(gens) + n*Z^rows with every entry kept in [0, n):
    the list adapter in front of `_mod_hnf`, for Smith's rounds, Z spans
    and the tests.

    Returns {row: column} for the pivots g < n at rows >= start, in row
    order; the other rows have pivot n, whose HNF column n*e_row is zero
    mod n.  Each pivot divides n, a pivot column is zero above its row,
    and each pivot row holds entries in [0, g) in the earlier pivot
    columns that are returned.  Rows above start are eliminated alike,
    and their pivot columns are not reduced; a pivot column is reduced
    only by the pivots below it, so those returned are the full form's.
    """
    w = _width(n)
    found, _ = _mod_hnf(n, rows, _pack(([v % n for v in col] for col in gens), w), start)
    return _columns(found, w, rows, start)


def _mod_hnf(n: int, rows: int, active: list[int], start: int):
    """The core of `_hnf` mod n, on the generators packed: each one int of
    w-bit slots, w = `_width(n)`, slot i holding row i.

    Returns (found, (m, k, qmask)): per row, its pivot column packed from
    that row down (slot 0 holds g), or 0 where the pivot is n; and the
    Barrett constants below.  Above start the column is as found, and these
    columns are an echelon basis of the lattice modulo the part below;
    from start on it is the returned one.  A column's lead is a & lead,
    and each column kept for the next row moves there (a >> w) at once,
    so a zero column drops out.

    Each new column is one multiply-add of such ints with coefficients
    in [0, n), so every slot of it is at most 2*(n-1)**2 < 2**k / n,
    k = 3*bits(n) + 1.  x - (x*m >> k & qmask)*n reduces all slots mod n
    at once by a Barrett step (Barrett 1986) whose quotient is exact:
    with m = ceil(2**k / n), floor(x*m / 2**k) = floor(x / n) for every
    x <= 2**k / n, and then x*m < 2**w, w = 4*bits(n) + 2, so the
    product stays inside its slot.  A larger slot could come out wrong
    or carry into the next one.  The step is written out wherever a column
    is formed: a call per step cost about as much as the step.
    """
    b = n.bit_length()
    k, w = 3 * b + 1, _width(n)
    m, lead = -(-(1 << k) // n), (1 << w) - 1
    qmask = ((1 << w * rows) - 1) // lead * ((1 << w - k) - 1)  # 2**(w-k) - 1 in each slot
    found = [0] * rows
    # active columns hold entries from row i down and span (with n*Z)
    # the part of the lattice that vanishes above row i
    active = [a for a in active if a]
    for i in range(rows):
        c, rest = 0, []
        for a in active:
            a0 = a & lead
            if not a0:
                rest.append(a >> w)
            elif not c:
                # s*c has lead g = gcd(c[0], n); with (n/g)*c, the
                # multiples of c that vanish at row i mod n, it spans c
                s, _, g = _xgcd(a0, n)
                if g > 1:
                    t = n // g * a
                    if t := (t - (t * m >> k & qmask) * n) >> w:
                        rest.append(t)
                c = s % n * a
                c -= (c * m >> k & qmask) * n
            elif not a0 % g:
                a += (n - a0 // g) * c
                if a := (a - (a * m >> k & qmask) * n) >> w:
                    rest.append(a)
            else:  # unimodular step: gcd(g, a[0]) into c, 0 into a
                # the annihilator (n/h)*c of the new c needs no column:
                # with c' = x*c + y*a and a' = (g/h)*a - (a0/h)*c,
                # (n/h)*c' = y*(n/g)*a' + (n/g)*c, and (n/g)*c is already
                # spanned: appended with the candidate (n*c if g = 1
                # there), or by this identity at the step before
                x, y, h = _xgcd(g, a0)
                c, a = x % n * c + y % n * a, g // h * a + (n - a0 // h) * c
                c -= (c * m >> k & qmask) * n
                if a := (a - (a * m >> k & qmask) * n) >> w:
                    rest.append(a)
                g = h
        found[i] = c
        active = rest
    # the back-reduction never feeds the elimination, so it runs after it
    return _back_reduce(n, w, (m, k, qmask), found, start), (m, k, qmask)


def _back_reduce(n: int, w: int, barrett, found: list[int], start: int) -> list[int]:
    """`_mod_hnf`'s last step, in place: in row order from start, each pivot g
    takes the entries in its row of the earlier pivot columns into [0, g)."""
    (m, k, qmask), lead = barrett, (1 << w) - 1
    pivots: dict[int, int] = {}  # each pivot column, zero above its row
    for i in range(start, len(found)):
        if c := found[i]:
            g, c = c & lead, c << w * i  # pivot columns keep every row
            for p, col in pivots.items():
                if q := (col >> w * i & lead) // g:
                    col += (n - q) * c
                    pivots[p] = col - (col * m >> k & qmask) * n
            pivots[i] = c
    for i, col in pivots.items():
        found[i] = col >> w * i
    return found


def _bareiss(m: list[list[int]], c: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the rows m, in place.

    Pivots are taken in the first c columns, left to right, and deleted
    from m once eliminated (each would hold d in its pivot row, else 0).
    Returns (d, pivot columns, free columns, steps): the rows of m then
    hold the free columns followed by the columns from c on, and the rows
    below the rank are zero in the free columns.  Every entry stays a
    minor of the input, so each division is exact; d is +-det of the
    pivot minor.  Step (t, p, g, d, col) swaps rows t and p and pivots on
    g in row t, dividing by d; col is the pivot column before it.
    """
    d, piv, free, steps = 1, [], [], []
    for j in range(c):
        t, jj = len(piv), len(free)  # jj: where column j now sits
        p = next((i for i in range(t, len(m)) if m[i][jj]), None)
        if p is None:
            free.append(j)
            continue
        m[t], m[p] = m[p], m[t]
        prow = m[t]
        g, col = prow.pop(jj), []
        for i, row in enumerate(m):
            col.append(a := g if i == t else row.pop(jj))
            if i != t and (a or g != d):
                m[i] = [(g * x - a * y) // d for x, y in zip(row, prow)]
        steps.append((t, p, g, d, col))
        d = g
        piv.append(j)
    return d, piv, free, steps


def _replay(steps, cols: list[list[int]]) -> list[list[int]]:
    """Each column through a Bareiss pass's steps, as one more column that never pivots."""
    out = []
    for v in cols:
        for t, p, g, d, col in steps:
            if p != t:
                v[t], v[p] = v[p], v[t]
            vt = v[t]
            v = [(g * x - a * vt) // d for x, a in zip(v, col)]
            v[t] = vt
        out.append(v)
    return out


# -- the kept elimination ---------------------------------------------


class _ModForm:
    """[A; I_c] eliminated once mod n, for A with r rows given by its c
    columns of entries in [0, n).

    The lattice is {(A x, x)} + n*Z^(r+c).  Its pivots at the rows of A
    are an echelon basis of it modulo the part that vanishes on those
    rows, which is {(0, x) : A x = 0 mod n}: the pivots below are the
    Hermite form of the kernel (Cohen, GTM 138, 2.4).  Cut to A's rows, the
    pivots there are the core's over A alone, no slot feeding another (`span`).
    """

    __slots__ = ("n", "r", "w", "pivots", "barrett")

    def __init__(self, n: int, r: int, a_cols):
        w = _width(n)
        gens = [a | 1 << w * (r + j) for j, a in enumerate(_pack(a_cols, w))]
        # per row of [A; I_c]: its pivot column packed from that row down, or 0
        self.pivots, self.barrett = _mod_hnf(n, r + len(gens), gens, r)
        self.n, self.r, self.w = n, r, w

    def kernel(self) -> dict[int, list[int]]:
        """{j: column} for the kernel's pivots g < n, j indexing x."""
        return _columns(self.pivots[self.r:], self.w, len(self.pivots) - self.r)

    def span(self) -> dict[int, list[int]]:
        """The column HNF of span(A) + n*Z^r, as `_hnf` returns it."""
        r, w = self.r, self.w
        found = [p & (1 << w * (r - i)) - 1 for i, p in enumerate(self.pivots[:r])]
        return _columns(_back_reduce(self.n, w, self.barrett, found, 0), w, r)

    def solve(self, b_cols) -> list[list[int]] | None:
        """The x with A x = b mod n for each column b (a sequence of
        integers), reduced by the kernel's pivots, or None when some b is
        not in the span."""
        n, r, w, pivots = self.n, self.r, self.w, self.pivots
        m, k, qmask = self.barrett
        lead = (1 << w) - 1
        sols = []
        for b in b_cols:
            t = 0
            for v in reversed(b):
                t = t << w | -v % n
            # (-b, 0) less multiples of the pivots at A's rows ends at
            # (0, x), so (b, x) is in the lattice: A x = b
            for p in pivots[:r]:
                if not t:
                    break
                t0 = t & lead
                if t0:
                    if not p or t0 % (g := p & lead):
                        return None
                    t += (n - t0 // g) * p
                    t -= (t * m >> k & qmask) * n
                t >>= w
            x = []
            for p in pivots[r:]:
                t0 = t & lead
                if p and t0 >= (g := p & lead):  # t0 into [0, g)
                    t += (n - t0 // g) * p
                    t -= (t * m >> k & qmask) * n
                    t0 = t & lead
                x.append(t0)
                t >>= w
            sols.append(x)
        return sols


class _Kept:
    """What the eliminations of one Mat found, kept on it as `_kept` (not a
    field: out of ==, hash, repr and documents): zero, whether A is zero;
    kernel; hnf, the span's HNF as `_hnf` returns it (mod n off form, or
    set with a kernel); form, the `_ModForm` of [A; I] mod n, over Z of
    [R; I] mod |d|; and z, over Z, (d, pivot columns, free columns, R,
    steps) of A's one Bareiss pass, whose steps every solve replays on B.
    It holds no reference to the Mat, so the two form no cycle: each
    question passes the matrix in.  Racing threads may both eliminate;
    every value is deterministic and the last write wins.
    """

    __slots__ = ("zero", "kernel", "hnf", "form", "z")

    def __init__(self, A: Mat):
        self.zero = not any(A.entries)
        self.kernel = self.hnf = self.form = self.z = None
        object.__setattr__(A, "_kept", self)  # last: another thread may read it at once

    def packed(self, A: Mat) -> _ModForm:
        if self.form is None:
            if (n := A.ring.modulus) is None:  # R reduced mod |d| once, as it enters
                rows, n = self.z[3], abs(self.z[0])
                self.form = _ModForm(n, len(rows), ([v % n for v in x] for x in zip(*rows)))
            else:
                self.form = _ModForm(n, A.rows, (A.entries[j::A.cols] for j in range(A.cols)))
        return self.form

    def z_pass(self, A: Mat):
        """z, A's one Bareiss pass, run on first use; every solve replays its
        steps on B (Cohen, GTM 138, 2.4.3).  For the pivot minor A1,
        d = +-det A1, R = d A1^-1 A2 and Y = d A1^-1 B, the x with A x = b
        are fixed by their free coordinates x2, which solve R x2 = Y mod |d|,
        and x1 = (Y - R x2) / d (`_lift`)."""
        if self.z is None:
            m = A.row_list()
            d, piv, free, steps = _bareiss(m, A.cols)
            self.z = d, piv, free, m[:len(piv)], steps
        return self.z

    def z_kernel(self, A: Mat) -> list[list[int]]:
        d, piv, free, _, _ = z = self.z_pass(A)
        delta, f = abs(d), len(free)
        h = self.packed(A).kernel() if delta > 1 and f else {}
        # a row without a pivot below |d| has the Hermite column |d|*e_i
        return [_lift(z, h[i] if i in h else [delta * (l == i) for l in range(f)], [0] * len(piv))
                for i in range(f)]

    def z_solve(self, A: Mat, B: Mat) -> list[list[int]] | None:
        d, piv, free, _, steps = z = self.z_pass(A)
        ys = _replay(steps, [list(B.entries[l::B.cols]) for l in range(B.cols)])
        if any(any(y[len(piv):]) for y in ys):  # some b is not in the rational span
            return None
        ys = [y[:len(piv)] for y in ys]
        # x2 = 0 is reduced, so it is the canonical x2 whenever it solves
        if all(v % d == 0 for y in ys for v in y):
            x2s = [[0] * len(free)] * len(ys)
        elif not free or (x2s := self.packed(A).solve(ys)) is None:
            return None
        return [_lift(z, x2, y) for x2, y in zip(x2s, ys)]

    def span_hnf(self, A: Mat) -> dict[int, list[int]]:
        if self.hnf is None:
            if self.zero:  # every pivot is n (over Z, no column)
                self.hnf = {}
            elif (n := A.ring.modulus) is None:
                self.hnf = _z_span(A, self.z)
            elif (form := self.form) is not None:  # a kernel or solve kept [A; I]
                self.hnf = form.span()
            else:
                w, c = _width(n), A.cols
                found, _ = _mod_hnf(n, A.rows, _pack((A.entries[j::c] for j in range(c)), w), 0)
                self.hnf = _columns(found, w, A.rows)
        return self.hnf


def _z_span(A: Mat, z) -> dict[int, list[int]]:
    """The column HNF of a nonzero A's span over Z: its HNF mod D on A's
    row profile P (the rows where the rank of the leading rows grows),
    onto which it projects isomorphically, for D a gcd of maximal minors
    there.  With A's pass z kept and of full row rank, P is every row and
    R = d A1^-1 A2 holds r x r minors (Cramer's rule).  Otherwise a pass
    over A^T pivots on P, its last pivot column holds minors on P, and
    row f of A off P is sum_t R[t][k] row P[t] / d, which lifts each
    column; a pivot D stands for the column D*e_t."""
    if z is not None and len(z[1]) == A.rows:
        d, rows = z[0], z[3]
        D, profile, off = gcd(d, *(v for row in rows for v in row)), range(A.rows), ()
    else:
        m = A.columns()
        d, profile, free, steps = _bareiss(m, A.rows)
        D = gcd(*steps[-1][4][len(profile) - 1:])
        off = list(zip(free, zip(*m[:len(profile)])))  # (row f, its coefficients on P)
    rho, c, ent = len(profile), A.cols, A.entries
    h = _hnf(D, rho, [[ent[i * c + j] for i in profile] for j in range(c)])
    span = {}
    for t, i in enumerate(profile):
        col, full = h.get(t) or [D * (s == t) for s in range(rho)], [0] * A.rows
        for p, v in zip(profile, col):
            full[p] = v
        for f, coeffs in off:
            full[f] = sum(map(mul, coeffs, col)) // d
        span[i] = full
    return span


def _lift(z, x2: list[int], y: list[int]) -> list[int]:
    """The x with free coordinates x2 and pivot coordinates (y - R x2) / d."""
    d, piv, free, rows, _ = z
    x = [0] * (len(piv) + len(free))
    for j, e in zip(free, x2):
        x[j] = e
    for j, yt, row in zip(piv, y, rows):
        x[j], rem = divmod(yt - sum(map(mul, row, x2)), d)
        assert not rem, "inexact division in a Z kernel or solve"
    return x


# -- public solving interface -----------------------------------------


def kernel_right(A: Mat) -> Mat:
    """Matrix whose columns generate {x : A x = 0}; may have 0 columns.

    Over Z the columns are the basis whose free coordinates (those off
    the leftmost independent columns of A) are the Hermite form of the
    kernel's projection onto them; over Z/n and F_p they are the nonzero
    columns of the Hermite form of {x in Z^c : A x = 0 mod n} (a basis
    over F_p).  Either way they depend only on the kernel.  Kept on A.
    """
    kept = A._kept or _Kept(A)
    if kept.kernel is None:
        if kept.zero:
            kept.kernel = Mat.identity(A.ring, A.cols)
        elif A.ring.modulus is None:
            kept.kernel = _from_cols(A.ring, A.cols, kept.z_kernel(A))
        else:  # its columns are the HNF of their own span: kept with them
            h = kept.packed(A).kernel()
            _Kept(k := _from_cols(A.ring, A.cols, list(h.values()))).hnf = h
            kept.kernel = k
    return kept.kernel


def solve_right(A: Mat, B: Mat) -> Mat | None:
    """Some X with A @ X = B exactly, or None; deterministic.

    X is the canonical reduced solution: the free coordinates of each
    column (over Z, those off the leftmost pivot columns; over Z/n and
    F_p, all of them) are reduced modulo the Hermite form of the kernel
    of A, so X depends only on the set of solutions.
    """
    A._check_same_ring(B)
    if A.rows != B.rows:
        raise MatrixError("solve_right: row count mismatch")
    kept = A._kept or _Kept(A)
    if not B.cols or kept.zero:
        return Mat.zero(A.ring, A.cols, B.cols) if B.is_zero() else None
    sols = (kept.z_solve(A, B) if A.ring.modulus is None
            else kept.packed(A).solve(B.entries[l::B.cols] for l in range(B.cols)))
    return None if sols is None else _from_cols(A.ring, A.cols, sols)


def colspan_canonical(m: Mat) -> Mat:
    """Canonical generating set of the column span, as a matrix.

    The nonzero columns of the column HNF of the span over Z, and of
    span + n*Z^rows over Z/n and F_p; over Z and F_p they are a basis.
    """
    return _from_cols(m.ring, m.rows, list((m._kept or _Kept(m)).span_hnf(m).values()))


def smith_invariants(A: Mat) -> list[int]:
    """Full diagonal d_1 | d_2 | ... of the Smith form; factors 1 are kept.

    Over Z there are rank(A) positive factors.  Over Z/n and F_p these
    are the invariants of span + n*Z^rows: one factor per row, each
    dividing n, with n for a row the span misses.  Hermite forms of the
    matrix and of its transpose alternate until the form is diagonal
    (Kannan & Bachem 1979); over Z they run modulo the product D of the
    pivots of the first HNF, whose row lattice contains D*Z^rank
    (Domich, Kannan & Trotter 1987).  This terminates: each round
    isolates the first pivot not yet alone in its row and column, or
    replaces it by a proper divisor, and every pivot divides n or D.
    """
    n, k = A.ring.modulus, A.rows
    pivots = (A._kept or _Kept(A)).span_hnf(A)  # the first round, kept with A's span
    if n is None:  # continue mod D on the rows of the HNF
        k, n = len(pivots), prod(c[i] for i, c in pivots.items())
        pivots = _hnf(n, k, [[c[i] for c in pivots.values()] for i in range(A.rows)]) if k else {}
    while any(any(c[i + 1:]) for i, c in pivots.items()):
        pivots = _hnf(n, k, [[pivots[j][i] if j in pivots else 0 for j in range(k)]
                             for i in range(k)])
    diag = [pivots[i][i] if i in pivots else n for i in range(k)]
    for i in range(k):  # a diagonal form's factors, sorted into a chain
        for j in range(i + 1, k):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
