"""Exact matrices and exact linear algebra over the supported rings.

One column Hermite normal form (HNF) core, `_hnf`, serves every ring.
Over Z it is the integer HNF; over Z/n and F_p it is the HNF of the
lattice span + n*Z^r, computed with every entry in [0, n) (Domich,
Kannan & Trotter 1987; Cohen, GTM 138, Alg. 2.4.8); over F_p that is
Gauss-Jordan elimination.  Canonical column spans and Smith invariants
come from it over every ring, and kernels and solves over Z/n and F_p.
Only Z kernels and solves still use `_col_hnf`, which also returns the
unimodular transform.  An HNF is determined by its lattice, so spans,
Smith invariants and modular kernels do not depend on the generators
they were computed from.

The pivoting rule is fixed: rows are processed top to bottom, the
pivot is the gcd of the surviving entries in the row, pivots are
positive, and entries left of a pivot are reduced into [0, pivot).
All outputs are therefore deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

from .rings import RingDescriptor


class MatrixError(ValueError):
    """Dimension or ring mismatch."""


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

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise MatrixError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise MatrixError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        norm = self.ring.normalize
        object.__setattr__(self, "entries", tuple(norm(e) for e in self.entries))

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
        return Mat(ring, rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(ring: RingDescriptor, n: int) -> "Mat":
        return Mat(ring, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def column(ring: RingDescriptor, values: list[int]) -> "Mat":
        return Mat(ring, len(values), 1, tuple(values))

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
        return all(e == 0 for e in self.entries)

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
        return Mat(self.ring, self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same_ring(other)
        if self.cols != other.rows:
            raise MatrixError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        a, b = self.entries, other.entries
        n, m, k = self.rows, other.cols, self.cols
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            for l in range(k):
                coeff = a[base + l]
                if coeff:
                    brow = l * m
                    orow = i * m
                    for j in range(m):
                        out[orow + j] += coeff * b[brow + j]
        return Mat(self.ring, n, m, tuple(out))

    def transpose(self) -> "Mat":
        return Mat(self.ring, self.cols, self.rows,
                   tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    # -- assembly ------------------------------------------------------

    def hstack(self, other: "Mat") -> "Mat":
        self._check_same_ring(other)
        if self.rows != other.rows:
            raise MatrixError("row count mismatch in hstack")
        rows = []
        for i in range(self.rows):
            rows.append(list(self.entries[i * self.cols : (i + 1) * self.cols])
                        + list(other.entries[i * other.cols : (i + 1) * other.cols]))
        return Mat.from_rows(self.ring, rows) if rows else Mat(self.ring, 0, self.cols + other.cols)

    def vstack(self, other: "Mat") -> "Mat":
        self._check_same_ring(other)
        if self.cols != other.cols:
            raise MatrixError("column count mismatch in vstack")
        return Mat(self.ring, self.rows + other.rows, self.cols, self.entries + other.entries)

    def submatrix(self, row_range: range, col_range: range) -> "Mat":
        ent = tuple(self[i, j] for i in row_range for j in col_range)
        return Mat(self.ring, len(row_range), len(col_range), ent)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; vec(A X B) = kron(B^T, A) vec(X), vec column-major."""
        self._check_same_ring(other)
        r = self.rows * other.rows
        c = self.cols * other.cols
        ent = [0] * (r * c)
        for i1 in range(self.rows):
            for j1 in range(self.cols):
                a = self[i1, j1]
                if a == 0:
                    continue
                for i2 in range(other.rows):
                    for j2 in range(other.cols):
                        ent[(i1 * other.rows + i2) * c + (j1 * other.cols + j2)] = a * other[i2, j2]
        return Mat(self.ring, r, c, tuple(ent))

    def vec(self) -> "Mat":
        """Column-major vectorization as a column."""
        vals = [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        return Mat.column(self.ring, vals)

    @staticmethod
    def unvec(ring: RingDescriptor, v: "Mat", rows: int, cols: int) -> "Mat":
        if v.rows != rows * cols or v.cols != 1:
            raise MatrixError("unvec shape mismatch")
        ent = tuple(v.entries[j * rows + i] for i in range(rows) for j in range(cols))
        return Mat(ring, rows, cols, ent)

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols} empty>"
        return "\n".join(" ".join(str(self[i, j]) for j in range(self.cols))
                         for i in range(self.rows))


def block_diag(ring: RingDescriptor, blocks: list[Mat]) -> Mat:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    ent = [0] * (rows * cols)
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                ent[(r0 + i) * cols + (c0 + j)] = b[i, j]
        r0 += b.rows
        c0 += b.cols
    return Mat(ring, rows, cols, tuple(ent))


def assemble_blocks(ring: RingDescriptor, grid: list[list[Mat | None]],
                    row_sizes: list[int], col_sizes: list[int]) -> Mat:
    """Assemble a block matrix; None blocks are zero."""
    rows = sum(row_sizes)
    cols = sum(col_sizes)
    ent = [0] * (rows * cols)
    r0 = 0
    for bi, rs in enumerate(row_sizes):
        c0 = 0
        for bj, cs in enumerate(col_sizes):
            blk = grid[bi][bj]
            if blk is not None:
                if blk.rows != rs or blk.cols != cs:
                    raise MatrixError("block size mismatch")
                for i in range(rs):
                    for j in range(cs):
                        ent[(r0 + i) * cols + (c0 + j)] = blk[i, j]
            c0 += cs
        r0 += rs
    return Mat(ring, rows, cols, tuple(ent))


# -- integer Hermite normal form --------------------------------------


def _col_hnf(rows: int, cols: int, a: list[list[int]]):
    """Column-style HNF: returns (H, U, pivots) with A*U = H, U unimodular.

    H is in column echelon form with positive pivots at strictly
    increasing rows; entries left of a pivot lie in [0, pivot).
    pivots is the list of (row, col) pivot positions.
    """
    H = [row.copy() for row in a]
    U = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    pivots: list[tuple[int, int]] = []
    pc = 0  # next pivot column

    def col_axpy(dst: int, src: int, q: int):
        # column dst += q * column src
        for row in H:
            row[dst] += q * row[src]
        for row in U:
            row[dst] += q * row[src]

    def col_swap(j1: int, j2: int):
        for row in H:
            row[j1], row[j2] = row[j2], row[j1]
        for row in U:
            row[j1], row[j2] = row[j2], row[j1]

    def col_combine(j1: int, j2: int, r: int):
        # Replace (col j1, col j2) so that H[r][j1] = gcd, H[r][j2] = 0.
        aa, bb = H[r][j1], H[r][j2]
        if bb == 0:
            return
        if aa == 0:
            col_swap(j1, j2)
            return
        if bb % aa == 0:
            col_axpy(j2, j1, -(bb // aa))
            return
        x, y, g = _xgcd(aa, bb)
        ag, bg = aa // g, bb // g
        for M in (H, U):
            for row in M:
                v1, v2 = row[j1], row[j2]
                row[j1] = x * v1 + y * v2
                row[j2] = -bg * v1 + ag * v2

    for r in range(rows):
        j0 = None
        for j in range(pc, cols):
            if H[r][j] != 0:
                j0 = j
                break
        if j0 is None:
            continue
        if j0 != pc:
            col_swap(pc, j0)
        for j in range(pc + 1, cols):
            col_combine(pc, j, r)
        if H[r][pc] < 0:
            for row in H:
                row[pc] = -row[pc]
            for row in U:
                row[pc] = -row[pc]
        g = H[r][pc]
        for j in range(pc):
            q = H[r][j] // g
            if q:
                col_axpy(j, pc, -q)
        pivots.append((r, pc))
        pc += 1
        if pc == cols:
            break
    return H, U, pivots


def _from_cols(ring: RingDescriptor, rows: int, cols: list[list[int]]) -> Mat:
    return Mat(ring, rows, len(cols), tuple(col[i] for i in range(rows) for col in cols))


def _hnf(n: int | None, rows: int, gens: list[list[int]]) -> dict[int, list[int]]:
    """Column HNF of span(gens) over Z (n is None), or of span(gens) + n*Z^rows
    with every entry kept in [0, n).

    Returns {row: column} for the pivots, in row order; mod n, these are
    the pivots g < n, and the other rows have pivot n, whose HNF column
    n*e_row is zero mod n.  Pivots are positive (mod n each divides n),
    a pivot column is zero above its row, and each pivot row holds
    entries in [0, g) in the earlier pivot columns.  Over a prime every
    g is 1: this is Gauss-Jordan elimination.
    """
    pivots: dict[int, list[int]] = {}
    # active columns hold entries from row i down and span (with n*Z)
    # the part of the lattice that vanishes above row i
    if n is None:
        active = [list(c) for c in gens if any(c)]
    else:
        active = [t for t in ([v % n for v in c] for c in gens) if any(t)]
    for i in range(rows):
        c, rest = None, []
        for a in active:
            if not a[0]:
                rest.append(a)
            elif c is None:
                c = a
            else:  # unimodular step: gcd(c[0], a[0]) into c, 0 into a
                x, y, g = _xgcd(c[0], a[0])
                cg, ag = c[0] // g, a[0] // g
                if n is None:
                    c, a = ([x * u + y * v for u, v in zip(c, a)],
                            [cg * v - ag * u for u, v in zip(c, a)])
                else:
                    c, a = ([(x * u + y * v) % n for u, v in zip(c, a)],
                            [(cg * v - ag * u) % n for u, v in zip(c, a)])
                rest.append(a)
        if c is not None:
            if n is None:
                g = abs(c[0])
                p = [0] * i + (c if c[0] > 0 else [-v for v in c])
            else:
                s, _, g = _xgcd(c[0], n)
                p = [0] * i + [s * v % n for v in c]
                # the multiples of c that vanish at row i mod n are those of (n/g)*c
                rest.append([n // g * v % n for v in c])
            for col in pivots.values():
                q = col[i] // g
                if q and n is None:
                    for k in range(i, rows):
                        col[k] -= q * p[k]
                elif q:
                    for k in range(i, rows):
                        col[k] = (col[k] - q * p[k]) % n
            pivots[i] = p
        active = [a[1:] for a in rest if any(a[1:])]
    return pivots


def _solve_right_int(A_rows: list[list[int]], rows: int, cols: int,
                     b_cols: list[list[int]]):
    """Solve A X = B over Z columnwise; returns list of solution columns or None."""
    H, U, pivots = _col_hnf(rows, cols, A_rows)
    sols = []
    for b in b_cols:
        resid = b.copy()
        y = [0] * cols
        ok = True
        for (pr, pcj) in pivots:
            g = H[pr][pcj]
            if resid[pr] % g != 0:
                ok = False
                break
            q = resid[pr] // g
            y[pcj] = q
            if q:
                for i in range(pr, rows):
                    resid[i] -= q * H[i][pcj]
        if not ok or any(resid):
            return None
        x = [sum(U[i][j] * y[j] for j in range(cols)) for i in range(cols)]
        sols.append(x)
    return sols


def _kernel_int(A_rows: list[list[int]], rows: int, cols: int) -> list[list[int]]:
    """Basis of the integer right kernel, as a list of columns."""
    _, U, pivots = _col_hnf(rows, cols, A_rows)
    rank = len(pivots)
    out = []
    for j in range(rank, cols):
        col = [U[i][j] for i in range(cols)]
        lead = next((v for v in col if v != 0), 0)
        if lead < 0:
            col = [-v for v in col]
        out.append(col)
    return out


def colspan_canonical(m: Mat) -> Mat:
    """Canonical generating set of the column span, as a matrix.

    The nonzero columns of the column HNF of the span over Z, and of
    span + n*Z^rows over Z/n and F_p; over Z and F_p they are a basis.
    """
    return _from_cols(m.ring, m.rows, list(_hnf(m.ring.modulus, m.rows, m.columns()).values()))


# -- public solving interface -----------------------------------------


def solve_right(A: Mat, B: Mat) -> Mat | None:
    """Some X with A @ X = B exactly, or None; deterministic.

    Over Z/n and F_p, X is the canonical reduced solution: each column
    is reduced modulo the Hermite form of the kernel of A.
    """
    A._check_same_ring(B)
    if A.rows != B.rows:
        raise MatrixError("solve_right: row count mismatch")
    n = A.ring.modulus
    r, c, k = A.rows, A.cols, B.cols
    if n is None:
        sols = _solve_right_int(A.row_list(), r, c, B.columns())
        return None if sols is None else _from_cols(A.ring, c, sols)
    # the columns of [[A, -B], [0, I_k], [I_c, 0]] span the (x, y) with
    # A x = B y; AX = B is solvable iff every y-row has pivot 1
    gens = [a + [0] * k + [int(i == j) for i in range(c)] for j, a in enumerate(A.columns())]
    gens += [[-v for v in b] + [int(i == j) for i in range(k)] + [0] * c
             for j, b in enumerate(B.columns())]
    pivots = _hnf(n, r + k + c, gens)
    if not all(r + j in pivots and pivots[r + j][r + j] == 1 for j in range(k)):
        return None
    return _from_cols(A.ring, c, [pivots[r + j][r + k:] for j in range(k)])


def solve_left(A: Mat, B: Mat) -> Mat | None:
    """Some X with X @ A = B exactly, or None."""
    xt = solve_right(A.transpose(), B.transpose())
    return None if xt is None else xt.transpose()


def kernel_right(A: Mat) -> Mat:
    """Matrix whose columns generate {x : A x = 0}; may have 0 columns.

    Over Z the columns are a basis; over Z/n and F_p they are the
    nonzero columns of the Hermite form of {x in Z^c : A x = 0 mod n}
    (a basis over F_p).
    """
    n = A.ring.modulus
    c = A.cols
    if n is None:
        return _from_cols(A.ring, c, _kernel_int(A.row_list(), A.rows, c))
    # the pivots of [A; I_c] below row A.rows carry the kernel lattice
    gens = [a + [int(i == j) for i in range(c)] for j, a in enumerate(A.columns())]
    pivots = _hnf(n, A.rows + c, gens)
    return _from_cols(A.ring, c, [p[A.rows:] for i, p in pivots.items() if i >= A.rows])


def kernel_left(A: Mat) -> Mat:
    """Matrix whose rows generate {x : x A = 0}; may have 0 rows."""
    return kernel_right(A.transpose()).transpose()


def inverse(A: Mat) -> Mat | None:
    """Two-sided inverse of a square matrix, or None."""
    if A.rows != A.cols:
        return None
    X = solve_right(A, Mat.identity(A.ring, A.rows))
    if X is None:
        return None
    if (X @ A) != Mat.identity(A.ring, A.rows):
        return None
    return X


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
    n, k, gens = A.ring.modulus, A.rows, A.columns()
    if n is None:  # continue mod D on the rows of the HNF
        hnf = _hnf(None, A.rows, gens)
        k, n = len(hnf), prod(c[i] for i, c in hnf.items())
        gens = [[c[i] for c in hnf.values()] for i in range(A.rows)]
    while True:
        pivots = _hnf(n, k, gens)
        if not any(any(c[i + 1:]) for i, c in pivots.items()):
            break
        gens = [[pivots[j][i] if j in pivots else 0 for j in range(k)] for i in range(k)]
    diag = [pivots[i][i] if i in pivots else n for i in range(k)]
    for i in range(k):  # a diagonal form's factors, sorted into a chain
        for j in range(i + 1, k):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
