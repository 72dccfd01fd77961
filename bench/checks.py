"""Independent checks of homcert results.

Nothing here calls homcert's linear algebra: matrices are read as plain
lists of rows and every check is integer multiplication, comparison, or
Gaussian elimination modulo a prime written out below.  A check returns
None when the result holds and a short message when it does not.
"""

from __future__ import annotations

# Two large primes: the rank of a rational matrix is the larger of its
# ranks modulo these, unless both divide every maximal minor.
_BIG_PRIMES = (2**61 - 1, 2**31 - 1)


def rows_of(m) -> list[list[int]]:
    c = m.cols
    e = m.entries
    return [list(e[i * c:(i + 1) * c]) for i in range(m.rows)]


def transpose(a: list[list[int]], cols: int) -> list[list[int]]:
    return [[row[j] for row in a] for j in range(cols)]


def mul(a: list[list[int]], b: list[list[int]], inner: int, cols: int,
        n: int | None) -> list[list[int]]:
    """a (r x inner) times b (inner x cols), reduced mod n when n is set."""
    bt = transpose(b, cols) if b else [[] for _ in range(cols)]
    out = []
    for row in a:
        vals = [sum(x * y for x, y in zip(row, col)) for col in bt]
        out.append([v % n for v in vals] if n else vals)
    return out


def congruent(a: list[list[int]], b: list[list[int]], n: int | None) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if (x - y) % n if n else x != y:
                return False
    return True


def is_zero(a: list[list[int]], n: int | None) -> bool:
    return all((x % n == 0) if n else x == 0 for row in a for x in row)


def rank_mod(a: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination; p must be prime."""
    work = [[x % p for x in row] for row in a]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        prow = [x * inv % p for x in work[rank]]
        work[rank] = prow
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
        rank += 1
    return rank


def rank_q(a: list[list[int]]) -> int:
    return max(rank_mod(a, p) for p in _BIG_PRIMES)


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def hstack(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [ra + rb for ra, rb in zip(a, b)]


# -- elimination results -----------------------------------------------


def check_kernel(a, rows, cols, k, kcols, n) -> str | None:
    if len(k) != cols or any(len(r) != kcols for r in k):
        return "kernel has the wrong shape"
    if kcols and not is_zero(mul(a, k, cols, kcols, n), n):
        return "A*K != 0"
    if n is None:
        want = cols - rank_q(a)
        if kcols != want:
            return f"kernel has {kcols} columns, nullity is {want}"
        # a kernel basis over Z is saturated: full rank modulo every prime
        for p in (2, 3, 5, 7):
            if kcols and rank_mod(k, p) != kcols:
                return f"kernel basis is not saturated at {p}"
    elif prime_factors(n) == [n]:
        want = cols - rank_mod(a, n)
        got = rank_mod(k, n) if kcols else 0
        if got != want:
            return f"kernel spans rank {got}, nullity is {want}"
    return None


def check_solution(a, cols, x, xcols, b, n) -> str | None:
    if x is None:
        return "solve_right found no solution of a consistent system"
    if len(x) != cols:
        return "solution has the wrong shape"
    if not congruent(mul(a, x, cols, xcols, n), b, n):
        return "A*X != B"
    return None


def _in_echelon_span(c: list[list[int]], ccols: int, b: list[int]) -> bool:
    """b in the Z-span of the lower-echelon columns of c (back-substitution)."""
    resid = list(b)
    for j in range(ccols):
        pr = next(i for i in range(len(c)) if c[i][j])
        if any(resid[:pr]):
            return False
        g = c[pr][j]
        if resid[pr] % g:
            return False
        q = resid[pr] // g
        if q:
            for i in range(pr, len(c)):
                resid[i] -= q * c[i][j]
    return not any(resid)


def check_colspan(a, rows, cols, c, ccols, n) -> str | None:
    if len(c) != rows:
        return "column span has the wrong row count"
    if n is None:
        last = -1
        for j in range(ccols):
            pr = next((i for i in range(rows) if c[i][j]), None)
            if pr is None or pr <= last or c[pr][j] <= 0:
                return "column span is not in echelon form"
            if any(not 0 <= c[pr][i] < c[pr][j] for i in range(j)):
                return "entries left of a pivot are not reduced"
            last = pr
        if ccols != rank_q(a):
            return "column span rank differs from the rank of A"
        at = transpose(a, cols)
        if any(not _in_echelon_span(c, ccols, col) for col in at):
            return "a column of A is outside the canonical span"
        return None
    for p in prime_factors(n):
        ra = rank_mod(a, p)
        rc = rank_mod(c, p) if ccols else 0
        if ra != rc or rank_mod(hstack(a, c), p) != ra:
            return f"column spans differ modulo {p}"
    return None


def check_smith(a, cols, diag) -> str | None:
    if any(d <= 0 for d in diag):
        return "Smith invariants must be positive"
    if any(diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
        return "Smith invariants do not form a divisibility chain"
    if len(diag) != rank_q(a):
        return "Smith invariant count differs from the rank"
    return None


# -- certificate and homotopy identities --------------------------------


def check_flat_certificate(a, z, ast, q, n) -> str | None:
    """z == q * ast^T and a * ast == 0 (matrices as homcert Mats)."""
    m = a.cols
    if ast.rows != m or q.cols != ast.cols or q.rows != z.rows:
        return "certificate has the wrong shape"
    rhs = mul(rows_of(q), transpose(rows_of(ast), ast.cols), q.cols, m, n)
    if not congruent(rows_of(z), rhs, n):
        return "z != q * ast^T"
    if ast.cols and not is_zero(mul(rows_of(a), rows_of(ast), m, ast.cols, n), n):
        return "a * ast != 0"
    return None


def check_contraction(rank, diff, comp, lo, hi, n) -> str | None:
    """d^(j-1) s^j + s^(j+1) d^j == identity for j in [lo, hi].

    rank(j), diff(j) and comp(j) give ranks, differentials and the
    homotopy components as row lists."""
    for j in range(lo, hi + 1):
        r = rank(j)
        if not r:
            continue
        left = mul(diff(j - 1), comp(j), rank(j - 1), r, n) if rank(j - 1) else \
            [[0] * r for _ in range(r)]
        right = mul(comp(j + 1), diff(j), rank(j + 1), r, n) if rank(j + 1) else \
            [[0] * r for _ in range(r)]
        total = [[x + y for x, y in zip(u, v)] for u, v in zip(left, right)]
        ident = [[int(i == k) for k in range(r)] for i in range(r)]
        if not congruent(total, ident, n):
            return f"d s + s d != 1 in degree {j}"
    return None


def check_d_squared(rank, diff, lo, hi, n) -> str | None:
    for j in range(lo, hi):
        if rank(j) and rank(j + 1) and rank(j + 2):
            if not is_zero(mul(diff(j + 1), diff(j), rank(j + 1), rank(j), n), n):
                return f"d^2 != 0 at degree {j}"
    return None


def max_bits(obj) -> int:
    """Largest bit length of any integer inside a parsed JSON value."""
    best = 0
    stack = [obj]
    while stack:
        v = stack.pop()
        if isinstance(v, bool):
            continue
        if isinstance(v, int):
            b = v.bit_length()
            if b > best:
                best = b
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
    return best
