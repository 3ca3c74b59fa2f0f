"""Exact integer matrix algorithms.

Smith normal form with transforms, congruence normal form of skew-symmetric
matrices, saturated integer kernels, and the admissibility test for a root
order against the principal minors and the exponent system.

Matrices are plain lists of lists of Python ints; all operations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

MINOR_SIZE_LIMIT = 14


class NotSkew(ValueError):
    """Input matrix is not skew-symmetric."""


class SizeLimit(ValueError):
    """Matrix too large for exhaustive principal-minor enumeration."""


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def copy_mat(M):
    return [row[:] for row in M]


def transpose(M):
    if not M:
        return []
    return [[M[i][j] for i in range(len(M))] for j in range(len(M[0]))]


def mat_mul(A, B):
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0])
    out = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                Oi = out[i]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def mat_vec(M, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in M]


def is_skew(M):
    n = len(M)
    if any(len(row) != n for row in M):
        return False
    return all(M[i][j] == -M[j][i] for i in range(n) for j in range(i, n))


def det_int(M):
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = copy_mat(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def smith_normal_form(M):
    """U, D, V with U*M*V = D diagonal, d_i | d_{i+1}, U and V unimodular."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = copy_mat(M)
    U = identity(rows)
    V = identity(cols)

    def row_op(i, j, a, b, c, d):
        # (row i, row j) <- (a*ri + b*rj, c*ri + d*rj), ad - bc = +-1
        for T in (D, U):
            ri, rj = T[i], T[j]
            for k in range(len(ri)):
                ri[k], rj[k] = a * ri[k] + b * rj[k], c * ri[k] + d * rj[k]

    def col_op(i, j, a, b, c, d):
        for T in (D, V):
            for row in T:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    def xgcd(a, b):
        x0, x1, y0, y1 = 1, 0, 0, 1
        g, r = a, b
        while r:
            q, (g, r) = g // r, (r, g % r)
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        return g, x0, y0

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Find a pivot.
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0:
                    if piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_op(t, i, 0, 1, 1, 0)
        if j != t:
            col_op(t, j, 0, 1, 1, 0)
        while True:
            # Clear column t.
            for i in range(t + 1, rows):
                if D[i][t]:
                    a, b = D[t][t], D[i][t]
                    if b % a == 0:
                        row_op(i, t, 1, -(b // a), 0, 1)
                    else:
                        g, x, y = xgcd(a, b)
                        row_op(t, i, x, y, -(b // g), a // g)
            # Clear row t.
            dirty = False
            for j in range(t + 1, cols):
                if D[t][j]:
                    a, b = D[t][t], D[t][j]
                    if b % a == 0:
                        col_op(j, t, 1, -(b // a), 0, 1)
                    else:
                        g, x, y = xgcd(a, b)
                        col_op(t, j, x, y, -(b // g), a // g)
                        dirty = True
            if not dirty and all(D[i][t] == 0 for i in range(t + 1, rows)):
                break
        t += 1

    # Positive diagonal, then enforce the divisibility chain by folding each
    # offending adjacent pair diag(a, b) into diag(gcd, lcm).
    for k in range(limit):
        if D[k][k] < 0:
            for T in (D, V):
                for row in T:
                    row[k] = -row[k]
    rank = sum(1 for k in range(limit) if D[k][k])
    changed = True
    while changed:
        changed = False
        for k in range(rank - 1):
            a, b = D[k][k], D[k + 1][k + 1]
            if b % a != 0:
                row_op(k, k + 1, 1, 1, 0, 1)
                g, x, y = xgcd(a, b)
                col_op(k, k + 1, x, y, -(b // g), a // g)
                row_op(k + 1, k, 1, -(D[k + 1][k] // g), 0, 1)
                changed = True
    return U, D, V


@dataclass
class SkewForm:
    """Congruence normal form data of a skew-symmetric integer matrix.

    U * S * U^T is block-diagonal with blocks [[0, d_i], [-d_i, 0]] followed
    by a zero block; the d_i are positive and d_i | d_{i+1}.
    """

    U: list
    ds: list
    corank: int

    @property
    def k(self):
        return len(self.ds)


def skew_normal_form(S):
    """Symplectic-style normal form of a skew matrix under congruence."""
    n = len(S)
    if not is_skew(S):
        raise NotSkew("matrix is not skew-symmetric")
    A = copy_mat(S)
    U = identity(n)

    def add(i, j, m):
        # row_i += m*row_j and col_i += m*col_j (congruence).
        if m == 0 or i == j:
            return
        for k in range(n):
            A[i][k] += m * A[j][k]
        for k in range(n):
            A[k][i] += m * A[k][j]
        for k in range(n):
            U[i][k] += m * U[j][k]

    def swap(i, j):
        if i == j:
            return
        A[i], A[j] = A[j], A[i]
        for k in range(n):
            A[k][i], A[k][j] = A[k][j], A[k][i]
        U[i], U[j] = U[j], U[i]

    def negate(i):
        for k in range(n):
            A[i][k] = -A[i][k]
        for k in range(n):
            A[k][i] = -A[k][i]
        for k in range(n):
            U[i][k] = -U[i][k]

    ds = []
    pos = 0
    while True:
        piv = None
        for i in range(pos, n):
            for j in range(i + 1, n):
                if A[i][j] and (piv is None or abs(A[i][j]) < abs(piv[2])):
                    piv = (i, j, A[i][j])
        if piv is None:
            break
        i, j, _ = piv
        swap(pos, i)
        swap(pos + 1, j if j != pos else i)
        while True:
            d = A[pos][pos + 1]
            # Euclid-reduce the two pivot rows against the rest.
            dirty = False
            for c in range(pos + 2, n):
                if A[pos][c]:
                    m = -(A[pos][c] // d)
                    add(c, pos + 1, m)
                    if A[pos][c]:
                        swap(pos + 1, c)
                        dirty = True
                        break
            if dirty:
                continue
            d = A[pos][pos + 1]
            for c in range(pos + 2, n):
                if A[pos + 1][c]:
                    m = A[pos + 1][c] // d
                    add(c, pos, m)
                    if A[pos + 1][c]:
                        swap(pos, c)
                        dirty = True
                        break
            if dirty:
                continue
            break
        d = A[pos][pos + 1]
        if d < 0:
            negate(pos + 1)
            d = -d
        # Divisibility against the untouched block.
        fixed = False
        for r in range(pos + 2, n):
            for c in range(pos + 2, n):
                if A[r][c] % d != 0:
                    add(pos, r, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        ds.append(d)
        pos += 2

    form = SkewForm(U=U, ds=ds, corank=n - pos)
    _check_skew_form(S, form)
    return form


def is_skew_block_form(U, S, ds):
    """Whether U * S * U^T is block-diagonal with blocks [[0, d_i],
    [-d_i, 0]], d_i in ds, followed by a zero block."""
    B = mat_mul(mat_mul(U, S), transpose(U))
    for i, row in enumerate(B):
        for j, x in enumerate(row):
            expect = 0
            if i // 2 == j // 2 < len(ds) and i != j:
                expect = ds[i // 2] if j == i + 1 else -ds[i // 2]
            if x != expect:
                return False
    return True


def _check_skew_form(S, form):
    if not is_skew_block_form(form.U, S, form.ds):
        raise ArithmeticError("skew normal form verification failed")
    for a, b in zip(form.ds, form.ds[1:]):
        if b % a != 0:
            raise ArithmeticError("skew invariants violate divisibility")


def kernel_int(M):
    """Basis of the saturated lattice {a : M a = 0}, Hermite-reduced rows."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [list(r) for r in identity(cols)]
    _, D, V = smith_normal_form(M)
    basis = []
    for j in range(cols):
        dj = D[j][j] if j < min(rows, cols) else 0
        if dj == 0:
            basis.append([V[i][j] for i in range(cols)])
    return hermite_rows(basis)


def hermite_rows(vectors):
    """Row-style Hermite normal form of a list of integer vectors."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return []
    cols = len(rows[0])
    out = []
    work = rows
    col = 0
    while work and col < cols:
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            reduced = [base]
            for r in live[1:]:
                m = r[col] // base[col]
                nr = [x - m * y for x, y in zip(r, base)]
                (reduced if nr[col] else rest).append(nr)
            live = reduced
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        out.append(pivot)
        work = rest
        col += 1
    # Reduce entries above each pivot for a canonical result.
    for i in range(len(out) - 1, -1, -1):
        pc = next(k for k, x in enumerate(out[i]) if x)
        for j in range(i):
            m = out[j][pc] // out[i][pc]
            if m:
                out[j] = [x - m * y for x, y in zip(out[j], out[i])]
    return out


@dataclass
class AdmissibilityReport:
    """Outcome of the admissibility test, with the first offender if any."""

    ok: bool
    l: int
    offending_minor: tuple | None = None  # (index subset, minor value)
    offending_exponent: int | None = None
    note: str = "principal minors are taken over nonzero values only"

    def __bool__(self):
        return self.ok


def is_admissible(S, exps, l):
    """gcd(l, m) = 1 for every nonzero principal minor m of S, and for exps.

    Odd-order principal minors of a skew matrix vanish identically, so only
    the nonzero ones constrain l; gcd(l, 0) = l would otherwise rule out
    every order.
    """
    n = len(S)
    if n > MINOR_SIZE_LIMIT:
        raise SizeLimit("principal minor enumeration refused for N > %d"
                        % MINOR_SIZE_LIMIT)
    if not is_skew(S):
        raise NotSkew("matrix is not skew-symmetric")
    for s in exps:
        if gcd(l, s) != 1:
            return AdmissibilityReport(False, l, offending_exponent=s)
    for size in range(2, n + 1, 2):
        for subset in combinations(range(n), size):
            sub = [[S[i][j] for j in subset] for i in subset]
            m = det_int(sub)
            if m != 0 and gcd(l, m) != 1:
                return AdmissibilityReport(False, l,
                                           offending_minor=(subset, m))
    return AdmissibilityReport(True, l)


def solve_int(A, b):
    """One integer solution x of A x = b, or None when none exists."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U, D, V = smith_normal_form(A)
    c = mat_vec(U, b)
    y = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < min(rows, cols) else 0
        if d == 0:
            if i < len(c) and c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(min(rows, cols), rows):
        if c[i] != 0:
            return None
    return mat_vec(V, y)
