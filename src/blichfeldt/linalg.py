"""Exact integer and rational linear algebra.

Integer matrices are plain lists of lists of Python ints; rational matrices
use ``fractions.Fraction``.  Determinants use fraction-free (Bareiss)
elimination, normal forms use classic row/column reduction with tracked
unimodular transforms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class DegenerateBasisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices


def mat_copy(m):
    return [list(row) for row in m]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def det_bareiss(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix not square")
    a = mat_copy(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _xgcd(a, b):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_upper(m):
    """Row-style upper-triangular HNF: returns (H, U) with H = U*M.

    Requires full row rank; raises DegenerateBasisError otherwise.
    """
    rows = len(m)
    cols = len(m[0])
    h = mat_copy(m)
    u = identity(rows)
    pivot_row = 0
    pivot_cols = []
    for col in range(cols):
        if pivot_row >= rows:
            break
        # clear column below pivot_row via gcd row operations
        nz = [i for i in range(pivot_row, rows) if h[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != pivot_row:
            h[pivot_row], h[i0] = h[i0], h[pivot_row]
            u[pivot_row], u[i0] = u[i0], u[pivot_row]
        for i in range(pivot_row + 1, rows):
            if h[i][col] == 0:
                continue
            g, x, y = _xgcd(h[pivot_row][col], h[i][col])
            p = h[pivot_row][col] // g
            q = h[i][col] // g
            # new pivot row = x*rp + y*ri ; new row i = -q*rp + p*ri
            rp, ri = h[pivot_row], h[i]
            h[pivot_row] = [x * rp[j] + y * ri[j] for j in range(cols)]
            h[i] = [-q * rp[j] + p * ri[j] for j in range(cols)]
            up, ui = u[pivot_row], u[i]
            u[pivot_row] = [x * up[j] + y * ui[j] for j in range(rows)]
            u[i] = [-q * up[j] + p * ui[j] for j in range(rows)]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        # reduce entries above the pivot
        piv = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // piv
            if q:
                h[i] = [h[i][j] - q * h[pivot_row][j] for j in range(cols)]
                u[i] = [u[i][j] - q * u[pivot_row][j] for j in range(rows)]
        pivot_cols.append(col)
        pivot_row += 1
    if pivot_row < rows:
        raise DegenerateBasisError("degenerate basis")
    return h, u


def hermite_normal_form(m):
    """Lower-triangular HNF: returns (H, U) with H = U*M, |det U| = 1.

    M must have full row rank.  For square M the diagonal of H is positive
    and its product equals |det M|.
    """
    rows = len(m)
    cols = len(m[0])
    rev = [[m[rows - 1 - i][cols - 1 - j] for j in range(cols)] for i in range(rows)]
    hr, ur = _hnf_upper(rev)
    h = [[hr[rows - 1 - i][cols - 1 - j] for j in range(cols)] for i in range(rows)]
    u = [[ur[rows - 1 - i][rows - 1 - j] for j in range(rows)] for i in range(rows)]
    return h, u


def smith_normal_form(m):
    """Invariant factors d_1 | d_2 | ... | d_n of a nonsingular square matrix."""
    n = len(m)
    if det_bareiss(m) == 0:
        raise DegenerateBasisError("singular matrix")
    a = mat_copy(m)

    def _min_pivot(t):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    invariants = []
    for t in range(n):
        while True:
            i, j = _min_pivot(t)
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            done = True
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [a[i][k] - q * a[t][k] for k in range(n)]
                if a[i][t] != 0:
                    done = False
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j] != 0:
                    done = False
            if not done:
                continue
            # pivot must divide every remaining entry
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [a[t][k] + a[bad][k] for k in range(n)]
        invariants.append(abs(a[t][t]))
    return invariants


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (zero vector barred)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in v], g


def unimodular_for_primitive(c):
    """Unimodular U with U @ c == e_1, for a primitive integer vector c.

    Rows 2..n of U form a basis of the integer kernel lattice {u : u.c = 0}.
    """
    n = len(c)
    u = identity(n)
    vals = list(c)
    for i in range(1, n):
        if vals[i] == 0:
            continue
        g, x, y = _xgcd(vals[0], vals[i])
        p = vals[0] // g
        q = vals[i] // g
        r0, ri = u[0], u[i]
        u[0] = [x * r0[j] + y * ri[j] for j in range(n)]
        u[i] = [-q * r0[j] + p * ri[j] for j in range(n)]
        vals[0], vals[i] = g, 0
    if vals[0] == -1:
        u[0] = [-x for x in u[0]]
        vals[0] = 1
    if vals[0] != 1:
        raise ValueError("vector is not primitive")
    return u


def kernel_basis(c):
    """Integer basis of the saturated kernel lattice of a primitive vector c."""
    u = unimodular_for_primitive(c)
    return u[1:]


# ---------------------------------------------------------------------------
# rational matrices


def frac_mat_mul(a, b):
    inner, cols = len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def frac_mat_vec(m, v):
    return [sum((m[i][j] * v[j] for j in range(len(v))), Fraction(0)) for i in range(len(m))]


def frac_vec_mat(v, m):
    return [sum((v[i] * m[i][j] for i in range(len(v))), Fraction(0)) for j in range(len(m[0]))]


def frac_det(m) -> Fraction:
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                a[i] = [a[i][j] - f * a[k][j] for j in range(n)]
    return det


def frac_inv(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise DegenerateBasisError("singular matrix")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [a[i][j] - f * a[k][j] for j in range(2 * n)]
    return [row[n:] for row in a]


def frac_solve(m, rhs):
    """Solve m @ x = rhs exactly (m square nonsingular)."""
    inv = frac_inv(m)
    return frac_mat_vec(inv, [Fraction(x) for x in rhs])


def frac_rank(m) -> int:
    if not m:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        piv = None
        for i in range(rank, rows):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [a[i][j] - f * a[rank][j] for j in range(cols)]
        rank += 1
        if rank == rows:
            break
    return rank


def affine_rank(points) -> int:
    """Dimension of the affine hull of a list of rational points."""
    if not points:
        return -1
    base = points[0]
    diffs = [[Fraction(p[j]) - Fraction(base[j]) for j in range(len(base))] for p in points[1:]]
    return frac_rank(diffs)
