"""Exact integer and rational linear algebra.

Integer matrices are plain lists of lists of Python ints; rational matrices
use ``fractions.Fraction``.  Determinants use fraction-free (Bareiss)
elimination; kernels of primitive vectors come from an explicit
unimodular transform.
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
