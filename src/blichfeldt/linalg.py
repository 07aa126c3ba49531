"""Exact integer and rational linear algebra.

Integer matrices are plain lists of lists of Python ints; rational matrices
use ``fractions.Fraction``.  Integer determinants use fraction-free
(Bareiss) elimination, rational ones and inverses Gaussian elimination;
``primitive_vector`` divides out an integer vector's content.
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


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (zero vector barred)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in v], g


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
