"""Exact integer linear algebra.

Matrices are lists (or tuples) of rows of Python ints.  Determinants use
fraction-free (Bareiss) elimination, and the adjugate is the matrix of
their cofactors, so a rational inverse is ``adjugate(m) / det_bareiss(m)``
with one division per entry, taken where it is used.  ``primitive_vector``
divides out an integer vector's content.
"""

from __future__ import annotations

from math import gcd


class DegenerateBasisError(ValueError):
    pass


def mat_copy(m):
    return [list(row) for row in m]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_bareiss(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination).

    The empty matrix has determinant 1.
    """
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
    return sign * a[n - 1][n - 1] if n else 1


def adjugate(m):
    """adj(m), with m . adj(m) = det(m) I, singular m included.

    Entry (j, i) is the cofactor of entry (i, j): (-1)^(i+j) times the
    determinant of m less row i and column j.
    """
    n = len(m)
    return [[(-1) ** (i + j) * det_bareiss([r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i])
             for i in range(n)] for j in range(n)]


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (zero vector barred)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in v], g
