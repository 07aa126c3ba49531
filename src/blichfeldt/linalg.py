"""Exact integer linear algebra.

Matrices are lists (or tuples) of rows of Python ints.  Determinants use
fraction-free (Bareiss) elimination, with closed forms up to 3x3, and the
adjugate is the matrix of their cofactors, so a rational inverse is
``adjugate(m) / det_bareiss(m)`` with one division per entry, taken where it
is used.  ``cross`` is the generalized cross product of d-1 rows in Z^d (the
hull's simplex normals), closed-form in 2D and 3D.  ``primitive_vector``
divides out an integer vector's content.
"""

from __future__ import annotations

from math import gcd
from operator import mul


class DegenerateBasisError(ValueError):
    pass


def mat_copy(m):
    return [list(row) for row in m]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_bareiss(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination).

    The empty matrix has determinant 1; up to 3x3 it is expanded along
    its last row.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix not square")
    if n <= 3:
        return sum(map(mul, cross(m[:-1]), m[-1])) if n else 1
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


def cross(rows):
    """Generalized cross product N of d-1 integer rows in Z^d.

    N's entries are the rows' signed maximal minors, with N.x = det([rows; x])
    for every x: N is normal to the rows, and zero when they are dependent.
    """
    d = len(rows) + 1
    if d == 3:
        (a, b, c), (e, f, g) = rows
        return [b * g - c * f, c * e - a * g, a * f - b * e]
    if d == 2:
        return [-rows[0][1], rows[0][0]]
    return [(-1) ** (d - 1 + j) * det_bareiss([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]


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
