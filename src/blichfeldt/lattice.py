"""Full-rank lattices and their classical invariants.

A lattice keeps its rational row basis as one integer matrix B over one
denominator; its determinant, inverse, Gram matrix and polar come from B
by integer elimination (``linalg.det_bareiss``, ``linalg.adjugate``), each
divided once, and the dual Gram matrix is the polar's.  All point work happens in
coefficient space (so counting over any lattice is counting over Z^n),
and Euclidean geometry enters only through the Gram matrix.  One exact
Fincke-Pohst enumerator, on a fraction-free LDL^T of the integer Gram
matrix B B^T (Bareiss) factored once per lattice, runs in integers (each
level's interval is one ``isqrt``).  It counts the points of balls and lists
the short vectors, each with its norm, behind shortest and Voronoi-relevant
vectors (found coset-wise in L/2L); the covering radius is the largest vertex norm
of the Dirichlet-Voronoi cell, whose vertices are the facets of the hull of
the points 2v/|v|^2 (``polytope.convex_hull_facets``), and both invariants are
memoised per exact basis.  Enumeration nodes and the hull's orientation
tests count against a budget; running out raises ``EnumerationBudgetError``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

from blichfeldt import linalg
from blichfeldt.linalg import DegenerateBasisError

SVP_MAX_DIM = 6
MU_MAX_DIM = 4
DEFAULT_BUDGET = 10 ** 8  # enumeration nodes, hull orientation tests or lattice cells


class DimensionUnsupportedError(ValueError):
    pass


class EnumerationBudgetError(RuntimeError):
    def __init__(self, budget):
        super().__init__(f"enumeration budget exceeded (budget={budget})")
        self.budget = budget


def _form(g, u, v):
    """u^T g v, exactly."""
    return sum(a * sum(map(mul, row, v)) for a, row in zip(u, g))


class Lattice:
    """Full-rank lattice given by rational basis rows.

    ``basis`` is the parsed form: it is what a body file holds and what
    keys the memo.  ``B = den * basis`` is the same basis as an integer
    matrix over the least common denominator ``den``, and every other datum
    is an integer matrix from B, divided once where a rational is needed:
    Gram = B B^T / den^2 and basis^-1 = den adj(B) / det(B).  The polar's
    basis is basis^-1 transposed, so the dual Gram is the polar's Gram.
    """

    def __init__(self, basis):
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        self.dim = len(self.basis)
        if any(len(row) != self.dim for row in self.basis):
            raise ValueError("basis must be square")
        self.den = den = lcm(*(x.denominator for row in self.basis for x in row))
        self.B = tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                       for row in self.basis)
        self.det_B = linalg.det_bareiss(self.B)
        if self.det_B == 0:
            raise DegenerateBasisError("degenerate basis")

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(linalg.identity(n))

    @cached_property
    def determinant(self) -> Fraction:
        return abs(Fraction(self.det_B, self.den ** self.dim))

    @cached_property
    def adj(self):
        """adj(B): B . adj = det(B) I."""
        return linalg.adjugate(self.B)

    @cached_property
    def gram_B(self):
        """B B^T, the Gram matrix times den^2."""
        return tuple(tuple(sum(map(mul, r, s)) for s in self.B) for r in self.B)

    @cached_property
    def dual_gram(self):
        """The dual Gram matrix, the inverse of the Gram matrix: the polar's."""
        d2 = self.polar.den ** 2
        return tuple(tuple(Fraction(x, d2) for x in row) for row in self.polar.gram_B)

    @cached_property
    def ldl(self):
        """``_ldl`` of the integer ``gram_B``, factored once per lattice."""
        return _ldl(self.gram_B)

    @cached_property
    def polar(self) -> "Lattice":
        """L*, whose basis rows d_i satisfy basis . d^T = I."""
        return Lattice([[Fraction(self.den * a, self.det_B) for a in col]
                        for col in zip(*self.adj)])

    def to_ambient(self, coeff):
        return tuple(Fraction(sum(map(mul, coeff, col)), self.den) for col in zip(*self.B))

    def to_coeff(self, point):
        return tuple(Fraction(self.den * sum(map(mul, point, col)), self.det_B)
                     for col in zip(*self.adj))

    def contains(self, point) -> bool:
        return all(c.denominator == 1 for c in self.to_coeff(point))

    def norm_sq_of_coeff(self, coeff) -> Fraction:
        return Fraction(_form(self.gram_B, coeff, coeff), self.den ** 2)

    def __repr__(self):
        return f"Lattice(dim={self.dim}, det={self.determinant})"


class ShortestVectorResult(NamedTuple):
    length_sq: Fraction
    minimizers: tuple  # coefficient vectors, one per +/- pair


class DirichletVoronoiCell(NamedTuple):
    relevant_vectors: tuple  # coefficient vectors (both signs)
    vertices: tuple          # ambient rational points


# ---------------------------------------------------------------------------
# exact ellipsoid enumeration


def _ldl(gram):
    """G = L D L^T for a positive definite integer G, fraction-free (Bareiss):
    ``(N, minors)``, minors[j] the j-th leading principal minor (minors[0] = 1),
    D_j = minors[j+1] / minors[j] and L[i][j] = N[i][j] / minors[j+1] for
    i > j.  Only the lower triangle, which stays symmetric, is eliminated."""
    n = len(gram)
    a = [list(row) for row in gram]
    minors = [1]
    for k in range(n):
        if a[k][k] <= 0:
            raise ValueError("Gram matrix not positive definite")
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[j][k]) // minors[-1]
        minors.append(a[k][k])
    return a, minors


def enum_ellipsoid(lat: Lattice, center, radius_sq, budget: int = DEFAULT_BUDGET,
                   points: bool = False):
    """Integer vectors x with (x - center)^T G (x - center) <= radius_sq,
    G the lattice's Gram matrix.

    Returns ``(found, nodes)``: their number, or when ``points`` the list of
    pairs ``(x, (x - center)^T G (x - center))``, and the candidate
    coordinates tried, which count against ``budget``.  LDL^T gives each
    level the exact interval of its coordinate (``lat.ldl``, shared by every
    call on the lattice), so the innermost level is counted without building
    a vector, and a point's norm is radius_sq less what remains of it at the
    innermost level.  All in integers, with center = C / e, radius_sq = rn / rd
    and P = prod(minors): level j's centre is A_j / q_j, q_j = e minors[j+1],
    what remains is rho / (rd (e den)^2 P), and the level spends w_j u^2 of it,
    u = q_j x_j - A_j, w_j = rd P / (minors[j] minors[j+1]).  So its interval
    is |u| <= isqrt(rho // w_j), and x_j folds -e N[j][k] x_j into A_k, k < j.
    """
    n = lat.dim
    N, minors = lat.ldl
    rn, rd = Fraction(radius_sq).as_integer_ratio()
    e = lcm(*(c.denominator for c in center))
    C = [c.numerator * (e // c.denominator) for c in center]
    P = prod(minors)
    scale = (e * lat.den) ** 2 * P
    w = [rd * P // (minors[j] * minors[j + 1]) for j in range(n)]
    folds = [[e * N[j][k] for k in range(j)] for j in range(n)]
    out = []
    x = [0] * n
    found = nodes = 0

    def rec(j, rho, centres):
        nonlocal found, nodes
        a, qj = centres[j], e * minors[j + 1]
        s = isqrt(rho // w[j])
        lo, hi = -((s - a) // qj), (a + s) // qj
        if lo > hi:
            return
        nodes += hi - lo + 1
        if nodes > budget:
            raise EnumerationBudgetError(budget)
        if j == 0 and not points:
            found += hi - lo + 1
            return
        for xj in range(lo, hi + 1):
            x[j] = xj
            left = rho - w[j] * (qj * xj - a) ** 2
            if j == 0:
                out.append((tuple(x), Fraction(rn * scale - left, rd * scale)))
            else:
                rec(j - 1, left, [c - f * xj for c, f in zip(centres, folds[j])])

    rec(n - 1, rn * scale,
        [C[j] * minors[j + 1] + sum(N[i][j] * C[i] for i in range(j + 1, n)) for j in range(n)])
    return (out if points else found), nodes


_INVARIANTS: dict = {}   # (computation, exact basis) -> (value, needed)
_INVARIANTS_MAX = 1024


def _memoised(compute, lat: Lattice, budget: int):
    """``compute(lat, budget)`` -> (value, needed), once per exact basis.

    ``needed`` is the least budget under which the computation answers, so a
    hit under a smaller budget raises exactly as a fresh computation would.
    When the cache is full, its oldest entry goes.
    """
    key = (compute, lat.basis)
    if key not in _INVARIANTS:
        if len(_INVARIANTS) >= _INVARIANTS_MAX:
            del _INVARIANTS[next(iter(_INVARIANTS))]
        _INVARIANTS[key] = compute(lat, budget)
    value, needed = _INVARIANTS[key]
    if needed > budget:
        raise EnumerationBudgetError(budget)
    return value


def _canonical_sign(v):
    for c in v:
        if c != 0:
            return v if c > 0 else tuple(-x for x in v)
    return v


def shortest_vector(lat: Lattice, budget: int = DEFAULT_BUDGET) -> ShortestVectorResult:
    """Exact shortest nonzero vector via certified enumeration."""
    if lat.dim > SVP_MAX_DIM:
        raise DimensionUnsupportedError("dimension unsupported")
    return _memoised(_shortest_vector, lat, budget)


def _shortest_vector(lat: Lattice, budget: int):
    radius = Fraction(min(lat.gram_B[i][i] for i in range(lat.dim)), lat.den ** 2)
    found, nodes = enum_ellipsoid(lat, [0] * lat.dim, radius, budget, points=True)
    best = min(norm for v, norm in found if any(v))
    minimizers = sorted({_canonical_sign(v) for v, norm in found if norm == best})
    return ShortestVectorResult(length_sq=best, minimizers=tuple(minimizers)), nodes


def _relevant_vectors(lat: Lattice, budget: int):
    """Voronoi-relevant vectors, by Voronoi's criterion on L/2L cosets.

    Returns the coefficient vectors, both signs included (at most
    2*(2^n - 1)), and the most nodes one coset's enumeration took.
    """
    out = []
    needed = 0
    for parity in itertools.product((0, 1), repeat=lat.dim):
        if not any(parity):
            continue
        bound = lat.norm_sq_of_coeff(parity)
        center = [Fraction(-p, 2) for p in parity]
        # x = parity + 2y ; |x|^2 = 4*(y + parity/2)^T G (y + parity/2)
        ys, nodes = enum_ellipsoid(lat, center, bound / 4, budget, points=True)
        needed = max(needed, nodes)
        best = min(norm for _, norm in ys)
        minimal = [y for y, norm in ys if norm == best]
        if len(minimal) == 2:  # unique up to sign
            out.extend(tuple(p + 2 * y for p, y in zip(parity, yv)) for yv in minimal)
    return sorted(out), needed


def dirichlet_voronoi_cell(lat: Lattice, budget: int = DEFAULT_BUDGET) -> DirichletVoronoiCell:
    """DV cell facets from relevant vectors, vertices from the hull engine.

    The cell {x : v.x <= |v|^2/2} is the polar of conv{2v/|v|^2}
    (Sikiric, Schuermann and Vallentin, Math. Comp. 78 (2009)), so each
    facet of that hull is a vertex of the cell.  The hull's orientation
    tests count against ``budget``.
    """
    if lat.dim > MU_MAX_DIM:
        raise DimensionUnsupportedError("dimension unsupported")
    return _memoised(_dirichlet_voronoi_cell, lat, budget)


def _dirichlet_voronoi_cell(lat: Lattice, budget: int):
    from blichfeldt.polytope import convex_hull_facets  # polytope imports this module

    rel, needed = _relevant_vectors(lat, budget)
    points = []
    for v in rel:
        amb = lat.to_ambient(v)
        norm_sq = sum(a * a for a in amb)
        points.append([2 * a / norm_sq for a in amb])
    m = lcm(*(x.denominator for p in points for x in p))
    facets, _, work, _ = convex_hull_facets([tuple(int(m * x) for x in p) for p in points], budget)
    # relevant vectors come in +/- pairs and span, so the origin is interior
    # and every offset c is positive: a.(m p) <= c reads (m a / c).p <= 1
    vertices = sorted(tuple(Fraction(m * a, c) for a in normal) for normal, c, *_ in facets)
    cell = DirichletVoronoiCell(relevant_vectors=tuple(rel), vertices=tuple(vertices))
    return cell, max(needed, work)


def covering_radius_sq(lat: Lattice, budget: int = DEFAULT_BUDGET) -> Fraction:
    """mu(L)^2: the largest squared vertex norm of the DV cell."""
    cell = dirichlet_voronoi_cell(lat, budget)
    return max(sum(x * x for x in v) for v in cell.vertices)


def inhomogeneous_minimum(lat: Lattice, budget: int = DEFAULT_BUDGET) -> RadicalSum:
    """mu(L), exact (single square root of a rational)."""
    from blichfeldt.radical import RadicalSum

    return RadicalSum.sqrt(covering_radius_sq(lat, budget))


def min_hyperplane_sublattice_det(lat: Lattice, budget: int = DEFAULT_BUDGET) -> RadicalSum:
    """det(L) * lambda_1(L*): the minimal (n-1)-sublattice determinant."""
    from blichfeldt.radical import RadicalSum

    lam_sq = shortest_vector(lat.polar, budget).length_sq
    return lat.determinant * RadicalSum.sqrt(lam_sq)


def dual_inner(lat: Lattice, u, v) -> Fraction:
    """Inner product of the dual vectors with dual-basis coefficients u, v."""
    return Fraction(_form(lat.polar.gram_B, u, v), lat.polar.den ** 2)


def dual_norm_sq(lat: Lattice, coeffs) -> Fraction:
    return dual_inner(lat, coeffs, coeffs)
