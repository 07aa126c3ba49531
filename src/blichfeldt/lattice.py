"""Full-rank lattices and their classical invariants.

A lattice is stored by a rational row basis; all point work happens in
coefficient space (so counting over any lattice is counting over Z^n),
and Euclidean geometry enters only through the Gram matrix.  Shortest
vectors come from exact Fincke-Pohst-style enumeration on the rational
Gram matrix, Voronoi-relevant vectors from coset-wise minimization in
L/2L, and the covering radius from exact Dirichlet-Voronoi vertex
enumeration.  Enumeration nodes and the vertex candidates tried count
against a budget, and running out raises ``EnumerationBudgetError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, isqrt

from blichfeldt import linalg
from blichfeldt.linalg import DegenerateBasisError
from blichfeldt.radical import RadicalSum

SVP_MAX_DIM = 6
RELEVANT_MAX_DIM = 5
MU_MAX_DIM = 4
DEFAULT_BUDGET = 10 ** 8  # enumeration nodes, hull orientation tests or lattice cells


class DimensionUnsupportedError(ValueError):
    pass


class EnumerationBudgetError(RuntimeError):
    def __init__(self, budget):
        super().__init__(f"enumeration budget exceeded (budget={budget})")
        self.budget = budget


class Lattice:
    """Full-rank lattice given by rational basis rows."""

    def __init__(self, basis):
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        self.dim = len(self.basis)
        if any(len(row) != self.dim for row in self.basis):
            raise ValueError("basis must be square")
        if linalg.frac_det(self.basis) == 0:
            raise DegenerateBasisError("degenerate basis")

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(linalg.identity(n))

    @cached_property
    def determinant(self) -> Fraction:
        return abs(linalg.frac_det(self.basis))

    @cached_property
    def gram(self):
        b = self.basis
        n = self.dim
        return tuple(
            tuple(sum(b[i][k] * b[j][k] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    @cached_property
    def basis_inverse(self):
        return tuple(tuple(row) for row in linalg.frac_inv(self.basis))

    @cached_property
    def dual_basis(self):
        """Rows d_i with basis . dual^T = identity."""
        inv = self.basis_inverse
        n = self.dim
        return tuple(tuple(inv[i][j] for i in range(n)) for j in range(n))

    @cached_property
    def dual_gram(self):
        d = self.dual_basis
        n = self.dim
        return tuple(
            tuple(sum(d[i][k] * d[j][k] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    def to_ambient(self, coeff):
        return tuple(linalg.frac_vec_mat([Fraction(x) for x in coeff], self.basis))

    def to_coeff(self, point):
        return tuple(linalg.frac_vec_mat([Fraction(x) for x in point], self.basis_inverse))

    def contains(self, point) -> bool:
        return all(c.denominator == 1 for c in self.to_coeff(point))

    def norm_sq_of_coeff(self, coeff) -> Fraction:
        g = self.gram
        n = self.dim
        coeff = [Fraction(x) for x in coeff]
        return sum(
            (coeff[i] * coeff[j] * g[i][j] for i in range(n) for j in range(n)),
            Fraction(0),
        )

    def __repr__(self):
        return f"Lattice(dim={self.dim}, det={self.determinant})"


@dataclass(frozen=True)
class ShortestVectorResult:
    length_sq: Fraction
    minimizers: tuple  # coefficient vectors, one per +/- pair


@dataclass(frozen=True)
class DirichletVoronoiCell:
    relevant_vectors: tuple  # coefficient vectors (both signs)
    vertices: tuple          # ambient rational points


def polar_lattice(lat: Lattice) -> Lattice:
    return Lattice(lat.dual_basis)


# ---------------------------------------------------------------------------
# exact ellipsoid enumeration


def _ldl(gram):
    """G = L D L^T with unit lower-triangular L and positive diagonal D."""
    n = len(gram)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        D[j] = gram[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if D[j] <= 0:
            raise ValueError("Gram matrix not positive definite")
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            L[i][j] = (gram[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    return L, D


def _floor_plus_sqrt(a: Fraction, t: Fraction) -> int:
    """floor(a + sqrt(t)) for rationals, t >= 0, computed exactly."""
    p, q = t.numerator, t.denominator
    hi = Fraction(isqrt(p * q) + 1, q)  # upper bound on sqrt(t)
    m = (a + hi).__floor__() + 1
    while True:
        diff = m - a
        if diff <= 0 or diff * diff <= t:
            return m
        m -= 1


def _ceil_minus_sqrt(a: Fraction, t: Fraction) -> int:
    return -_floor_plus_sqrt(-a, t)


def enum_ellipsoid(gram, center, radius_sq, budget: int = DEFAULT_BUDGET):
    """All integer vectors x with (x - center)^T G (x - center) <= radius_sq.

    Exact enumeration: the LDL^T decomposition gives certified per-level
    bounds, so nothing inside the ellipsoid is missed.  Every candidate
    coordinate tried counts against ``budget``.
    """
    n = len(gram)
    center = [Fraction(c) for c in center]
    radius_sq = Fraction(radius_sq)
    L, D = _ldl(gram)
    out = []
    x = [0] * n
    nodes = 0

    def rec(j, remaining, ys):
        # ys[i] for i > j already fixed; z_j = y_j + sum_{i>j} L[i][j] y_i
        nonlocal nodes
        if j < 0:
            out.append(tuple(x))
            return
        u = sum(L[i][j] * ys[i] for i in range(j + 1, n))
        bound = remaining / D[j]
        lo = _ceil_minus_sqrt(center[j] - u, bound)
        hi = _floor_plus_sqrt(center[j] - u, bound)
        nodes += max(0, hi - lo + 1)
        if nodes > budget:
            raise EnumerationBudgetError(budget)
        for xj in range(lo, hi + 1):
            y = xj - center[j]
            z = y + u
            used = D[j] * z * z
            if used <= remaining:
                x[j] = xj
                ys[j] = y
                rec(j - 1, remaining - used, ys)

    rec(n - 1, radius_sq, [Fraction(0)] * n)
    return out


def _canonical_sign(v):
    for c in v:
        if c != 0:
            return v if c > 0 else tuple(-x for x in v)
    return v


def shortest_vector(lat: Lattice, budget: int = DEFAULT_BUDGET) -> ShortestVectorResult:
    """Exact shortest nonzero vector via certified enumeration."""
    if lat.dim > SVP_MAX_DIM:
        raise DimensionUnsupportedError("dimension unsupported")
    g = lat.gram
    radius = min(g[i][i] for i in range(lat.dim))
    candidates = [v for v in enum_ellipsoid(g, [0] * lat.dim, radius, budget) if any(v)]
    best = min(lat.norm_sq_of_coeff(v) for v in candidates)
    minimizers = sorted({
        _canonical_sign(v) for v in candidates if lat.norm_sq_of_coeff(v) == best
    })
    return ShortestVectorResult(length_sq=best, minimizers=tuple(minimizers))


def relevant_vectors(lat: Lattice, budget: int = DEFAULT_BUDGET):
    """Voronoi-relevant vectors, by Voronoi's criterion on L/2L cosets.

    Returns coefficient vectors, both signs included; at most 2*(2^n - 1).
    """
    if lat.dim > RELEVANT_MAX_DIM:
        raise DimensionUnsupportedError("dimension unsupported")
    n = lat.dim
    g = lat.gram
    gram4 = tuple(tuple(4 * x for x in row) for row in g)
    out = []
    for parity in itertools.product((0, 1), repeat=n):
        if not any(parity):
            continue
        bound = lat.norm_sq_of_coeff(parity)
        center = [Fraction(-p, 2) for p in parity]
        # x = parity + 2y ; |x|^2 = 4*(y + parity/2)^T G (y + parity/2)
        ys = enum_ellipsoid(gram4, center, bound, budget)
        vecs = [tuple(p + 2 * y for p, y in zip(parity, yv)) for yv in ys]
        norms = [lat.norm_sq_of_coeff(v) for v in vecs]
        best = min(norms)
        minimal = [v for v, nm in zip(vecs, norms) if nm == best]
        if len(minimal) == 2:  # unique up to sign
            out.extend(minimal)
    return sorted(out)


def dirichlet_voronoi_cell(lat: Lattice, budget: int = DEFAULT_BUDGET) -> DirichletVoronoiCell:
    """DV cell facets from relevant vectors, vertices from exact n-subsets.

    The n-subsets to try count against ``budget`` before any is tried.
    """
    if lat.dim > MU_MAX_DIM:
        raise DimensionUnsupportedError("dimension unsupported")
    n = lat.dim
    rel = relevant_vectors(lat, budget)
    if comb(len(rel), n) > budget:
        raise EnumerationBudgetError(budget)
    facets = []
    for v in rel:
        amb = lat.to_ambient(v)
        rhs = sum(a * a for a in amb) / 2
        facets.append((amb, rhs))
    vertices = set()
    for subset in itertools.combinations(range(len(facets)), n):
        mat = [list(facets[i][0]) for i in subset]
        if linalg.frac_rank(mat) < n:
            continue
        rhs = [facets[i][1] for i in subset]
        x = linalg.frac_solve(mat, rhs)
        if all(
            sum(a * xi for a, xi in zip(amb, x)) <= b for amb, b in facets
        ):
            vertices.add(tuple(x))
    return DirichletVoronoiCell(relevant_vectors=tuple(rel), vertices=tuple(sorted(vertices)))


def covering_radius_sq(lat: Lattice, budget: int = DEFAULT_BUDGET) -> Fraction:
    """mu(L)^2: the largest squared vertex norm of the DV cell."""
    cell = dirichlet_voronoi_cell(lat, budget)
    return max(sum(x * x for x in v) for v in cell.vertices)


def inhomogeneous_minimum(lat: Lattice, budget: int = DEFAULT_BUDGET) -> RadicalSum:
    """mu(L), exact (single square root of a rational)."""
    return RadicalSum.sqrt(covering_radius_sq(lat, budget))


def min_hyperplane_sublattice_det(lat: Lattice, budget: int = DEFAULT_BUDGET) -> RadicalSum:
    """det(L) * lambda_1(L*): the minimal (n-1)-sublattice determinant."""
    lam_sq = shortest_vector(polar_lattice(lat), budget).length_sq
    return lat.determinant * RadicalSum.sqrt(lam_sq)


def hyperplane_sublattice_det_sq(lat: Lattice, dual_coeff) -> Fraction:
    """Squared determinant of {u in L : a.u = 0} for a primitive dual vector.

    The dual vector is given by its (primitive, gcd 1) coefficients in the
    dual basis; the sublattice determinant is computed directly from an
    explicit kernel basis, independent of the polar-lattice identity.
    """
    kernel = linalg.kernel_basis(list(dual_coeff))
    rows = [lat.to_ambient(k) for k in kernel]
    m = len(rows)
    gram = [
        [sum(rows[i][k] * rows[j][k] for k in range(lat.dim)) for j in range(m)]
        for i in range(m)
    ]
    return linalg.frac_det(gram)


def dual_coeff_to_ambient(lat: Lattice, coeffs):
    return tuple(linalg.frac_vec_mat([Fraction(c) for c in coeffs], lat.dual_basis))


def dual_norm_sq(lat: Lattice, coeffs) -> Fraction:
    g = lat.dual_gram
    n = lat.dim
    coeffs = [Fraction(c) for c in coeffs]
    return sum(
        (coeffs[i] * coeffs[j] * g[i][j] for i in range(n) for j in range(n)),
        Fraction(0),
    )
