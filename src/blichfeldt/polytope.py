"""Lattice polytopes with exact vertex/facet representations.

Hulls are built by one beneath-beyond sweep on Python ints (Seidel 1981;
Edelsbrunner 1987).  Points are placed in lexicographic order; a point sees
a boundary simplex only when it lies strictly beyond that simplex's
hyperplane, so coplanar points need no special case.  Coning each new point
over the boundary simplices it sees is the placing triangulation (De Loera,
Rambau and Santos, *Triangulations*, 4.3), and the boundary simplices
sharing a hyperplane tile one facet.  The sweep keeps only their measures:
how far a point lies beyond a simplex's hyperplane is |det| of the simplex
it cones, so these sum to n! vol(P), and the gcd of a boundary simplex's
normal is (n-1)! times its volume in the facet's lattice.  That normal is
``linalg.cross`` of the simplex's edges from its first point.  A ridge of
the boundary complex whose two simplices lie on different facets is a
ridge of P.  Facet normals are primitive dual-lattice vectors, so facet
volumes split into a rational lattice-normalized part and a single square
root.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul
from typing import NamedTuple

from blichfeldt import linalg
from blichfeldt.interval import (
    Interval, acos_interval, numerators, on_grid, pi, root_ends,
)
from blichfeldt.lattice import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    Lattice,
    dual_inner,
    dual_norm_sq,
)


class DegenerateHullError(ValueError):
    pass


class Facet(NamedTuple):
    normal: tuple        # primitive outward normal, dual-basis coefficients
    offset: int          # a.x <= offset
    vertex_ids: tuple


def _independent(vectors, want):
    """Positions of the vectors that, scanned in order, extend a linearly
    independent set; stops after ``want`` of them.

    Greedy choice in a matroid gives the lexicographically smallest basis.
    """
    basis, chosen = [], []
    for k, v in enumerate(vectors):
        for p, row in basis:
            if v[p]:
                v = [row[p] * x - v[p] * y for x, y in zip(v, row)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        g = gcd(*v)
        basis.append((pivot, [x // g for x in v]))
        chosen.append(k)
        if len(chosen) == want:
            break
    return chosen


def convex_hull_facets(points, budget: int = DEFAULT_BUDGET):
    """Beneath-beyond hull of distinct, full-dimensional integer points.

    The points are placed in the given order.  Returns ``(facets, dets,
    work, ridges)``.  Each facet is ``(normal, offset, on_ids, facet_dets)``:
    a primitive outward normal, with ``normal.x <= offset`` on the hull, the
    ids of every point on the facet, and (d-1)! times its volume in the
    lattice of its hyperplane; facets come sorted by ``on_ids``.  ``dets`` is
    d! times the hull's volume, and ``ridges`` the sorted pairs (i, j), i < j,
    of facets that meet in a ridge.  Every point-facet orientation test
    counts against ``budget``, and running out raises
    ``EnumerationBudgetError``; ``work`` is the count, the least budget
    under which the call answers.
    """
    n, d = len(points), len(points[0])
    first = tuple([0] + _independent([[x - y for x, y in zip(p, points[0])] for p in points], d))
    if len(first) <= d:
        raise DegenerateHullError("degenerate: dim(K cap Lambda) < n")

    # d+1 times a point inside the first simplex, hence inside every later hull
    inner = [sum(col) for col in zip(*(points[i] for i in first))]
    live = {}   # boundary simplex (sorted ids) -> (N, c), N.x <= c inside

    def place(ids):
        base = points[ids[0]]
        normal = linalg.cross([[x - y for x, y in zip(points[i], base)] for i in ids[1:]])
        c = sum(map(mul, normal, base))
        if sum(map(mul, normal, inner)) > (d + 1) * c:
            normal, c = [-x for x in normal], -c
        live[ids] = (normal, c)

    for k in range(d + 1):
        place(first[:k] + first[k + 1:])
    # first[0] lies beneath the opposite side by |det| of the first simplex
    normal, c = live[first[1:]]
    dets = c - sum(map(mul, normal, points[0]))
    tests = 0
    for p in range(n):
        if p in first:
            continue
        tests += len(live)
        if tests > budget:
            raise EnumerationBudgetError(budget)
        x = points[p]
        # how far x lies beyond a seen simplex is |det| of the cone ids + (p,)
        seen = {ids: h for ids, (nv, c) in live.items() if (h := sum(map(mul, nv, x)) - c) > 0}
        dets += sum(seen.values())
        # a ridge of one seen simplex only borders an unseen one: the horizon
        ridges = Counter(ids[:k] + ids[k + 1:] for ids in seen for k in range(d))
        for ids in seen:
            del live[ids]
        for ridge, m in ridges.items():
            if m == 1:
                place(tuple(sorted(ridge + (p,))))

    groups = {}   # (primitive normal, offset) -> sum of the pieces' gcds
    keys = {}     # boundary simplex -> its facet's (primitive normal, offset)
    for ids, (normal, c) in live.items():
        prim, g = linalg.primitive_vector(normal)
        keys[ids] = key = (tuple(prim), c // g)
        groups[key] = groups.get(key, 0) + g
    work = tests + len(groups) * n
    if work > budget:
        raise EnumerationBudgetError(budget)
    facets = []
    for (normal, offset), facet_dets in groups.items():
        on = tuple(i for i, x in enumerate(points) if sum(map(mul, normal, x)) == offset)
        facets.append((normal, offset, on, facet_dets))
    facets.sort(key=lambda f: f[2])
    index = {f[:2]: i for i, f in enumerate(facets)}
    # each ridge of the boundary complex borders two simplices; the first
    # one met leaves its facet for the second
    met, pairs = {}, set()
    for ids, key in keys.items():
        i = index[key]
        for k in range(d):
            j = met.setdefault(ids[:k] + ids[k + 1:], i)
            if j != i:
                pairs.add((min(i, j), max(i, j)))
    return facets, dets, work, sorted(pairs)


class LatticePolytope:
    """Full-dimensional lattice polytope in coefficient coordinates.

    The hull's integer measures are kept: ``dets`` is n! times the
    normalized volume and ``facet_dets[i]`` is (n-1)! times facet i's; the
    measures built on them (volume, surface area, facet norms, intrinsic
    volumes) are cached properties: each is computed once, on first use.
    """

    def __init__(self, lattice: Lattice, vertices, facets, dets, facet_dets, ridges):
        self.lattice = lattice
        self.dim = lattice.dim
        self.vertices = vertices      # tuple of integer coefficient tuples
        self.facets = facets          # tuple of Facet
        self.dets = dets
        self.facet_dets = facet_dets
        self.ridges = ridges          # facet pairs (i, j), i < j, meeting in a ridge

    @cached_property
    def volume(self) -> Fraction:
        """Exact Euclidean volume."""
        return normalized_volume(self) * self.lattice.determinant

    @cached_property
    def surface_area(self) -> RadicalSum:
        """Exact surface area: the facets' Euclidean volumes, summed."""
        from blichfeldt.radical import RadicalSum

        det = self.lattice.determinant
        return sum((
            facet_lattice_volume(self, i) * RadicalSum.sqrt(asq * det * det)
            for i, asq in enumerate(self.facet_norms_sq)
        ), RadicalSum())

    @cached_property
    def facet_norms_sq(self) -> tuple:
        """Squared Euclidean norms of the primitive dual facet normals."""
        return tuple(dual_norm_sq(self.lattice, f.normal) for f in self.facets)

    @cached_property
    def intrinsic_volumes(self) -> "IntrinsicVolumes3":
        """V0..V3 (dimension 3 only)."""
        return intrinsic_volumes_3d(self)

    def scaled(self, c: int) -> "LatticePolytope":
        """c*P for an integer c >= 1, without a new hull.

        Normals, facet vertex ids and ridges carry over; vertices and offsets
        are multiplied by c, ``dets`` by c^n and ``facet_dets`` by c^(n-1).
        """
        if c < 1:
            raise ValueError("scale factor must be at least 1")
        return LatticePolytope(
            self.lattice,
            tuple(tuple(c * x for x in v) for v in self.vertices),
            tuple(Facet(f.normal, c * f.offset, f.vertex_ids) for f in self.facets),
            c ** self.dim * self.dets,
            tuple(c ** (self.dim - 1) * g for g in self.facet_dets),
            self.ridges,
        )

    def __repr__(self):
        return (
            f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)}, "
            f"facets={len(self.facets)})"
        )


def hull(points, lattice: Lattice | None = None,
         budget: int = DEFAULT_BUDGET) -> LatticePolytope:
    """Exact convex hull of lattice points (coefficient coordinates).

    ``budget`` bounds the hull's orientation tests (``convex_hull_facets``).
    """
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if lattice is None:
        lattice = Lattice.standard(len(pts[0]))
    d = lattice.dim
    if any(len(p) != d for p in pts):
        raise ValueError("point dimension mismatch")
    raw, dets, _, ridges = convex_hull_facets(pts, budget)
    # vertices: points whose active facet normals span the whole space
    active = {i: [] for i in range(len(pts))}
    for c, b, on, _ in raw:
        for i in on:
            active[i].append(c)
    vertex_ids = [i for i in range(len(pts)) if len(_independent(active[i], d)) == d]
    remap = {old: new for new, old in enumerate(vertex_ids)}
    facets = tuple(
        Facet(
            normal=c,
            offset=b,
            vertex_ids=tuple(sorted(remap[i] for i in on if i in remap)),
        )
        for c, b, on, _ in raw
    )
    return LatticePolytope(
        lattice,
        tuple(pts[i] for i in vertex_ids),
        facets,
        dets,
        tuple(g for *_, g in raw),
        ridges,
    )


# ---------------------------------------------------------------------------
# volume


def normalized_volume(poly: LatticePolytope) -> Fraction:
    """Volume in lattice coefficient units (Euclidean volume / det Lambda).

    ``poly.dets`` over n!: the placing triangulation ``hull`` summed.
    """
    return Fraction(poly.dets, factorial(poly.dim))


# ---------------------------------------------------------------------------
# facet lattice data


def facet_lattice_volume(poly: LatticePolytope, i: int) -> Fraction:
    """vol_{n-1}(F_i) / det(aff F_i cap Lambda): facet i's normalized volume.

    Each boundary simplex the hull left on F_i has edge cross product
    k * a_i, and the facet sublattice has determinant ||a_i|| in coefficient
    space, so the simplex adds |k| / (n-1)! to the normalized volume;
    ``poly.facet_dets[i]`` is the sum of these |k|.  The Euclidean volume is
    this times ||a_i|| * det(Lambda).
    """
    return Fraction(poly.facet_dets[i], factorial(poly.dim - 1))


# ---------------------------------------------------------------------------
# intrinsic volumes (n <= 3)


class IntrinsicVolumes3(NamedTuple):
    v0: int
    v1: object   # RadicalSum when exact, else callable bits -> Interval
    v2: RadicalSum
    v3: Fraction


def facet_ridges(poly: LatticePolytope):
    """(common vertex ids, facet pair) for each two facets meeting in a
    ridge, in the order of ``poly.ridges``.  In 3D: the edges."""
    fs = poly.facets
    return [(tuple(sorted(set(fs[i].vertex_ids) & set(fs[j].vertex_ids))), (i, j))
            for i, j in poly.ridges]


def intrinsic_volumes_3d(poly: LatticePolytope) -> IntrinsicVolumes3:
    if poly.dim != 3:
        raise ValueError("dimension unsupported")
    v3 = poly.volume
    v2 = poly.surface_area / 2
    edge_data = []
    lat = poly.lattice
    for (va, vb), (fi, fj) in facet_ridges(poly):
        edge = [x - y for x, y in zip(poly.vertices[va], poly.vertices[vb])]
        len_sq = lat.norm_sq_of_coeff(edge)
        # the exact cosine dot / sqrt(nn); dot^2 < nn for two adjacent facets
        dot = dual_inner(lat, poly.facets[fi].normal, poly.facets[fj].normal)
        nn = poly.facet_norms_sq[fi] * poly.facet_norms_sq[fj]
        edge_data.append((len_sq, dot, nn))
    if not any(dot for _, dot, _ in edge_data):
        # every exterior angle is exactly pi/2: V1 = sum of edge lengths / 4
        from blichfeldt.radical import RadicalSum

        v1 = sum((RadicalSum.sqrt(len_sq) for len_sq, *_ in edge_data), RadicalSum()) / 4
        return IntrinsicVolumes3(1, v1, v2, v3)

    enclosures: dict[int, Interval] = {}   # V1 per precision
    den = lcm(*(len_sq.denominator for len_sq, *_ in edge_data))

    def v1_fn(bits: int) -> Interval:
        if bits in enclosures:
            return enclosures[bits]
        work = bits + 16
        p_lo, p_hi = numerators(pi(work), 1 << work)
        lo = hi = 0     # sum of length * angle, over den << 2 * work + 1
        for len_sq, dot, nn in edge_data:
            q = len_sq.denominator
            l_lo, l_hi = root_ends(len_sq.numerator, q, 2, work)    # over q << work
            if dot == 0:
                a_lo, a_hi = p_lo, p_hi    # pi/2 over 2^(work+1)
            else:
                a_lo, a_hi = numerators(acos_interval(dot, nn, work), 1 << work + 1)
            # lengths and angles are positive (a_lo < 0 still bounds below)
            lo += l_lo * a_lo * (den // q)
            hi += l_hi * a_hi * (den // q)
        # divided by 2 pi = p / 2^(work-1), rounded out to 2^-bits
        enclosures[bits] = on_grid((lo << bits) // (den * p_hi << work + 2),
                                   -((-hi << bits) // (den * p_lo << work + 2)), bits)
        return enclosures[bits]

    return IntrinsicVolumes3(1, v1_fn, v2, v3)


def steiner_volume(poly: LatticePolytope, rho, bits: int = 128) -> Interval:
    """Enclosure of vol(P + rho*B_3) via the Steiner polynomial (n = 3).

    ``rho`` is any exact value (int, Fraction, RadicalSum) or an adaptive
    closure bits -> Interval, as ``radical.enclose`` takes.
    """
    from blichfeldt.radical import enclose

    if poly.dim != 3:
        raise ValueError("dimension unsupported")
    iv = poly.intrinsic_volumes
    work = bits + 16
    r = enclose(rho, work)
    p = pi(work)
    v2 = iv.v2.enclosure(work)
    v1 = enclose(iv.v1, work)
    out = (
        Interval.point(iv.v3)
        + 2 * v2 * r
        + p * v1 * r * r
        + Fraction(4, 3) * p * r * r * r
    )
    return out.round_out(bits)
