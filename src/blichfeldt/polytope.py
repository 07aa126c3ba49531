"""Lattice polytopes with exact vertex/facet representations.

Hulls are computed by exhaustive supporting-hyperplane search with exact
rational predicates (every facet hyperplane is spanned by input points, so
scanning point subsets finds them all; coplanar points cause no special
cases).  Triangulations fan out from a vertex over recursively triangulated
facets.  Facet normals are primitive dual-lattice vectors, so facet volumes
split into a rational lattice-normalized part and a single square root.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, cached_property
from math import lcm

from blichfeldt import linalg
from blichfeldt.interval import Interval, acos_interval, pi, sqrt_interval, sqrt_fraction
from blichfeldt.lattice import Lattice, dual_coeff_to_ambient, dual_norm_sq
from blichfeldt.radical import Cmp, Inconclusive, RadicalSum, certified_compare


class DegenerateHullError(ValueError):
    pass


@dataclass(frozen=True)
class Facet:
    normal: tuple        # primitive outward normal, dual-basis coefficients
    offset: Fraction     # a.x <= offset; integral for lattice polytopes
    vertex_ids: tuple


def _hyperplane_normal(points):
    """Primitive integer normal of the hyperplane through d points in R^d.

    Returns None if the points are affinely dependent.  Uses the
    generalized cross product (cofactor expansion) on difference vectors.
    """
    d = len(points[0])
    base = points[0]
    diffs = [[Fraction(p[j]) - Fraction(base[j]) for j in range(d)] for p in points[1:]]
    normal = []
    for j in range(d):
        minor = [[row[k] for k in range(d) if k != j] for row in diffs]
        det = linalg.frac_det(minor) if minor else Fraction(1)
        normal.append(det if j % 2 == 0 else -det)
    if all(x == 0 for x in normal):
        return None
    denom = lcm(*(x.denominator for x in normal))
    ints = [int(x * denom) for x in normal]
    prim, _ = linalg.primitive_vector(ints)
    return tuple(prim)


def convex_hull_facets(points):
    """Facets of the convex hull of full-dimensional rational points.

    Returns a list of (normal, offset, on_ids) with primitive integer
    outward normals.  Raises DegenerateHullError for lower-dimensional
    input.
    """
    d = len(points[0])
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if linalg.affine_rank(pts) < d:
        raise DegenerateHullError("degenerate: affine hull is lower-dimensional")
    if d == 1:
        vals = [p[0] for p in pts]
        lo, hi = min(vals), max(vals)
        return [
            ((1,), hi, tuple(i for i, p in enumerate(pts) if p[0] == hi)),
            ((-1,), -lo, tuple(i for i, p in enumerate(pts) if p[0] == lo)),
        ]
    found = {}
    for subset in itertools.combinations(range(len(pts)), d):
        normal = _hyperplane_normal([pts[i] for i in subset])
        if normal is None:
            continue
        b = sum(normal[j] * pts[subset[0]][j] for j in range(d))
        key = (normal, b)
        nkey = (tuple(-x for x in normal), -b)
        if key in found or nkey in found:
            continue
        values = [sum(normal[j] * p[j] for j in range(d)) for p in pts]
        if all(v <= b for v in values):
            found[key] = tuple(i for i, v in enumerate(values) if v == b)
        elif all(v >= b for v in values):
            found[nkey] = tuple(i for i, v in enumerate(values) if v == b)
    return [(c, b, on) for (c, b), on in found.items()]


class LatticePolytope:
    """Full-dimensional lattice polytope in coefficient coordinates."""

    def __init__(self, lattice: Lattice, vertices, facets):
        self.lattice = lattice
        self.dim = lattice.dim
        self.vertices = vertices      # tuple of integer coefficient tuples
        self.facets = facets          # tuple of Facet

    @cached_property
    def incidence(self):
        """vertex x facet boolean incidence matrix."""
        return tuple(
            tuple(vi in f.vertex_ids for f in self.facets)
            for vi in range(len(self.vertices))
        )

    def contains(self, point_coeff) -> bool:
        p = [Fraction(x) for x in point_coeff]
        return all(
            sum(c * x for c, x in zip(f.normal, p)) <= f.offset for f in self.facets
        )

    def bounding_box(self):
        los = [min(v[j] for v in self.vertices) for j in range(self.dim)]
        his = [max(v[j] for v in self.vertices) for j in range(self.dim)]
        return los, his

    def facet_norm_sq(self, i) -> Fraction:
        """Squared Euclidean norm of the i-th primitive dual normal."""
        return dual_norm_sq(self.lattice, self.facets[i].normal)

    @cached_property
    def intrinsic_volumes(self) -> "IntrinsicVolumes3":
        """V0..V3 (dimension 3 only), built once per polytope."""
        return intrinsic_volumes_3d(self)

    def scaled(self, c: int) -> "LatticePolytope":
        return hull([tuple(c * x for x in v) for v in self.vertices], self.lattice)

    def __repr__(self):
        return (
            f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)}, "
            f"facets={len(self.facets)})"
        )


def hull(points, lattice: Lattice | None = None) -> LatticePolytope:
    """Exact convex hull of lattice points (coefficient coordinates)."""
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if lattice is None:
        lattice = Lattice.standard(len(pts[0]))
    d = lattice.dim
    if any(len(p) != d for p in pts):
        raise ValueError("point dimension mismatch")
    if linalg.affine_rank(pts) < d:
        raise DegenerateHullError("degenerate: dim(K cap Lambda) < n")
    raw = convex_hull_facets(pts)
    # vertices: points whose active facet normals span the whole space
    active = {i: [] for i in range(len(pts))}
    for c, b, on in raw:
        for i in on:
            active[i].append(c)
    vertex_ids = [
        i for i in range(len(pts))
        if len(active[i]) >= d and linalg.frac_rank(active[i]) == d
    ]
    remap = {old: new for new, old in enumerate(vertex_ids)}
    vertices = tuple(pts[i] for i in vertex_ids)
    facets = tuple(
        Facet(
            normal=c,
            offset=Fraction(b),
            vertex_ids=tuple(sorted(remap[i] for i in on if i in remap)),
        )
        for c, b, on in raw
    )
    return LatticePolytope(lattice, vertices, facets)


# ---------------------------------------------------------------------------
# triangulation and volume


def _sort_polygon(points, ids):
    """Order indices of convex-position 2D points counterclockwise."""
    cx = sum(points[i][0] for i in ids) / len(ids)
    cy = sum(points[i][1] for i in ids) / len(ids)

    def half(i):
        dx, dy = points[i][0] - cx, points[i][1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(i, j):
        hi, hj = half(i), half(j)
        if hi != hj:
            return -1 if hi < hj else 1
        dxi, dyi = points[i][0] - cx, points[i][1] - cy
        dxj, dyj = points[j][0] - cx, points[j][1] - cy
        cross = dxi * dyj - dyi * dxj
        return 0 if cross == 0 else (-1 if cross > 0 else 1)

    return sorted(ids, key=cmp_to_key(compare))


def triangulate_points(points, ids=None, reverse=False):
    """Simplices (index tuples) triangulating the hull of full-dim points.

    Fan construction: cone from an extreme vertex over recursively
    triangulated facets.  ``reverse`` picks the opposite fan apex (and
    polygon orientation), giving an independent triangulation.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if ids is None:
        ids = list(range(len(pts)))
    d = len(pts[0])
    if d == 1:
        lo = min(ids, key=lambda i: pts[i][0])
        hi = max(ids, key=lambda i: pts[i][0])
        return [(lo, hi)]
    if d == 2:
        ring = _sort_polygon(pts, _extreme_ids_2d(pts, ids))
        if reverse:
            ring = ring[::-1]
        return [(ring[0], ring[k], ring[k + 1]) for k in range(1, len(ring) - 1)]
    sub = [pts[i] for i in ids]
    facets = convex_hull_facets(sub)
    order = sorted(range(len(ids)), key=lambda k: sub[k], reverse=reverse)
    apex_local = order[0]
    simplices = []
    for c, b, on in facets:
        if apex_local in on:
            continue
        j = max(range(d), key=lambda j: abs(c[j]))
        proj = [tuple(x for k, x in enumerate(sub[i]) if k != j) for i in on]
        for tri in triangulate_points(proj, reverse=reverse):
            simplices.append(tuple(ids[on[t]] for t in tri) + (ids[apex_local],))
    return simplices


def _extreme_ids_2d(pts, ids):
    """Drop points interior to segments: keep only extreme points."""
    facets = convex_hull_facets([pts[i] for i in ids])
    active = {}
    for c, b, on in facets:
        for k in on:
            active.setdefault(k, []).append(c)
    keep = [
        ids[k] for k in range(len(ids))
        if len(active.get(k, [])) >= 2 and linalg.frac_rank(active[k]) == 2
    ]
    return keep


def _simplex_volume(points, simplex) -> Fraction:
    d = len(points[simplex[0]])
    base = points[simplex[0]]
    mat = [
        [Fraction(points[i][j]) - Fraction(base[j]) for j in range(d)]
        for i in simplex[1:]
    ]
    det = linalg.frac_det(mat)
    fact = 1
    for k in range(2, d + 1):
        fact *= k
    return abs(det) / fact


def triangulation(poly: LatticePolytope, reverse=False):
    return triangulate_points(poly.vertices, reverse=reverse)


def normalized_volume(poly: LatticePolytope, reverse=False) -> Fraction:
    """Volume in lattice coefficient units (Euclidean volume / det Lambda)."""
    return sum(
        (_simplex_volume(poly.vertices, s) for s in triangulation(poly, reverse)),
        Fraction(0),
    )


def volume(poly: LatticePolytope) -> Fraction:
    """Exact Euclidean volume."""
    return normalized_volume(poly) * poly.lattice.determinant


def volume_by_signed_cones(poly: LatticePolytope) -> Fraction:
    """Independent volume computation: signed cones from the coeff origin."""
    d = poly.dim
    fact = 1
    for k in range(2, d + 1):
        fact *= k
    total = Fraction(0)
    for fi, f in enumerate(poly.facets):
        height = f.offset  # offset - normal . origin
        if height == 0:
            continue
        sign = 1 if height > 0 else -1
        for s in _facet_triangulation(poly, fi, reverse=True):
            mat = [[Fraction(x) for x in poly.vertices[i]] for i in s]
            det = linalg.frac_det(mat)
            total += sign * abs(det) / fact
    return total * poly.lattice.determinant


def _facet_triangulation(poly: LatticePolytope, i: int, reverse=False):
    """Triangulation of facet i as (dim)-tuples of vertex indices."""
    f = poly.facets[i]
    d = poly.dim
    if d == 1:
        return [(f.vertex_ids[0],)]
    j = max(range(d), key=lambda j: abs(f.normal[j]))
    proj = [
        tuple(x for k, x in enumerate(poly.vertices[v]) if k != j)
        for v in f.vertex_ids
    ]
    return [
        tuple(f.vertex_ids[t] for t in tri)
        for tri in triangulate_points(proj, reverse=reverse)
    ]


# ---------------------------------------------------------------------------
# facet lattice data


def facet_lattice_coords(poly: LatticePolytope, i: int):
    """Integer coordinates of facet i's vertices in the facet sublattice.

    The primitive normal is extended to a unimodular transform; the kernel
    rows give an explicit basis of {u : normal.u = 0}, so the facet lives
    in Z^(n-1) and its lattice-normalized volume is purely rational.
    """
    f = poly.facets[i]
    c = [int(x) for x in f.normal]
    u = linalg.unimodular_for_primitive(c)
    uinv = linalg.frac_inv(u)
    ys = []
    for vid in f.vertex_ids:
        z = linalg.frac_vec_mat([Fraction(x) for x in poly.vertices[vid]], uinv)
        assert z[0] == f.offset
        ys.append(tuple(int(x) for x in z[1:]))
    kernel = u[1:]
    return ys, kernel


def facet_sublattice_det_sq(poly: LatticePolytope, i: int) -> Fraction:
    """Squared determinant of aff(F_i) cap Lambda from an explicit basis."""
    _, kernel = facet_lattice_coords(poly, i)
    lat = poly.lattice
    rows = [lat.to_ambient(k) for k in kernel]
    m = len(rows)
    gram = [
        [sum(rows[a][k] * rows[b][k] for k in range(lat.dim)) for b in range(m)]
        for a in range(m)
    ]
    return linalg.frac_det(gram) if m else Fraction(1)


def facet_lattice_volume(poly: LatticePolytope, i: int):
    """(normalized, euclidean) facet volume.

    normalized = vol_{n-1}(F_i) / det(aff F_i cap Lambda), a rational;
    euclidean = normalized * ||a_i|| * det(Lambda) as an exact RadicalSum.
    """
    d = poly.dim
    if d == 1:
        normalized = Fraction(1)
    else:
        ys, _ = facet_lattice_coords(poly, i)
        simplices = triangulate_points(ys)
        normalized = sum((_simplex_volume(ys, s) for s in simplices), Fraction(0))
    asq = poly.facet_norm_sq(i)
    det = poly.lattice.determinant
    euclidean = normalized * RadicalSum.sqrt(asq * det * det)
    return normalized, euclidean


def surface_area(poly: LatticePolytope) -> RadicalSum:
    total = RadicalSum()
    for i in range(len(poly.facets)):
        _, eucl = facet_lattice_volume(poly, i)
        total = total + eucl
    return total


def vertex_facet_counts(poly: LatticePolytope):
    """(f0 per facet, g_{n-1} per vertex); their sums agree exactly."""
    f0 = [len(f.vertex_ids) for f in poly.facets]
    g = [0] * len(poly.vertices)
    for f in poly.facets:
        for v in f.vertex_ids:
            g[v] += 1
    return f0, g


# ---------------------------------------------------------------------------
# inner parallel systems


@dataclass
class InnerParallelSystem:
    """Shifted half-space system {a_i . x <= b_i - rho*||a_i||}."""

    normals: tuple            # primitive normals (coeff space)
    rhs: tuple                # RadicalSum right-hand sides
    emptiness_flag: bool | None = None  # set by is_empty when inconclusive

    def is_empty(self, max_bits: int = 4096):
        """Exact emptiness by Fourier-Motzkin elimination.

        Returns True/False, or None when a comparison stays inconclusive
        at max precision (flagged, never silently dropped).
        """
        cons = [
            ([Fraction(c) for c in n], r) for n, r in zip(self.normals, self.rhs)
        ]
        d = len(self.normals[0])
        for var in range(d):
            pos, neg, zero = [], [], []
            for coeffs, r in cons:
                if coeffs[var] > 0:
                    pos.append((coeffs, r))
                elif coeffs[var] < 0:
                    neg.append((coeffs, r))
                else:
                    zero.append((coeffs, r))
            new = list(zero)
            for (ca, ra) in pos:
                for (cb, rb) in neg:
                    a, b = ca[var], -cb[var]
                    coeffs = [b * ca[k] + a * cb[k] for k in range(d)]
                    new.append((coeffs, b * ra + a * rb))
            cons = new
        inconclusive = False
        for coeffs, r in cons:
            verdict = certified_compare(r, 0, max_bits)
            if verdict is Cmp.LESS:
                self.emptiness_flag = True
                return True
            if isinstance(verdict, Inconclusive):
                inconclusive = True
        if inconclusive:
            self.emptiness_flag = None
            return None
        self.emptiness_flag = False
        return False


def inner_parallel_system(poly: LatticePolytope, rho_sq) -> InnerParallelSystem:
    rho_sq = Fraction(rho_sq)
    if rho_sq < 0:
        raise ValueError("rho_sq must be non-negative")
    normals = []
    rhs = []
    for i, f in enumerate(poly.facets):
        asq = poly.facet_norm_sq(i)
        normals.append(f.normal)
        rhs.append(RadicalSum.rational(f.offset) - RadicalSum.sqrt(rho_sq * asq))
    return InnerParallelSystem(normals=tuple(normals), rhs=tuple(rhs))


# ---------------------------------------------------------------------------
# intrinsic volumes (n <= 3)


@dataclass
class IntrinsicVolumes3:
    v0: int
    v1: object   # RadicalSum when exact, else callable bits -> Interval
    v2: RadicalSum
    v3: Fraction

    def v1_enclosure(self, bits: int = 128) -> Interval:
        if isinstance(self.v1, RadicalSum):
            return self.v1.enclosure(bits)
        return self.v1(bits)


def polytope_edges(poly: LatticePolytope):
    """Edges as (vertex pair, adjacent facet pair); 3D polytopes only."""
    edges = []
    m = len(poly.facets)
    for i in range(m):
        for j in range(i + 1, m):
            common = sorted(
                set(poly.facets[i].vertex_ids) & set(poly.facets[j].vertex_ids)
            )
            if len(common) == 2:
                edges.append(((common[0], common[1]), (i, j)))
    return edges


def intrinsic_volumes_3d(poly: LatticePolytope) -> IntrinsicVolumes3:
    if poly.dim != 3:
        raise ValueError("dimension unsupported")
    v3 = volume(poly)
    v2 = surface_area(poly) / 2
    edge_data = []
    all_right_angles = True
    lat = poly.lattice
    for (va, vb), (fi, fj) in polytope_edges(poly):
        pa = lat.to_ambient(poly.vertices[va])
        pb = lat.to_ambient(poly.vertices[vb])
        len_sq = sum((x - y) ** 2 for x, y in zip(pa, pb))
        ai = dual_coeff_to_ambient(lat, poly.facets[fi].normal)
        aj = dual_coeff_to_ambient(lat, poly.facets[fj].normal)
        dot = sum(x * y for x, y in zip(ai, aj))
        nn = poly.facet_norm_sq(fi) * poly.facet_norm_sq(fj)
        edge_data.append((len_sq, dot, nn))
        if dot != 0:
            all_right_angles = False
    if all_right_angles:
        # every exterior angle is exactly pi/2: V1 = sum of edge lengths / 4
        v1 = RadicalSum()
        for len_sq, _, _ in edge_data:
            v1 = v1 + RadicalSum.sqrt(len_sq) / 4
        return IntrinsicVolumes3(1, v1, v2, v3)

    enclosures: dict[int, Interval] = {}   # V1 per precision

    def v1_fn(bits: int) -> Interval:
        if bits in enclosures:
            return enclosures[bits]
        work = bits + 16
        total = Interval.point(0)
        for len_sq, dot, nn in edge_data:
            length = sqrt_fraction(len_sq, work)
            if dot == 0:
                angle = pi(work) / 2
            else:
                cos = Interval.point(dot) / sqrt_fraction(nn, work)
                angle = acos_interval(cos, work)
            total = total + length * angle
        enclosures[bits] = (total / (2 * pi(work))).round_out(bits)
        return enclosures[bits]

    return IntrinsicVolumes3(1, v1_fn, v2, v3)


def steiner_volume(poly: LatticePolytope, rho, bits: int = 128) -> Interval:
    """Enclosure of vol(P + rho*B_3) via the Steiner polynomial (n = 3)."""
    if poly.dim != 3:
        raise ValueError("dimension unsupported")
    iv = poly.intrinsic_volumes
    work = bits + 16
    if callable(rho):
        r = rho(work)
    elif isinstance(rho, Interval):
        r = rho
    else:
        r = Interval.point(Fraction(rho))
    p = pi(work)
    v2 = iv.v2.enclosure(work)
    v1 = iv.v1_enclosure(work)
    out = (
        Interval.point(iv.v3)
        + 2 * v2 * r
        + p * v1 * r * r
        + Fraction(4, 3) * p * r * r * r
    )
    return out.round_out(bits)
