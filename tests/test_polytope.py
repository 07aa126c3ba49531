"""Convex hulls, volumes, surface areas, intrinsic volumes."""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from blichfeldt import linalg
from blichfeldt import polytope as pt
from blichfeldt import witnesses as wt
from blichfeldt.lattice import Lattice
from blichfeldt.polytope import DegenerateHullError
from blichfeldt.radical import RadicalSum, enclose
from blichfeldt.rng import Rng
from oracles import (
    facet_lattice_coords,
    frac_det,
    frac_rank,
    hyperplane_sublattice_det_sq,
    normalized_volume_reversed,
    placing_key,
    polytope_edges,
    simplex_normal,
    volume_by_signed_cones,
    width,
)


def _hyperplane_normal(points):
    """Primitive integer normal of the hyperplane through d points in R^d,
    or None if they are affinely dependent (generalized cross product)."""
    d = len(points[0])
    base = points[0]
    diffs = [[Fraction(p[j]) - Fraction(base[j]) for j in range(d)] for p in points[1:]]
    normal = []
    for j in range(d):
        minor = [[row[k] for k in range(d) if k != j] for row in diffs]
        det = frac_det(minor) if minor else Fraction(1)
        normal.append(det if j % 2 == 0 else -det)
    if all(x == 0 for x in normal):
        return None
    denom = lcm(*(x.denominator for x in normal))
    prim, _ = linalg.primitive_vector([int(x * denom) for x in normal])
    return tuple(prim)


def _affine_rank(points) -> int:
    """Dimension of the affine hull of a list of rational points."""
    base = points[0]
    return frac_rank([[Fraction(x) - y for x, y in zip(p, base)] for p in points[1:]])


def _reference_facets(pts):
    """Exhaustive supporting-hyperplane search over every d-subset, in the
    order of the facets' point ids."""
    d = len(pts[0])
    if d == 1:
        vals = [p[0] for p in pts]
        lo, hi = min(vals), max(vals)
        return sorted([
            ((1,), hi, tuple(i for i, p in enumerate(pts) if p[0] == hi)),
            ((-1,), -lo, tuple(i for i, p in enumerate(pts) if p[0] == lo)),
        ], key=lambda f: f[2])
    found = {}
    for subset in itertools.combinations(range(len(pts)), d):
        normal = _hyperplane_normal([pts[i] for i in subset])
        if normal is None:
            continue
        b = sum(normal[j] * pts[subset[0]][j] for j in range(d))
        key, nkey = (normal, b), (tuple(-x for x in normal), -b)
        if key in found or nkey in found:
            continue
        values = [sum(normal[j] * p[j] for j in range(d)) for p in pts]
        if all(v <= b for v in values):
            found[key] = tuple(i for i, v in enumerate(values) if v == b)
        elif all(v >= b for v in values):
            found[nkey] = tuple(i for i, v in enumerate(values) if v == b)
    return sorted(((c, b, on) for (c, b), on in found.items()), key=lambda f: f[2])


def _reference_hull(points):
    """(vertices, facets) as the exhaustive hull gives them: vertices are the
    points whose active facet normals span the space."""
    pts = sorted({tuple(int(x) for x in p) for p in points})
    d = len(pts[0])
    if _affine_rank(pts) < d:
        raise DegenerateHullError("degenerate")
    raw = _reference_facets(pts)
    active = {i: [] for i in range(len(pts))}
    for c, _, on in raw:
        for i in on:
            active[i].append(c)
    vertex_ids = [
        i for i in range(len(pts))
        if len(active[i]) >= d and frac_rank(active[i]) == d
    ]
    remap = {old: new for new, old in enumerate(vertex_ids)}
    facets = tuple(
        pt.Facet(c, Fraction(b), tuple(sorted(remap[i] for i in on if i in remap)))
        for c, b, on in raw
    )
    return tuple(pts[i] for i in vertex_ids), facets


def _assert_reference_hull(points):
    poly = pt.hull(points)
    assert (poly.vertices, poly.facets) == _reference_hull(points)
    return poly


def _cube(n, side=1):
    pts = []
    for mask in range(1 << n):
        pts.append(tuple(side if (mask >> j) & 1 else 0 for j in range(n)))
    return pt.hull(pts)


def _box(a, b, c):
    return pt.hull([
        (x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)
    ])


def _simplex_Sk(n, k):
    pts = [(0,) * n, tuple(k if j == 0 else 0 for j in range(n))]
    for i in range(1, n):
        pts.append(tuple(1 if j == i else 0 for j in range(n)))
    return pt.hull(pts)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestHull:
    def test_cube_vertices_and_facets(self):
        c = _cube(3)
        assert len(c.vertices) == 8
        assert len(c.facets) == 6

    def test_interior_points_dropped(self):
        square = pt.hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert len(square.vertices) == 4
        assert (1, 1) not in square.vertices

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateHullError):
            pt.hull([(0, 0), (1, 1), (2, 2)])

    def test_facet_order_follows_the_key_from_points_0(self):
        """Facets come in the order of their point ids, which is the order
        of ``oracles.placing_key``: the facet z = 0 misses points[0], and its
        key, from differences with points[0], is (1, 2, 4), three collinear
        points."""
        pts = [(0, 2, 1), (1, 0, 0), (2, 0, 0), (2, 2, 3), (3, 0, 0), (3, 5, 0)]
        facets, dets, work, _ = pt.convex_hull_facets(pts)
        assert facets == [
            ((-1, -1, 1), -1, (0, 1, 3), 4),
            ((-5, 2, -9), -5, (0, 1, 5), 1),
            ((-3, 4, 3), 11, (0, 3, 5), 2),
            ((0, -3, 2), 0, (1, 2, 3, 4), 2),
            ((0, 0, -1), 0, (1, 2, 4, 5), 10),
            ((3, 0, 1), 9, (3, 4, 5), 5),
        ]
        assert (dets, work) == (58, 46)

    def test_segment_in_point_id_order(self):
        # 1D takes the placing sweep too: the facet at the least point comes
        # first, and its work (2 tests to place point 2, then 2 facets each
        # scanning 3 points) counts against the budget as in any dimension
        pts = [(0,), (1,), (3,)]
        facets, dets, work, ridges = pt.convex_hull_facets(pts)
        assert facets == [((-1,), 0, (0,), 1), ((1,), 3, (2,), 1)]
        assert (dets, work, ridges) == (3, 8, [(0, 1)])
        pt.convex_hull_facets(pts, budget=work)
        with pytest.raises(pt.EnumerationBudgetError):
            pt.convex_hull_facets(pts, budget=work - 1)


@st.composite
def _collinear_point_sets(draw):
    """Distinct points of [0,3]^d, 2 <= d <= 5, in drawn or sorted order;
    about half carry three collinear points on a line that misses
    points[0]."""
    d = draw(st.integers(2, 5))
    box = st.tuples(*[st.integers(0, 3)] * d)
    pts = list(dict.fromkeys(draw(st.lists(box, min_size=d + 1, max_size=d + 6))))
    if draw(st.booleans()):
        u, v = draw(box), draw(st.tuples(*[st.integers(-1, 1)] * d).filter(any))
        assume(frac_rank([[x - y for x, y in zip(pts[0], u)], v]) == 2)
        pts += [p for p in (tuple(x + k * y for x, y in zip(u, v)) for k in range(3))
                if p not in pts]
    return sorted(pts) if draw(st.booleans()) else pts


class TestFacetOrder:
    """Facets in id order never go against the greedy placing key, and the
    ridges read off the boundary complex are the facet pairs whose common
    points span an (n-2)-flat."""

    @given(_collinear_point_sets())
    @settings(max_examples=150, deadline=None)
    def test_placing_key_is_non_decreasing(self, pts):
        try:
            facets, _, _, ridges = pt.convex_hull_facets(pts)
        except DegenerateHullError:
            return
        ons = [f[2] for f in facets]
        assert ons == sorted(ons)
        keys = [placing_key(pts, on) for on in ons]
        assert keys == sorted(keys)
        d = len(pts[0])
        assert ridges == [
            (i, j) for i, j in itertools.combinations(range(len(ons)), 2)
            if len(common := set(ons[i]) & set(ons[j])) >= d - 1
            and _affine_rank([pts[k] for k in sorted(common)]) == d - 2
        ]

    def test_tied_keys_come_in_id_order(self):
        # the facets y = 0 and z = 0 share the edge of points 1, 2 and 3,
        # and points[0] lies on neither: both keys are (1, 2, 3), and the
        # facet with the smaller fourth id comes first
        pts = [(-1, 1, 1), (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1), (3, 1, 0)]
        facets, *_ = pt.convex_hull_facets(pts)
        tied = [f[:3] for f in facets if placing_key(pts, f[2]) == (1, 2, 3)]
        assert tied == [((0, -1, 0), 0, (1, 2, 3, 4)), ((0, 0, -1), 0, (1, 2, 3, 5))]


class TestCrossKernelIdentity:
    """The hull from ``linalg.cross``, in id order, against the cofactor
    normals and the order of the full placing key."""

    @staticmethod
    def _points(d, seed):
        # every point of [0,2]^d (collinear and coplanar in many ways) and
        # d + 3 seeded extras around it; [0,1]^5 keeps the 5D case fast
        rng = Rng(seed, stream=d)
        grid = itertools.product(range(3 if d < 5 else 2), repeat=d)
        extras = [tuple(rng.randint(-1, 3) for _ in range(d)) for _ in range(d + 3)]
        return sorted(set(grid) | set(extras))

    @pytest.mark.parametrize("d, seed", [(d, seed) for d in (2, 3, 4, 5) for seed in (1, 2)])
    def test_same_hull(self, d, seed, monkeypatch):
        pts = self._points(d, seed)
        facets, dets, work, ridges = pt.convex_hull_facets(pts)
        with monkeypatch.context() as m:
            m.setattr(linalg, "cross", lambda rows: simplex_normal([[0] * len(rows[0]), *rows]))
            ref, ref_dets, ref_work, ref_ridges = pt.convex_hull_facets(pts)
            ref_vertices = pt.hull(pts).vertices

        def full_key(facet):
            return placing_key(pts, facet[2])

        assert all(full_key(f) == f[2] for f in facets if len(f[2]) == d)
        assert (facets, dets, work, ridges) == (sorted(ref, key=full_key), ref_dets, ref_work,
                                                ref_ridges)
        assert pt.hull(pts).vertices == ref_vertices


# the boundary-layer audit's ridge bodies (tests/test_harness.py)
RIDGE_BODIES = (
    [(0, 1, 0), (1, 3, 4), (1, 4, 1), (1, 4, 2), (3, 1, 1), (3, 1, 4),
     (3, 4, 6), (4, 4, 0), (6, 2, 0), (6, 3, 6), (6, 4, 0)],
    [(0, 5, 3), (1, 0, 0), (1, 6, 3), (1, 6, 6), (2, 0, 1), (3, 1, 3),
     (5, 0, 0), (5, 3, 1), (6, 2, 6)],
    [(0, 3, 0), (0, 5, 2), (1, 1, 5), (1, 1, 6), (1, 3, 5), (1, 6, 0),
     (3, 5, 6), (3, 6, 2), (5, 3, 5), (5, 4, 6), (6, 3, 3)],
)


@st.composite
def _point_sets(draw, d):
    """Lattice points with even coordinates in a small box, plus duplicates
    and midpoints of pairs: many coplanar, collinear and interior points."""
    pts = draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=d + 1, max_size=8))
    pts = [tuple(2 * x for x in p) for p in pts]
    pairs = draw(st.lists(st.tuples(*[st.integers(0, len(pts) - 1)] * 2), max_size=4))
    return pts + [tuple((x + y) // 2 for x, y in zip(pts[i], pts[j])) for i, j in pairs]


class TestAffineRank:
    """The oracle's flatness test."""

    def test_affine_rank(self):
        assert _affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
        assert _affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
        assert _affine_rank([(5, 7)]) == 0


class TestHullOracle:
    """``hull`` against the exhaustive search it replaced, field by field."""

    FIXED = {
        **{f"S_{k} n={n}": lambda n=n, k=k: wt.simplex_Sk(n, k).vertices
           for n in (2, 3, 4) for k in (1, 3)},
        **{f"T_{m} n={n}": lambda n=n, m=m: wt.reeve_Tm(n, m).vertices
           for n in (3, 4) for m in (1, 2, 4)},
        **{f"cube {a} n={n}": lambda n=n, a=a: list(itertools.product((0, a), repeat=n))
           for n in (2, 3, 4) for a in (1, 2)},
        **{f"ridge {i}": lambda v=v: v for i, v in enumerate(RIDGE_BODIES)},
        "segment": lambda: [(3,), (0,), (1,), (3,)],
    }

    @pytest.mark.parametrize("name", FIXED)
    def test_fixed(self, name):
        _assert_reference_hull(self.FIXED[name]())

    @pytest.mark.parametrize("d, examples", [(2, 40), (3, 40), (4, 15)])
    def test_random(self, d, examples):
        @given(_point_sets(d))
        @settings(max_examples=examples, deadline=None)
        def check(pts):
            try:
                _reference_hull(pts)
            except DegenerateHullError:
                with pytest.raises(DegenerateHullError):
                    pt.hull(pts)
                return
            poly = _assert_reference_hull(pts)
            # the placing triangulation's volume against a second
            # triangulation and against signed cones
            vol = pt.normalized_volume(poly)
            assert vol == normalized_volume_reversed(poly)
            assert vol * poly.lattice.determinant == volume_by_signed_cones(poly)
            # facet volumes against the facet's own hull in Z^(d-1)
            for i in range(len(poly.facets)):
                ys, _ = facet_lattice_coords(poly, i)
                normalized = pt.facet_lattice_volume(poly, i)
                want = pt.normalized_volume(pt.hull(ys)) if d > 2 else max(ys)[0] - min(ys)[0]
                assert normalized == want

        check()

    def test_budget(self):
        pts = list(itertools.product(range(4), repeat=3))
        pt.hull(pts, budget=10**4)
        with pytest.raises(pt.EnumerationBudgetError):
            pt.hull(pts, budget=100)


class TestScaled:
    # hull(c * vertices) places only the vertices, so the polytope scaled
    # here is built from its vertices too, for its facet order to match
    BODIES = {
        "S_3": lambda: wt.simplex_Sk(3, 3),
        "T_4": lambda: wt.reeve_Tm(3, 4),
        "random 4D": lambda: pt.hull(wt.random_hull(Rng(7), 4, 12, 5).vertices),
    }

    @staticmethod
    def _fields(poly):
        return (poly.lattice.basis, poly.vertices, poly.facets, poly.dets,
                poly.facet_dets, pt.facet_ridges(poly))

    @pytest.mark.parametrize("name", BODIES)
    def test_equals_hull_of_scaled_vertices(self, name, monkeypatch):
        poly = self.BODIES[name]()
        want = {
            c: self._fields(pt.hull([tuple(c * x for x in v) for v in poly.vertices]))
            for c in range(1, 6)
        }
        calls = []
        monkeypatch.setattr(pt, "hull", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(pt, "convex_hull_facets", lambda *a, **k: calls.append(a))
        for c, fields in want.items():
            assert self._fields(poly.scaled(c)) == fields
        assert calls == []

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            wt.simplex_Sk(3, 1).scaled(0)


class TestVolume:
    def test_cube(self):
        assert _cube(3, 2).volume == 8
        assert _cube(4).volume == 1

    def test_simplex(self):
        for n in (2, 3, 4):
            for k in (1, 3, 7):
                assert _simplex_Sk(n, k).volume == Fraction(k, _factorial(n))

    def test_lattice_normalization(self):
        # same vertex coordinates over a sublattice scale by |det|
        lat = Lattice([[2, 0], [0, 1]])
        tri = pt.hull([(0, 0), (1, 0), (0, 1)], lattice=lat)
        assert tri.volume == Fraction(1, 2) * 2

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_two_triangulations_agree(self, seed, n):
        rng = Rng(seed)
        while True:
            pts = [
                tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(10)
            ]
            try:
                poly = pt.hull(pts)
                break
            except DegenerateHullError:
                continue
        assert poly.volume == volume_by_signed_cones(poly)
        assert pt.normalized_volume(poly) == normalized_volume_reversed(poly)


class TestSurfaceArea:
    def test_cube(self):
        assert _cube(3, 2).surface_area == RadicalSum.rational(24)

    def test_simplex_closed_form(self):
        # F(S_1) = (n + sqrt(n)) / (n-1)!
        for n in (2, 3, 4, 5):
            expected = (
                RadicalSum.rational(n) + RadicalSum.sqrt(n)
            ) / _factorial(n - 1)
            assert _simplex_Sk(n, 1).surface_area == expected

    def test_facet_lattice_volume_consistency(self):
        skewed = Lattice([[2, 1, 0], [0, 1, 0], [1, 1, 3]])
        corners = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        for poly in (_simplex_Sk(3, 2), pt.hull(corners, lattice=skewed)):
            det = poly.lattice.determinant
            total = RadicalSum()
            for i in range(len(poly.facets)):
                # independent route: the determinant of the facet's affine
                # sublattice, from an explicit basis, is ||a_i|| det(L)
                det_sq = hyperplane_sublattice_det_sq(poly.lattice, poly.facets[i].normal)
                assert det_sq == poly.facet_norms_sq[i] * det * det
                normalized = pt.facet_lattice_volume(poly, i)
                total = total + RadicalSum.rational(normalized) * RadicalSum.sqrt(det_sq)
            assert total == poly.surface_area

    def test_homogeneity(self):
        poly = _simplex_Sk(3, 1)
        doubled = poly.scaled(2)
        assert doubled.volume == 8 * poly.volume
        assert doubled.surface_area == RadicalSum.rational(4) * poly.surface_area


class TestIntrinsicVolumes:
    def test_unit_cube(self):
        iv = pt.intrinsic_volumes_3d(_cube(3))
        assert iv.v0 == 1
        assert iv.v1 == RadicalSum.rational(3)  # right angles: edge sum / 4
        assert iv.v2 == RadicalSum.rational(3)
        assert iv.v3 == 1

    def test_box(self):
        iv = pt.intrinsic_volumes_3d(_box(2, 3, 5))
        assert iv.v1 == RadicalSum.rational(10)  # a + b + c
        assert iv.v2 == RadicalSum.rational(31)  # ab + ac + bc
        assert iv.v3 == 30

    def test_simplex_v1_enclosure(self):
        iv = pt.intrinsic_volumes_3d(_simplex_Sk(3, 1))
        enc = enclose(iv.v1, 160)
        assert width(enc) < Fraction(1, 2**128)
        # V1 = (1/2pi) * sum of edge length * exterior angle ~ 2.2263
        assert Fraction(22, 10) < enc.lo < enc.hi < Fraction(23, 10)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            pt.intrinsic_volumes_3d(_cube(2))
        with pytest.raises(ValueError):
            pt.steiner_volume(_cube(2), 1)


class TestSteinerVolume:
    def test_cube_radius_one(self):
        # vol(C + B) = 1 + 6 + 3*pi + 4*pi/3 for the unit cube
        out = pt.steiner_volume(_cube(3), 1, bits=128)
        from blichfeldt.interval import pi

        p = pi(160)
        expected = (
            Fraction(7) + 3 * p + Fraction(4, 3) * p
        )
        assert out.lo <= expected.hi and expected.lo <= out.hi

    def test_zero_radius_is_volume(self):
        out = pt.steiner_volume(_box(2, 3, 5), 0, bits=96)
        assert out.lo <= 30 <= out.hi

    def test_monotone_in_radius(self):
        small = pt.steiner_volume(_cube(3), Fraction(1, 2), bits=96)
        large = pt.steiner_volume(_cube(3), 1, bits=96)
        assert small.strictly_less(large)


class TestEdgesAndIncidence:
    def test_cube_edges(self):
        assert len(pt.facet_ridges(_cube(3))) == 12

    def test_ridges_in_3d_are_the_edges(self):
        rng = Rng(11, stream=3)
        for _ in range(20):
            poly = wt.random_hull(rng, 3, 12, 9)
            assert pt.facet_ridges(poly) == polytope_edges(poly)

    @pytest.mark.parametrize("n, count, bound",
                             [(2, 8, 9), (3, 10, 5), (4, 9, 3), (5, 9, 2), (6, 11, 2)])
    def test_ridges_span_an_n_minus_2_flat(self, n, count, bound):
        # a pair of facets meets in a ridge exactly when their common
        # vertices span an (n-2)-flat; in 5D the count alone does not decide
        rng = Rng(12, stream=n)
        for _ in range(4):
            poly = wt.random_hull(rng, n, count, bound)
            expected = []
            for i, j in itertools.combinations(range(len(poly.facets)), 2):
                common = sorted(set(poly.facets[i].vertex_ids) & set(poly.facets[j].vertex_ids))
                if common and _affine_rank([poly.vertices[k] for k in common]) == n - 2:
                    expected.append((tuple(common), (i, j)))
            assert pt.facet_ridges(poly) == expected

    def test_segment_ridge(self):
        # the two endpoints of a segment meet in the empty ridge
        segment = pt.hull([(3,), (0,), (1,)])
        assert segment.ridges == [(0, 1)]
        assert pt.facet_ridges(segment) == [((), (0, 1))]

    def test_ridges_of_octahedron_times_square(self):
        # facets F x S of two octahedron faces F sharing only a vertex v meet
        # in the square v x S: 4 common vertices, a 2-face and not a ridge
        octahedron = [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
        poly = pt.hull([v + w for v in octahedron for w in itertools.product((0, 1), repeat=2)])
        sets = [set(f.vertex_ids) for f in poly.facets]
        fours = [(i, j) for i, j in itertools.combinations(range(len(sets)), 2)
                 if len(sets[i] & sets[j]) == 4]
        ridges = [pair for _, pair in pt.facet_ridges(poly)]
        # 12 octahedron edges x S, 8 faces x 4 square edges, Q x 4 square vertices
        assert len(poly.facets) == 12 and len(ridges) == 12 + 32 + 4
        assert len(set(fours) - set(ridges)) == 12
