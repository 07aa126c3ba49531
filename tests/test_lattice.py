"""Lattice invariants: shortest vectors, Voronoi cells, covering radii."""

import itertools
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from blichfeldt import counting as ct
from blichfeldt import lattice as lt
from blichfeldt import polytope as pt
from blichfeldt.lattice import Lattice
from blichfeldt.linalg import det_bareiss
from blichfeldt.radical import RadicalSum
from blichfeldt.rng import Rng
from blichfeldt.witnesses import random_lattice
from oracles import (ceil_minus_sqrt, enum_ellipsoid_fractions, floor_plus_sqrt,
                     floor_plus_sqrt_by_search, hyperplane_sublattice_det_sq)


def _random_integer_lattice(rng, n, max_abs_det=8):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = abs(det_bareiss([r[:] for r in rows]))
        if 1 <= d <= max_abs_det:
            return Lattice(rows)


_RATIONALS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=2**128)


class TestFloorPlusSqrt:
    """The Fraction enumerator's closed forms of floor(a + sqrt(t)) and
    ceil(a - sqrt(t)) against the search loop they replaced."""

    @given(_RATIONALS, st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=0, max_value=10**6, max_denominator=2**128),
        st.tuples(st.integers(0, 10**20), st.integers(1, 10**20)).map(
            lambda mr: Fraction(mr[0] ** 2, mr[1] ** 2))))
    @settings(max_examples=300)
    def test_matches_search(self, a, t):
        assert floor_plus_sqrt(a, t) == floor_plus_sqrt_by_search(a, t)
        assert ceil_minus_sqrt(a, t) == -floor_plus_sqrt_by_search(-a, t)

    @given(st.integers(-10**6, 10**6), st.integers(0, 10**6))
    def test_integers(self, a, m):
        # integer a and a perfect square t: the bounds are a +- m exactly
        assert floor_plus_sqrt(a, m * m) == a + m
        assert ceil_minus_sqrt(a, m * m) == a - m


class TestLatticeBasics:
    def test_standard(self):
        z3 = Lattice.standard(3)
        assert z3.determinant == 1
        assert z3.contains((4, -1, 0))
        assert not z3.contains((Fraction(1, 2), 0, 0))

    def test_coordinates_roundtrip(self):
        lat = Lattice([[2, 1], [0, 3]])
        p = lat.to_ambient([1, -2])
        assert lat.to_coeff(p) == (1, -2)
        assert lat.determinant == 6

    def test_degenerate_rejected(self):
        with pytest.raises(Exception):
            Lattice([[1, 2], [2, 4]])


class TestShortestVector:
    def test_standard_lattice(self):
        for n in (2, 3, 4):
            res = lt.shortest_vector(Lattice.standard(n))
            assert res.length_sq == 1
            assert len(res.minimizers) == n  # one per axis, up to sign

    def test_skewed_basis(self):
        # basis (2,0), (1,2): shortest vector has length 2
        res = lt.shortest_vector(Lattice([[2, 0], [1, 2]]))
        assert res.length_sq == 4

    def test_sublattice(self):
        res = lt.shortest_vector(Lattice([[2, 0], [0, 3]]))
        assert res.length_sq == 4

    def test_dimension_cap(self):
        with pytest.raises(lt.DimensionUnsupportedError):
            lt.shortest_vector(Lattice.standard(lt.SVP_MAX_DIM + 1))


def _reference_dv_vertices(lat):
    """DV cell vertices of an integer-basis lattice by brute force: solve
    every n-subset of the facet equations 2v.x = |v|^2 by Cramer's rule and
    keep the solutions inside the cell."""
    facets = []
    for v in lt.dirichlet_voronoi_cell(lat).relevant_vectors:
        amb = [int(a) for a in lat.to_ambient(v)]
        facets.append(([2 * a for a in amb], sum(a * a for a in amb)))
    vertices = set()
    for subset in itertools.combinations(facets, lat.dim):
        mat = [a for a, _ in subset]
        den = det_bareiss(mat)
        if den == 0:
            continue
        num = [
            det_bareiss([row[:j] + [b] + row[j + 1:] for row, (_, b) in zip(mat, subset)])
            for j in range(lat.dim)
        ]
        if den < 0:
            den, num = -den, [-x for x in num]
        if all(sum(map(mul, a, num)) <= b * den for a, b in facets):
            vertices.add(tuple(Fraction(x, den) for x in num))
    return tuple(sorted(vertices))


class TestVoronoi:
    def test_z2_relevant_vectors(self):
        rel = lt.dirichlet_voronoi_cell(Lattice.standard(2)).relevant_vectors
        # square lattice: the four axis neighbours only
        assert sorted(rel) == sorted(
            [(1, 0), (-1, 0), (0, 1), (0, -1)]
        )

    def test_dv_cell_square(self):
        cell = lt.dirichlet_voronoi_cell(Lattice.standard(2))
        assert set(cell.vertices) == {
            (Fraction(s1, 2), Fraction(s2, 2)) for s1 in (-1, 1) for s2 in (-1, 1)
        }

    def test_dv_cell_skewed(self):
        cell = lt.dirichlet_voronoi_cell(Lattice([[2, 0], [1, 2]]))
        assert len(cell.vertices) in (4, 6)  # hexagonal for generic bases
        # every vertex is equidistant from 0 and some relevant vector
        for v in cell.vertices:
            nv = sum(x * x for x in v)
            assert any(
                sum((x - a) ** 2 for x, a in zip(v, Lattice([[2, 0], [1, 2]]).to_ambient(r)))
                == nv
                for r in cell.relevant_vectors
            )

    @pytest.mark.parametrize("n, examples", [(2, 30), (3, 20), (4, 10)])
    def test_vertices_match_subset_reference(self, n, examples):
        @given(st.integers(0, 2**32 - 1))
        @settings(max_examples=examples, deadline=None)
        def check(seed):
            lat = random_lattice(Rng(seed), n, 8)
            assert lt.dirichlet_voronoi_cell(lat).vertices == _reference_dv_vertices(lat)

        check()


class TestGramFactorization:
    def test_one_ldl_per_lattice(self, monkeypatch):
        # a 4D covering radius enumerates the 15 nonzero cosets of L/2L, and
        # the polar's shortest vector one more ball: two lattices, two LDL^Ts
        factored = []

        def counted(gram):
            factored.append(gram)
            return ldl(gram)

        ldl = lt._ldl
        monkeypatch.setattr(lt, "_ldl", counted)
        monkeypatch.setattr(lt, "_INVARIANTS", {})
        lat = random_lattice(Rng(7, stream=4), 4, 8)
        lt.covering_radius_sq(lat)
        lt.shortest_vector(lat.polar)
        assert len(factored) == 2


class TestIntegerEnumeration:
    """``enum_ellipsoid`` in integers against the Fraction enumerator it
    replaced: the same count, nodes, points in order and norms."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans(), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_enumerator(self, seed, n, polar, scale):
        # a random basis or its polar, a rational centre c in coefficients,
        # and r^2 = scale * |v - c|^2 for the integer v in [-2, 2]^n nearest
        # to c: at scale 1, v and any point as near lie on the sphere
        rng = Rng(seed)
        lat = random_lattice(rng, n, 8)
        if polar:
            lat = lat.polar
        center = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(n)]

        def norm_sq(v):
            d = [a - c for a, c in zip(v, center)]
            return Fraction(lt._form(lat.gram_B, d, d), lat.den ** 2)

        nearest = min((v for v in itertools.product(range(-2, 3), repeat=n) if norm_sq(v)),
                      key=norm_sq)
        r2 = scale * norm_sq(nearest)
        for points in (False, True):
            assert (lt.enum_ellipsoid(lat, center, r2, points=points)
                    == enum_ellipsoid_fractions(lat, center, r2, points=points))
        found, _ = lt.enum_ellipsoid(lat, center, r2, points=True)
        assert scale > 1 or (nearest, r2) in found


class TestCoveringRadius:
    def test_standard(self):
        # mu(Z^n) = sqrt(n)/2
        for n in (2, 3, 4):
            assert lt.covering_radius_sq(Lattice.standard(n)) == Fraction(n, 4)
            assert lt.inhomogeneous_minimum(Lattice.standard(n)) == (
                RadicalSum.sqrt(n) / 2
            )

    def test_scaled(self):
        assert lt.covering_radius_sq(Lattice([[2, 0], [0, 2]])) == 2


class TestPolarLattice:
    def test_self_dual(self):
        polar = Lattice.standard(3).polar
        assert polar.determinant == 1
        assert polar.contains((1, 0, 0))

    def test_determinant_reciprocal(self):
        lat = Lattice([[2, 1, 0], [0, 1, 0], [1, 1, 3]])
        polar = lat.polar
        assert lat.determinant * polar.determinant == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_double_polar_is_identity(self, seed):
        lat = _random_integer_lattice(Rng(seed), 3)
        back = lat.polar.polar
        # same lattice: each basis vector of one lies in the other
        for row in back.basis:
            assert lat.contains(row)
        for row in lat.basis:
            assert back.contains(row)


class TestHyperplaneSublatticeDet:
    def test_standard(self):
        # minimal hyperplane sublattice of Z^n is Z^{n-1}, det 1
        for n in (2, 3, 4):
            assert lt.min_hyperplane_sublattice_det(Lattice.standard(n)) == (
                RadicalSum.rational(1)
            )

    def test_direct_kernel_route_z3(self):
        lat = Lattice.standard(3)
        assert hyperplane_sublattice_det_sq(lat, (0, 0, 1)) == 1
        # hyperplane x + y + z = 0 in Z^3 has determinant sqrt(3)
        assert hyperplane_sublattice_det_sq(lat, (1, 1, 1)) == 3

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identity_det_times_dual_minimum(self, seed):
        # det(L) * lambda_1(L*) equals the minimum over primitive dual
        # vectors of the hyperplane sublattice determinant, computed by the
        # independent kernel-basis route.
        lat = _random_integer_lattice(Rng(seed), 3)
        via_polar = lt.min_hyperplane_sublattice_det(lat)
        polar = lat.polar
        best = None
        for coeff in lt.shortest_vector(polar).minimizers:
            d_sq = hyperplane_sublattice_det_sq(lat, coeff)
            best = d_sq if best is None else min(best, d_sq)
        assert via_polar * via_polar == RadicalSum.rational(best)


class TestBudget:
    def test_enumeration_candidates(self):
        # the unit ball of Z^3 holds 7 points; the search tries 15 coordinates
        lat = Lattice.standard(3)
        assert lt.shortest_vector(lat, budget=15).length_sq == 1
        with pytest.raises(lt.EnumerationBudgetError):
            lt.shortest_vector(lat, budget=14)

    def test_voronoi_vertex_candidates(self):
        # the hull of the 6 points 2v/|v|^2 of Z^3 (the octahedron) takes
        # 4 + 6 orientation tests, then each of its 8 facets scans 6 points
        lat = Lattice.standard(3)
        assert len(lt.dirichlet_voronoi_cell(lat, budget=58).vertices) == 8
        with pytest.raises(lt.EnumerationBudgetError):
            lt.dirichlet_voronoi_cell(lat, budget=57)

    @pytest.mark.parametrize("invariant, needed", [
        (lt.shortest_vector, 15), (lt.dirichlet_voronoi_cell, 58),
    ])
    def test_memoised_answer_keeps_its_budget(self, monkeypatch, invariant, needed):
        # a cached invariant raises under a budget below what computing it
        # took, exactly as a fresh computation does
        monkeypatch.setattr(lt, "_INVARIANTS", {})
        with pytest.raises(lt.EnumerationBudgetError):
            invariant(Lattice.standard(3), budget=needed - 1)
        first = invariant(Lattice.standard(3))
        with pytest.raises(lt.EnumerationBudgetError):
            invariant(Lattice.standard(3), budget=needed - 1)
        assert invariant(Lattice.standard(3), budget=needed) is first
        assert len(lt._INVARIANTS) == 1

    def test_one_error_type(self):
        assert pt.EnumerationBudgetError is ct.EnumerationBudgetError
        assert ct.EnumerationBudgetError is lt.EnumerationBudgetError
