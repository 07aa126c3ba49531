"""Exact lattice-point counting for polytopes, translates, cells, balls."""

import itertools
from fractions import Fraction
from math import factorial
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from blichfeldt import counting as ct
from blichfeldt import lattice as lt
from blichfeldt import polytope as pt
from blichfeldt import witnesses as wt
from blichfeldt.counting import Body, CountResult, EnumerationBudgetError
from blichfeldt.lattice import Lattice
from blichfeldt.linalg import det_bareiss
from blichfeldt.polytope import DegenerateHullError
from blichfeldt.rng import Rng
from oracles import ceil_sqrt_by_search, interpolate, pick_quantities, real_row_meets


def _cube(n, side):
    return pt.hull([
        tuple(side if (m >> j) & 1 else 0 for j in range(n))
        for m in range(1 << n)
    ])


def _simplex_Sk(n, k):
    pts = [(0,) * n, tuple(k if j == 0 else 0 for j in range(n))]
    for i in range(1, n):
        pts.append(tuple(1 if j == i else 0 for j in range(n)))
    return pt.hull(pts)


def _box_scan_ball(body):
    """Lattice points of a ball: every cell of its coefficient box, in Fraction.

    The box's half-width along coefficient j is sqrt(r^2 * dual_gram[j][j]),
    the largest |x_j - c_j| over the ellipsoid.
    """
    lat = body.lattice
    n = lat.dim
    cc = lat.to_coeff(body.center)
    ranges = []
    for j in range(n):
        bound = ct.ceil_sqrt_fraction(body.radius_sq * lat.dual_gram[j][j])
        ranges.append(range((cc[j] - bound).__ceil__(), (cc[j] + bound).__floor__() + 1))
    total = 0
    for x in itertools.product(*ranges):
        y = [sum(x[i] * lat.basis[i][k] for i in range(n)) - body.center[k] for k in range(n)]
        if sum(v * v for v in y) <= body.radius_sq:
            total += 1
    return total


def _brute_force_polytope(poly):
    lo = [min(v[j] for v in poly.vertices) for j in range(poly.dim)]
    hi = [max(v[j] for v in poly.vertices) for j in range(poly.dim)]
    total = 0
    def rec(prefix, j):
        nonlocal total
        if j == len(lo):
            if all(sum(c * x for c, x in zip(f.normal, prefix)) <= f.offset for f in poly.facets):
                total += 1
            return
        for x in range(lo[j], hi[j] + 1):
            rec(prefix + (x,), j + 1)
    rec((), 0)
    return total


def _box_scan_linear(constraints, box):
    """Cells of the box with c.x <= t for every (c, t), tested one by one."""
    ranges = [range(lo, hi + 1) for lo, hi in zip(*box)]
    return sum(all(sum(map(mul, c, x)) <= t for c, t in constraints)
               for x in itertools.product(*ranges))


class TestCeilSqrt:
    def test_examples(self):
        assert ct.ceil_sqrt_fraction(0) == 0
        assert ct.ceil_sqrt_fraction(4) == 2
        assert ct.ceil_sqrt_fraction(5) == 3
        assert ct.ceil_sqrt_fraction(Fraction(1, 4)) == 1
        assert ct.ceil_sqrt_fraction(Fraction(9, 4)) == 2

    @given(st.fractions(min_value=0, max_value=10**6))
    def test_ceiling_property(self, r):
        m = ct.ceil_sqrt_fraction(r)
        assert m * m >= r
        assert m == 0 or (m - 1) ** 2 < r

    @given(st.one_of(st.fractions(min_value=0, max_value=10**6, max_denominator=2**200),
                     st.tuples(st.integers(0, 10**30), st.integers(1, 10**30)).map(
                         lambda mr: Fraction(mr[0] ** 2, mr[1] ** 2))))
    @settings(max_examples=200)
    def test_matches_search(self, r):
        # random and perfect-square rationals, against the search loop it replaced
        assert ct.ceil_sqrt_fraction(r) == ceil_sqrt_by_search(r)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ct.ceil_sqrt_fraction(Fraction(-1, 3))


class TestPolytopeCount:
    def test_cube(self):
        for side in (1, 2, 5):
            body = Body.from_polytope(_cube(3, side))
            assert ct.count(body).count == (side + 1) ** 3

    def test_simplex_family(self):
        # G(S_k) = n + k over the standard lattice
        for n in (2, 3, 4):
            for k in (1, 2, 7):
                body = Body.from_polytope(_simplex_Sk(n, k))
                assert ct.count(body).count == n + k

    def test_points_are_returned_and_inside(self):
        poly = _cube(2, 3)
        res = ct.count(Body.from_polytope(poly))
        assert res.count == 16

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed, n):
        rng = Rng(seed)
        while True:
            pts = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(8)]
            try:
                poly = pt.hull(pts)
                break
            except DegenerateHullError:
                continue
        assert ct.count(Body.from_polytope(poly)).count == _brute_force_polytope(poly)

    def test_nonstandard_lattice(self):
        # vertices are lattice coefficients; over 2Z x Z the square
        # [0,2]^2 in coefficients covers ambient [0,4] x [0,2]
        lat = Lattice([[2, 0], [0, 1]])
        poly = pt.hull([(0, 0), (2, 0), (0, 2), (2, 2)], lattice=lat)
        assert ct.count(Body.from_polytope(poly)).count == 9


class TestTranslateCount:
    def test_half_shift_drops_boundary(self):
        # (1/2)e1 + S_k contains exactly k points
        for n in (2, 3):
            for k in (1, 3, 6):
                t = tuple(Fraction(1, 2) if j == 0 else Fraction(0) for j in range(n))
                body = Body.translated(t, _simplex_Sk(n, k))
                assert ct.count(body).count == k

    def test_integer_shift_preserves_count(self):
        poly = _cube(2, 2)
        base = ct.count(Body.from_polytope(poly)).count
        body = Body.translated((Fraction(3), Fraction(-1)), poly)
        assert ct.count(body).count == base


class TestParallelepipedCount:
    def test_unit_cell(self):
        body = Body.parallelepiped([(1, 0), (0, 1)])
        assert ct.count(body).count == 1

    def test_count_equals_det(self):
        gens = [(2, 1), (0, 3)]
        body = Body.parallelepiped(gens)
        assert ct.count(body).count == 6

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_half_open_cell_law(self, seed, n):
        # a half-open cell of a full-rank integer matrix holds exactly
        # |det| lattice points, for any rational anchor
        rng = Rng(seed)
        while True:
            gens = [
                tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)
            ]
            if det_bareiss([list(g) for g in gens]) != 0:
                break
        d = abs(det_bareiss([list(g) for g in gens]))
        anchor = tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)
        )
        body = Body.parallelepiped(gens, anchor=anchor)
        assert ct.count(body).count == d


class TestBallCount:
    def test_origin_balls(self):
        # r^2 = 1: origin plus 6 unit neighbours in Z^3
        body = Body.ball((0, 0, 0), 1)
        assert ct.count(body).count == 7
        # r^2 = 2 adds the 12 diagonal neighbours
        body = Body.ball((0, 0, 0), 2)
        assert ct.count(body).count == 19

    def test_shifted_center(self):
        body = Body.ball((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2))
        assert ct.count(body).count == 4

    def test_nonstandard_lattice(self):
        lat = Lattice([[2, 0], [0, 2]])
        body = Body.ball((0, 0), 4, lattice=lat)
        assert ct.count(body).count == 5

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_box_scan_with_points_on_the_sphere(self, seed, n):
        # sheared rational lattice, rational centre, and r^2 = |v - c|^2 for
        # a lattice point v, so at least v lies exactly on the sphere
        rng = Rng(seed)
        basis = [
            [Fraction(rng.randint(2, 4), 2) if i == j
             else Fraction(rng.randint(-2, 2), 2) if j < i else 0
             for j in range(n)]
            for i in range(n)
        ]
        lat = Lattice(basis)
        center = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(n))
        while True:
            v = tuple(rng.randint(-1, 1) for _ in range(n))
            r2 = sum((a - c) ** 2 for a, c in zip(lat.to_ambient(v), center))
            if r2 > 0:
                break
        body = Body.ball(center, r2, lattice=lat)
        assert ct.count(body).count == _box_scan_ball(body)
        # count mode and points mode are one enumeration: same count, same nodes
        cc = lat.to_coeff(center)
        found, nodes = lt.enum_ellipsoid(lat, cc, r2)
        points, point_nodes = lt.enum_ellipsoid(lat, cc, r2, points=True)
        assert (found, nodes) == (len(points), point_nodes)
        assert v in [x for x, _ in points]
        # each point comes with its exact squared distance from the centre
        for x, dist_sq in points:
            assert dist_sq == sum((a - c) ** 2 for a, c in zip(lat.to_ambient(x), center))


class TestInnerParallel:
    def test_cube_shrink(self):
        # [0,4]^2 shrunk by rho=1 is [1,3]^2: nine points
        poly = _cube(2, 4)
        assert ct.count_inner_parallel(poly, 1).count == 9

    def test_shrink_to_nothing(self):
        poly = _cube(2, 1)
        assert ct.count_inner_parallel(poly, 1).count == 0

    def test_irrational_threshold(self):
        # rho = sqrt(1/2) on [0,3]^2 leaves [1,2]^2
        poly = _cube(2, 3)
        assert ct.count_inner_parallel(poly, Fraction(1, 2)).count == 4


class TestPick:
    def test_square(self):
        area, boundary, interior = pick_quantities(_cube(2, 3))
        assert (area, boundary, interior) == (9, 12, 4)
        assert area == interior + Fraction(boundary, 2) - 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_identity_on_random_polygons(self, seed):
        rng = Rng(seed)
        while True:
            pts = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(9)]
            try:
                poly = pt.hull(pts)
                break
            except DegenerateHullError:
                continue
        area, boundary, interior = pick_quantities(poly)
        assert area == interior + Fraction(boundary, 2) - 1


class TestShadowRows:
    @given(data=st.data(), n=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_any_pairs_match_box_scan(self, data, n):
        # random integer systems, empty ones included: no pairs, all pairs
        # and any subset of them count what a scan of every box cell counts
        coeff = st.tuples(*[st.integers(-3, 3)] * n)
        cons = data.draw(st.lists(st.tuples(coeff, st.integers(-6, 6)), min_size=1, max_size=6))
        los = data.draw(st.lists(st.integers(-3, 1), min_size=n, max_size=n))
        his = [lo + data.draw(st.integers(-1, 4)) for lo in los]
        every = list(itertools.combinations(range(len(cons)), 2))
        some = data.draw(st.lists(st.sampled_from(every), unique=True)) if every else []
        expected = _box_scan_linear(cons, (los, his))
        for pairs in ([], every, some):
            assert ct._enumerate_linear(cons, (los, his), 10**6, pairs) == expected

    @given(data=st.data(), n=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_polytope_pairs_match_box_scan(self, data, n):
        # a hull and a rational translate of it, whose rounded thresholds may
        # change its combinatorics: P's ridge pairs stay valid for both
        pts = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                                 min_size=n + 1, max_size=n + 4))
        try:
            poly = pt.hull(pts)
        except DegenerateHullError:
            assume(False)
        t = tuple(data.draw(st.fractions(-2, 2, max_denominator=3)) for _ in range(n))
        ridges = [pair for _, pair in pt.facet_ridges(poly)]
        for shift in (None, t):
            cons, box = ct._polytope_system(poly, shift)
            every = list(itertools.combinations(range(len(cons)), 2))
            expected = _box_scan_linear(cons, box)
            for pairs in ([], ridges, every):
                assert ct._enumerate_linear(cons, box, 10**6, pairs) == expected
        assert ct.count(Body.translated(t, poly)).count == expected

    def test_empty_shadow_row(self, monkeypatch):
        # x_0 <= x_1 - 1 and x_0 >= x_1 eliminate to 0 <= -1: the one group's
        # shadow interval is empty and no row is solved
        cons = [((1, -1), -1), ((-1, 1), 0)]
        assert ct._shadow(cons, [(0, 1)]) == [((0,), -1)]
        calls = []
        row_interval = ct._row_interval
        monkeypatch.setattr(ct, "_row_interval", lambda *a: calls.append(a) or row_interval(*a))
        assert ct._enumerate_linear(cons, ([-5, -5], [5, 5]), 10**6, [(0, 1)]) == 0
        assert len(calls) == 1

    def test_solves_only_rows_meeting_p(self, monkeypatch):
        # 12 S_1 in 4D: of its 13^3 box rows only those meeting P are solved,
        # plus one shadow interval per (x_1, x_2) group
        poly = wt.simplex_Sk(4, 1).scaled(12)
        calls = []
        row_interval = ct._row_interval

        def counted(cons, base, lb, ub):
            calls.append(base)
            return row_interval(cons, base, lb, ub)

        monkeypatch.setattr(ct, "_row_interval", counted)
        assert ct.count(Body.from_polytope(poly)).count == 1820
        monkeypatch.undo()
        cons, (los, his) = ct._polytope_system(poly)
        ranges = [range(lo, hi + 1) for lo, hi in zip(los[1:], his[1:])]
        meeting = sum(real_row_meets(cons, (0,) + rest) for rest in itertools.product(*ranges))
        groups = len(ranges[0]) * len(ranges[1])
        assert (meeting, groups) == (455, 169)
        assert len(calls) <= meeting + groups

    def test_count_result_field(self):
        # a field named count, read by callers as .count, not tuple.count
        assert CountResult(5).count == 5


def _sheared(n):
    return Lattice([[1 if i == j else Fraction(1, 2) * (j < i) for j in range(n)]
                    for i in range(n)])


class TestEhrhart:
    """The counts of a lattice polytope's dilates kP are the values L(k) of
    a polynomial of degree n, its Ehrhart polynomial (Beck and Robins,
    *Computing the Continuous Discretely*, 3.8): L(k) for k = 1..n+1 fix it.
    Its leading coefficient is the normalized volume, the next one half the
    facets' normalized volumes, its constant is 1, and (-1)^n L(-k) counts
    the lattice points inside kP (Ehrhart-Macdonald reciprocity, 4.1)."""

    BODIES = {
        f"{name} n={n} seed={seed}": lambda n=n, bound=bound, seed=seed, lat=lat: wt.random_hull(
            Rng(seed, stream=n), n, n + 4, bound, lattice=lat(n))
        for n, bound in ((2, 5), (3, 4), (4, 3))
        for name, lat, seeds in (("Z^n", lambda n: None, (31, 32)), ("sheared", _sheared, (33,)))
        for seed in seeds
    }

    @pytest.mark.parametrize("name", BODIES)
    def test_dilate_counts(self, name):
        poly = self.BODIES[name]()
        n = poly.dim

        def dilate_count(k):
            return ct.count(Body.from_polytope(poly.scaled(k))).count

        coeffs = interpolate([dilate_count(k) for k in range(1, n + 2)])

        def ehrhart(k):
            return sum(c * k ** j for j, c in enumerate(coeffs))

        for k in (n + 2, 12):
            assert ehrhart(k) == dilate_count(k)
        assert coeffs[n] == Fraction(poly.dets, factorial(n))
        assert coeffs[n - 1] == Fraction(sum(poly.facet_dets), 2 * factorial(n - 1))
        assert coeffs[0] == 1
        for k in (1, 2):
            # the interior of kP: a.x <= k b - 1 for integer a.x
            cons = [(f.normal, k * f.offset - 1) for f in poly.facets]
            box = [[k * f(col) for col in zip(*poly.vertices)] for f in (min, max)]
            pairs = itertools.combinations(range(len(cons)), 2)
            assert (-1) ** n * ehrhart(-k) == ct._enumerate_linear(cons, box, 10**7, pairs)


class TestBudget:
    def test_budget_exceeded(self):
        body = Body.from_polytope(_cube(3, 40))
        with pytest.raises(EnumerationBudgetError) as exc:
            ct.count(body, budget=1000)
        assert "budget=1000" in str(exc.value)

    def test_ball_nodes(self):
        # the unit ball of Z^3 holds 7 points; the search tries 15 coordinates
        body = Body.ball((0, 0, 0), 1)
        assert ct.count(body, budget=15).count == 7
        with pytest.raises(EnumerationBudgetError):
            ct.count(body, budget=14)

    def test_generous_budget_ok(self):
        body = Body.from_polytope(_cube(2, 10))
        assert ct.count(body, budget=10**4).count == 121

    def test_retention_limit(self):
        body = Body.from_polytope(_cube(2, 400))
        res = ct.count(body)
        assert res.count == 401**2
