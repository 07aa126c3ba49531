"""Inequality checkers, boundary-layer audit, corpus runner, reports."""

import itertools
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from blichfeldt import counting as ct
from blichfeldt import harness as hz
from blichfeldt import lattice as lt
from blichfeldt import polytope as pt
from blichfeldt import witnesses as wt
from blichfeldt.counting import Body
from blichfeldt.harness import InequalityId as I, Verdict as V
from blichfeldt.interval import Interval, pi
from blichfeldt.lattice import Lattice
from blichfeldt.radical import Cmp, RadicalSum, certified_compare
from blichfeldt.rng import Rng
from oracles import real_row_meets, reciprocal, root_interval


def _cube(n, side):
    return pt.hull([
        tuple(side if (m >> j) & 1 else 0 for j in range(n))
        for m in range(1 << n)
    ])


def _check(id, body, **kw):
    return hz.check(id, body, **kw)


def _counter(calls):
    """counted(key, fn): fn, adding one to calls[key] per call."""
    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


class TestHypothesisGates:
    def test_ball_out_of_scope(self):
        r = _check(I.BLICHFELDT_1_1, Body.ball((0, 0), 1))
        assert r.verdict is V.OUT_OF_SCOPE

    def test_translated_id_needs_translated_body(self):
        body = Body.from_polytope(wt.simplex_Sk(3, 2))
        r = _check(I.TRANSLATE_LEMMA_1_3, body)
        assert r.verdict is V.HYPOTHESIS_UNMET

    def test_untranslated_id_rejects_translated_body(self):
        body = wt.half_translate(wt.simplex_Sk(3, 2), (Fraction(1, 2), 0, 0))
        r = _check(I.BLICHFELDT_1_1, body)
        assert r.verdict is V.HYPOTHESIS_UNMET

    def test_integer_lattice_only(self):
        lat = Lattice([[2, 0], [0, 1]])
        poly = pt.hull([(0, 0), (1, 0), (0, 1)], lattice=lat)
        r = _check(I.BLICHFELDT_1_1, Body.from_polytope(poly))
        assert r.verdict is V.HYPOTHESIS_UNMET

    def test_dim3_only(self):
        body = Body.from_polytope(_cube(2, 1))
        r = _check(I.DIM3_THM_1_2, body)
        assert r.verdict is V.HYPOTHESIS_UNMET

    def test_mu_dimension_cap(self):
        body = Body.from_polytope(wt.simplex_Sk(5, 1))
        r = _check(I.GENERAL_THM_4_1, body)
        assert r.verdict is V.OUT_OF_SCOPE

    def test_svp_dimension_cap(self):
        body = Body.from_polytope(wt.simplex_Sk(lt.SVP_MAX_DIM + 1, 1))
        r = _check(I.CONJECTURE_1_4, body)
        assert r.verdict is V.OUT_OF_SCOPE
        assert r.note == f"shortest-vector computation limited to n <= {lt.SVP_MAX_DIM}"


class TestVerdicts:
    def test_blichfeldt_equality_on_simplex(self):
        # G(S_k) = n + k equals n! vol + n = k + n exactly
        for n, k in ((2, 3), (3, 7)):
            body = Body.from_polytope(wt.simplex_Sk(n, k))
            r = _check(I.BLICHFELDT_1_1, body)
            assert r.verdict is V.HOLDS_WITH_EQUALITY
            assert r.tightness.lo <= 0 <= r.tightness.hi

    def test_blichfeldt_holds_on_cube(self):
        r = _check(I.BLICHFELDT_1_1, Body.from_polytope(_cube(3, 2)))
        assert r.verdict is V.HOLDS  # 27 < 6*8 + 3

    def test_main_surface_bound(self):
        for body in (
            Body.from_polytope(_cube(3, 2)),
            Body.from_polytope(wt.simplex_Sk(3, 1)),
            Body.from_polytope(wt.reeve_Tm(3, 4)),
        ):
            r = _check(I.MAIN_THM_1_1, body)
            assert r.verdict is V.HOLDS

    def test_dim3_and_lower_bound(self):
        body = Body.from_polytope(_cube(3, 3))
        assert _check(I.DIM3_THM_1_2, body).verdict is V.HOLDS
        assert _check(I.BHW_LOWER_1_2, body).verdict is V.HOLDS

    def test_lower_bound_in_every_dimension(self):
        # vol - F/2 < G is not a 3D-only statement: [0,3]^2 gives 9 - 6 < 16
        r = _check(I.BHW_LOWER_1_2, Body.from_polytope(_cube(2, 3)))
        assert r.verdict is V.HOLDS
        assert (r.lhs, r.rhs) == (RadicalSum.rational(3), 16)

    def test_translate_lemma_equality_on_reeve(self):
        # G(v/2 + T_m) = m = 3! vol(T_m): equality, and the lemma is not strict
        body = wt.half_translate(wt.reeve_Tm(3, 5), (Fraction(1, 2),) * 3)
        r = _check(I.TRANSLATE_LEMMA_1_3, body)
        assert r.verdict is V.HOLDS_WITH_EQUALITY

    def test_general_form_over_sublattice(self):
        lat = Lattice([[2, 0], [0, 1]])
        poly = pt.hull([(0, 0), (2, 0), (0, 2), (2, 2)], lattice=lat)
        r = _check(I.GENERAL_1_3_i, poly and Body.from_polytope(poly))
        assert r.verdict in (V.HOLDS, V.HOLDS_WITH_EQUALITY)

    def test_wills_overhagen_on_unit_cube(self):
        body = Body.from_polytope(_cube(3, 1))
        # 8 = 1 + 3 + 3 + 1 exactly; proved version allows equality
        r = _check(I.OVERHAGEN_3_3, body)
        assert r.verdict is V.HOLDS_WITH_EQUALITY
        r = _check(I.WILLS_3_2, body)
        assert r.verdict is V.HOLDS_WITH_EQUALITY
        assert "observational" in r.note

    def test_mcmullen_shell(self):
        poly = _cube(3, 4)
        r = _check(I.MCMULLEN_SHELL, Body.from_polytope(poly))
        assert r.verdict in (V.HOLDS, V.HOLDS_WITH_EQUALITY)
        assert ct.count_inner_parallel(poly, Fraction(1, 3)).count == 27

    def test_bokowski_steiner_bound(self):
        body = Body.from_polytope(_cube(3, 2))
        assert _check(I.BOKOWSKI_3_4, body).verdict is V.HOLDS

    def test_sketch_bound_notes_provenance(self):
        body = Body.from_polytope(_cube(3, 2))
        r = _check(I.SKETCH_RHO_HALF, body)
        assert r.verdict is V.HOLDS
        assert "sketch" in r.note

    @pytest.mark.parametrize("bits", (128, 144, 256, 512, 1024))
    def test_rho3_endpoints(self, bits):
        # each end's cube root on the grid of that end of 3/(4 pi) in lowest terms
        got = hz._rho3_enclosure(bits)
        want = root_interval(Interval.point(Fraction(3, 4)) * reciprocal(pi(bits + 16)), 3, bits)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    def test_conjecture_and_general_over_random_lattice(self):
        from blichfeldt.rng import Rng

        rng = Rng(5)
        lat = wt.random_lattice(rng, 3)
        poly = wt.random_hull(rng, 3, 10, 4, lattice=lat)
        body = Body.from_polytope(poly)
        assert _check(I.GENERAL_THM_4_1, body).verdict in (
            V.HOLDS, V.HOLDS_WITH_EQUALITY
        )
        r = _check(I.CONJECTURE_1_4, body)
        assert r.verdict in (V.HOLDS, V.HOLDS_WITH_EQUALITY, V.VIOLATED)

    def test_main_theorem_above_point_retention_limit(self):
        # [0,50]^3 holds 51^3 = 132,651 points
        r = _check(I.MAIN_THM_1_1, Body.from_polytope(_cube(3, 50)))
        assert r.verdict is V.HOLDS
        assert r.lhs == 51**3

    def test_strict_ids_fixed(self):
        table = hz.INEQUALITIES
        assert table[I.MAIN_THM_1_1].strict
        assert table[I.DIM3_THM_1_2].strict
        assert table[I.BHW_LOWER_1_2].strict
        assert not table[I.BLICHFELDT_1_1].strict
        assert not table[I.TRANSLATE_LEMMA_1_3].strict


class TestInequalityTable:
    def test_one_row_per_id(self):
        assert set(hz.INEQUALITIES) == set(I)

    def test_observational_rows(self):
        observational = {id for id, row in hz.INEQUALITIES.items() if row.observational}
        assert observational == {I.CONJECTURE_1_4, I.WILLS_3_2}

    def test_each_measure_computed_once(self, monkeypatch):
        # all 14 ids on one slanted 3D hull: one count, one volume, one
        # surface area (one facet volume per facet), one norm per facet
        calls = {"count": 0, "volume": 0, "facet_volume": 0, "norm": 0}
        counted = _counter(calls)

        monkeypatch.setattr(ct, "count", counted("count", ct.count))
        monkeypatch.setattr(pt, "normalized_volume", counted("volume", pt.normalized_volume))
        monkeypatch.setattr(
            pt, "facet_lattice_volume", counted("facet_volume", pt.facet_lattice_volume)
        )
        monkeypatch.setattr(pt, "dual_norm_sq", counted("norm", pt.dual_norm_sq))
        poly = pt.hull(TestBoundaryLayerAudit.RIDGE_BODIES[1])
        entry = wt.CorpusEntry(index=0, name="hull", body=Body.from_polytope(poly))
        report = hz.check_corpus([entry], list(I))
        assert len(report.rows) == 14
        assert hz.soundness_failures(r.report for r in report.rows) == []
        facets = len(poly.facets)
        assert calls == {"count": 1, "volume": 1, "facet_volume": facets, "norm": facets}


class TestLatticeInvariantReuse:
    def test_computed_once_per_lattice(self, monkeypatch):
        # the two lattice-invariant ids on the small corpus: three
        # shortest-vector requests per untranslated body (one for
        # CONJECTURE_1_4, two for GENERAL_THM_4_1) and one Voronoi cell,
        # but one computation of each per distinct basis
        calls = {"svp": 0, "svp_computed": 0, "dv": 0, "dv_computed": 0}
        counted = _counter(calls)

        monkeypatch.setattr(lt, "_INVARIANTS", {})
        monkeypatch.setattr(lt, "shortest_vector", counted("svp", lt.shortest_vector))
        monkeypatch.setattr(lt, "_shortest_vector", counted("svp_computed", lt._shortest_vector))
        monkeypatch.setattr(
            lt, "dirichlet_voronoi_cell", counted("dv", lt.dirichlet_voronoi_cell)
        )
        monkeypatch.setattr(
            lt, "_dirichlet_voronoi_cell", counted("dv_computed", lt._dirichlet_voronoi_cell)
        )
        entries = wt.build_corpus(_small_spec())
        report = hz.check_corpus(entries, [I.CONJECTURE_1_4, I.GENERAL_THM_4_1])
        assert hz.soundness_failures(r.report for r in report.rows) == []
        bodies = [e.body for e in entries if e.body.kind == "polytope"]
        bases = {b.lattice.basis for b in bodies}
        polar_bases = {b.lattice.polar.basis for b in bodies}
        assert len(bodies) > len(bases) > 2
        assert calls == {
            "svp": 3 * len(bodies), "svp_computed": len(polar_bases),
            "dv": len(bodies), "dv_computed": len(bases),
        }


class TestIntrinsicVolumeReuse:
    """V1 costs one arccos per slanted edge and precision, whatever reads it."""

    def test_one_acos_per_edge_and_precision(self, monkeypatch):
        poly = pt.hull(TestBoundaryLayerAudit.RIDGE_BODIES[1])
        slanted = sum(
            1 for _, (i, j) in pt.facet_ridges(poly)
            if sum(a * b for a, b in zip(poly.facets[i].normal, poly.facets[j].normal))
        )
        assert slanted > 0
        calls = []
        acos = pt.acos_interval

        def counted(dot, nn, bits):
            calls.append(bits)
            return acos(dot, nn, bits)

        monkeypatch.setattr(pt, "acos_interval", counted)
        entry = wt.CorpusEntry(index=0, name="hull", body=Body.from_polytope(poly))
        report = hz.check_corpus(
            [entry], [I.WILLS_3_2, I.OVERHAGEN_3_3, I.BOKOWSKI_3_4]
        )
        hz.report_to_json(report)
        # the comparisons and slacks read V1 at 128 bits (arccos at 144);
        # the Steiner volume at 128 bits reads it at 144 (arccos at 160)
        assert sorted(set(calls)) == [144, 160]
        assert len(calls) == 2 * slanted


class TestFormatValue:
    def test_rational(self):
        assert hz.format_value(Fraction(3, 4)) == "3/4"
        assert hz.format_value(7) == "7/1"

    def test_enclosure(self):
        from blichfeldt.radical import RadicalSum

        s = hz.format_value(RadicalSum.sqrt(2), bits=64)
        assert s.startswith("[") and "@" in s


def _radical_prism_bound_ok(count, n, d, s):
    """#Q < (sqrt(n)+1)/2 d sqrt(s) + (n-1) as a RadicalSum under certified_compare."""
    bound = (RadicalSum.sqrt(n) + 1) * Fraction(d, 2) * RadicalSum.sqrt(s) + (n - 1)
    return certified_compare(count, bound) is Cmp.LESS


def _reference_audit(poly):
    """The per-point audit that the row sweep replaced, as its oracle.

    Every lattice point is tested on its own.  The points of facet prism i
    are the points of the slab b - gamma_i <= a.z <= b in P's bounding box
    widened by 1, kept when z + ((b - a.z)/|a|_1) sign(a) satisfies
    every facet inequality (compared in integers scaled by |a|_1).  Such a
    z is p - (j/|a|_1) sign(a) for a point p of the facet and
    j <= gamma_i < |a|_1 / 2, so each coordinate lies within 1/2 of P's box:
    no member may lie on the widened box's outer shell, and none does.
    """
    n = poly.dim
    facets = [(tuple(int(c) for c in f.normal), int(f.offset)) for f in poly.facets]
    los = [min(v[j] for v in poly.vertices) for j in range(n)]
    his = [max(v[j] for v in poly.vertices) for j in range(n)]

    def dot(a, z):
        return sum(c * x for c, x in zip(a, z))

    def l1_norm(a):
        return sum(abs(c) for c in a)

    def gamma(a):
        return -(-l1_norm(a) // 2) - 1

    wide_lo = [x - 1 for x in los]
    wide_hi = [x + 1 for x in his]

    def slab(a, b, g):
        ranges = (range(l, h + 1) for l, h in zip(wide_lo[1:], wide_hi[1:]))
        for rest in itertools.product(*ranges):
            r = b - dot(a[1:], rest)        # r - g <= a0 x0 <= r
            if a[0] == 0:
                xs = range(wide_lo[0], wide_hi[0] + 1) if 0 <= r <= g else ()
            else:
                ends = (Fraction(r - g, a[0]), Fraction(r, a[0]))
                xs = range(max(wide_lo[0], math.ceil(min(ends))),
                           min(wide_hi[0], math.floor(max(ends))) + 1)
            yield from ((x0,) + rest for x0 in xs)

    def project_in_facet(a, b, z):
        l1 = l1_norm(a)
        slack = b - dot(a, z)
        sign = [(c > 0) - (c < 0) for c in a]
        return all(l1 * dot(h, z) + slack * dot(h, sign) <= l1 * bh for h, bh in facets)

    box = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
    points = [z for z in box if all(dot(a, z) <= b for a, b in facets)]
    l1_pts = {
        z for z in points
        if all(dot(a, z) <= b - (l1_norm(a) + 1) // 2 for a, b in facets)
    }
    l2_pts = [z for z in points if z not in l1_pts]
    members = [
        {z for z in slab(a, b, gamma(a)) if project_in_facet(a, b, z)}
        for a, b in facets
    ]
    assert not any(z[k] in (wide_lo[k], wide_hi[k]) for m in members for z in m for k in range(n))
    facet_audits = []
    for i, (a, b) in enumerate(facets):
        normalized = pt.facet_lattice_volume(poly, i)
        layer_counts = tuple(
            sum(1 for z in members[i] if dot(a, z) == b - j) for j in range(gamma(a) + 1)
        )
        per_layer = math.factorial(n - 1) * normalized
        facet_audits.append(hz.FacetAudit(
            facet_index=i, gamma=gamma(a), prism_count=len(members[i]),
            layer_counts=layer_counts,
            prism_bound_ok=_radical_prism_bound_ok(
                len(members[i]), n, per_layer, sum(c * c for c in a)
            ),
            layer_bounds_ok=all(
                cnt <= per_layer + (n - 1 if j == 0 else 0)
                for j, cnt in enumerate(layer_counts)
            ),
        ))
    incidences = sum(dot(a, v) == b for a, b in facets for v in poly.vertices)
    return hz.AuditRecord(
        total=len(points),
        l1_count=len(l1_pts),
        l2_count=len(l2_pts),
        l1_volume_ok=len(l1_pts) <= poly.volume,
        l2_covered_ok=all(any(z in m for m in members) for z in l2_pts),
        prisms_ok=all(f.prism_bound_ok for f in facet_audits),
        vertex_count_ok=incidences >= len(poly.vertices) + len(facets) * (n - 1),
        layers_ok=all(f.layer_bounds_ok for f in facet_audits),
        partition_ok=len(l1_pts) + len(l2_pts) == len(points),
        facets=tuple(facet_audits),
    )


class TestBoundaryLayerAudit:
    def test_cube_side_two(self):
        record = hz.boundary_layer_audit(_cube(3, 2))
        assert record.total == 27
        assert record.l1_count == 1       # only the centre survives the shift
        assert record.l2_count == 26
        assert record.all_ok

    def test_unit_cube(self):
        record = hz.boundary_layer_audit(_cube(3, 1))
        assert record.total == 8
        assert record.l1_count == 0
        assert record.all_ok

    def test_simplex(self):
        record = hz.boundary_layer_audit(wt.simplex_Sk(3, 1))
        assert record.total == 4
        assert record.all_ok

    def test_larger_bodies(self):
        for poly in (_cube(3, 4), wt.reeve_Tm(3, 3)):
            record = hz.boundary_layer_audit(poly)
            assert record.partition_ok
            assert record.all_ok

    def test_requires_dimension_two(self):
        # a 1D prism is an endpoint with D_i = 1, so #Q_i < 1 cannot hold
        with pytest.raises(ValueError, match="dimension >= 2"):
            hz.boundary_layer_audit(pt.hull([(0,), (5,)]))

    def test_partition(self):
        record = hz.boundary_layer_audit(_cube(3, 3))
        assert record.l1_count + record.l2_count == record.total

    def test_unimodular_basis_audits_ambient_body(self):
        # coefficients c map to c0 (1,3,0) + c1 e2 + c2 e3; the facet normal
        # (0,1,0) in coefficients is (-3,1,0) in the ambient space
        lat = Lattice([[1, 3, 0], [0, 1, 0], [0, 0, 1]])
        poly = _cube(3, 2)
        skewed = pt.hull(poly.vertices, lattice=lat)
        twin = pt.hull([(x, 3 * x + y, z) for x, y, z in poly.vertices])
        record = hz.boundary_layer_audit(skewed)
        assert record == hz.boundary_layer_audit(twin)
        assert record != hz.boundary_layer_audit(poly)

    # Bodies on which an orthogonal projection onto the facet hyperplane
    # left a boundary-layer point uncovered; the cube-direction prism
    # covers it.
    RIDGE_BODIES = (
        [(0, 1, 0), (1, 3, 4), (1, 4, 1), (1, 4, 2), (3, 1, 1), (3, 1, 4),
         (3, 4, 6), (4, 4, 0), (6, 2, 0), (6, 3, 6), (6, 4, 0)],
        [(0, 5, 3), (1, 0, 0), (1, 6, 3), (1, 6, 6), (2, 0, 1), (3, 1, 3),
         (5, 0, 0), (5, 3, 1), (6, 2, 6)],
        [(0, 3, 0), (0, 5, 2), (1, 1, 5), (1, 1, 6), (1, 3, 5), (1, 6, 0),
         (3, 5, 6), (3, 6, 2), (5, 3, 5), (5, 4, 6), (6, 3, 3)],
    )

    ORACLE_BODIES = {
        **{f"ridge {i}": lambda v=v: pt.hull(v) for i, v in enumerate(RIDGE_BODIES)},
        "T_4": lambda: wt.reeve_Tm(3, 4),
        "T_8": lambda: wt.reeve_Tm(3, 8),
        "S_8": lambda: wt.simplex_Sk(3, 8),
        "S_16": lambda: wt.simplex_Sk(3, 16),
        **{f"cube {a}": lambda a=a: _cube(3, a) for a in (1, 2, 3)},
        "polygon": lambda: pt.hull([(0, 0), (7, 2), (5, 6), (1, 5)]),
        # the facets (0, -1, 0), (0, 0, -1) and (0, 2, 1) have a_0 = 0: each
        # of their rows along x_0 lies in one layer
        "long rows": lambda: _long_prism(40),
        "4D": lambda: pt.hull([(0, 0, 0, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0),
                               (0, 0, 0, 3), (2, 2, 2, 2)]),
        # long facet normals: facets whose box spans P's box
        "T_24": lambda: wt.reeve_Tm(3, 24),
        # 22 facets, two with a_0 = 0
        "hull in [0,9]^3": lambda: _nth_random_hull(Rng(9, stream=3), 3, 3, 20, 9),
        # [0,3] x a tetrahedron, cut by a point beyond it: the lateral
        # facets have a_0 = 0
        "4D with a_0 = 0": lambda: pt.hull(
            [(x,) + v for x in (0, 3) for v in [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)]]
            + [(1, 2, 2, 2)]),
    }

    @pytest.mark.parametrize("name", ORACLE_BODIES)
    def test_matches_per_point_reference(self, name):
        poly = self.ORACLE_BODIES[name]()
        assert hz.boundary_layer_audit(poly) == _reference_audit(poly)

    @given(st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=4, max_size=10))
    @settings(max_examples=8, deadline=None)
    def test_matches_per_point_reference_random(self, vertices):
        try:
            poly = pt.hull(vertices)
        except pt.DegenerateHullError:
            assume(False)
        assert hz.boundary_layer_audit(poly) == _reference_audit(poly)

    @pytest.mark.parametrize("dim, side, most", [(2, 9, 9), (4, 2, 7)])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_matches_per_point_reference_in_dimension(self, dim, side, most, data):
        vertices = data.draw(st.lists(
            st.tuples(*[st.integers(0, side)] * dim), min_size=dim + 1, max_size=most
        ))
        try:
            poly = pt.hull(vertices)
        except pt.DegenerateHullError:
            assume(False)
        assert hz.boundary_layer_audit(poly) == _reference_audit(poly)

    def test_long_rows_one_layer_each(self):
        # rows of m + 1 points along x_0: a facet with a_0 = 0 takes each of
        # its rows whole, so its layer counts grow by the factor (m + 1)/41
        m = 10**6
        polys = [_long_prism(40), _long_prism(m)]
        short, long = (hz.boundary_layer_audit(poly) for poly in polys)
        assert long.all_ok
        lateral = [i for i, f in enumerate(polys[1].facets) if f.normal[0] == 0]
        assert len(lateral) == 3
        for i in lateral:
            assert [41 * c for c in long.facets[i].layer_counts] == [
                (m + 1) * c for c in short.facets[i].layer_counts
            ]

    @pytest.mark.parametrize("seed", [16, 22, 39])
    def test_layer_counts_every_a0(self, monkeypatch, seed):
        # facet normals with a_0 = 0, a_0 = 1 and -1, and |a_0| >= 2 of both
        # signs whose prisms have rows of two points or more: such a row's
        # points lie |a_0| layers apart
        poly = wt.random_hull(Rng(seed, stream=3), 3, 8, 6)
        a0s = {f.normal[0] for f in poly.facets}
        assert {0, 1, -1} <= a0s
        spread = set()
        rows = ct._rows

        def recorded(cons, box, budget, pairs):
            for base, lb, ub in rows(cons, box, budget, pairs):
                if ub > lb and cons[1][0] == tuple(-c for c in cons[0][0]):
                    spread.add(cons[0][0][0])
                yield base, lb, ub

        monkeypatch.setattr(ct, "_rows", recorded)
        record = hz.boundary_layer_audit(poly)
        monkeypatch.undo()
        assert record == _reference_audit(poly)
        assert max(spread) >= 2 and min(spread) <= -2

    def test_integers_only(self, monkeypatch):
        # no surd, no certified comparison and, once the lattice's
        # determinant is known, no Fraction
        poly = wt.reeve_Tm(3, 8)
        assert poly.lattice.determinant == 1

        def refuse(*args, **kwargs):
            raise AssertionError("the audit built a Fraction or a RadicalSum")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        monkeypatch.setattr(RadicalSum, "__init__", refuse)
        record = hz.boundary_layer_audit(poly)
        monkeypatch.undo()
        assert record == _reference_audit(poly)

    def test_prism_solved_only_on_rows_its_shadow_reaches(self, monkeypatch, row_solves):
        # T_24's facets have long normals and boxes spanning P's box; a row
        # is solved for Q_i only when the real prism Q_i meets it
        poly = wt.reeve_Tm(3, 24)
        record = hz.boundary_layer_audit(poly)
        monkeypatch.undo()
        assert record == _reference_audit(poly)
        # a prism's list opens with its slab a.z <= b, -a.z <= gamma - b
        solves = [base for cons, base in row_solves
                  if cons[1][0] == tuple(-c for c in cons[0][0])]
        los, his = ([f(c) for c in zip(*poly.vertices)] for f in (min, max))
        rows = [(0, y, z) for y in range(los[1], his[1] + 1) for z in range(los[2], his[2] + 1)]
        in_shadow = sum(_real_prism_row_meets(poly, i, base)
                        for i in range(len(poly.facets)) for base in rows)
        in_boxes = 0
        for f in poly.facets:
            (y0, y1), (z0, z1) = [(min(c), max(c)) for c in
                                  zip(*(poly.vertices[k][1:] for k in f.vertex_ids))]
            in_boxes += (y1 - y0 + 1) * (z1 - z0 + 1)
        assert len(solves) <= in_shadow
        assert 4 * in_shadow < in_boxes
        # each row of the real prism's shadow is in its facet's box, so the
        # recorder sees a solve for every row the real prism meets
        assert len(solves) == in_shadow

    def test_p_solved_only_on_rows_it_meets(self, monkeypatch, row_solves):
        # P's own row is solved on the rows of P's shadow only: on T_24 the
        # 26 rows that meet P, not all 625 rows of its 25 x 25 box
        poly = wt.reeve_Tm(3, 24)
        inside = [(f.normal, f.offset) for f in poly.facets]
        record = hz.boundary_layer_audit(poly)
        monkeypatch.undo()
        assert record == _reference_audit(poly)
        solves = [base for cons, base in row_solves if cons == inside]
        los, his = ([f(c) for c in zip(*poly.vertices)] for f in (min, max))
        rows = [(0, y, z) for y in range(los[1], his[1] + 1) for z in range(los[2], his[2] + 1)]
        assert len(rows) == 625
        assert sorted(solves) == [base for base in rows if real_row_meets(inside, base)]
        assert len(solves) == 26

    def test_budget_checked_before_any_prism(self, row_solves):
        # each facet box of [0, 4]^3 holds 25 cells and fits a budget of
        # 100; P's 125 do not, and the audit stops before sweeping a prism
        with pytest.raises(lt.EnumerationBudgetError):
            hz.boundary_layer_audit(_cube(3, 4), budget=100)
        assert row_solves == []
        assert hz.boundary_layer_audit(_cube(3, 4), budget=125).total == 125

    def test_prisms_swept_over_facet_boxes(self, monkeypatch):
        # each prism's rows come from its facet's box, and a sweep over P's
        # box yields the same rows: every point of Q_i lies in F_i's box
        poly = wt.random_hull(Rng(43, stream=3), 3, 9, 6)
        sweeps = []
        rows = ct._rows

        def recorded(cons, box, budget, pairs):
            pairs = list(pairs)
            sweeps.append((cons, box, pairs))
            return rows(cons, box, budget, pairs)

        monkeypatch.setattr(ct, "_rows", recorded)
        record = hz.boundary_layer_audit(poly)
        monkeypatch.undo()
        assert record == _reference_audit(poly)
        p_box = [[f(col) for col in zip(*poly.vertices)] for f in (min, max)]
        *prisms, (_, l1_box, l1_pairs), (_, last_box, p_pairs) = sweeps
        assert last_box == p_box and len(prisms) == len(poly.facets)
        # L1 is swept like one more prism, over P's box with P's ridge pairs
        assert l1_box == p_box and l1_pairs == p_pairs == poly.ridges
        held = 0
        for (cons, box, pairs), f in zip(prisms, poly.facets):
            cols = list(zip(*(poly.vertices[v] for v in f.vertex_ids)))
            assert box == [[min(c) for c in cols], [max(c) for c in cols]] != p_box
            swept = list(rows(cons, box, 10**6, pairs))
            assert swept == list(rows(cons, p_box, 10**6, pairs))
            held += bool(swept)
        assert held == len(prisms)

    @pytest.mark.parametrize("n, seed", [(3, 44), (4, 44)])
    def test_audit_calls_only_rows(self, shadow_solves, n, seed):
        # the audit reaches counting through _rows alone, for P, L1 and the
        # prisms; the walk solves shadows only on groups (0, x_1, .., x_{n-2})
        poly = wt.random_hull(Rng(seed, stream=n), n, n + 6, 4)
        called = set()

        def profile(frame, event, arg):
            if (event == "call" and frame.f_globals["__name__"] == ct.__name__
                    and frame.f_back.f_globals["__name__"] == hz.__name__):
                called.add(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            record = hz.boundary_layer_audit(poly)
        finally:
            sys.setprofile(previous)
        assert record == _reference_audit(poly)
        assert called == {"_rows"}
        assert shadow_solves and {len(head) for head in shadow_solves} == {n - 1}

    # (count, n, d, s, holds): near ties of two surds, counts below n - 1,
    # and exact ties, which fail the strict bound
    PRISM_BOUNDS = [
        (98, 1, 70, 2, True), (99, 1, 70, 2, False),        # 70 sqrt 2 vs 99
        (239, 2, 140, 2, True), (240, 2, 140, 2, False),    # 141 + 70 sqrt 2
        (11, 4, 2, 9, True), (12, 4, 2, 9, False),          # bound 12
        (9, 9, 1, 1, True), (10, 9, 1, 1, False),           # bound 10
        (63, 9, 4, 49, True), (64, 9, 4, 49, False),        # bound 64
        (0, 3, 1, 1, True), (1, 3, 1, 1, True), (3, 9, 1, 1, True),
    ]

    @pytest.mark.parametrize("count, n, d, s, holds", PRISM_BOUNDS)
    def test_integer_prism_bound(self, count, n, d, s, holds):
        assert hz._prism_bound_ok(count, n, d, s) is holds
        assert _radical_prism_bound_ok(count, n, d, s) is holds

    @given(
        n=st.one_of(st.integers(1, 12), st.sampled_from([4, 9])),
        d=st.integers(1, 80),
        s=st.one_of(st.integers(1, 500), st.integers(1, 22).map(lambda k: k * k)),
        offset=st.integers(-3, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_prism_bound_matches_certified_compare(self, n, d, s, offset):
        near = (math.sqrt(n) + 1) / 2 * d * math.sqrt(s) + n - 1
        count = max(0, math.floor(near) + offset)
        assert hz._prism_bound_ok(count, n, d, s) == _radical_prism_bound_ok(count, n, d, s)

    def test_slab_of_many_points(self):
        # a facet (152, 91, -63) of this body has a slab of 102,279 lattice
        # points in the widened box; the sweep keeps none of them
        rng = Rng(5, stream=3)
        for _ in range(8):
            poly = wt.random_hull(rng, 3, 12, 14)
        record = hz.boundary_layer_audit(poly)
        assert (record.total, record.l1_count) == (1136, 726)
        assert record.all_ok

    @pytest.mark.parametrize("vertices", RIDGE_BODIES)
    def test_ridge_points_covered(self, vertices):
        record = hz.boundary_layer_audit(pt.hull(vertices))
        assert record.l2_covered_ok
        assert record.all_ok

    def test_ridge_point_by_hand(self):
        poly = pt.hull(self.RIDGE_BODIES[0])
        z = (4, 2, 2)
        a = (10, -18, 3)

        def dot(a, x):
            return sum(Fraction(c) * xi for c, xi in zip(a, x))

        def gamma(a):
            return -(-sum(abs(c) for c in a) // 2) - 1

        def inside(x):
            return all(dot(f.normal, x) <= f.offset for f in poly.facets)

        assert inside(z)
        # z is in L2: its unit cube leaves P through some facet
        assert any(
            dot(f.normal, z) > f.offset - Fraction(sum(map(abs, f.normal)), 2)
            for f in poly.facets
        )
        slabs = [
            f for f in poly.facets
            if f.offset - gamma(f.normal) <= dot(f.normal, z) <= f.offset
        ]
        assert [(f.normal, f.offset) for f in slabs] == [(a, 24)]
        # b - a.z = 14 and |a|_1 = 31: the cube-direction image is in F
        image = (4 + Fraction(14, 31), 2 - Fraction(14, 31), 2 + Fraction(14, 31))
        assert dot(a, image) == 24
        assert inside(image)
        # whereas the orthogonal projection falls outside P
        t = Fraction(14, sum(c * c for c in a))
        orthogonal = tuple(x + t * c for x, c in zip(z, a))
        assert not inside(orthogonal)


def _nth_random_hull(rng, k, n, points, bound):
    for _ in range(k):
        poly = wt.random_hull(rng, n, points, bound)
    return poly


def _real_prism_row_meets(poly, i, base):
    """True when the real prism Q_i meets the line base + x_0 e_0.

    Each inequality of Q_i, with every facet h of P, is solved for x_0 in
    rationals: c0 x_0 <= rem.
    """
    a, b = poly.facets[i].normal, poly.facets[i].offset
    l1 = sum(map(abs, a))
    gamma = -(-l1 // 2) - 1
    sign = [(c > 0) - (c < 0) for c in a]
    slack = b - sum(c * x for c, x in zip(a, base))     # b - a.z at x_0 = 0
    rows = [(a[0], Fraction(slack)), (-a[0], Fraction(gamma - slack))]
    for f in poly.facets:
        hs = sum(c * s for c, s in zip(f.normal, sign))
        # h.(z + ((b - a.z)/|a|_1) sign) <= b_h
        rows.append((f.normal[0] - Fraction(hs * a[0], l1),
                     f.offset - sum(c * x for c, x in zip(f.normal, base))
                     - Fraction(hs * slack, l1)))
    lo, hi = None, None
    for c0, rem in rows:
        if c0 > 0:
            hi = rem / c0 if hi is None else min(hi, rem / c0)
        elif c0 < 0:
            lo = rem / c0 if lo is None else max(lo, rem / c0)
        elif rem < 0:
            return False
    return lo is None or hi is None or lo <= hi


def _long_prism(m):
    """[0, m] x conv{(0, 0), (4, 0), (0, 8)}: rows of m + 1 points along x_0."""
    return pt.hull([(x, y, z) for x in (0, m) for y, z in ((0, 0), (4, 0), (0, 8))])


def _small_spec(seed=9):
    return wt.CorpusSpec(
        seed=seed,
        dimensions=(2, 3),
        num_random_hulls=4,
        points_per_hull=8,
        coord_bound=4,
        k_values=(1, 2),
        m_values=(1, 2),
        num_random_lattices=1,
    )


class TestRunCorpus:
    def test_no_soundness_failures(self):
        report = hz.run_corpus(_small_spec(), list(I))
        assert hz.soundness_failures(r.report for r in report.rows) == []
        assert len(report.rows) == len(wt.build_corpus(_small_spec())) * len(list(I))

    def test_deterministic(self):
        ids = [I.BLICHFELDT_1_1, I.MAIN_THM_1_1]
        a = hz.report_to_json(hz.run_corpus(_small_spec(), ids))
        b = hz.report_to_json(hz.run_corpus(_small_spec(), ids))
        assert a == b

    def test_budget_exhaustion_marks_rows(self):
        report = hz.run_corpus(_small_spec(), [I.BLICHFELDT_1_1], budget=3)
        # rows either fail a hypothesis gate before counting or run out
        assert all(
            r.report.verdict in (V.OUT_OF_SCOPE, V.HYPOTHESIS_UNMET)
            for r in report.rows
        )
        assert any(
            r.report.verdict is V.OUT_OF_SCOPE and "budget" in r.report.note
            for r in report.rows
        )

    def test_csv_shape(self):
        report = hz.run_corpus(_small_spec(), [I.BLICHFELDT_1_1])
        lines = hz.report_to_csv(report).strip().splitlines()
        assert lines[0].split(",")[:4] == ["index", "body", "id", "verdict"]
        assert len(lines) == len(report.rows) + 1

    def test_json_shape(self):
        report = hz.run_corpus(_small_spec(), [I.DIM3_THM_1_2])
        doc = json.loads(hz.report_to_json(report))
        assert doc["schema"] == hz.REPORT_SCHEMA_VERSION
        assert len(doc["rows"]) == len(report.rows)
        assert "DIM3_THM_1_2" in doc["summary"]
        assert doc["violations"] == []
