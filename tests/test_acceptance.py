"""Acceptance gate: one test per criterion, one summary line per criterion.

Each test records a PASS/FAIL line (shown in the terminal summary) and then
asserts, so a red criterion is visible both in the summary block and in the
pytest report.
"""

import math
from fractions import Fraction

import pytest

from conftest import record_criterion

from blichfeldt import counting as ct
from blichfeldt import harness as hz
from blichfeldt import lattice as lt
from blichfeldt import polytope as pt
from blichfeldt import witnesses as wt
from blichfeldt.counting import Body
from blichfeldt.harness import InequalityId as I, Verdict as V
from blichfeldt.lattice import Lattice
from blichfeldt.linalg import det_bareiss
from blichfeldt.radical import Cmp, RadicalSum, certified_compare, enclose
from blichfeldt.rng import Rng
from oracles import (
    hyperplane_sublattice_det_sq,
    pick_quantities,
    volume_by_signed_cones,
    width,
)

SEED = 20260824

CORPUS_SPEC = wt.CorpusSpec(seed=SEED)  # 200 random hulls (n in {2,3}) + witnesses

SOUNDNESS_IDS = (
    I.BLICHFELDT_1_1,
    I.MAIN_THM_1_1,
    I.DIM3_THM_1_2,
    I.BHW_LOWER_1_2,
    I.TRANSLATE_LEMMA_1_3,
    I.GENERAL_1_3_i,
    I.GENERAL_1_3_ii,
    I.OVERHAGEN_3_3,
    I.MCMULLEN_SHELL,
    I.GENERAL_THM_4_1,
)


@pytest.fixture(scope="module")
def corpus_entries():
    return wt.build_corpus(CORPUS_SPEC)


@pytest.fixture(scope="module")
def corpus_report(corpus_entries):
    return hz.check_corpus(corpus_entries, list(SOUNDNESS_IDS))


def _count(body):
    return ct.count(body).count


def test_criterion_1_witness_identities():
    failures = []

    for n in (2, 3, 4):
        for k in range(1, 51):
            sk = wt.simplex_Sk(n, k)
            if _count(Body.from_polytope(sk)) != k + n:
                failures.append(f"point count of S_{k} (n={n})")
            if sk.volume != Fraction(k, math.factorial(n)):
                failures.append(f"volume of S_{k} (n={n})")
            t = tuple(Fraction(1, 2) if j == 0 else Fraction(0) for j in range(n))
            if _count(wt.half_translate(sk, t)) != k:
                failures.append(f"count of e1/2 + S_{k} (n={n})")

    for n in (3, 4):
        for m in range(1, 21):
            tm = wt.reeve_Tm(n, m)
            # the diagonal points j*(1,..,1), 0 < j < m, lie in T_m, and
            # Blichfeldt's bound n! vol + n = n + m caps the count
            if _count(Body.from_polytope(tm)) != n + m:
                failures.append(f"point count of T_{m} (n={n})")
            if tm.volume != Fraction(m, math.factorial(n)):
                failures.append(f"volume of T_{m} (n={n})")
            if _count(wt.half_translate(tm, (Fraction(1, 2),) * n)) != m:
                failures.append(f"count of v/2 + T_{m} (n={n})")

    ok = not failures
    detail = "witness identities hold exactly" if ok else "; ".join(failures)
    record_criterion(1, ok, detail)
    assert ok, detail


def test_criterion_2_parallelepiped_law():
    rng = Rng(SEED, stream=2)
    checked = 0
    ok = True
    for i in range(200):
        n = 2 + (i % 3)
        while True:
            gens = [
                tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)
            ]
            d = det_bareiss([list(g) for g in gens])
            if d != 0:
                break
        expected = abs(d)
        counts = [_count(Body.parallelepiped(gens))]
        for _ in range(5):
            anchor = tuple(
                Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)
            )
            counts.append(_count(Body.parallelepiped(gens, anchor=anchor)))
        if any(c != expected for c in counts):
            ok = False
            break
        checked += 1
    detail = (
        f"half-open cells hold exactly |det| points on {checked} generator "
        "sets x 6 anchors"
        if ok
        else f"count/|det| mismatch on generator set #{checked}"
    )
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_surface_area_closed_form():
    ok = True
    for n in range(2, 6):
        sk = wt.simplex_Sk(n, 1)
        expected = (RadicalSum.rational(n) + RadicalSum.sqrt(n)) / math.factorial(n - 1)
        if sk.surface_area != expected:
            ok = False
    threshold = (RadicalSum.rational(3) + RadicalSum.sqrt(3)) / 2
    if certified_compare(threshold, Fraction(9, 4)) is not Cmp.GREATER:
        ok = False
    detail = (
        "surface area of S_1 canonicalizes to (n + sqrt(n))/(n-1)! and the "
        "3D threshold (3 + sqrt(3))/2 certifies > 9/4"
        if ok
        else "surface-area closed form or certified comparison failed"
    )
    record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_4_soundness_suite(corpus_report):
    bad = hz.soundness_failures(r.report for r in corpus_report.rows)
    checked = [r for r in corpus_report.rows if r.report.verdict in (
        V.HOLDS, V.HOLDS_WITH_EQUALITY
    )]
    inconclusive = [
        r.report for r in corpus_report.rows if r.report.verdict is V.INCONCLUSIVE
    ]
    ok = not bad and not inconclusive and len(checked) > 0
    detail = (
        f"{len(checked)} certified verdicts across {len(SOUNDNESS_IDS)} "
        f"inequality ids, 0 violations, 0 inconclusive"
        if ok
        else f"{len(bad)} violations, {len(inconclusive)} inconclusive: "
        + "; ".join(
            f"{r.body_description}/{r.id.value}" for r in (bad + inconclusive)[:5]
        )
    )
    record_criterion(4, ok, detail)
    assert ok, detail


def test_criterion_5_boundary_layer_audit(corpus_entries):
    audited = 0
    coverage_only = []
    other = []
    for entry in corpus_entries:
        body = entry.body
        if body.kind != "polytope" or not hz._is_integer_lattice(body.lattice):
            continue
        record = hz.boundary_layer_audit(body.polytope)
        audited += 1
        if record.all_ok:
            continue
        failed_only_coverage = (
            not record.l2_covered_ok
            and record.l1_volume_ok
            and record.prisms_ok
            and record.vertex_count_ok
            and record.layers_ok
            and record.partition_ok
        )
        if failed_only_coverage:
            # The prism-coverage inclusion is stated pointwise: every
            # boundary-layer point must lie in some facet prism, the facet
            # swept inward along the unit cube's support direction
            # sign(a_i)/2. The facet minimising (b_i - a_i.z)/(|a_i|_1/2)
            # always covers z, so a failure here is a program fault; the
            # aggregate count bound is reported alongside as a diagnostic.
            n = body.polytope.dim
            m = len(record.facets)
            aggregate_ok = record.l2_count <= (
                sum(fa.prism_count for fa in record.facets) - m * (n - 1)
            )
            coverage_only.append((entry.name, aggregate_ok))
        else:
            other.append(entry.name)
    ok = audited > 0 and not coverage_only and not other
    if ok:
        detail = f"all sub-checks pass on {audited} integer-lattice polytopes"
    else:
        parts = []
        if coverage_only:
            agg = all(a for _, a in coverage_only)
            parts.append(
                f"pointwise prism coverage fails on {len(coverage_only)} of "
                f"{audited} bodies ({'; '.join(nm for nm, _ in coverage_only)}): "
                "a point near a facet ridge meets only one facet's slab but "
                "projects outside that facet; the aggregate prism count "
                f"bound #L2 <= sum G(Q_i) - m(n-1) still holds on "
                f"{'all' if agg else 'NOT all'} of them, and every other "
                "sub-check passes everywhere"
            )
        parts.extend(f"other sub-check failed on {nm}" for nm in other)
        detail = "; ".join(parts)
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_lattice_invariants():
    ok = True
    notes = []
    for n in (2, 3, 4):
        zn = Lattice.standard(n)
        if lt.shortest_vector(zn).length_sq != 1:
            ok = False
            notes.append(f"shortest vector of the standard lattice, n={n}")
        mu = lt.inhomogeneous_minimum(zn)
        if mu != RadicalSum.sqrt(n) / 2:
            ok = False
            notes.append(f"covering radius of the standard lattice, n={n}")
        if width(mu.enclosure(160)) >= Fraction(1, 2**64):
            ok = False
            notes.append(f"covering-radius enclosure too wide, n={n}")
        if lt.min_hyperplane_sublattice_det(zn) != RadicalSum.rational(1):
            ok = False
            notes.append(f"hyperplane sublattice determinant, n={n}")
        polar = zn.polar
        if polar.determinant != 1 or not all(
            polar.contains(row) and zn.contains(prow)
            for row, prow in zip(zn.basis, polar.basis)
        ):
            ok = False
            notes.append(f"standard lattice is not self-polar, n={n}")

    # cross-check det(L) * lambda_1(L*) against a brute-force minimum of
    # hyperplane sublattice determinants over small primitive dual vectors
    rng = Rng(SEED, stream=6)
    for _ in range(20):
        lat = wt.random_lattice(rng, 3, max_abs_det=8)
        via_polar = lt.min_hyperplane_sublattice_det(lat)
        via_polar_sq = via_polar * via_polar
        best = None
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    v = (a, b, c)
                    if v == (0, 0, 0) or math.gcd(math.gcd(abs(a), abs(b)), abs(c)) != 1:
                        continue
                    d_sq = hyperplane_sublattice_det_sq(lat, v)
                    best = d_sq if best is None else min(best, d_sq)
        if via_polar_sq != RadicalSum.rational(best):
            ok = False
            notes.append("dual-minimum identity on a random lattice")
            break
    detail = (
        "shortest vectors, covering radii, sublattice determinants and polar "
        "lattices agree with closed forms; dual-minimum identity verified on "
        "20 random lattices"
        if ok
        else "failed: " + "; ".join(notes)
    )
    record_criterion(6, ok, detail)
    assert ok, detail


def _mc_outer_volume(sides, rho, n_samples, seed):
    """Monte-Carlo volume of (axis box + rho * ball) with a binomial sigma."""
    import numpy as np

    hi = np.array(sides, dtype=float)
    lo_s = -rho
    hi_s = hi + rho
    vol_box = float(np.prod(hi_s - lo_s))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    chunk = 10**6
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pts = rng.uniform(lo_s, hi_s, size=(m, 3))
        outside = np.maximum(0.0, np.maximum(pts - hi, -pts))
        hits += int(((outside**2).sum(axis=1) <= rho * rho).sum())
        done += m
    p = hits / n_samples
    est = p * vol_box
    sigma = vol_box * math.sqrt(p * (1 - p) / n_samples)
    return est, sigma


def test_criterion_7_intrinsic_volumes(corpus_report):
    ok = True
    notes = []

    cube = pt.hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    box = pt.hull([(x, y, z) for x in (0, 2) for y in (0, 3) for z in (0, 5)])
    for poly, expected in ((cube, 3), (box, 10)):
        iv = pt.intrinsic_volumes_3d(poly)
        if iv.v1 != RadicalSum.rational(expected):
            ok = False
            notes.append("mean-width coefficient mismatch on a box")
        if width(enclose(iv.v1, 96)) >= Fraction(1, 2**32):
            ok = False
            notes.append("mean-width enclosure too wide on a box")

    for poly, sides, seed in ((cube, (1, 1, 1), 71), (box, (2, 3, 5), 72)):
        for rho in (Fraction(1, 2), Fraction(1)):
            steiner = pt.steiner_volume(poly, rho, bits=96)
            mid = float((steiner.lo + steiner.hi) / 2)
            est, sigma = _mc_outer_volume(sides, float(rho), 10**7, seed)
            if abs(est - mid) > 3 * sigma + float(width(steiner)):
                ok = False
                notes.append(
                    f"Monte-Carlo outer volume off at rho={rho}: {est} vs {mid}"
                )

    overhagen = [
        r for r in corpus_report.rows if r.report.id is I.OVERHAGEN_3_3
    ]
    if any(
        r.report.verdict in (V.VIOLATED, V.INCONCLUSIVE) for r in overhagen
    ):
        ok = False
        notes.append("intrinsic-volume bound uncertified on the 3D corpus")

    detail = (
        "box mean widths exact, Steiner evaluations within 3 sigma of "
        "Monte-Carlo, intrinsic-volume bound certified on the 3D corpus"
        if ok
        else "failed: " + "; ".join(notes)
    )
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_oracle_equivalence(corpus_entries):
    ok = True
    notes = []
    rng = Rng(SEED, stream=8)
    for _ in range(100):
        while True:
            pts = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(10)]
            try:
                poly = pt.hull(pts)
                break
            except pt.DegenerateHullError:
                continue
        area, boundary, interior = pick_quantities(poly)
        if area != interior + Fraction(boundary, 2) - 1:
            ok = False
            notes.append("Pick identity failed on a random polygon")
            break

    for entry in corpus_entries:
        poly = entry.body.polytope
        if poly.volume != volume_by_signed_cones(poly):
            ok = False
            notes.append(f"triangulation mismatch on {entry.name}")
            break

    detail = (
        "Pick identity holds on 100 random polygons; independent "
        "triangulations agree on every corpus polytope"
        if ok
        else "failed: " + "; ".join(notes)
    )
    record_criterion(8, ok, detail)
    assert ok, detail
