"""Certified checkers for the point-count inequalities, plus audits.

``INEQUALITIES`` is one table with a row per ``InequalityId``: the
hypotheses the statement needs (integer lattice only, dimension 3 only, a
translated or an untranslated body, n within reach of its lattice data),
whether it is strict, whether it is observational, the note its reports
carry, and a function giving its two sides.  ``check`` tests the hypotheses
in a fixed order, then compares the sides with ``certified_compare``: exact
values (int/Fraction/RadicalSum) or adaptive enclosures, so a VIOLATED
verdict is a certificate, not floating-point noise.  A corpus run counts
each body once for all ids; volume, surface area and facet norms are
computed once per polytope.
Two ids are not theorems (CONJECTURE_1_4 is a conjecture, WILLS_3_2 is
known to fail in general): their violations are reported as findings,
never as artifact failures.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial
from operator import mul
from typing import Callable, NamedTuple

from blichfeldt import counting as ct
from blichfeldt import lattice as lt
from blichfeldt import polytope as pt
from blichfeldt.counting import Body
from blichfeldt.interval import Interval, pi, root_ends
from blichfeldt.radical import (
    MAX_BITS, Cmp, Inconclusive, RadicalSum, certified_compare, enclose, format_value,
)
from blichfeldt.witnesses import CorpusSpec, body_to_dict, build_corpus


class InequalityId(enum.Enum):
    BLICHFELDT_1_1 = "BLICHFELDT_1_1"
    MAIN_THM_1_1 = "MAIN_THM_1_1"
    DIM3_THM_1_2 = "DIM3_THM_1_2"
    BHW_LOWER_1_2 = "BHW_LOWER_1_2"
    TRANSLATE_LEMMA_1_3 = "TRANSLATE_LEMMA_1_3"
    GENERAL_1_3_i = "GENERAL_1_3_i"
    GENERAL_1_3_ii = "GENERAL_1_3_ii"
    CONJECTURE_1_4 = "CONJECTURE_1_4"
    WILLS_3_2 = "WILLS_3_2"
    OVERHAGEN_3_3 = "OVERHAGEN_3_3"
    MCMULLEN_SHELL = "MCMULLEN_SHELL"
    BOKOWSKI_3_4 = "BOKOWSKI_3_4"
    SKETCH_RHO_HALF = "SKETCH_RHO_HALF"
    GENERAL_THM_4_1 = "GENERAL_THM_4_1"


REPORT_SCHEMA_VERSION = 1


class Verdict(enum.Enum):
    HOLDS = "Holds"
    HOLDS_WITH_EQUALITY = "HoldsWithEquality"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "Inconclusive"
    HYPOTHESIS_UNMET = "HypothesisUnmet"
    OUT_OF_SCOPE = "OutOfScope"


class InequalityReport(NamedTuple):
    id: InequalityId
    body_description: str
    verdict: Verdict
    lhs: object = None
    rhs: object = None
    tightness: Interval | None = None   # enclosure of rhs - lhs
    precision_bits: int | None = None
    note: str = ""


def _is_integer_lattice(lat: lt.Lattice) -> bool:
    """True when the lattice equals Z^n as a point set."""
    return lat.den == 1 and abs(lat.det_B) == 1


def _rho3_enclosure(bits: int) -> Interval:
    """(3 / (4 pi))^(1/3): the radius making the unit-ball volume 1, each
    end's cube root on the grid of that end of 3/(4 pi) in lowest terms."""
    p = pi(bits + 16)
    lo, hi = Fraction(3, 4) / p.hi, Fraction(3, 4) / p.lo
    r_lo = root_ends(lo.numerator, lo.denominator, 3, bits)[0]
    r_hi = root_ends(hi.numerator, hi.denominator, 3, bits)[1]
    return Interval(Fraction(r_lo, lo.denominator << bits), Fraction(r_hi, hi.denominator << bits))


class _Subject:
    """A body under check; its lattice-point count is computed at most once."""

    def __init__(self, body: Body, budget: int):
        self.body, self.budget = body, budget
        self.lat, self.n, self.poly = body.lattice, body.dim, body.polytope

    @cached_property
    def count(self) -> int:
        return ct.count(self.body, budget=self.budget).count


def _lattice_surface_bound(s: _Subject, factor=1):
    """vol/det(L) + factor (n-1)! F / det(L) lambda_1(L*)."""
    F = s.poly.surface_area
    det_sub = lt.min_hyperplane_sublattice_det(s.lat, s.budget)
    scaled = factor * Fraction(factorial(s.n - 1)) * (F / det_sub)
    return s.count, s.poly.volume / s.lat.determinant + scaled


def _general_thm_4_1(s: _Subject):
    mu = lt.inhomogeneous_minimum(s.lat, s.budget)
    lam_star = RadicalSum.sqrt(lt.shortest_vector(s.lat.polar, s.budget).length_sq)
    return _lattice_surface_bound(s, mu * lam_star + 1)


def _v1_bound(s: _Subject):
    """G <= V1 + V2 + V3 + 1 (Wills, Overhagen)."""
    iv = s.poly.intrinsic_volumes
    base = iv.v2 + (Fraction(1) + iv.v3)   # RadicalSum
    if isinstance(iv.v1, RadicalSum):
        return s.count, iv.v1 + base
    v1 = iv.v1
    return s.count, lambda bits: v1(bits) + base.enclosure(bits)


def _mcmullen_shell(s: _Subject):
    inner = ct.count_inner_parallel(s.poly, Fraction(1, 3), budget=s.budget).count
    return s.count - inner, s.poly.surface_area + 2


def _sketch_rho_half(s: _Subject):
    F, vol = s.poly.surface_area, s.poly.volume

    def rhs(bits):
        factor = (_rho3_enclosure(bits) + Interval.point(Fraction(1, 2))) * 2
        return Interval.point(vol) + factor * F.enclosure(bits)

    return s.count, rhs


class Inequality(NamedTuple):
    """One row of ``INEQUALITIES``.

    ``sides(subject)`` returns ``(lhs, rhs)`` of lhs <= rhs, or of
    lhs < rhs when ``strict`` (then equality is a violation).
    """

    sides: Callable
    strict: bool = False
    integer_lattice: bool = False   # stated over the integer lattice only
    dim3: bool = False              # stated for dimension 3 only
    translated: bool = False        # stated for t + P with t not in the lattice
    max_dim: tuple = ()             # (n, computation): its lattice data needs n <= n
    observational: bool = False     # not a proved theorem: VIOLATED is a finding
    note: str = ""


_I = InequalityId

INEQUALITIES = {
    _I.BLICHFELDT_1_1: Inequality(
        lambda s: (s.count, factorial(s.n) * s.poly.volume + s.n),
        integer_lattice=True,
    ),
    _I.MAIN_THM_1_1: Inequality(
        lambda s: (s.count, s.poly.volume + (RadicalSum.sqrt(s.n) + 1)
                   * Fraction(factorial(s.n - 1), 2) * s.poly.surface_area),
        strict=True, integer_lattice=True,
    ),
    _I.DIM3_THM_1_2: Inequality(
        lambda s: (s.count, s.poly.surface_area * 2 + s.poly.volume),
        strict=True, integer_lattice=True, dim3=True,
    ),
    _I.BHW_LOWER_1_2: Inequality(
        lambda s: (s.poly.volume - s.poly.surface_area * Fraction(1, 2), s.count),
        strict=True, integer_lattice=True,
    ),
    _I.TRANSLATE_LEMMA_1_3: Inequality(
        lambda s: (s.count, factorial(s.n) * s.poly.volume),
        integer_lattice=True, translated=True,
    ),
    _I.GENERAL_1_3_i: Inequality(
        lambda s: (s.count, factorial(s.n) * s.poly.volume / s.lat.determinant + s.n)),
    _I.GENERAL_1_3_ii: Inequality(
        lambda s: (s.count, factorial(s.n) * s.poly.volume / s.lat.determinant),
        translated=True,
    ),
    _I.CONJECTURE_1_4: Inequality(
        _lattice_surface_bound, strict=True, max_dim=(lt.SVP_MAX_DIM, "shortest-vector"),
        observational=True, note="conjecture/observational",
    ),
    _I.WILLS_3_2: Inequality(
        _v1_bound, integer_lattice=True, dim3=True,
        observational=True, note="conjecture/observational",
    ),
    _I.OVERHAGEN_3_3: Inequality(_v1_bound, integer_lattice=True, dim3=True),
    _I.MCMULLEN_SHELL: Inequality(_mcmullen_shell, integer_lattice=True, dim3=True),
    _I.BOKOWSKI_3_4: Inequality(
        lambda s: (s.count, lambda bits: pt.steiner_volume(s.poly, _rho3_enclosure, bits)),
        integer_lattice=True, dim3=True,
    ),
    _I.SKETCH_RHO_HALF: Inequality(
        _sketch_rho_half, strict=True, integer_lattice=True, dim3=True,
        note="proof sketch only",
    ),
    _I.GENERAL_THM_4_1: Inequality(_general_thm_4_1, max_dim=(lt.MU_MAX_DIM, "covering-radius")),
}


def check(id: InequalityId, body: Body, description: str = "",
          budget: int = ct.DEFAULT_BUDGET, max_bits: int = MAX_BITS) -> InequalityReport:
    """Evaluate one inequality on one body with a certified comparison."""
    return _check(id, _Subject(body, budget), description, max_bits)


def _check(id, s: _Subject, description: str, max_bits: int) -> InequalityReport:
    ineq = INEQUALITIES[id]
    body = s.body
    desc = description or f"{body.kind} n={s.n}"

    def refused(verdict, reason):
        return InequalityReport(id, desc, verdict, note=reason)

    if body.kind not in ("polytope", "translated_polytope"):
        return refused(
            Verdict.OUT_OF_SCOPE, f"body kind {body.kind!r} not supported by checkers"
        )
    if ineq.translated != (body.kind == "translated_polytope"):
        return refused(Verdict.HYPOTHESIS_UNMET, (
            "requires a translated lattice polytope" if ineq.translated
            else "stated for untranslated bodies"
        ))
    if ineq.integer_lattice and not _is_integer_lattice(s.lat):
        return refused(Verdict.HYPOTHESIS_UNMET, "stated over the integer lattice only")
    if ineq.dim3 and s.n != 3:
        return refused(Verdict.HYPOTHESIS_UNMET, "stated for dimension 3 only")
    if ineq.max_dim and s.n > ineq.max_dim[0]:
        return refused(
            Verdict.OUT_OF_SCOPE,
            f"{ineq.max_dim[1]} computation limited to n <= {ineq.max_dim[0]}",
        )

    # an untranslated polytope needs no dimension test: its vertices are
    # lattice points, and hull() rejects a flat vertex set
    if ineq.translated and s.lat.contains(body.translate):
        return refused(Verdict.HYPOTHESIS_UNMET, "translate lies in the lattice")
    lhs, rhs = ineq.sides(s)

    cmp = certified_compare(lhs, rhs, max_bits=max_bits)
    if isinstance(cmp, Inconclusive):
        return InequalityReport(
            id, desc, Verdict.INCONCLUSIVE, lhs, rhs,
            precision_bits=cmp.precision_bits, note=ineq.note,
        )
    verdict = {
        Cmp.LESS: Verdict.HOLDS,
        Cmp.EQUAL: Verdict.VIOLATED if ineq.strict else Verdict.HOLDS_WITH_EQUALITY,
        Cmp.GREATER: Verdict.VIOLATED,
    }[cmp]
    slack = enclose(rhs) - enclose(lhs)
    return InequalityReport(
        id, desc, verdict, lhs, rhs, tightness=slack, note=ineq.note
    )


# ---------------------------------------------------------------------------
# boundary-layer audit (integer lattice only)


class FacetAudit(NamedTuple):
    facet_index: int
    gamma: int
    prism_count: int
    layer_counts: tuple
    prism_bound_ok: bool            # strict per-prism bound
    layer_bounds_ok: bool


class AuditRecord(NamedTuple):
    total: int
    l1_count: int
    l2_count: int
    l1_volume_ok: bool              # (a)
    l2_covered_ok: bool             # (b)
    prisms_ok: bool                 # (c) all facets
    vertex_count_ok: bool           # (d)
    layers_ok: bool                 # (e) all facets
    partition_ok: bool              # #L1 + #L2 = G
    facets: tuple

    @property
    def all_ok(self) -> bool:
        return (
            self.l1_volume_ok and self.l2_covered_ok and self.prisms_ok
            and self.vertex_count_ok and self.layers_ok and self.partition_ok
        )


def _covers(intervals, lo, hi) -> bool:
    """True when the integer intervals [lb, ub] together cover [lo, hi]."""
    for lb, ub in sorted(intervals):
        if lo > hi or lb > lo:
            break
        lo = max(lo, ub + 1)
    return lo > hi


def _prism_bound_ok(count: int, n: int, d: int, s: int) -> bool:
    """count < (sqrt(n)+1)/2 d sqrt(s) + (n-1), decided in integers.

    With p = 2(count - (n-1)) it reads p < d sqrt(ns) + d sqrt(s).  For
    p >= 0 square it: L = p^2 - d^2 s (n+1) < 2 d^2 s sqrt(n); for L >= 0
    square again: L^2 < 4 n d^4 s^2, which is false on equality.
    """
    p = 2 * (count - (n - 1))
    L = p * p - d * d * s * (n + 1)
    return p < 0 or L < 0 or L * L < 4 * n * (d * d * s) ** 2


def boundary_layer_audit(
    poly: pt.LatticePolytope, budget: int = ct.DEFAULT_BUDGET
) -> AuditRecord:
    """Check the shell-decomposition counting argument facet by facet.

    L1 holds the points whose unit cube C = [-1/2, 1/2]^n stays inside P;
    every other point must land in some facet prism Q_i, and each prism
    decomposes into lattice layers whose counts obey the per-layer bounds.
    The prism Q_i is the facet F_i (a.x <= b) swept inward along the cube's
    support direction c_i = sign(a)/2: a lattice point z is in Q_i when
    b - gamma_i <= a.z <= b, with gamma_i = ceil(|a|_1/2) - 1, and
    z + ((b - a.z)/|a|_1) sign(a) lies in F_i.

    Each row's points of P, of L1 and of every Q_i form an interval of x_0,
    and ``counting._rows`` yields them only for the rows a body's shadow
    reaches.  The audit walks each prism's rows, counting its layers and
    keeping its x_0 interval per row; then P's rows, counting G and L1 and
    checking that L1 and the kept intervals cover each row.  No point list
    is kept.
    """
    # Why every point of L2 is covered: take the facet i minimising
    # r_i = (b_i - a_i.z)/(|a_i|_1/2).  A point of L2 has r_i < 1, so z lies
    # in the slab of facet i; and z + r_i C is inside P, so its point
    # z + r_i c_i, which is exactly the swept image above, lies in F_i.
    #
    # Why the per-layer bounds still hold: for 0 < j < |a|_1/2, layer j
    # (a.z = b - j) maps into aff(F_i) by the shift (j/|a|_1) sign(a).  That
    # shift is not an integer vector, so the image is a non-lattice translate
    # of the facet lattice, and the translate lemma in dimension n-1 bounds
    # the layer by D_i = (n-1)! vol(F_i); layer 0 is F_i (Blichfeldt: D_i + n - 1).
    #
    # Why P's box holds every point of Q_i: such a point is
    # z = p - (j/|a|_1) sign(a) with p in F_i and 0 <= j <= gamma_i, so each
    # coordinate of z is within j/|a|_1 < 1/2 of the integral box of F_i.
    #
    # Why the facets sharing a ridge with F_i are enough: the swept image x
    # has a.x = b, and within aff(F_i) F_i is cut out by its own facets, the
    # ridges F_i cap F_h, each on h.x <= b_h.
    #
    # Why a skipped row holds no point of Q_i: eliminating x_0, each lower
    # bound on it against each upper one, gives exactly the projection of the
    # real prism on (x_1, .., x_{n-1}) (Fourier-Motzkin; Schrijver, Theory of
    # Linear and Integer Programming, 12.2).  For fixed x_1 .. x_{n-2} its
    # integer x_{n-1} form one interval; a row outside it meets no real point.
    # P's own rows come the same way from its ridge pairs (see ``counting``).
    lat = poly.lattice
    if not _is_integer_lattice(lat):
        raise ValueError("audit requires the integer lattice")
    n = poly.dim
    if n < 2:
        # a 1D prism is an endpoint, D_i = 1, and #Q_i < 1 cannot hold: the
        # per-layer bounds need the translate lemma in dimension n - 1 >= 1
        raise ValueError("audit requires dimension >= 2")
    if any(x != int(i == j) for i, row in enumerate(lat.B) for j, x in enumerate(row)):
        # norms, the unit cube and facet areas below are taken in the
        # coordinates of the vertices, so they must be the ambient ones
        poly = pt.hull([lat.to_ambient(v) for v in poly.vertices], budget=budget)
    box = [[f(col) for col in zip(*poly.vertices)] for f in (min, max)]
    inside = [(f.normal, f.offset) for f in poly.facets]
    ridges = {p for i, j in poly.ridges for p in ((i, j), (j, i))}
    interior, layers = [], []
    # per row base, the x_0 intervals of the prisms that meet the row
    cover = {}
    for i, (a, b) in enumerate(inside):
        l1 = sum(map(abs, a))
        # L1: a.z <= b - |a|_1/2, integer left side
        interior.append((a, b - (l1 + 1) // 2))
        gamma = -(-l1 // 2) - 1
        sign = [(c > 0) - (c < 0) for c in a]
        # Q_i: the slab b - gamma <= a.z <= b, and h.x <= b_h for the swept
        # image x = z + ((b - a.z)/|a|_1) sign(a) of z and each facet h
        # sharing a ridge with F_i; scaled by |a|_1 > 0 that is
        # (|a|_1 h - (h.sign) a).z <= |a|_1 b_h - b (h.sign)
        cons = [(a, b), (tuple(-c for c in a), gamma - b)]
        for h, bh in (f for j, f in enumerate(inside) if (i, j) in ridges):
            hs = sum(map(mul, h, sign))
            cons.append((tuple(l1 * x - hs * y for x, y in zip(h, a)), l1 * bh - b * hs))
        counts = [0] * (gamma + 1)
        for base, lb, ub in ct._rows(cons, box, budget, combinations(range(len(cons)), 2)):
            cover.setdefault(base, []).append((lb, ub))
            slack = b - sum(map(mul, a, base))
            if a[0]:
                for x0 in range(lb, ub + 1):
                    counts[slack - a[0] * x0] += 1
            else:       # the whole row lies in one layer
                counts[slack] += ub - lb + 1
        layers.append(counts)

    g = l1_count = 0
    l2_covered = True
    for base, plb, pub in ct._rows(inside, box, budget, poly.ridges):
        g += pub - plb + 1
        qlb, qub = ct._row_interval(interior, base, plb, pub)
        l1_count += max(0, qub - qlb + 1)
        # L2 is the row less L1: covered when the prisms and L1 cover the row
        l2_covered = l2_covered and _covers(cover.get(base, []) + [(qlb, qub)], plb, pub)
    l2_count = g - l1_count

    facet_audits = []
    for i, ((a, _), counts, d) in enumerate(zip(inside, layers, poly.facet_dets)):
        facet_audits.append(FacetAudit(
            facet_index=i, gamma=len(counts) - 1, prism_count=sum(counts),
            layer_counts=tuple(counts),
            prism_bound_ok=_prism_bound_ok(sum(counts), n, d, sum(c * c for c in a)),
            layer_bounds_ok=max([counts[0] - (n - 1)] + counts[1:]) <= d,
        ))

    return AuditRecord(
        total=g,
        l1_count=l1_count,
        l2_count=l2_count,
        l1_volume_ok=factorial(n) * l1_count <= poly.dets,
        l2_covered_ok=l2_covered,
        prisms_ok=all(f.prism_bound_ok for f in facet_audits),
        vertex_count_ok=(sum(len(f.vertex_ids) for f in poly.facets)
                         >= len(poly.vertices) + len(inside) * (n - 1)),
        layers_ok=all(f.layer_bounds_ok for f in facet_audits),
        partition_ok=l1_count + l2_count == g,
        facets=tuple(facet_audits),
    )


# ---------------------------------------------------------------------------
# corpus runner


class CorpusRow(NamedTuple):
    index: int
    name: str
    report: InequalityReport


class CorpusReport(NamedTuple):
    rows: tuple
    summary: dict        # id value -> {"verdicts": {...}, "min_slack": .., "max_slack": ..}
    violations: tuple    # (row, reloadable body dict)


def run_corpus(spec: CorpusSpec, ids, budget: int = ct.DEFAULT_BUDGET,
               max_bits: int = MAX_BITS) -> CorpusReport:
    """Every id against every corpus entry, deterministically ordered."""
    return check_corpus(build_corpus(spec), ids, budget=budget, max_bits=max_bits)


def check_corpus(entries, ids, budget: int = ct.DEFAULT_BUDGET,
                 max_bits: int = MAX_BITS) -> CorpusReport:
    """Every id against every given ``CorpusEntry``, in the given order."""
    rows = []
    violations = []
    summary: dict = {}
    for entry in entries:
        subject = _Subject(entry.body, budget)   # one count for all ids
        for id in ids:
            try:
                report = _check(id, subject, entry.name, max_bits)
            except ct.EnumerationBudgetError as exc:
                report = InequalityReport(id, entry.name, Verdict.OUT_OF_SCOPE, note=str(exc))
            row = CorpusRow(index=entry.index, name=entry.name, report=report)
            rows.append(row)
            s = summary.setdefault(
                id.value, {"verdicts": {}, "min_slack": None, "max_slack": None}
            )
            s["verdicts"][report.verdict.value] = (
                s["verdicts"].get(report.verdict.value, 0) + 1
            )
            if report.tightness is not None:
                mid = report.tightness.mid
                if s["min_slack"] is None or mid < s["min_slack"]:
                    s["min_slack"] = mid
                if s["max_slack"] is None or mid > s["max_slack"]:
                    s["max_slack"] = mid
            if report.verdict is Verdict.VIOLATED:
                violations.append((row, body_to_dict(entry.body)))
    return CorpusReport(rows=tuple(rows), summary=summary, violations=tuple(violations))


def soundness_failures(reports):
    """The reports VIOLATED on a proved (non-observational) id: always bugs."""
    return [
        r for r in reports
        if r.verdict is Verdict.VIOLATED and not INEQUALITIES[r.id].observational
    ]


def report_to_csv(report: CorpusReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "index", "body", "id", "verdict", "lhs", "rhs", "slack_lo", "slack_hi", "note",
    ])
    for row in report.rows:
        r = row.report
        t = r.tightness
        writer.writerow([
            row.index, row.name, r.id.value, r.verdict.value,
            format_value(r.lhs), format_value(r.rhs),
            str(t.lo) if t else "", str(t.hi) if t else "", r.note,
        ])
    return buf.getvalue()


def report_to_json(report: CorpusReport) -> str:
    def row_payload(row):
        r = row.report
        out = {
            "index": row.index,
            "body": row.name,
            "id": r.id.value,
            "verdict": r.verdict.value,
            "lhs": format_value(r.lhs),
            "rhs": format_value(r.rhs),
            "note": r.note,
        }
        if r.tightness is not None:
            out["slack"] = {"lo": str(r.tightness.lo), "hi": str(r.tightness.hi)}
        if r.precision_bits is not None:
            out["precision_bits"] = r.precision_bits
        return out

    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "rows": [row_payload(row) for row in report.rows],
        "summary": {
            key: {
                "verdicts": val["verdicts"],
                "min_slack": str(val["min_slack"]) if val["min_slack"] is not None else None,
                "max_slack": str(val["max_slack"]) if val["max_slack"] is not None else None,
            }
            for key, val in sorted(report.summary.items())
        },
        "violations": [
            {"index": row.index, "body": row.name, "id": row.report.id.value,
             "body_spec": body_dict}
            for row, body_dict in report.violations
        ],
    }
    return json.dumps(doc, indent=2)
