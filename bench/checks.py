"""Independent checks of every operation's output.

Nothing here imports the program.  Counts come from closed forms of the
witness families, from ``|det|`` of a parallelepiped's generators, or from
the benchmark's own integer enumeration over facet inequalities that it
derives exactly from ``scipy.spatial.ConvexHull``'s facets; ball counts from
an integer brute force.  Volumes, surface areas and V1 come from
``ConvexHull`` in floating point and are compared with the program's exact
values within a relative tolerance.  Verdicts are re-derived from these
values and from the hypotheses of each inequality, read off the body spec.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull

REL_TOL = 1e-9
BRUTE_FORCE_MAX_CELLS = 400_000

OBSERVATIONAL = {"CONJECTURE_1_4", "WILLS_3_2"}
STRICT = {"MAIN_THM_1_1", "DIM3_THM_1_2", "BHW_LOWER_1_2", "CONJECTURE_1_4",
          "SKETCH_RHO_HALF"}
INTEGER_LATTICE_ONLY = {
    "BLICHFELDT_1_1", "MAIN_THM_1_1", "DIM3_THM_1_2", "BHW_LOWER_1_2",
    "TRANSLATE_LEMMA_1_3", "WILLS_3_2", "OVERHAGEN_3_3", "MCMULLEN_SHELL",
    "BOKOWSKI_3_4", "SKETCH_RHO_HALF",
}
DIM3_ONLY = {"DIM3_THM_1_2", "WILLS_3_2", "OVERHAGEN_3_3", "MCMULLEN_SHELL",
             "BOKOWSKI_3_4", "SKETCH_RHO_HALF"}
TRANSLATED_ONLY = {"TRANSLATE_LEMMA_1_3", "GENERAL_1_3_ii"}
ALL_IDS = (
    "BLICHFELDT_1_1", "MAIN_THM_1_1", "DIM3_THM_1_2", "BHW_LOWER_1_2",
    "TRANSLATE_LEMMA_1_3", "GENERAL_1_3_i", "GENERAL_1_3_ii", "CONJECTURE_1_4",
    "WILLS_3_2", "OVERHAGEN_3_3", "MCMULLEN_SHELL", "BOKOWSKI_3_4",
    "SKETCH_RHO_HALF", "GENERAL_THM_4_1",
)
#: (family, id) pairs the paper proves to be equality cases
EQUALITY_CASES = {
    ("S_k", "BLICHFELDT_1_1"), ("T_m", "BLICHFELDT_1_1"),
    ("S_k_half", "TRANSLATE_LEMMA_1_3"), ("T_m_half", "TRANSLATE_LEMMA_1_3"),
}


# ---------------------------------------------------------------------------
# exact helpers


def frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    num, _, den = str(s).partition("/")
    return Fraction(int(num), int(den) if den else 1)


def parse_value(text: str):
    """'p/q' -> Fraction; '[lo, hi]@bits' -> (lo, hi); '' -> None."""
    text = text.strip()
    if not text:
        return None
    if text.startswith("["):
        lo, hi = text[1:text.index("]")].split(",")
        return (Fraction(lo.strip()), Fraction(hi.strip()))
    return frac(text)


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return d


def inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [r[n:] for r in m]


def row_times(v, m):
    return [sum(Fraction(v[i]) * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def value_matches(parsed, expected: float) -> bool:
    """Exact value within tolerance of ``expected``, or an enclosure of it."""
    if isinstance(parsed, tuple):
        tol = REL_TOL * max(1.0, abs(expected))
        return float(parsed[0]) - tol <= expected <= float(parsed[1]) + tol
    return close(float(parsed), expected)


# ---------------------------------------------------------------------------
# independent facts about one body


def exact_facets(points):
    """Facet inequalities (a, b), a.x <= b, with primitive integer a.

    ConvexHull supplies which vertex sets span facets; the normals are then
    computed exactly from those integer vertices (generalised cross
    product) and every inequality is verified against every point.  Every
    facet keeps at least one full-rank simplex of the triangulated output,
    so skipping flat ones loses no facet.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    d = len(pts[0])
    hull = ConvexHull(np.array(pts, dtype=float))
    total = [sum(p[j] for p in pts) for j in range(d)]
    facets = set()
    for simplex in hull.simplices:
        base = pts[simplex[0]]
        diffs = [[pts[i][j] - base[j] for j in range(d)] for i in simplex[1:]]
        a = [
            (-1) ** j * int(det([[r[k] for k in range(d) if k != j] for r in diffs]))
            for j in range(d)
        ]
        g = math.gcd(*a)
        if g == 0:
            continue  # a flat simplex of Qhull's triangulated output
        a = [x // g for x in a]
        b = sum(x * y for x, y in zip(a, base))
        if sum(x * y for x, y in zip(a, total)) > b * len(pts):
            a, b = [-x for x in a], -b
        facets.add((tuple(a), b))
    for a, b in facets:
        if any(sum(x * y for x, y in zip(a, p)) > b for p in pts):
            raise ArithmeticError("derived facet inequality cuts off a vertex")
    return sorted(facets)


def box_points(los, his):
    cells = 1
    for lo, hi in zip(los, his):
        cells *= max(0, hi - lo + 1)
    if cells > BRUTE_FORCE_MAX_CELLS:
        raise ValueError(f"brute-force box of {cells} cells is too large")
    if cells == 0:
        return np.zeros((0, len(los)), dtype=np.int64)
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(los, his)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


FAMILY_NAME = re.compile(
    r"^(?:(S_k)(\+e1/2)? n=(\d+) k=(\d+)|(T_m)(\+v/2)? n=(\d+) m=(\d+)|(?:lattice-)?hull .*)$"
)


def family_from_corpus_name(name: str) -> dict:
    m = FAMILY_NAME.match(name)
    if m is None:
        raise ValueError(f"unknown corpus entry {name!r}")
    if m.group(1):
        fam = "S_k_half" if m.group(2) else "S_k"
        return {"family": fam, "n": int(m.group(3)), "k": int(m.group(4))}
    if m.group(5):
        fam = "T_m_half" if m.group(6) else "T_m"
        return {"family": fam, "n": int(m.group(7)), "m": int(m.group(8))}
    return {"family": "random"}


class Facts:
    """What the benchmark knows about a body without the program."""

    def __init__(self, doc: dict, family: dict):
        if doc.get("schema") != 1:
            raise ValueError("unknown body schema")
        self.family = family
        self.basis = [[frac(x) for x in row] for row in doc["lattice"]["basis"]]
        self.n = len(self.basis)
        body = doc["body"]
        self.kind = body["kind"]
        self.body = body
        self.det = abs(det(self.basis))
        self.integer_lattice = (
            all(x.denominator == 1 for row in self.basis for x in row) and self.det == 1
        )
        self.vertices = [tuple(int(x) for x in v) for v in body.get("vertices", [])]
        self.translate = (
            [frac(x) for x in body["translate"]] if "translate" in body else None
        )
        self._check_family()

    # -- family closed forms -------------------------------------------

    def _family_vertices(self):
        f, n = self.family["family"], self.family.get("n")
        if n is None:
            return None
        e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        zero = (0,) * n
        if f in ("cube", "cube_half"):
            a = self.family["a"]
            return {tuple(a * x for x in c) for c in itertools.product((0, 1), repeat=n)}
        if f == "kS1":
            return {zero} | {tuple(self.family["k"] * x for x in v) for v in e}
        if f in ("S_k", "S_k_half"):
            k = self.family["k"]
            return {zero, tuple(k * x for x in e[0])} | set(e[1:])
        if f in ("T_m", "T_m_half"):
            return {zero, (self.family["m"],) * n} | set(e[:-1])
        return None

    def _check_family(self):
        want = self._family_vertices()
        if want is None:
            return
        if self.basis != [[Fraction(int(i == j)) for j in range(self.n)] for i in range(self.n)]:
            raise ValueError(f"{self.family['family']} body not over Z^n")
        if set(self.vertices) != want:
            raise ValueError(f"{self.family['family']} body has other vertices")
        half = {"cube_half": [Fraction(1, 2)] * self.n,
                "T_m_half": [Fraction(1, 2)] * self.n,
                "S_k_half": [Fraction(1, 2)] + [Fraction(0)] * (self.n - 1)}
        if self.translate != half.get(self.family["family"]):
            raise ValueError(f"{self.family['family']} body has another translate")

    def closed_form_count(self):
        f, n = self.family["family"], self.family.get("n")
        if f == "cube":
            return (self.family["a"] + 1) ** n
        if f == "cube_half":
            return self.family["a"] ** n
        if f == "kS1":
            return math.comb(self.family["k"] + n, n)
        if f == "S_k":
            return self.family["k"] + n
        if f == "S_k_half":
            return self.family["k"]
        if f == "T_m":
            return n + self.family["m"]
        if f == "T_m_half":
            return self.family["m"]
        return None

    # -- polytope frame -----------------------------------------------

    @cached_property
    def frame_vertices(self):
        """Vertices where lattice points are integer points: ambient
        coordinates over Z^n (so Euclidean facet norms are right there),
        lattice coefficients otherwise."""
        if self.integer_lattice:
            return [tuple(int(x) for x in row_times(v, self.basis)) for v in self.vertices]
        return self.vertices

    @cached_property
    def frame_translate(self):
        if self.translate is None:
            return None
        if self.integer_lattice:
            return self.translate
        return row_times(self.translate, inverse(self.basis))

    @cached_property
    def translate_in_lattice(self) -> bool:
        return all(x.denominator == 1 for x in row_times(self.translate, inverse(self.basis)))

    @cached_property
    def facets(self):
        return exact_facets(self.frame_vertices)

    @cached_property
    def slacks(self):
        """(slack matrix b' - a.z over the box points, facet normals)."""
        t = self.frame_translate
        los, his, rhs = [], [], []
        for j in range(self.n):
            vals = [Fraction(v[j]) + (t[j] if t else 0) for v in self.frame_vertices]
            los.append(math.ceil(min(vals)))
            his.append(math.floor(max(vals)))
        for a, b in self.facets:
            shift = sum(x * y for x, y in zip(a, t)) if t else 0
            rhs.append(math.floor(b + shift))
        pts = box_points(los, his)
        normals = np.array([a for a, _ in self.facets], dtype=np.int64)
        slack = np.array(rhs, dtype=np.int64)[None, :] - pts @ normals.T
        return slack, normals

    # -- counts ---------------------------------------------------------

    @cached_property
    def count(self) -> int:
        closed = self.closed_form_count()
        if closed is not None:
            return closed
        if self.kind == "halfopen_parallelepiped":
            return int(abs(det(self.body["generators"])))
        if self.kind == "ball":
            return self._ball_count()
        slack, _ = self.slacks
        return int(np.all(slack >= 0, axis=1).sum())

    def _ball_count(self) -> int:
        center = [frac(x) for x in self.body["center"]]
        r2 = frac(self.body["radius_sq"])
        inv = inverse(self.basis)
        cc = row_times(center, inv)
        r = math.sqrt(float(r2))
        los, his = [], []
        for j in range(self.n):
            col = math.sqrt(sum(float(inv[i][j]) ** 2 for i in range(self.n)))
            los.append(math.floor(float(cc[j]) - r * col) - 1)
            his.append(math.ceil(float(cc[j]) + r * col) + 1)
        pts = box_points(los, his)
        scale = math.lcm(*(x.denominator for row in self.basis for x in row),
                         *(x.denominator for x in center))
        bi = np.array([[int(x * scale) for x in row] for row in self.basis], dtype=np.int64)
        ci = np.array([int(x * scale) for x in center], dtype=np.int64)
        y = pts @ bi - ci[None, :]
        lhs = (y * y).sum(axis=1) * r2.denominator
        return int((lhs <= scale * scale * r2.numerator).sum())

    @cached_property
    def interior_layer(self) -> int:
        """#{z : a.z <= b - |a|_1/2 for every facet}: unit cube inside P."""
        slack, normals = self.slacks
        l1 = np.abs(normals).sum(axis=1)
        return int(np.all(2 * slack >= l1[None, :], axis=1).sum())

    @cached_property
    def inner_count_third(self) -> int:
        """#{z : a.z <= b - ||a||/sqrt(3)}, the McMullen inner body."""
        slack, normals = self.slacks
        nsq = (normals * normals).sum(axis=1)
        ok = (slack >= 0) & (3 * slack * slack >= nsq[None, :])
        return int(np.all(ok, axis=1).sum())

    @cached_property
    def full_dim_points(self) -> bool:
        """Untranslated lattice polytope: its vertices are lattice points."""
        v = np.array(self.vertices, dtype=float)
        return int(np.linalg.matrix_rank(v[1:] - v[0])) == self.n

    # -- measures (floating point, ambient coordinates) --------------------

    @cached_property
    def _hull(self):
        amb = np.array([[float(x) for x in row_times(v, self.basis)] for v in self.vertices])
        return ConvexHull(amb), amb

    @cached_property
    def volume(self) -> float:
        return float(self._hull[0].volume)

    @cached_property
    def area(self) -> float:
        return float(self._hull[0].area)

    @cached_property
    def v1(self) -> float:
        """V1 = sum over edges of length * exterior angle / (2 pi), n = 3."""
        hull, pts = self._hull
        faces = {}
        for s, eq in zip(hull.simplices, hull.equations):
            for i, j in itertools.combinations(sorted(s), 2):
                faces.setdefault((i, j), []).append(eq[:3])
        total = 0.0
        for (i, j), normals in faces.items():
            if len(normals) == 2:
                cos = float(np.clip(np.dot(normals[0], normals[1]), -1.0, 1.0))
                total += float(np.linalg.norm(pts[i] - pts[j])) * math.acos(cos)
        return total / (2 * math.pi)


# ---------------------------------------------------------------------------
# inequality reports


def expected_status(id_: str, facts: Facts) -> str:
    """'unmet', 'scope' or 'evaluate', from the statement of each inequality."""
    if facts.kind not in ("polytope", "translated_polytope"):
        return "scope"
    translated = facts.kind == "translated_polytope"
    if (id_ in TRANSLATED_ONLY) != translated:
        return "unmet"
    if id_ in INTEGER_LATTICE_ONLY and not facts.integer_lattice:
        return "unmet"
    if id_ in DIM3_ONLY and facts.n != 3:
        return "unmet"
    if id_ == "GENERAL_THM_4_1" and facts.n > 4:
        return "scope"
    if translated and facts.translate_in_lattice:
        return "unmet"
    if not translated and not facts.full_dim_points:
        return "unmet"
    return "evaluate"


def independent_sides(id_: str, f: Facts):
    """(lhs, rhs) of the inequality from the benchmark's own values.

    None where the side needs lattice invariants the benchmark does not
    compute (CONJECTURE_1_4 and GENERAL_THM_4_1 over lattices other than Z^n).
    """
    n, g, vol, area = f.n, f.count, f.volume, f.area
    fact, det_ = math.factorial(n), float(f.det)
    rho = (3 / (4 * math.pi)) ** (1 / 3)
    if id_ == "BLICHFELDT_1_1":
        return g, fact * vol + n
    if id_ == "GENERAL_1_3_i":
        return g, fact * vol / det_ + n
    if id_ == "TRANSLATE_LEMMA_1_3":
        return g, fact * vol
    if id_ == "GENERAL_1_3_ii":
        return g, fact * vol / det_
    if id_ == "MAIN_THM_1_1":
        return g, vol + (math.sqrt(n) + 1) * math.factorial(n - 1) / 2 * area
    if id_ == "DIM3_THM_1_2":
        return g, 2 * area + vol
    if id_ == "BHW_LOWER_1_2":
        return vol - area / 2, g
    if id_ == "CONJECTURE_1_4":
        # over Z^n the smallest hyperplane sublattice determinant is 1
        return g, (vol + math.factorial(n - 1) * area) if f.integer_lattice else None
    if id_ == "GENERAL_THM_4_1":
        # over Z^n: mu = sqrt(n)/2, lambda_1 of the polar lattice = 1
        if not f.integer_lattice:
            return g, None
        return g, vol + (math.sqrt(n) / 2 + 1) * math.factorial(n - 1) * area
    if id_ in ("WILLS_3_2", "OVERHAGEN_3_3"):
        return g, f.v1 + area / 2 + vol + 1
    if id_ == "MCMULLEN_SHELL":
        return g - f.inner_count_third, area + 2
    if id_ == "BOKOWSKI_3_4":
        # Steiner: vol + F rho + pi V1 rho^2 + (4 pi / 3) rho^3, the last term 1
        return g, vol + area * rho + math.pi * f.v1 * rho * rho + 1
    if id_ == "SKETCH_RHO_HALF":
        return g, vol + 2 * (rho + 0.5) * area
    raise ValueError(f"unknown inequality id {id_!r}")


def check_report(id_: str, verdict: str, lhs_text: str, rhs_text: str,
                 facts: Facts) -> list[str]:
    status = expected_status(id_, facts)
    if status == "unmet":
        return [] if verdict == "HypothesisUnmet" else [
            f"{id_}: hypotheses fail on this body, verdict {verdict}"]
    if status == "scope":
        return [] if verdict == "OutOfScope" else [
            f"{id_}: out of scope, verdict {verdict}"]
    if verdict in ("HypothesisUnmet", "OutOfScope", "Inconclusive"):
        return [f"{id_}: hypotheses hold, verdict {verdict}"]
    if verdict == "VIOLATED" and id_ not in OBSERVATIONAL:
        return [f"{id_}: proved inequality reported VIOLATED"]
    if verdict not in ("Holds", "HoldsWithEquality", "VIOLATED"):
        return [f"{id_}: unknown verdict {verdict!r}"]
    lhs, rhs = parse_value(lhs_text), parse_value(rhs_text)
    if lhs is None or rhs is None:
        return [f"{id_}: missing lhs or rhs"]
    ind_lhs, ind_rhs = independent_sides(id_, facts)
    problems = []
    if isinstance(ind_lhs, int):
        if lhs != ind_lhs:
            problems.append(f"{id_}: lhs {lhs_text} != independent {ind_lhs}")
    elif not value_matches(lhs, ind_lhs):
        problems.append(f"{id_}: lhs {lhs_text} != independent {ind_lhs!r}")
    if isinstance(ind_rhs, int):
        if rhs != ind_rhs:
            problems.append(f"{id_}: rhs {rhs_text} != independent {ind_rhs}")
    elif ind_rhs is not None and not value_matches(rhs, ind_rhs):
        problems.append(f"{id_}: rhs {rhs_text} != independent {ind_rhs!r}")
    if problems:
        return problems
    # the verdict must follow from the (now verified) two sides
    if not isinstance(lhs, tuple) and not isinstance(rhs, tuple):
        if lhs < rhs:
            want = "Holds"
        elif lhs == rhs:
            want = "VIOLATED" if id_ in STRICT else "HoldsWithEquality"
        else:
            want = "VIOLATED"
    else:
        lo_l, hi_l = (lhs if isinstance(lhs, tuple) else (lhs, lhs))
        lo_r, hi_r = (rhs if isinstance(rhs, tuple) else (rhs, rhs))
        want = "Holds" if hi_l < lo_r else "VIOLATED" if lo_l > hi_r else None
    if want is not None and verdict != want:
        problems.append(f"{id_}: verdict {verdict}, the sides give {want}")
    if (facts.family["family"], id_) in EQUALITY_CASES and verdict != "HoldsWithEquality":
        problems.append(f"{id_}: equality case reported {verdict}")
    return problems


# ---------------------------------------------------------------------------
# per-operation checks


def _lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(":")
        if sep:
            out[key] = val.strip()
    return out


def _cli_exit(output: dict) -> list[str]:
    if output.get("exit") != 0:
        return [f"exit code {output.get('exit')}: {output.get('stderr', '').strip()[-300:]}"]
    if "text" not in output:
        return ["no output written"]
    return []


def check_count(output: dict, facts: Facts) -> list[str]:
    problems = _cli_exit(output)
    if problems:
        return problems
    got = _lines(output["text"]).get("count")
    if got is None or int(got) != facts.count:
        return [f"count {got} != independent {facts.count}"]
    return []


def check_measure(output: dict, facts: Facts) -> list[str]:
    problems = _cli_exit(output)
    if problems:
        return problems
    vals = _lines(output["text"])
    if vals.get("dimension") != str(facts.n):
        problems.append(f"dimension {vals.get('dimension')} != {facts.n}")
    vol = parse_value(vals.get("volume", ""))
    if vol is None or not value_matches(vol, facts.volume):
        problems.append(f"volume {vals.get('volume')} != ConvexHull {facts.volume!r}")
    area = parse_value(vals.get("surface_area", ""))
    if area is None or not value_matches(area, facts.area):
        problems.append(f"surface_area {vals.get('surface_area')} != ConvexHull {facts.area!r}")
    if facts.n == 3:
        expect = {"V1": facts.v1, "V2": facts.area / 2, "V3": facts.volume}
        for key, want in expect.items():
            got = parse_value(vals.get(key, ""))
            if got is None or not value_matches(got, want):
                problems.append(f"{key} {vals.get(key)} != independent {want!r}")
        if vals.get("V3") != vals.get("volume"):
            problems.append("V3 differs from volume")
    return problems


def check_check(output: dict, facts: Facts) -> list[str]:
    problems = _cli_exit(output)
    if problems:
        return problems
    vals = _lines(output["text"])
    return check_report(vals.get("id", ""), vals.get("verdict", ""),
                        vals.get("lhs", ""), vals.get("rhs", ""), facts)


def check_corpus(output: dict, entries: list) -> list[str]:
    problems = _cli_exit(output)
    if problems:
        return problems
    doc = json.loads(output["text"])
    facts = {
        e["index"]: (e["name"], Facts(e["body"], family_from_corpus_name(e["name"])))
        for e in entries
    }
    rows = doc["rows"]
    seen = {(r["index"], r["id"]) for r in rows}
    if seen != {(i, id_) for i in facts for id_ in ALL_IDS} or len(rows) != len(seen):
        problems.append("rows do not cover every (entry, id) pair once")
    tally: dict = {}
    for r in rows:
        name, f = facts[r["index"]]
        if r["body"] != name:
            problems.append(f"row {r['index']}: body {r['body']!r} != {name!r}")
        for p in check_report(r["id"], r["verdict"], r["lhs"], r["rhs"], f):
            problems.append(f"{name}: {p}")
        by_id = tally.setdefault(r["id"], {})
        by_id[r["verdict"]] = by_id.get(r["verdict"], 0) + 1
    summary = {k: v["verdicts"] for k, v in doc["summary"].items()}
    if summary != tally:
        problems.append("summary verdict counts differ from the rows")
    violated = sorted((r["index"], r["id"]) for r in rows if r["verdict"] == "VIOLATED")
    if sorted((v["index"], v["id"]) for v in doc["violations"]) != violated:
        problems.append("violations list differs from the VIOLATED rows")
    return problems


def check_audit(output: dict, facts: Facts) -> list[str]:
    if "error" in output:
        return [f"{output['error']}: {output.get('message', '')}"]
    rec = output["record"]
    problems = []
    if not rec["all_ok"]:
        bad = [k for k, v in rec.items() if k.endswith("_ok") and not v]
        problems.append(f"audit not all_ok: {bad}")
    if rec["total"] != facts.count:
        problems.append(f"total {rec['total']} != independent {facts.count}")
    if rec["l1_count"] != facts.interior_layer:
        problems.append(f"l1_count {rec['l1_count']} != independent {facts.interior_layer}")
    if rec["l1_count"] + rec["l2_count"] != facts.count:
        problems.append(
            f"l1_count + l2_count = {rec['l1_count'] + rec['l2_count']} != {facts.count}")
    if rec["l1_count"] > facts.volume * (1 + REL_TOL):
        problems.append(f"l1_count {rec['l1_count']} exceeds the volume {facts.volume!r}")
    return problems


def check_op(op: dict, output: dict, manifest: dict, facts_cache: dict) -> list[str]:
    """Problems with one output of one operation (empty when correct)."""
    if op["check"] == "corpus":
        return check_corpus(output, manifest[op["spec"]]["entries"])
    key = op["body"]
    if key not in facts_cache:
        entry = manifest[key]
        with open(entry["path"], encoding="utf-8") as fh:
            facts_cache[key] = Facts(json.load(fh), entry["family"])
    facts = facts_cache[key]
    fn = {"count": check_count, "measure": check_measure, "check": check_check,
          "audit": check_audit}[op["check"]]
    return fn(output, facts)
