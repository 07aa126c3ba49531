"""Named witness families, random corpora, and body serialization.

The two analytic families are the scaled simplex S_k (hull of 0, k*e1 and
the remaining unit vectors; G = k+n, vol = k/n!) and the diagonal
simplex T_m (hull of 0, e1..e_{n-1} and m*(1,..,1); G = n+m, vol = m/n!).
T_m is not Reeve's vertex-only tetrahedron: the diagonal points j*(1,..,1),
0 < j < m, lie in it, so it attains Blichfeldt's bound n! vol + n.  Random
corpora are a pure function of (spec, seed) through the fixed PRNG, so
reports reproduce anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from blichfeldt import polytope as pt
from blichfeldt.counting import Body
from blichfeldt.lattice import Lattice
from blichfeldt.linalg import det_bareiss
from blichfeldt.polytope import DegenerateHullError, LatticePolytope

SCHEMA_VERSION = 1
_RETRY_LIMIT = 1000


class BodySpecError(ValueError):
    """Malformed body-spec data; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


# ---------------------------------------------------------------------------
# named families


def simplex_Sk(n: int, k: int) -> LatticePolytope:
    """conv{0, k*e1, e2, ..., en} over Z^n."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    points = [(0,) * n, tuple(k if j == 0 else 0 for j in range(n))]
    for i in range(1, n):
        points.append(tuple(1 if j == i else 0 for j in range(n)))
    return pt.hull(points)


def reeve_Tm(n: int, m: int) -> LatticePolytope:
    """conv{0, e1, ..., e_{n-1}, m*(1,...,1)} over Z^n; needs n > 2.

    G(T_m) = n + m and vol(T_m) = m/n!: besides the vertices it holds the
    diagonal points j*(1,...,1), 0 < j < m, so unlike Reeve's tetrahedron it
    is not vertex-only.
    """
    if n <= 2:
        raise ValueError("need n > 2")
    if m < 1:
        raise ValueError("need m >= 1")
    points = [(0,) * n]
    for i in range(n - 1):
        points.append(tuple(1 if j == i else 0 for j in range(n)))
    points.append((m,) * n)
    return pt.hull(points)


def half_translate(poly: LatticePolytope, t) -> Body:
    """Translate by an ambient vector that must avoid the lattice."""
    t = tuple(Fraction(x) for x in t)
    if poly.lattice.contains(t):
        raise ValueError("translate lies in the lattice")
    return Body.translated(t, poly)


# ---------------------------------------------------------------------------
# random corpora


def random_lattice(rng: Rng, n: int, max_abs_det: int = 8) -> Lattice:
    """Random integer-basis lattice with 1 <= |det| <= max_abs_det."""
    for _ in range(_RETRY_LIMIT):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = abs(det_bareiss([r[:] for r in rows]))
        if 1 <= d <= max_abs_det:
            return Lattice(rows)
    raise RuntimeError("repeated degeneracy beyond retry limit")


def random_hull(
    rng: Rng,
    n: int,
    num_points: int,
    coord_bound: int,
    lattice: Lattice | None = None,
) -> LatticePolytope:
    """Hull of uniform lattice points in a box, rejecting flat hulls."""
    for _ in range(_RETRY_LIMIT):
        pts = [
            tuple(rng.randint(0, coord_bound) for _ in range(n))
            for _ in range(num_points)
        ]
        try:
            return pt.hull(pts, lattice=lattice)
        except DegenerateHullError:
            continue
    raise RuntimeError("repeated degeneracy beyond retry limit")


class CorpusSpec(NamedTuple):
    """Deterministic corpus description; same spec + seed -> same corpus."""

    seed: int
    dimensions: tuple = (2, 3)
    num_random_hulls: int = 200
    points_per_hull: int = 12
    coord_bound: int = 6
    k_values: tuple = tuple(range(1, 11))
    m_values: tuple = tuple(range(1, 6))
    include_translates: bool = True
    num_random_lattices: int = 6
    lattice_max_abs_det: int = 8


class CorpusEntry(NamedTuple):
    index: int
    name: str
    body: Body


def build_corpus(spec: CorpusSpec) -> tuple:
    """Witness families plus seeded random hulls, in a fixed order."""
    from blichfeldt.rng import Rng

    entries = []

    def add(name, body):
        entries.append(CorpusEntry(index=len(entries), name=name, body=body))

    for n in spec.dimensions:
        for k in spec.k_values:
            sk = simplex_Sk(n, k)
            add(f"S_k n={n} k={k}", Body.from_polytope(sk))
            if spec.include_translates:
                t = tuple(Fraction(1, 2) if j == 0 else Fraction(0) for j in range(n))
                add(f"S_k+e1/2 n={n} k={k}", half_translate(sk, t))
    for n in spec.dimensions:
        if n <= 2:
            continue
        for m in spec.m_values:
            tm = reeve_Tm(n, m)
            add(f"T_m n={n} m={m}", Body.from_polytope(tm))
            if spec.include_translates:
                add(f"T_m+v/2 n={n} m={m}", half_translate(tm, (Fraction(1, 2),) * n))
    per_dim = -(-spec.num_random_hulls // len(spec.dimensions))
    for n in spec.dimensions:
        rng = Rng(spec.seed, stream=n)
        for i in range(per_dim):
            poly = random_hull(rng, n, spec.points_per_hull, spec.coord_bound)
            add(f"hull n={n} #{i}", Body.from_polytope(poly))
    if spec.num_random_lattices:
        for n in spec.dimensions:
            rng = Rng(spec.seed, stream=100 + n)
            for i in range(spec.num_random_lattices):
                lat = random_lattice(rng, n, spec.lattice_max_abs_det)
                poly = random_hull(rng, n, spec.points_per_hull, 4, lattice=lat)
                add(f"lattice-hull n={n} #{i}", Body.from_polytope(poly))
    return tuple(entries)


# ---------------------------------------------------------------------------
# body-spec serialization ("p/q" rational strings; exact round-trip)


def frac_to_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def str_to_frac(s, where: str) -> Fraction:
    try:
        if isinstance(s, int):
            return Fraction(s)
        num, _, den = str(s).partition("/")
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise BodySpecError(where, f"not a rational: {s!r}") from exc


def body_to_dict(body: Body) -> dict:
    lat = {"basis": [[frac_to_str(x) for x in row] for row in body.lattice.basis]}
    data: dict = {"kind": body.kind}
    if body.kind in ("polytope", "translated_polytope"):
        data["vertices"] = [list(v) for v in body.polytope.vertices]
    if body.kind == "translated_polytope":
        data["translate"] = [frac_to_str(x) for x in body.translate]
    if body.kind == "halfopen_parallelepiped":
        data["generators"] = [list(g) for g in body.generators]
        data["anchor"] = [frac_to_str(x) for x in body.anchor]
    if body.kind == "ball":
        data["center"] = [frac_to_str(x) for x in body.center]
        data["radius_sq"] = frac_to_str(body.radius_sq)
    return {"schema": SCHEMA_VERSION, "lattice": lat, "body": data}


def _vector(raw, where: str, dim: int) -> list:
    """The ``dim`` rationals of the field ``where``."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise BodySpecError(where, f"expected a list of {dim} rationals")
    return [str_to_frac(x, f"{where}[{i}]") for i, x in enumerate(raw)]


def _integer_vectors(raw, where: str, dim: int) -> list:
    """The non-empty list of integer ``dim``-vectors of the field ``where``."""
    if not isinstance(raw, list) or not raw:
        raise BodySpecError(where, "missing or empty")
    vecs = [_vector(v, f"{where}[{i}]", dim) for i, v in enumerate(raw)]
    if any(x.denominator != 1 for v in vecs for x in v):
        raise BodySpecError(where, "expected integer coordinates")
    return [tuple(int(x) for x in v) for v in vecs]


def body_from_dict(doc: dict, budget: int = pt.DEFAULT_BUDGET) -> Body:
    if not isinstance(doc, dict):
        raise BodySpecError("$", "document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise BodySpecError("schema", f"unsupported schema {doc.get('schema')!r}")
    try:
        basis_raw = doc["lattice"]["basis"]
    except (KeyError, TypeError) as exc:
        raise BodySpecError("lattice.basis", "missing") from exc
    n = len(basis_raw) if isinstance(basis_raw, list) else 0
    if not n:
        raise BodySpecError("lattice.basis", "expected a non-empty list of rows")
    lattice = Lattice([_vector(r, f"lattice.basis[{i}]", n) for i, r in enumerate(basis_raw)])
    data = doc.get("body")
    if not isinstance(data, dict) or "kind" not in data:
        raise BodySpecError("body.kind", "missing")
    kind = data["kind"]
    if kind in ("polytope", "translated_polytope"):
        verts = _integer_vectors(data.get("vertices"), "body.vertices", n)
        poly = pt.hull(verts, lattice=lattice, budget=budget)
        if kind == "polytope":
            return Body.from_polytope(poly)
        return Body.translated(_vector(data.get("translate"), "body.translate", n), poly)
    if kind == "halfopen_parallelepiped":
        gens = _integer_vectors(data.get("generators"), "body.generators", n)
        anchor = _vector(data.get("anchor", [0] * n), "body.anchor", n)
        return Body.parallelepiped(gens, anchor=anchor, lattice=lattice)
    if kind == "ball":
        center = _vector(data.get("center"), "body.center", n)
        if "radius_sq" not in data:
            raise BodySpecError("body.radius_sq", "missing")
        radius_sq = str_to_frac(data["radius_sq"], "body.radius_sq")
        return Body.ball(center, radius_sq, lattice=lattice)
    raise BodySpecError("body.kind", f"unknown kind {kind!r}")


def save_body(body: Body, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body_to_dict(body), fh, indent=2)
        fh.write("\n")


def load_body(path: str, budget: int = pt.DEFAULT_BUDGET) -> Body:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BodySpecError(f"line {exc.lineno}", exc.msg) from exc
    return body_from_dict(doc, budget)
