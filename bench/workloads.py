"""The three workloads: their seeded inputs and the operations of one round.

Imported by the worker process only; it drives the program through the
``blichfeldt`` CLI and the public functions of ``witnesses``, ``polytope``,
``counting`` and ``harness``.  ``setup`` builds every input from the seed
with the program's own generators and writes the body and spec files; it
returns the operations of one round, all of them fixed by the seed.

Each operation is a dict:
    name         unique label
    kind         "cli" (argv for the blichfeldt command) or "audit" (body key)
    check        which independent check the parent applies to the output
    body / spec  key into the manifest the checker reads
    known_fault  present when the operation fails today because of a named
                 fault in the program; it then counts as failed, not wrong
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

from blichfeldt import polytope as pt
from blichfeldt import witnesses as wt
from blichfeldt.counting import Body, ceil_sqrt_fraction
from blichfeldt.lattice import Lattice
from blichfeldt.rng import Rng

WORKLOADS = ("corpus", "audit", "bodies")

MAIN_THM_RETENTION_FAULT = (
    "check returns HypothesisUnmet 'dim(K cap Lambda) < n' above "
    "POINT_RETENTION_LIMIT = 10^5 points: result.points is None and the "
    "affine_rank test fails"
)
AUDIT_RETENTION_FAULT = (
    "boundary_layer_audit raises EnumerationBudgetError when a facet slab "
    "holds more than POINT_RETENTION_LIMIT = 10^5 candidate points: "
    "_enumerate_linear drops its point list and the audit reports it as a "
    "budget overrun"
)

# ---------------------------------------------------------------------------
# corpus: five `blichfeldt corpus` runs with all 14 ids

#: (name, CorpusSpec fields except seed).  A round is five short
#: invocations, so that a run holds several rounds and each invocation's
#: median wall time is taken over them.  The 2D specs are seeded: their many
#: small bodies cost about the same for every seed.  The 3D specs do not
#: depend on the seed: the checks of one random 3D hull of 5 points cost
#: 0.3-2.7 s, most of it in the arccos series of V1, and that spread run_s
#: over seeds by more than its bound, so the 3D random hull is the fixed one
#: of ``FIXED_SPEC_SEEDS``.
CORPUS_SPECS = (
    ("planar-hulls", dict(dimensions=(2,), num_random_hulls=24, points_per_hull=12,
                          coord_bound=6, k_values=(), m_values=(), num_random_lattices=0)),
    ("planar-lattices", dict(dimensions=(2,), num_random_hulls=0, points_per_hull=12,
                             coord_bound=6, k_values=tuple(range(1, 11)), m_values=(),
                             num_random_lattices=6)),
    ("simplices", dict(dimensions=(3,), num_random_hulls=0, k_values=(1, 2),
                       m_values=(), num_random_lattices=0)),
    ("diagonal", dict(dimensions=(3,), num_random_hulls=0, k_values=(),
                      m_values=(1, 2), num_random_lattices=0)),
    ("hull", dict(dimensions=(3,), num_random_hulls=1, points_per_hull=5,
                  coord_bound=5, k_values=(), m_values=(), num_random_lattices=0)),
)

#: spec name -> CorpusSpec seed, for the specs whose bodies are fixed
FIXED_SPEC_SEEDS = {"hull": 1640}


def _setup_corpus(seed: int, workdir: str):
    ops, manifest = [], {}
    for i, (name, fields) in enumerate(CORPUS_SPECS):
        spec = wt.CorpusSpec(seed=FIXED_SPEC_SEEDS.get(name, seed * 16 + i), **fields)
        entries = wt.build_corpus(spec)
        spec_path = os.path.join(workdir, f"corpus-{name}.json")
        doc = dict(fields, seed=spec.seed)
        _write_json(spec_path, {k: list(v) if isinstance(v, tuple) else v
                                for k, v in doc.items()})
        key = f"corpus-{name}"
        manifest[key] = {
            "entries": [
                {"index": e.index, "name": e.name, "body": wt.body_to_dict(e.body)}
                for e in entries
            ]
        }
        ops.append({
            "name": f"corpus {name}", "kind": "cli", "check": "corpus",
            "spec": key,
            "argv": ["corpus", "--spec", spec_path, "--format", "json"],
        })
    return ops, manifest


# ---------------------------------------------------------------------------
# audit: boundary-layer audits of 3D integer-lattice polytopes

AUDIT_T_M = (4, 8, 12, 16, 20, 24, 28, 32)
AUDIT_S_K = (8, 16, 24, 32, 40, 48)
#: seeded random_hull(rng, 3, 12, AUDIT_BOX) bodies.  One audit of such a
#: hull costs 0.5-1.6 times the median; with 30 of them the median operation
#: (op_p50_ms) falls among them and moves little with the seed (12 hulls in
#: [0,8]^3 spread it over ten seeds by 0.25 of its median, 30 in [0,6]^3 by
#: 0.04, both timed in process).
AUDIT_RANDOM = 30
AUDIT_BOX = 6


def _setup_audit(seed: int, workdir: str):
    bodies = []
    for m in AUDIT_T_M:
        bodies.append((f"T_m m={m}", wt.reeve_Tm(3, m),
                       {"family": "T_m", "n": 3, "m": m}))
    for k in AUDIT_S_K:
        bodies.append((f"S_k k={k}", wt.simplex_Sk(3, k),
                       {"family": "S_k", "n": 3, "k": k}))
    rng = Rng(seed, stream=3)
    for i in range(AUDIT_RANDOM):
        bodies.append((f"hull #{i}", wt.random_hull(rng, 3, 12, AUDIT_BOX),
                       {"family": "random"}))
    # fixed input, independent of the seed: its facet (152, 91, -63) has a
    # slab of 102,279 candidate points
    rng = Rng(5, stream=3)
    for _ in range(8):
        poly = wt.random_hull(rng, 3, 12, 14)
    bodies.append(("retention hull", poly, {"family": "random"}))

    ops, manifest, polys = [], {}, {}
    for name, poly, family in bodies:
        path = os.path.join(workdir, _file_name(name))
        wt.save_body(Body.from_polytope(poly), path)
        manifest[name] = {"path": path, "family": family}
        polys[name] = poly
        op = {"name": f"audit {name}", "kind": "audit", "check": "audit",
              "body": name}
        if name == "retention hull":
            op["known_fault"] = AUDIT_RETENTION_FAULT
        ops.append(op)
    return ops, manifest, polys


# ---------------------------------------------------------------------------
# bodies: one CLI command per large or awkward body


def _cube(a: int, n: int = 3):
    return pt.hull([tuple(a * x for x in c) for c in itertools.product((0, 1), repeat=n)])


def _ball(rnd: random.Random, n: int, target_cells: int) -> Body:
    """Ball over a seeded sheared, scaled lattice; radius sized to the box.

    The program scans the coefficient box of half-width
    ceil(sqrt(r^2 * dual_gram[j][j])) per axis, so r^2 is the largest
    integer whose box stays under ``target_cells``: the work is steady while
    the lattice and centre vary with the seed.
    """
    scale = [Fraction(rnd.choice((2, 3, 4)), 2) for _ in range(n)]
    basis = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        basis[i][i] = scale[i]
        for j in range(i):
            basis[i][j] = Fraction(rnd.randint(-2, 2), 2)
    center = [Fraction(rnd.randint(0, 5), 6) for _ in range(n)]
    lattice = Lattice(basis)
    dg = [lattice.dual_gram[j][j] for j in range(n)]

    def cells(r2):
        out = 1
        for d in dg:
            out *= 2 * ceil_sqrt_fraction(r2 * d) + 1
        return out

    r2 = 1
    while cells(r2 + 1) <= target_cells:
        r2 += 1
    return Body.ball(center, r2, lattice=lattice)


def _parallelepiped(rnd: random.Random, n: int, lo: int, hi: int) -> Body:
    while True:
        gens = [[rnd.randint(lo, hi) if i == j else rnd.randint(-3, 3)
                 for j in range(n)] for i in range(n)]
        try:
            anchor = [Fraction(rnd.randint(0, 5), 6) for _ in range(n)]
            return Body.parallelepiped(gens, anchor=anchor)
        except ValueError:
            continue


def _setup_bodies(seed: int, workdir: str):
    rnd = random.Random(seed)
    half3 = (Fraction(1, 2),) * 3
    bodies = {
        "cube40": (Body.from_polytope(_cube(40)), {"family": "cube", "n": 3, "a": 40}),
        "cube50": (Body.from_polytope(_cube(50)), {"family": "cube", "n": 3, "a": 50}),
        "40S1": (Body.from_polytope(wt.simplex_Sk(4, 1).scaled(40)),
                 {"family": "kS1", "n": 4, "k": 40}),
        "12S1": (Body.from_polytope(wt.simplex_Sk(4, 1).scaled(12)),
                 {"family": "kS1", "n": 4, "k": 12}),
        "cube30+v/2": (wt.half_translate(_cube(30), half3),
                       {"family": "cube_half", "n": 3, "a": 30}),
        "T40+v/2": (wt.half_translate(wt.reeve_Tm(3, 40), half3),
                    {"family": "T_m_half", "n": 3, "m": 40}),
        "S30+e1/2": (wt.half_translate(wt.simplex_Sk(4, 30), (Fraction(1, 2), 0, 0, 0)),
                     {"family": "S_k_half", "n": 4, "k": 30}),
        "ball3": (_ball(rnd, 3, 12000), {"family": "ball"}),
        "ball2": (_ball(rnd, 2, 12000), {"family": "ball"}),
        "ppd3": (_parallelepiped(rnd, 3, 8, 14), {"family": "ppd"}),
        "ppd4": (_parallelepiped(rnd, 4, 6, 10), {"family": "ppd"}),
    }
    rng = Rng(seed, stream=4)
    for name in ("hull4a", "hull4b"):
        bodies[name] = (Body.from_polytope(wt.random_hull(rng, 4, 14, 6)),
                        {"family": "random"})

    manifest, paths = {}, {}
    for name, (body, family) in bodies.items():
        path = os.path.join(workdir, _file_name(name))
        wt.save_body(body, path)
        manifest[name] = {"path": path, "family": family}
        paths[name] = path

    def cli(cmd, body, *extra, fault=None):
        op = {"name": " ".join((cmd,) + extra + (body,)), "kind": "cli",
              "check": cmd, "body": body,
              "argv": [cmd, *extra, "--body", paths[body]]}
        if fault:
            op["known_fault"] = fault
        return op

    ops = [
        cli("count", "cube40"),
        cli("check", "cube40", "--id", "MAIN_THM_1_1"),
        cli("measure", "cube40"),
        cli("count", "cube50"),
        cli("check", "cube50", "--id", "MAIN_THM_1_1", fault=MAIN_THM_RETENTION_FAULT),
        cli("count", "40S1"),
        cli("check", "12S1", "--id", "BLICHFELDT_1_1"),
        cli("measure", "12S1"),
        cli("count", "cube30+v/2"),
        cli("check", "T40+v/2", "--id", "TRANSLATE_LEMMA_1_3"),
        cli("count", "S30+e1/2"),
        cli("count", "ball3"),
        cli("count", "ball2"),
        cli("count", "ppd3"),
        cli("count", "ppd4"),
        cli("measure", "hull4a"),
        cli("check", "hull4b", "--id", "BLICHFELDT_1_1"),
    ]
    return ops, manifest


# ---------------------------------------------------------------------------


def _file_name(name: str) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in name)
    return f"body-{safe}.json"


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def setup(workload: str, seed: int, workdir: str):
    """Build the inputs; returns (ops, manifest, in-process objects)."""
    if workload == "corpus":
        ops, manifest = _setup_corpus(seed, workdir)
        objects = {}
    elif workload == "audit":
        ops, manifest, objects = _setup_audit(seed, workdir)
    elif workload == "bodies":
        ops, manifest = _setup_bodies(seed, workdir)
        objects = {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(os.path.join(workdir, "manifest.json"), manifest)
    return ops, manifest, objects
