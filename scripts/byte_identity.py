#!/usr/bin/env python3
"""Print the sha256 of the CLI's reports on the benchmark's inputs.

Run it against two checkouts and diff the output: a change that must keep
every report byte the same passes when the lines are identical.  The inputs
are built once, by this checkout's ``bench/workloads.py`` for the given
seed; the commands run under ``--repo``'s ``src/``.  Covered:
``blichfeldt corpus --format json|csv`` on the five ``corpus`` specs, the
``count``/``measure``/``check`` commands of the ``bodies`` workload on its
body files, ``audit`` on every body file of the ``audit`` workload (T_m,
S_k, the seeded hulls and the [0,14]^3 hull) together with the repr of its
whole ``AuditRecord``, every facet's layer counts included (the CLI prints
only totals and flags), ``count`` on a 4D ball and
on a 3D ball with lattice points on its sphere, ``check --id
GENERAL_THM_4_1`` on a 4D hull over a sheared lattice, ``measure`` on a 3D
hull over a sheared lattice with acute, right and obtuse dihedral angles
(V1 through the dual Gram and every arctangent branch), ``check --id
CONJECTURE_1_4`` on that hull (its polar's shortest vector), ``check --id
GENERAL_1_3_ii`` on a half translate of it, ``count`` on a half-open
parallelepiped over that lattice with a rational anchor and generators of
negative determinant, ``measure`` on a triangle whose edge norm^2 is the
product of two 40-bit primes, ``measure`` on a nearly flat pyramid whose
base angles have 1 - cos^2 of about 2^-150 and a cotangent of -2^75, and
``measure`` and ``check --id BOKOWSKI_3_4`` on a wedge whose two slanted
edges have a cotangent of exactly -1, and ``count`` and ``measure`` on a 1D
segment.  An ``enum-record`` line hashes the ellipsoid enumeration's
``(found, nodes)`` and ``points=True`` list for each ball (the two of the
``bodies`` workload, the 4D one and the one with points on its sphere),
and the relevant vectors and the polar's shortest vectors, with their
node counts, of the sheared 4D and 3D lattices.  A ``hull-record`` line hashes
the repr of a hull's vertices, facets, ``facet_dets``, ``dets`` and
``facet_ridges``: one per polytope file of the ``audit`` and ``bodies``
workloads, one for the segment, and one for the ``audit`` workload's
seeded random hulls built
in process, whose facet order comes from all their points, collinear and
coplanar non-vertex points included.  Each line is ``sha256  exit-code
command``; a record line shows ``audit-record``, ``enum-record`` or
``hull-record``.

Usage:
    python3 scripts/byte_identity.py --seed 101 > change.txt
    python3 scripts/byte_identity.py --seed 101 --repo ../parent > parent.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402
from blichfeldt import polytope as pt  # noqa: E402
from blichfeldt import witnesses as wt  # noqa: E402
from blichfeldt.counting import Body  # noqa: E402
from blichfeldt.lattice import Lattice  # noqa: E402

# run as ``python -c AUDIT_RECORD body-file``: the audit's whole record
AUDIT_RECORD = (
    "import sys; from blichfeldt import harness, witnesses; "
    "print(repr(harness.boundary_layer_audit(witnesses.load_body(sys.argv[1]).polytope)))"
)

# run as ``python -c HULL_RECORD body-file`` or ``... HULL_RECORD --random
# seed``: the hull of the body file's polytope, or the audit workload's
# random hulls for that seed, one repr line per hull
HULL_RECORD = (
    "import sys; from blichfeldt import polytope as pt, witnesses as wt; "
    "from blichfeldt.rng import Rng; a = sys.argv[1:]; "
    f"polys = [wt.random_hull(rng, 3, 12, {workloads.AUDIT_BOX}) "
    f"for rng in [Rng(int(a[1]), stream=3)] for _ in range({workloads.AUDIT_RANDOM})] "
    "if a[0] == '--random' else [wt.load_body(a[0]).polytope]; "
    "[print(repr((p.vertices, p.facets, p.facet_dets, p.dets, pt.facet_ridges(p)))) "
    "for p in polys]"
)


# run as ``python -c ENUM_RECORD body-file``: for a ball, the ellipsoid
# enumeration's (found, nodes) and its points=True list; for a hull, its
# lattice's relevant vectors and its polar's shortest vectors, each with the
# nodes that decide a budget's exit
ENUM_RECORD = (
    "import sys; from blichfeldt import lattice as lt, witnesses as wt; "
    "b = wt.load_body(sys.argv[1]); lat = b.lattice; "
    "print(repr([lt.enum_ellipsoid(lat, lat.to_coeff(b.center), b.radius_sq, points=p) "
    "for p in (False, True)]) if b.kind == 'ball' else "
    "repr((lt._relevant_vectors(lat, lt.DEFAULT_BUDGET), "
    "lt._shortest_vector(lat.polar, lt.DEFAULT_BUDGET))))"
)
RECORDS = {AUDIT_RECORD: "audit-record", HULL_RECORD: "hull-record", ENUM_RECORD: "enum-record"}


def _commands(seed: int, workdir: str):
    """CLI argv lists, and ``["-c", record, arg, ..]`` for a record of
    ``RECORDS``."""
    corpus_ops, _, _ = workloads.setup("corpus", seed, workdir)
    for op in corpus_ops:
        for fmt in ("json", "csv"):
            yield op["argv"][:-1] + [fmt]
    bodies_ops, bodies, _ = workloads.setup("bodies", seed, workdir)
    for op in bodies_ops:
        yield op["argv"]
    for entry in bodies.values():
        body = wt.load_body(entry["path"])
        if body.polytope is not None:
            yield ["-c", HULL_RECORD, entry["path"]]
        elif body.kind == "ball":
            yield ["-c", ENUM_RECORD, entry["path"]]
    _, audit_bodies, _ = workloads.setup("audit", seed, workdir)
    for entry in audit_bodies.values():
        yield ["audit", "--body", entry["path"]]
        yield ["-c", AUDIT_RECORD, entry["path"]]
        yield ["-c", HULL_RECORD, entry["path"]]
    yield ["-c", HULL_RECORD, "--random", str(seed)]
    # balls beyond the benchmark's 2D/3D ones: a 4D ball, and a ball whose
    # sphere passes through lattice points (r^2 = |v - c|^2 for a lattice v)
    h, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    skew4 = Lattice([[3 * h, 0, 0, 0], [h, 1, 0, 0], [-h, h, 2, 0], [1, 0, -h, 3 * h]])
    skew3 = Lattice([[1, 0, 0], [h, 1, 0], [third, h, 1]])
    center = (h, third, quarter)
    v = skew3.to_ambient((2, -1, 1))
    r2 = sum((a - c) ** 2 for a, c in zip(v, center))
    balls = {
        "ball4.json": Body.ball((third, -h, quarter, 0), 7, lattice=skew4),
        "ball_on_sphere.json": Body.ball(center, r2, lattice=skew3),
    }
    for name, body in balls.items():
        path = os.path.join(workdir, name)
        wt.save_body(body, path)
        yield ["count", "--body", path]
        yield ["-c", ENUM_RECORD, path]
    # GENERAL_THM_4_1 needs the covering radius, so this builds a 4D
    # Voronoi cell (the corpus specs are 2D/3D)
    corners4 = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 1, 1)]
    path = os.path.join(workdir, "skew4_hull.json")
    wt.save_body(Body.from_polytope(pt.hull(corners4, lattice=skew4)), path)
    yield ["check", "--id", "GENERAL_THM_4_1", "--body", path]
    yield ["-c", ENUM_RECORD, path]
    # V1 through dual_inner: a 3D hull over the sheared lattice with acute,
    # right and obtuse dihedral angles, whose arctangents take every branch
    # of interval._atan_fraction
    corners3 = [(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 1), (1, -1, 2)]
    path = os.path.join(workdir, "skew3_hull.json")
    wt.save_body(Body.from_polytope(pt.hull(corners3, lattice=skew3)), path)
    yield ["measure", "--body", path]
    yield ["-c", ENUM_RECORD, path]
    # the polar and its shortest vector in 3D, and a translate over skew3
    yield ["check", "--id", "CONJECTURE_1_4", "--body", path]
    path = os.path.join(workdir, "skew3_hull_half.json")
    wt.save_body(wt.half_translate(pt.hull(corners3, lattice=skew3), (h, 0, 0)), path)
    yield ["check", "--id", "GENERAL_1_3_ii", "--body", path]
    # a half-open cell over skew3: rational anchor, generators of det -5
    path = os.path.join(workdir, "ppd_skew3.json")
    gens = [(2, 1, 0), (0, -1, 1), (1, 0, 3)]
    wt.save_body(Body.parallelepiped(gens, anchor=(third, -h, quarter), lattice=skew3), path)
    yield ["count", "--body", path]
    # an edge norm^2 u^2 + v^2 = p*q for the 40-bit primes p = 780175892429
    # and q = 849767860033: a radicand with no prime factor below 10^6
    u, v = 79079877299, 810379399766
    path = os.path.join(workdir, "triangle40.json")
    wt.save_body(Body.from_polytope(pt.hull([(0, 0), (u, v), (u, v + 1)])), path)
    yield ["measure", "--body", path]
    # apex (N, N, 1) over the square [0, 2N]^2, N = 2^75: at the base
    # edges 1 - cos^2 = 1/(N^2 + 1), about 2^-150, and the cotangent is -N
    n = 2**75
    path = os.path.join(workdir, "flat_pyramid.json")
    wt.save_body(Body.from_polytope(pt.hull(
        [(0, 0, 0), (2 * n, 0, 0), (0, 2 * n, 0), (2 * n, 2 * n, 0), (n, n, 1)])), path)
    yield ["measure", "--body", path]
    # the wedge 0 <= x <= 2, y, z >= 0, y + z <= 2: at its two edges on the
    # slanted facet y + z = 2, cos = -1/sqrt(2), so the arctangent's argument
    # is exactly -1 and its series argument 0
    path = os.path.join(workdir, "wedge.json")
    wt.save_body(Body.from_polytope(pt.hull(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (0, 0, 2), (2, 0, 2)])), path)
    yield ["measure", "--body", path]
    yield ["check", "--id", "BOKOWSKI_3_4", "--body", path]
    # a segment: a 1D hull and its one row
    path = os.path.join(workdir, "segment.json")
    wt.save_body(Body.from_polytope(pt.hull([(7,), (-3,), (2,)])), path)
    yield ["count", "--body", path]
    yield ["measure", "--body", path]
    yield ["-c", HULL_RECORD, path]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repo", default=ROOT, help="checkout whose src/ runs the commands")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.repo), "src"))
    env.pop("BLICH_BUDGET", None)
    with tempfile.TemporaryDirectory() as workdir:
        for argv in _commands(args.seed, workdir):
            if argv[0] == "-c":
                command, argv = argv, [RECORDS[argv[1]], *argv[2:]]
            else:
                command = ["-m", "blichfeldt.cli", *argv]
            proc = subprocess.run([sys.executable, *command],
                                  env=env, capture_output=True, check=False)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            shown = " ".join(os.path.basename(a) if a.startswith(workdir) else a
                             for a in argv)
            print(f"{digest}  {proc.returncode}  {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
