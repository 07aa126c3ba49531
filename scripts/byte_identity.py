#!/usr/bin/env python3
"""Print the sha256 of the CLI's reports on the benchmark's inputs.

Run it against two checkouts and diff the output: a change that must keep
every report byte the same passes when the lines are identical.  The inputs
are built once, by this checkout's ``bench/workloads.py`` for the given
seed; the commands run under ``--repo``'s ``src/``.  Covered:
``blichfeldt corpus --format json|csv`` on the five ``corpus`` specs, the
``count``/``measure``/``check`` commands of the ``bodies`` workload on its
body files, and ``audit`` (human/json/csv) on the side-2 cube.  Each line is
``sha256  exit-code  command``.

Usage:
    python3 scripts/byte_identity.py --seed 101 > change.txt
    python3 scripts/byte_identity.py --seed 101 --repo ../parent > parent.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402
from blichfeldt import polytope as pt  # noqa: E402
from blichfeldt import witnesses as wt  # noqa: E402
from blichfeldt.counting import Body  # noqa: E402


def _commands(seed: int, workdir: str):
    corpus_ops, _, _ = workloads.setup("corpus", seed, workdir)
    for op in corpus_ops:
        for fmt in ("json", "csv"):
            yield op["argv"][:-1] + [fmt]
    bodies_ops, _, _ = workloads.setup("bodies", seed, workdir)
    for op in bodies_ops:
        yield op["argv"]
    cube = os.path.join(workdir, "cube.json")
    wt.save_body(Body.from_polytope(pt.hull(itertools.product((0, 2), repeat=3))), cube)
    for fmt in ("human", "json", "csv"):
        yield ["audit", "--body", cube, "--format", fmt]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repo", default=ROOT, help="checkout whose src/ runs the commands")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.repo), "src"))
    env.pop("BLICH_BUDGET", None)
    with tempfile.TemporaryDirectory() as workdir:
        for argv in _commands(args.seed, workdir):
            proc = subprocess.run([sys.executable, "-m", "blichfeldt.cli", *argv],
                                  env=env, capture_output=True, check=False)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            shown = " ".join(os.path.basename(a) if a.startswith(workdir) else a
                             for a in argv)
            print(f"{digest}  {proc.returncode}  {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
