#!/usr/bin/env python3
"""Survey how sharp the surface-area bounds are, and the lattice products
mu(L) * lambda_1(L*) / n that drive the general-lattice factor.

For each checked inequality the slack (rhs - lhs) is a certified enclosure;
this script aggregates the smallest observed slacks per id (the bodies that
come closest to equality) and, over random lattices, the distribution of
the normalized transference-style product.

Usage:
    python3 scripts/tightness_survey.py --seed 3 --hulls 60 --lattices 40
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from blichfeldt import harness as hz
from blichfeldt import lattice as lt
from blichfeldt import witnesses as wt
from blichfeldt.radical import RadicalSum
from blichfeldt.rng import Rng


def survey_slack(seed: int, hulls: int) -> None:
    spec = wt.CorpusSpec(seed=seed, num_random_hulls=hulls)
    report = hz.run_corpus(spec, list(hz.InequalityId))
    tightest: dict = {}
    for row in report.rows:
        t = row.report.tightness
        if t is None:
            continue
        key = row.report.id.value
        mid = t.mid
        if key not in tightest or mid < tightest[key][0]:
            tightest[key] = (mid, row.name)
    print("smallest certified slack per inequality id:")
    for key in sorted(tightest):
        mid, name = tightest[key]
        print(f"  {key:22s} {float(mid):12.6f}  on {name}")


def survey_mu_lambda(seed: int, num_lattices: int) -> None:
    rng = Rng(seed, stream=99)
    print(f"\nmu * lambda_1(dual) / n over {num_lattices} random lattices:")
    for n in (2, 3):
        products = []
        for _ in range(num_lattices):
            lat = wt.random_lattice(rng, n, max_abs_det=8)
            mu = lt.inhomogeneous_minimum(lat)
            lam = RadicalSum.sqrt(lt.shortest_vector(lat.polar).length_sq)
            enc = ((mu * lam) / n).enclosure(96)
            products.append(float((enc.lo + enc.hi) / 2))
        products.sort()
        mid = products[len(products) // 2]
        print(
            f"  n={n}: min={products[0]:.4f}  median={mid:.4f}  "
            f"max={products[-1]:.4f}"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--hulls", type=int, default=60)
    ap.add_argument("--lattices", type=int, default=40)
    args = ap.parse_args()
    survey_slack(args.seed, args.hulls)
    survey_mu_lambda(args.seed, args.lattices)
    return 0


if __name__ == "__main__":
    sys.exit(main())
