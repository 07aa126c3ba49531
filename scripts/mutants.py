"""Replay a kept list of mutations of ``src/`` and report which the tests catch.

Each entry of ``MUTANTS`` is one named mutation: a file of the package, the
exact old text (it must occur there once), the new text, and the tests
expected to catch it.  For each, the script copies ``src/`` to a temporary
directory, applies the mutation to the copy, and runs those tests against it
with a timeout and a fixed hypothesis seed.  A mutation is caught when a
test fails or the run times out, and survives when every test passes.  A
survivor that is harmless by design carries its reason in ``survives``.

The script exits 1 when a mutation without a reason survives, one with a
reason is caught, or its tests cannot run (none collected, or a usage error).

    python scripts/mutants.py                  # every mutation
    python scripts/mutants.py NAME [NAME ...]  # the named ones
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blichfeldt"
TIMEOUT = 300   # seconds per mutation


class Mutant(NamedTuple):
    name: str
    file: str          # under src/blichfeldt
    old: str           # occurs exactly once in the file
    new: str
    tests: tuple       # pytest node ids, relative to the repository root
    survives: str = ""  # why surviving is correct, for a known survivor


MUTANTS = (
    # the dual Gram matrix is the polar's integer Gram over polar.den^2
    Mutant("dual-inner-den-unsquared", "lattice.py",
           "lat.polar.den ** 2)", "lat.polar.den)",
           ("tests/test_polytope.py::TestSurfaceArea::test_facet_lattice_volume_consistency",)),
    Mutant("dual-gram-den-unsquared", "lattice.py",
           "d2 = self.polar.den ** 2", "d2 = self.polar.den",
           ("tests/test_linalg.py::TestAdjugate::test_lattice_data_match_fraction_elimination",)),
    # the CLI's exit codes
    Mutant("witness-stray-flag-read", "cli.py",
           'raise _CliError(f"{args.family} takes no --{other}")', "pass",
           ("tests/test_cli.py::TestFlags::test_witness_takes_only_its_family_flag",)),
    Mutant("violated-exits-0", "cli.py",
           "        return EXIT_VIOLATED\n", "        return EXIT_OK\n",
           ("tests/test_cli.py::TestExitCodes::test_violated",)),
    Mutant("inconclusive-exits-0", "cli.py",
           "        return EXIT_INCONCLUSIVE\n", "        return EXIT_OK\n",
           ("tests/test_cli.py::TestExitCodes::test_inconclusive",)),
    # the id parser of --id and --ids
    Mutant("id-parser-accepts-unknown", "cli.py",
           "    for text in texts:\n        if text not in known:\n            raise _CliError("
           "f\"unknown inequality id {text!r}; one of {', '.join(known)}\")\n"
           "    return [known[text] for text in texts]\n",
           "    return [known[text] for text in texts if text in known]\n",
           ("tests/test_cli.py::TestCorpus::test_unknown_id_rejected_as_by_check",
            "tests/test_cli.py::TestCheck::test_unknown_id_rejected")),
    # the verdict path: the table's strict flag, the audit's checks, the
    # certified comparison and the exact arithmetic under it
    Mutant("main-theorem-not-strict", "harness.py",
           "surface_area),\n        strict=True,", "surface_area),\n        strict=False,",
           ("tests/test_harness.py::TestVerdicts::test_equal_sides_violate_exactly_the_strict_rows",
            "tests/test_harness.py::TestVerdicts::test_strict_ids_fixed")),
    Mutant("covers-skips-a-point", "harness.py",
           "lo = max(lo, ub + 1)", "lo = max(lo, ub + 2)",
           ("tests/test_harness.py::TestBoundaryLayerAudit::test_covers",
            "tests/test_harness.py::TestBoundaryLayerAudit::test_dropped_prism_leaves_points_uncovered",
            "tests/test_cli.py::TestExitCodes::test_audit_uncovered_point")),
    Mutant("partition-l1-row-end-unchecked", "harness.py",
           "l1_inside and plb <= lb and ub <= pub", "l1_inside and plb <= lb",
           ("tests/test_harness.py::TestBoundaryLayerAudit::test_l1_row_past_p_breaks_partition",
            "tests/test_cli.py::TestExitCodes::test_audit_partition")),
    Mutant("partition-unmet-l1-row-ignored", "harness.py",
           "partition_ok=l1_inside and not l1_rows,", "partition_ok=l1_inside,",
           ("tests/test_harness.py::TestBoundaryLayerAudit::test_l1_row_off_p_breaks_partition",)),
    Mutant("prism-bound-passes-on-equality", "harness.py",
           "L * L < 4 * n * (d * d * s) ** 2", "L * L <= 4 * n * (d * d * s) ** 2",
           ("tests/test_harness.py::TestBoundaryLayerAudit::test_integer_prism_bound",)),
    Mutant("single-term-zero-read-as-greater", "radical.py",
           "return Cmp.GREATER if c > 0 else Cmp.LESS if c < 0 else Cmp.EQUAL",
           "return Cmp.GREATER if c >= 0 else Cmp.LESS",
           ("tests/test_interval_radical.py::TestCertifiedCompare::test_exact_radical_paths",
            "tests/test_interval_radical.py::TestRadicalSum::test_sign")),
    Mutant("radical-mul-without-gcd", "radical.py",
           "                g = gcd(d1, d2)\n", "                g = 1\n",
           ("tests/test_interval_radical.py::TestRadicalSum::test_arithmetic",
            "tests/test_interval_radical.py::TestCanonicalInvariant::test_matches_factor_every_term")),
    # a point on a live simplex's hyperplane re-cones that simplex: the
    # facets and dets stay the same, but the number of orientation tests
    # charged to the budget changes (46 to 44 on the pinned hull)
    Mutant("hull-beyond-includes-coplanar", "polytope.py",
           "(h := sum(map(mul, nv, x)) - c) > 0}", "(h := sum(map(mul, nv, x)) - c) >= 0}",
           ("tests/test_polytope.py::TestHull::test_facet_order_follows_the_key_from_points_0",)),
    # the row sweep and the audit's prisms
    Mutant("layer-prefix-sum-step-1", "harness.py",
           "diff[j] += diff[j - step]", "diff[j] += diff[j - 1]",
           ("tests/test_harness.py::TestBoundaryLayerAudit::test_layer_counts_every_a0",)),
    Mutant("layer-run-end-dropped", "harness.py",
           "            diff[slack - a0 * last + step] -= w\n", "",
           ("tests/test_harness.py::TestBoundaryLayerAudit::test_layer_counts_every_a0",)),
    Mutant("prism-pairs-slab-side-0-only", "harness.py",
           "pairs = [(s, k) for s in (0, 1) for", "pairs = [(s, k) for s in (0,) for",
           ("tests/test_counting.py::TestRowSweepOracle::test_prism_slab_side_pairs",)),
    Mutant("neighbours-one-sided", "harness.py",
           "        neighbours[j].append(i)\n", "",
           ("tests/test_harness.py::TestBoundaryLayerAudit::test_layer_counts_every_a0",)),
    Mutant("walk-keeps-x0-slot", "counting.py",
           "head, levels = ((0,), levels) if levels else ((), [(0, 0)])",
           "head, levels = (), [(0, 0), *levels]",
           ("tests/test_counting.py::TestRowSweepOracle::test_walk_starts_past_x0_slot",)),
    Mutant("walk-outer-fold-wrong-coefficient", "counting.py",
           "[(c, r - c[k] * x) for c, r in bounds]", "[(c, r - c[k - 1] * x) for c, r in bounds]",
           ("tests/test_counting.py::TestRowSweepOracle::test_random_systems",)),
    Mutant("shadow-ceiling-floored", "counting.py",
           "q = -(rem // -cy)", "q = rem // cy",
           ("tests/test_counting.py::TestRowSweepOracle::test_random_systems",)),
    # sound, as each pair's row is a valid inequality: only the pin on the
    # prisms' row solves, which are those of all pairs in 3D, sees the extra rows
    Mutant("shadow-pair-dropped", "counting.py",
           "    for i, j in pairs:\n", "    for i, j in list(pairs)[1:]:\n",
           ("tests/test_counting.py::TestRowSweepOracle::test_prism_slab_side_pairs",)),
    Mutant("shadow-early-exit-dropped", "counting.py",
           "                    y1 = q\n                    if y0 > y1:\n                        break\n",
           "                    y1 = q\n",
           ("tests/test_counting.py::TestRowSweepOracle", "tests/test_counting.py::TestShadowRows"),
           survives="the interval only narrows, so an empty one stays empty and yields no "
                    "row; the exit saves work that no test pins"),
    Mutant("constant-constraint-1d-off-by-one", "counting.py",
           "if all(t >= 0 for c, t in constraints if not c[0]):",
           "if all(t >= -1 for c, t in constraints if not c[0]):",
           ("tests/test_counting.py::TestRowSweepOracle::test_constant_constraint_1d",)),
    Mutant("ceil-sqrt-negative-guard-dropped", "counting.py",
           "-(-p // q) if p >= 0 else p", "-(-p // q)",
           ("tests/test_counting.py::TestCeilSqrt::test_negative_rejected",)),
    # the integer Fincke-Pohst enumerator
    Mutant("enum-hi-one-lower", "lattice.py",
           "(a + s) // qj\n", "(a + s) // qj - 1\n",
           ("tests/test_lattice.py::TestShortestVector::test_standard_lattice",
            "tests/test_lattice.py::TestIntegerEnumeration::test_matches_fraction_enumerator")),
    Mutant("enum-isqrt-widened", "lattice.py",
           "s = isqrt(rho // w[j])", "s = isqrt(rho // w[j] + 1)",
           ("tests/test_lattice.py::TestBudget::test_enumeration_candidates",
            "tests/test_counting.py::TestBallCount::test_origin_balls")),
    Mutant("enum-norm-denominator-plus-one", "lattice.py",
           "Fraction(rn * scale - left, rd * scale)", "Fraction(rn * scale - left, rd * scale + 1)",
           ("tests/test_lattice.py::TestShortestVector::test_standard_lattice",
            "tests/test_lattice.py::TestIntegerEnumeration::test_matches_fraction_enumerator")),
    Mutant("enum-fold-off-by-one", "lattice.py",
           "[c - f * xj for c, f in", "[c - f * (xj + 1) for c, f in",
           ("tests/test_lattice.py::TestIntegerEnumeration::test_matches_fraction_enumerator",)),
    # exact integer linear algebra
    Mutant("bareiss-row-swap-keeps-sign", "linalg.py",
           "                    sign = -sign\n", "",
           ("tests/test_linalg.py::TestDeterminant::test_matches_fraction_elimination",)),
    Mutant("cross-3d-sign-flipped", "linalg.py",
           "return [b * g - c * f, c * e - a * g, a * f - b * e]",
           "return [c * f - b * g, c * e - a * g, a * f - b * e]",
           ("tests/test_linalg.py::TestCross::test_matches_cofactor_oracle",)),
)


def apply(mutant: Mutant, src: pathlib.Path) -> None:
    """Apply the mutation to the package under ``src``."""
    path = src / "blichfeldt" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """'caught', 'survived' or 'error' (the tests could not run)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # a fixed hypothesis seed and, in the temporary directory, an empty
        # example database: the same draws on every run, so the same outcome
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 f"--rootdir={ROOT}", "--hypothesis-seed=0",
                 *(str(ROOT / test) for test in mutant.tests)],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "caught"
    # pytest: 0 all passed, 1 some failed; 2-5 interrupted, internal or usage
    # error, or no tests collected
    return {0: "survived", 1: "caught"}.get(proc.returncode, "error")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("names", nargs="*", help="mutations to run (default: all)")
    args = p.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        p.error(f"unknown mutations {sorted(unknown)}")
    bad = 0
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        start = time.perf_counter()
        outcome = run(mutant)
        expected = "survived" if mutant.survives else "caught"
        bad += outcome != expected
        note = f"  ({mutant.survives})" if outcome == "survived" and mutant.survives else ""
        print(f"{outcome:8} {mutant.name}  {time.perf_counter() - start:.1f} s{note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
