#!/usr/bin/env python3
"""Self-test of the benchmark's checks: genuine outputs pass, corrupted fail.

Usage (from the root of a checkout):
    python3 bench/selftest.py

Produces real outputs with the program (in process, through ``cli.main``
and ``harness.boundary_layer_audit``), confirms that ``checks`` accepts
each, then corrupts each in one place (a count off by one, a perturbed
volume or surface area, a flipped verdict, a wrong audit layer) and
confirms that the check rejects it, so that no check passes vacuously.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from blichfeldt import cli  # noqa: E402
from blichfeldt import harness as hz  # noqa: E402
from blichfeldt import witnesses as wt  # noqa: E402
from blichfeldt.counting import Body  # noqa: E402
from blichfeldt.lattice import Lattice  # noqa: E402
from blichfeldt.rng import Rng  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".bench_out", "selftest")
FAILURES: list[str] = []


def expect(label: str, problems: list, ok: bool) -> None:
    if bool(problems) == ok:
        FAILURES.append(f"{label}: expected {'acceptance' if ok else 'rejection'}, "
                        f"got {problems or 'no problems'}")
    else:
        print(f"ok  {label}{'' if ok else ' -> ' + problems[0]}")


def body_file(name: str, body: Body, family: dict):
    path = os.path.join(WORK, f"{name}.json")
    wt.save_body(body, path)
    with open(path, encoding="utf-8") as fh:
        return path, checks.Facts(json.load(fh), family)


def run_cli(*argv) -> dict:
    out = os.path.join(WORK, "out.txt")
    code = cli.main(list(argv) + ["--out", out])
    with open(out, encoding="utf-8") as fh:
        return {"exit": code, "text": fh.read()}


def edit(output: dict, pattern: str, repl) -> dict:
    text, n = re.subn(pattern, repl, output["text"], count=1, flags=re.M)
    if n != 1:
        raise SystemExit(f"selftest corruption {pattern!r} did not apply")
    return dict(output, text=text)


def bump_fraction(m) -> str:
    return f"{m.group(1)}{int(m.group(2)) + 1}/{m.group(3)}"


def scale_interval(m) -> str:
    lo, hi = (Fraction(m.group(i)) * Fraction(1001, 1000) for i in (1, 2))
    return f"surface_area: [{lo}, {hi}]"


def test_counts():
    cube = workloads._cube(3)
    path, facts = body_file("cube3", Body.from_polytope(cube),
                            {"family": "cube", "n": 3, "a": 3})
    out = run_cli("count", "--body", path)
    expect("count cube (closed form)", checks.check_count(out, facts), True)
    expect("count cube off by one",
           checks.check_count(edit(out, r"count: 64", "count: 65"), facts), False)

    hull = wt.random_hull(Rng(3, stream=3), 3, 10, 6)
    path, facts = body_file("hull", Body.from_polytope(hull), {"family": "random"})
    out = run_cli("count", "--body", path)
    g = int(out["text"].split()[1])
    expect("count hull (brute force)", checks.check_count(out, facts), True)
    expect("count hull off by one",
           checks.check_count(edit(out, r"count: \d+", f"count: {g - 1}"), facts), False)

    ball = Body.ball((Fraction(1, 3), Fraction(1, 2)), 30,
                     lattice=Lattice([[Fraction(3, 2), 0], [1, 1]]))
    path, facts = body_file("ball", ball, {"family": "ball"})
    out = run_cli("count", "--body", path)
    g = int(out["text"].split()[1])
    expect("count ball (brute force)", checks.check_count(out, facts), True)
    expect("count ball off by one",
           checks.check_count(edit(out, r"count: \d+", f"count: {g + 1}"), facts), False)

    ppd = Body.parallelepiped([[5, 1, 0], [2, 7, 1], [0, 3, 4]],
                              anchor=(Fraction(1, 2), 0, 0))
    path, facts = body_file("ppd", ppd, {"family": "ppd"})
    out = run_cli("count", "--body", path)
    g = int(out["text"].split()[1])
    expect("count parallelepiped (|det|)", checks.check_count(out, facts), True)
    expect("count parallelepiped off by one",
           checks.check_count(edit(out, r"count: \d+", f"count: {g + 1}"), facts), False)
    expect("count failed command",
           checks.check_count({"exit": 2, "stderr": "error: x"}, facts), False)


def test_measure():
    hull = wt.random_hull(Rng(4, stream=3), 3, 10, 6)
    path, facts = body_file("hull-m", Body.from_polytope(hull), {"family": "random"})
    out = run_cli("measure", "--body", path)
    expect("measure 3D hull", checks.check_measure(out, facts), True)
    expect("measure perturbed volume",
           checks.check_measure(edit(out, r"^(volume: )(\d+)/(\d+)", bump_fraction), facts),
           False)
    expect("measure surface area off by 0.1%",
           checks.check_measure(edit(out, r"^surface_area: \[([^,]+), ([^\]]+)\]", scale_interval),
                                facts), False)
    expect("measure perturbed V1",
           checks.check_measure(edit(out, r"^V1: \[[^\]]*\]", "V1: [0/1, 1/1]"), facts),
           False)


def test_check():
    sk = wt.simplex_Sk(3, 4)
    path, facts = body_file("sk", Body.from_polytope(sk), {"family": "S_k", "n": 3, "k": 4})
    out = run_cli("check", "--id", "BLICHFELDT_1_1", "--body", path)
    expect("check equality case", checks.check_check(out, facts), True)
    expect("check equality flipped to Holds",
           checks.check_check(edit(out, r"HoldsWithEquality", "Holds"), facts), False)
    expect("check lhs off by one",
           checks.check_check(edit(out, r"^lhs: 7/1", "lhs: 8/1"), facts), False)

    out = run_cli("check", "--id", "MAIN_THM_1_1", "--body", path)
    expect("check Holds", checks.check_check(out, facts), True)
    expect("check Holds flipped to VIOLATED",
           checks.check_check(edit(out, r"verdict: Holds", "verdict: VIOLATED"), facts), False)

    out = run_cli("check", "--id", "TRANSLATE_LEMMA_1_3", "--body", path)
    expect("check unmet hypothesis", checks.check_check(out, facts), True)
    expect("check unmet flipped to Holds",
           checks.check_check(edit(out, r"HypothesisUnmet", "Holds"), facts), False)


def test_corpus():
    spec = {"seed": 7, "dimensions": [2, 3], "num_random_hulls": 2, "points_per_hull": 5,
            "coord_bound": 3, "k_values": [1, 2], "m_values": [1], "num_random_lattices": 1}
    spec_path = os.path.join(WORK, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    entries = [{"index": e.index, "name": e.name, "body": wt.body_to_dict(e.body)}
               for e in wt.build_corpus(wt.CorpusSpec(**{k: tuple(v) if isinstance(v, list)
                                                         else v for k, v in spec.items()}))]
    out = run_cli("corpus", "--spec", spec_path, "--format", "json")
    expect("corpus", checks.check_corpus(out, entries), True)
    doc = json.loads(out["text"])
    row = next(r for r in doc["rows"] if r["id"] == "BLICHFELDT_1_1" and r["body"].startswith("hull"))
    g = int(row["lhs"].split("/")[0])

    def corrupt(change):
        bad = json.loads(out["text"])
        change(next(r for r in bad["rows"] if r["index"] == row["index"]
                    and r["id"] == row["id"]))
        return dict(out, text=json.dumps(bad))

    expect("corpus count off by one",
           checks.check_corpus(corrupt(lambda r: r.update(lhs=f"{g + 1}/1")), entries), False)
    expect("corpus verdict flipped",
           checks.check_corpus(corrupt(lambda r: r.update(verdict="VIOLATED")), entries), False)
    expect("corpus Holds flipped to HoldsWithEquality",
           checks.check_corpus(corrupt(lambda r: r.update(verdict="HoldsWithEquality")),
                               entries), False)
    num, den = row["rhs"].split("/")
    expect("corpus perturbed volume",
           checks.check_corpus(corrupt(lambda r: r.update(rhs=f"{int(num) + 1}/{den}")), entries),
           False)


def test_audit():
    tm = wt.reeve_Tm(3, 6)
    _, facts = body_file("tm", Body.from_polytope(tm), {"family": "T_m", "n": 3, "m": 6})
    r = hz.boundary_layer_audit(tm)
    rec = {"total": r.total, "l1_count": r.l1_count, "l2_count": r.l2_count,
           "all_ok": r.all_ok}
    expect("audit", checks.check_audit({"record": rec}, facts), True)
    expect("audit interior layer off by one",
           checks.check_audit({"record": dict(rec, l1_count=r.l1_count + 1,
                                              l2_count=r.l2_count - 1)}, facts), False)
    expect("audit total off by one",
           checks.check_audit({"record": dict(rec, total=r.total + 1,
                                              l2_count=r.l2_count + 1)}, facts), False)
    expect("audit not all_ok", checks.check_audit({"record": dict(rec, all_ok=False)}, facts),
           False)
    expect("audit raised", checks.check_audit({"error": "EnumerationBudgetError"}, facts), False)


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    try:
        for test in (test_counts, test_measure, test_check, test_corpus, test_audit):
            test()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for f in FAILURES:
        print(f"FAIL {f}")
    print(f"{'FAILED' if FAILURES else 'passed'}: {len(FAILURES)} failing expectations")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
