"""The scripts under ``scripts/`` and the README's library example run end to end."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tightness_survey():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tightness_survey.py"),
         "--seed", "3", "--hulls", "2", "--lattices", "2"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "smallest certified slack per inequality id:" in proc.stdout
    assert "mu * lambda_1(dual) / n over 2 random lattices:" in proc.stdout


def test_byte_identity_hashes_the_whole_audit_record(tmp_path):
    # the record line runs AUDIT_RECORD on a body file: its output is the
    # repr of the record, every facet's layer counts included
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "byte_identity", ROOT / "scripts" / "byte_identity.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    from blichfeldt import harness, witnesses
    from blichfeldt.counting import Body

    poly = witnesses.reeve_Tm(3, 4)
    path = str(tmp_path / "t4.json")
    witnesses.save_body(Body.from_polytope(poly), path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script.AUDIT_RECORD, path], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    record = harness.boundary_layer_audit(poly)
    assert proc.stdout == repr(record) + "\n"
    assert "layer_counts=" in proc.stdout


def test_byte_identity_hashes_the_hull_record(tmp_path):
    # the hull record runs HULL_RECORD on a body file, or on a seed for the
    # audit workload's random hulls: one repr line per hull
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "byte_identity", ROOT / "scripts" / "byte_identity.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    from blichfeldt import polytope as pt
    from blichfeldt import witnesses
    from blichfeldt.counting import Body
    from blichfeldt.rng import Rng

    def record(poly):
        return repr((poly.vertices, poly.facets, poly.facet_dets, poly.dets,
                     pt.facet_ridges(poly))) + "\n"

    poly = witnesses.reeve_Tm(3, 4)
    path = str(tmp_path / "t4.json")
    witnesses.save_body(Body.from_polytope(poly), path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args, polys in (([path], [poly]), (["--random", "7"], None)):
        proc = subprocess.run([sys.executable, "-c", script.HULL_RECORD, *args], env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        if polys is None:
            rng = Rng(7, stream=3)
            polys = [witnesses.random_hull(rng, 3, 12, 6) for _ in range(30)]
        assert proc.stdout == "".join(map(record, polys))


def test_byte_identity_hashes_the_enum_record(tmp_path):
    # the enum record of a ball is its enumeration in both modes, nodes
    # included; of any other body, its lattice's relevant vectors and its
    # polar's shortest vectors with their nodes
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "byte_identity", ROOT / "scripts" / "byte_identity.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    from fractions import Fraction

    from blichfeldt import lattice as lt
    from blichfeldt import witnesses
    from blichfeldt.counting import Body
    from blichfeldt.lattice import Lattice

    lat = Lattice([[1, 0, 0], [Fraction(1, 2), 1, 0], [Fraction(1, 3), Fraction(1, 2), 1]])
    ball = Body.ball((Fraction(1, 2), 0, Fraction(1, 4)), 3, lattice=lat)
    hull = Body.from_polytope(witnesses.simplex_Sk(3, 2))
    cc = lat.to_coeff(ball.center)
    budget = lt.DEFAULT_BUDGET
    expected = {
        "ball": repr([lt.enum_ellipsoid(lat, cc, 3, points=p) for p in (False, True)]),
        "hull": repr((lt._relevant_vectors(hull.lattice, budget),
                      lt._shortest_vector(hull.lattice.polar, budget))),
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, body in (("ball", ball), ("hull", hull)):
        path = str(tmp_path / f"{name}.json")
        witnesses.save_body(body, path)
        proc = subprocess.run([sys.executable, "-c", script.ENUM_RECORD, path], env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected[name] + "\n"


def test_mutants_apply_to_the_package():
    # each kept mutation's old text occurs exactly once in its file, and its
    # tests exist under the names it gives
    import importlib.util

    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [m.name for m in script.MUTANTS]
    assert len(set(names)) == len(names)
    for m in script.MUTANTS:
        assert (script.PACKAGE / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new, m.name
        for node in m.tests:
            path, *parts = node.split("::")
            text = (ROOT / path).read_text()
            assert all(re.search(rf"(class|def) {p}\b", text) for p in parts), node


def test_readme_library_example(capsys):
    # the README's "Library" block runs against the package as it is
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["7", "4", "2/3"]
