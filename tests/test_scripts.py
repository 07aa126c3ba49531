"""The scripts under ``scripts/`` run end to end."""

import os
import pathlib
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
