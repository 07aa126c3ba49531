"""The scripts under ``scripts/`` run end to end."""

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
