"""Smoke test: the shipped demo scripts run to completion.

``crystal_phasematching.py`` is left out: it computes full ring clouds and
spectra for both crystals (about 10 s), and the crystal tests and
benchmark already exercise those paths.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "fusion_algebra.py", "witness_analysis.py", "monte_carlo_run.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
