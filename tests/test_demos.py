"""Smoke test: the shipped demo scripts run to completion.

Each demo runs as a copy in a temporary directory, because
``crystal_phasematching.py`` writes its CSV files next to the script.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "fusion_algebra.py", "witness_analysis.py", "monte_carlo_run.py",
    "crystal_phasematching.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    shutil.copy(ROOT / "demos" / script, tmp_path / script)
    proc = subprocess.run([sys.executable, str(tmp_path / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
