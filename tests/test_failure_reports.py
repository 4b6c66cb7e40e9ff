"""A failing property reports its falsifying example under the repository's pytest settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_shows_its_example(tmp_path):
    """``filterwarnings = error`` must not turn a warning raised while hypothesis
    writes its failure report into an INTERNALERROR that hides the example."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
