"""Every function the traced benchmark run wraps still exists.

``bench/tracing.py`` looks each ``(module, attribute)`` of its ``SPANS`` and
``HOT`` tables up with ``getattr`` on ``sys.modules``, so deleting or
renaming one of them, or no longer loading its module from the imports of
``bench/traced_job.py``, breaks the traced run.  Both files are loaded by
path and only read.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
TRACED_JOB = ROOT / "bench" / "traced_job.py"


def _tables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {**module.SPANS, **module.HOT}


@pytest.mark.parametrize("name,target", sorted(_tables().items()))
def test_traced_function_resolves(name, target):
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_modules_loaded_by_job_imports():
    """The modules ``install`` reads from ``sys.modules`` are loaded by the job's imports."""
    imports = [alias.name for node in ast.walk(ast.parse(TRACED_JOB.read_text()))
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.partition(".")[0] == "spdclab"]
    assert imports
    modules = sorted({module for module, _ in _tables().values()})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = ("import importlib, sys\n"
              "for name in sys.argv[1].split(','): importlib.import_module(name)\n"
              "print([m for m in sys.argv[2].split(',') if m not in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", script, ",".join(imports), ",".join(modules)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
