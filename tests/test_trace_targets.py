"""Every function the traced benchmark run wraps still exists.

``bench/tracing.py`` looks each ``(module, attribute)`` of its ``SPANS`` and
``HOT`` tables up with ``getattr``, so deleting or renaming one of them
breaks the traced run.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {**module.SPANS, **module.HOT}


@pytest.mark.parametrize("name,target", sorted(_tables().items()))
def test_traced_function_resolves(name, target):
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr)), name
