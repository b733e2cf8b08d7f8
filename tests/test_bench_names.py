"""Every entry point the benchmark traces must exist in the package.

The benchmark's tracer fails a traced run when a name it wraps is gone; this
check fails the ordinary test suite first, so a refactor that renames or
deletes a traced function is caught without running the benchmark.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TRACED = {**_tracer.SPANS, **_tracer.COUNTED}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_name_resolves(name):
    module, path = TRACED[name]
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
