"""The benchmark traces glab functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "perfbench" / "spec.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spec", SPEC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for layer, fn, _ in traced:
        assert callable(getattr(importlib.import_module(f"glab.{layer}"), fn)), (layer, fn)


def test_tracer_scipy_hooks_resolve():
    # perfbench/tracer.py counts the glauber -> scipy calls through these
    glauber = importlib.import_module("glab.glauber")
    assert callable(glauber.minimize)
    assert callable(glauber.minimize_scalar)
