"""The benchmark's tracer wraps names of the package: a rename must fail here.

perfbench/ is collected by its own test command only, so this test loads
its tracer by path and checks it against the current package.
"""

import importlib.util
import sys
from pathlib import Path

import hyperdefect
from hyperdefect import defect
from hyperdefect.fixtures import get_fixture

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_existing_boundaries(monkeypatch):
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install(hyperdefect)  # raises AttributeError on a missing name
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, attribute, original in patched:
            assert callable(original)
            assert getattr(owner, attribute) is not original
        defect(get_fixture("segre-cubic").build())
        assert {"koszul.assemble", "ranks.multimodular"} <= {span.name for span in tracer.spans}
    finally:
        tracer.uninstall()
    for owner, attribute, original in patched:
        assert getattr(owner, attribute) is original
