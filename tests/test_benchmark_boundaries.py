"""The benchmark calls and wraps names of the package: a rename must fail here.

perfbench/ is collected by its own test command only, so these tests load
its tracer and its runner by path and check them against the current
package.
"""

import importlib.util
import sys
from pathlib import Path

import hyperdefect
from hyperdefect import defect
from hyperdefect.fixtures import get_fixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_existing_boundaries(monkeypatch):
    tracer = _load(monkeypatch, "perfbench_tracing", PERFBENCH / "tracing.py").Tracer()
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


def test_benchmark_runner_answers_correctly(monkeypatch):
    # run.py imports its sibling modules by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for sibling in ("check", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, sibling, raising=False)
    try:
        run = _load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
        cases = run.build("quintic-pair", 0)[:1] + run.build("cubic-sweep", 0)[:4]
        tally = run.Tally()
        run.check_pass(run.run_pass(hyperdefect, cases), run.load_reference(), tally)
    finally:
        for sibling in ("check", "tracing", "workloads"):
            sys.modules.pop(sibling, None)
    assert (tally.attempted, tally.failed) == (5, 0)
