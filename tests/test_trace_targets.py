"""The benchmark's layer trace (`perfbench/tracer.py`) wraps library
functions by name, so a refactor that renames, inlines or un-defs one of
them breaks `perfbench/run.py --trace 1` without any other test failing.
Likewise a new `lru_cache` in the package fails the harness's cold-start
check (`perfbench/worker.py`).  This reads the harness's target list and
its cache finder; it edits nothing under perfbench/.
"""

import importlib.util
import inspect
import pathlib
import sys

import exospringer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# what perfbench/record_reference.py calls besides the tracer targets
RECORDER_NAMES = (("census", "_is_nilpotent"),)


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("perfbench_tracer", "tracer.py")


def test_every_traced_name_is_a_function_in_its_home_namespace():
    tracer = _tracer()
    assert tracer.PACKAGE == exospringer.__name__
    names = [(module, path) for _, module, path, _ in tracer.TARGETS]
    names += RECORDER_NAMES
    for module, path in names:
        fn = inspect.unwrap(tracer._lookup(module, path))   # past lru_cache
        assert inspect.isfunction(fn), "%s.%s is not a function" % (module, path)
        home = importlib.import_module("exospringer." + module)
        assert fn.__module__ == home.__name__, "%s.%s is defined in %s" % (
            module, path, fn.__module__)


def test_the_package_caches_only_the_layers_the_harness_expects(monkeypatch):
    # worker.py puts perfbench/ on sys.path and imports its siblings by
    # their plain names; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        worker = _load("perfbench_worker", "worker.py")
        caches = worker.lru_caches(worker.tracer.modules())
    finally:
        for name in {"tracer", "workloads"} - before:
            sys.modules.pop(name, None)
    assert {layer for layer, _ in caches} == {"bicomb", "hyperoct"}
