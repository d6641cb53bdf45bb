"""The benchmark's layer trace (`perfbench/tracer.py`) wraps library
functions by name, so a refactor that renames, inlines or un-defs one of
them breaks `perfbench/run.py --trace 1` without any other test failing.
This reads the harness's target list; it edits nothing under perfbench/.
"""

import importlib.util
import inspect
import pathlib

import exospringer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# what perfbench/record_reference.py calls besides the tracer targets
RECORDER_NAMES = (("census", "_is_nilpotent"),)


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
