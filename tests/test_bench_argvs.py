"""The benchmark calls the CLI with fixed argument lists built in
`perfbench/workloads.py`, so renaming or deleting a flag they pass, such as
the hidden `--jobs` of `verify`, breaks `perfbench/run.py` without any other
test failing.  This builds every workload's items and parses each item's
argv with the CLI's own parser; it edits nothing under perfbench/.
"""

import importlib.util
import json
import pathlib

import pytest

from exospringer import bicomb, census, cli, symplectic

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_argv_parses():
    workloads = _workloads()
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    exo = {"bicomb": bicomb, "census": census, "cli": cli,
           "symplectic": symplectic}
    argvs = [item.argv for name in workloads.WORKLOADS
             for item in workloads.build(name, 1, ref, exo) if item.argv]
    assert argvs
    parser = cli.build_parser()
    for argv in argvs:
        try:
            parser.parse_args(list(argv))
        except SystemExit:
            pytest.fail("the benchmark runs `exospringer %s`, which the CLI "
                        "rejects" % " ".join(argv))
