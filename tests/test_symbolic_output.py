"""The stdout of the symbolic commands, pinned by SHA-256.

The benchmark's `symbolic` workload checks each of its CLI calls against
a digest in `perfbench/reference.json`; this runs the same calls, so a
change of one byte fails the test suite and not only the benchmark.  Two
larger calls, past the workload's sizes, are pinned here.  It loads
perfbench read-only and edits nothing there.
"""

import importlib.util
import json
import pathlib

import pytest

from exospringer import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# recorded from the program before the character table was packed
LARGER = {
    "chartable --n 10 --format json":
        "9b92a1dc052fce78a793668963f0067213c34311225791c0b3f640a03b889263",
    "branch --n 9":
        "fca7d904ee49d7da729380e68ae490ef3b82ef3e99f6f30c37d8b99de69cf967",
}


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["symbolic_sha256"]


@pytest.mark.parametrize("argv", WORKLOADS.symbolic_argvs(), ids=" ".join)
def test_symbolic_bench_output_matches_the_reference(argv):
    rc, out = WORKLOADS.call_cli(cli, argv)
    assert rc == 0
    if argv[0] == "verify":
        report = json.loads(out)
        assert report["pass"] is True
        got = WORKLOADS.verify_digest(report)
    else:
        got = WORKLOADS.digest(out)
    assert got == REFERENCE[" ".join(argv)]


@pytest.mark.parametrize("name", sorted(LARGER))
def test_larger_symbolic_output_is_unchanged(name):
    rc, out = WORKLOADS.call_cli(cli, name.split())
    assert rc == 0
    assert WORKLOADS.digest(out) == LARGER[name]
