"""The stdout of the symbolic commands, pinned by SHA-256.

The benchmark's `symbolic` workload checks each of its CLI calls against
a digest in `perfbench/reference.json`; this runs the same calls, so a
change of one byte fails the test suite and not only the benchmark.
Larger calls, past the workload's sizes, and JSON formats it does not
run are pinned here.  It loads perfbench read-only and edits nothing
there.
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
    # JSON formats the workload does not run, recorded from the program
    # while cli._json was still json.dumps(indent=2, sort_keys=True)
    "hasse --n 8 --format json":
        "1b8fd5849e6aa9e1056c9c801310bfe44f862a834366c56c4202d1c89a1ce2a0",
    "springer --n 10 --format json":
        "d3afaa7e9bc96f019a77cdebf8f26d0cf8607612e05a0d13e8c4c61fda382658",
    "orbits --n 8 --format json":
        "76eb4bb3bd1aae503d4938189c6b24cb1cfc051a263f91909f893d732e82a0f3",
    # recorded from the program while springer_table still built record
    # objects and bicomb wrote the DOT text
    "springer --n 10 --format tsv":
        "961a3e921f65c18655962dcbb27fbb9baa1c581d397ef0b3eb453283fc235048",
    "hasse --n 8 --format dot":
        "976bc6939d4273ee9bccc5efee621facfe76ca93e984a13ff61dd61ee3919313",
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
