"""The benchmark calls the CLI with fixed argument lists built in
`perfbench/workloads.py`, so renaming or deleting a flag they pass, such as
the hidden `--jobs` of `verify`, breaks `perfbench/run.py` without any other
test failing.  This builds every workload's items and parses each item's
argv with the CLI's full parser and with the command's own parser, which
`cli.main` uses; it edits nothing under perfbench/.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

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
            full = parser.parse_args(list(argv))
        except SystemExit:
            pytest.fail("the benchmark runs `exospringer %s`, which the CLI "
                        "rejects" % " ".join(argv))
        # main parses each of them with the command's own parser alone
        own, rest = cli._command_parser(argv[0]).parse_known_args(argv[1:])
        own.command = argv[0]
        assert (own, rest) == (full, []), argv


# One cold process runs every `symbolic` argv and counts the partition
# checks: labels built from valid parts skip them, so only the two axiom
# labels per rank of `verify --suite determine --n 7`, and the two empty
# labels it starts from, are checked (2 partitions each).
_COUNT_CHECKS = """
import contextlib, importlib.util, io, sys
from exospringer import bicomb, cli
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
calls = []
check_partition = bicomb.check_partition
def counted(parts):
    calls.append(parts)
    return check_partition(parts)
bicomb.check_partition = counted
for argv in workloads.symbolic_argvs():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(len(calls))
"""


def test_symbolic_argvs_check_each_partition_once():
    src = PERFBENCH.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_CHECKS, str(PERFBENCH / "workloads.py")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) <= 2 * (2 * 7 + 2) == 32
