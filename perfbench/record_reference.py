"""Record `reference.json`, the expected answers the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py <commit>

The committed file was recorded from commit ce618a8.  Re-record only when a
change is meant to alter a paper-level answer, and say so in the change:
the benchmark's exact checks are only as strong as this file.
"""

import json
import os
import sys

from exospringer import bicomb, census, cli
from exospringer.symplectic import SymplecticSpace

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CENSUS_CASES = ((2, 3), (1, 5))


def record(commit):
    ref = {"recorded_at": commit, "labels": {}, "orbit_dims": {},
           "census_counts": {}, "nilpotent_self_adjoint": {}, "sp_order": {},
           "symbolic_sha256": {}}
    for n in (1, 2, 3, 4):
        labels = bicomb.bipartitions_of(n)
        ref["labels"][str(n)] = [bicomb.format_bipartition(b) for b in labels]
        ref["orbit_dims"][str(n)] = {
            bicomb.format_bipartition(b): [bicomb.orbit_dim(b, n),
                                           bicomb.fiber_dim_d(b, n)]
            for b in labels}
    for n, p in CENSUS_CASES:
        key = "%d,%d" % (n, p)
        ref["census_counts"][key] = dict(sorted(
            census.orbit_census(n, p).label_counts.items()))
        space = SymplecticSpace(n, p)
        ref["nilpotent_self_adjoint"][key] = sum(
            1 for x in census.iter_self_adjoint(space) if census._is_nilpotent(x))
        ref["sp_order"][key] = census.sp_group_order(n, p)
    for argv in workloads.symbolic_argvs():
        rc, out = workloads.call_cli(cli, argv)
        if rc != 0:
            raise SystemExit("%s exited %d" % (argv, rc))
        name = " ".join(argv)
        ref["symbolic_sha256"][name] = (
            workloads.verify_digest(json.loads(out)) if argv[0] == "verify"
            else workloads.digest(out))
    return ref


if __name__ == "__main__":
    ref = record(sys.argv[1])
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
