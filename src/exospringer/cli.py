"""Command line entry point.

Subcommands: orbits, hasse, chartable, springer, branch, classify,
repr, verify.  Exit status: 0 success, 1 check failure (with a JSON
mismatch report), 2 usage error (argparse's default), including any
--n below 1 (branch needs n >= 2).  Output is byte-deterministic for
fixed inputs; verify reports carry no timings.
"""

import argparse
import json
import sys

from . import bicomb, census, classify, hyperoct, springer
from .bicomb import bipartitions_of, format_bipartition, parse_bipartition
from .ffield import check_modulus
from .symplectic import ExoticPair, SymplecticSpace, normal_form_pair


def _rank(text):
    """The --n value: every subcommand needs rank n >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % n)
    return n


def _add_common(sub, n=True, p=False, fmt=None):
    if n:
        sub.add_argument("--n", type=_rank, required=True)
    if p:
        sub.add_argument("--p", type=int, default=3)
    if fmt:
        sub.add_argument("--format", choices=fmt, default=fmt[0])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="exospringer",
        description="Orbit tables, hyperoctahedral characters and "
                    "finite-field censuses for the exotic nilpotent cone.")
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("orbits", help="orbit labels with dimensions")
    _add_common(s, fmt=("tsv", "json"))

    s = subs.add_parser("hasse", help="closure-order Hasse diagram")
    _add_common(s, fmt=("dot", "tsv", "json"))

    s = subs.add_parser("chartable", help="W_n character table")
    _add_common(s, fmt=("tsv", "json"))

    s = subs.add_parser("springer", help="the full Springer table")
    _add_common(s, fmt=("json", "tsv"))
    s.add_argument("--census-p", type=int, default=None,
                   help="join exact point counts over F_p (census gates apply)")

    s = subs.add_parser("branch", help="branching matrix W_n down to W_{n-1}")
    _add_common(s, fmt=("tsv", "json"))

    s = subs.add_parser("classify", help="classify an exotic pair from JSON")
    s.add_argument("--input", required=True, help="path to ExoticPair JSON, or - for stdin")

    s = subs.add_parser("repr", help="normal-form representative of a label")
    _add_common(s, p=True)
    s.add_argument("--label", required=True, help="bipartition, e.g. '2,1|1'")

    s = subs.add_parser("verify", help="run a verification suite")
    s.add_argument("--suite", required=True,
                   choices=("restriction", "d-diff", "sum-squares",
                            "determine", "census", "klyachko"))
    s.add_argument("--n", type=_rank, required=True)
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--flavor", choices=("lie", "group"), default="lie")
    # Serial only: perfbench/workloads.py passes --jobs 1 to every census
    # item, so the flag stays, hidden, until the benchmark stops passing it.
    s.add_argument("--jobs", type=int, choices=(1,), default=1,
                   help=argparse.SUPPRESS)
    s.add_argument("--check-orbits", action="store_true")
    s.add_argument("--seed", type=int, default=0,
                   help="census only: classify through a seeded symplectic "
                        "basis change; counts must match the unseeded run")
    return ap


def cmd_orbits(args):
    n = args.n
    rows = [(format_bipartition(b), bicomb.orbit_dim(b, n),
             bicomb.fiber_dim_d(b, n)) for b in bipartitions_of(n)]
    if args.format == "tsv":
        out = "".join("%s\t%d\t%d\n" % row for row in rows)
    else:
        out = json.dumps({"n": n, "orbits": [
            {"label": lab, "dim": d, "d": dd} for lab, d, dd in rows]},
            indent=2, sort_keys=True) + "\n"
    sys.stdout.write(out)
    return 0


def cmd_hasse(args):
    n = args.n
    covers = bicomb.hasse_covers(n)
    if args.format == "dot":
        sys.stdout.write(bicomb.hasse_dot(n))
    elif args.format == "tsv":
        for lower, upper in covers:
            sys.stdout.write("%s\t%s\n" % (format_bipartition(lower),
                                           format_bipartition(upper)))
    else:
        sys.stdout.write(json.dumps({"n": n, "covers": [
            [format_bipartition(a), format_bipartition(b)] for a, b in covers]},
            indent=2, sort_keys=True) + "\n")
    return 0


def cmd_chartable(args):
    table = hyperoct.CharacterTable(args.n)
    if args.format == "json":
        sys.stdout.write(json.dumps(table.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        header = ["irrep\\class"] + [str(c.signature) for c in table.classes]
        sys.stdout.write("\t".join(header) + "\n")
        for label, row in zip(table.rows, table.values):
            sys.stdout.write("\t".join([str(label)] + [str(v) for v in row]) + "\n")
    return 0


def cmd_springer(args):
    table = springer.springer_table(args.n)
    if args.census_p is not None:
        counts = census.orbit_census(args.n, args.census_p).label_counts
        for r in table.records:
            r.census_count = counts[format_bipartition(r.label)]
    if args.format == "json":
        sys.stdout.write(json.dumps(table.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("label\tdim\td\tirrep\tirrep_dim\tcovers\n")
        for r in table.records:
            sys.stdout.write("%s\t%d\t%d\t%s\t%d\t%s\n" % (
                r.label, r.orbit_dim, r.d, r.irrep, r.irrep_dim,
                ",".join(str(c) for c in r.covers)))
    return 0


def cmd_branch(args):
    if args.n < 2:
        print("branch needs --n >= 2", file=sys.stderr)
        return 2
    matrix = hyperoct.restrict_branching(args.n)
    ups = bipartitions_of(args.n)
    downs = bipartitions_of(args.n - 1)
    if args.format == "json":
        payload = {str(up): {str(dn): matrix[up][dn] for dn in downs
                             if matrix[up][dn]} for up in ups}
        sys.stdout.write(json.dumps({"n": args.n, "branching": payload},
                                    indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\t".join(["up\\down"] + [str(d) for d in downs]) + "\n")
        for up in ups:
            sys.stdout.write("\t".join([str(up)] + [str(matrix[up][dn])
                                                    for dn in downs]) + "\n")
    return 0


def cmd_classify(args):
    if args.input == "-":
        obj = json.load(sys.stdin)
    else:
        with open(args.input) as fh:
            obj = json.load(fh)
    pair = ExoticPair.from_json(obj)
    label = classify.exotic_type(pair)
    n = pair.space.n
    out = {"label": format_bipartition(label),
           "dim_orbit": bicomb.orbit_dim(label, n),
           "d": bicomb.fiber_dim_d(label, n),
           "stab_dim": classify.stabilizer_dim(pair, include_v=True)}
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_repr(args):
    check_modulus(args.p)
    label = parse_bipartition(args.label)
    if label.n != args.n:
        print("label %s has size %d, not n=%d" % (args.label, label.n, args.n),
              file=sys.stderr)
        return 2
    space = SymplecticSpace(args.n, args.p)
    nf = normal_form_pair(label, space)
    sys.stdout.write(json.dumps(nf.pair.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args):
    report = {"suite": args.suite, "n": args.n, "mismatches": []}
    if args.suite == "restriction":
        for n in range(2, args.n + 1):
            report["mismatches"] += springer.verify_restriction(n)
    elif args.suite == "d-diff":
        for n in range(2, args.n + 1):
            report["mismatches"] += springer.d_difference_check(n)
    elif args.suite == "sum-squares":
        for n in range(1, args.n + 1):
            if not springer.sum_squares_check(n):
                report["mismatches"].append(
                    {"check": "sum-squares", "n": n,
                     "instance": "sum of squared dims",
                     "expected": hyperoct.wn_order(n), "got": "different"})
    elif args.suite == "determine":
        try:
            springer.determine_correspondence(args.n)
        except springer.AmbiguousAssignmentError as exc:
            report["mismatches"].append(
                {"check": "determine", "n": args.n,
                 "instance": "bijection", "expected": "unique identity",
                 "got": str(exc)})
    elif args.suite == "census":
        report["p"] = args.p
        result = census.orbit_census(
            args.n, args.p, flavor=args.flavor,
            check_orbits=args.check_orbits, basis_seed=args.seed)
        report["census"] = result.to_json()
        expected_labels = len(bipartitions_of(args.n))
        if len(result.label_counts) != expected_labels:
            report["mismatches"].append(
                {"check": "census", "n": args.n,
                 "instance": "number of labels",
                 "expected": expected_labels, "got": len(result.label_counts)})
        for chk in result.orbit_checks:
            if not (chk["orbit_stabilizer_ok"] and chk["transitive"]):
                report["mismatches"].append(
                    {"check": "census-orbit", "n": args.n,
                     "instance": chk["label"], "expected": "transitive orbit",
                     "got": chk})
    elif args.suite == "klyachko":
        report["p"] = args.p
        kres = census.klyachko_census(args.n, args.p)
        report["klyachko"] = kres
        if not (kres["count_matches"] and kres["every_orbit_hit_by_embedding"]):
            report["mismatches"].append(
                {"check": "klyachko", "n": args.n,
                 "instance": "orbit count", "expected": kres["gl_class_count"],
                 "got": kres["orbit_count"]})
    report["pass"] = not report["mismatches"]
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["pass"] else 1


COMMANDS = {
    "orbits": cmd_orbits,
    "hasse": cmd_hasse,
    "chartable": cmd_chartable,
    "springer": cmd_springer,
    "branch": cmd_branch,
    "classify": cmd_classify,
    "repr": cmd_repr,
    "verify": cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
