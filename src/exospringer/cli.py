"""Command line entry point.

Subcommands: orbits, hasse, chartable, springer, branch, classify,
repr, verify.  Exit status: 0 success, 1 check failure (with a JSON
mismatch report), 2 usage error: argparse's message for a bad command
line, and after parsing one `error: ...` line on stderr for every other.
Output is byte-deterministic for fixed inputs; verify reports carry no
timings.  Outside input is validated here, at the edge; the per-rank
verify suites (RANK_SUITES) each return a list of mismatch reports.
"""

import argparse
import json
import sys

from . import bicomb, census, classify, hyperoct, springer
from .bicomb import bipartitions_of, format_bipartition, parse_bipartition
from .ffield import check_modulus
from .symplectic import ExoticPair, SymplecticSpace, normal_form_pair


# The largest --n of each symbolic command: the largest n whose cold run
# took under 5 s in every measurement (2-vCPU VM, Python 3.11.7); one
# rank more takes 1.3-3.6x as long.  The census suites have census's gate.
SYMBOLIC_MAX_N = {
    "orbits": 24, "hasse": 12, "chartable": 13, "springer": 12, "branch": 10,
    "verify --suite restriction": 10, "verify --suite determine": 10,
    "verify --suite d-diff": 18, "verify --suite sum-squares": 21,
}


def _gate(args):
    """Refuse an --n past the command's ceiling, before any table is built."""
    name = args.command
    if name == "verify":
        name += " --suite " + args.suite
    ceiling = SYMBOLIC_MAX_N.get(name)
    if ceiling is not None and args.n > ceiling:
        raise ValueError("%s is gated to n <= %d (got n=%d)"
                         % (name, ceiling, args.n))


def _rank(text):
    """The --n value: every subcommand needs rank n >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % n)
    return n


def _add_common(sub, fmt=None):
    sub.add_argument("--n", type=_rank, required=True)
    if fmt:
        sub.add_argument("--format", choices=fmt, default=fmt[0])


def _add_springer(sub):
    _add_common(sub, fmt=("json", "tsv"))
    sub.add_argument("--census-p", type=int, default=None,
                     help="join exact point counts over F_p (census gates apply)")


def _add_classify(sub):
    sub.add_argument("--input", required=True,
                     help="path to ExoticPair JSON, or - for stdin")


def _add_repr(sub):
    _add_common(sub)
    sub.add_argument("--p", type=int, default=3)
    sub.add_argument("--label", required=True, help="bipartition, e.g. '2,1|1'")


# suite -> (lowest rank, the springer check run on each rank up to --n)
RANK_SUITES = {"restriction": (1, "verify_restriction"),
               "d-diff": (2, "d_difference_check"),
               "sum-squares": (1, "sum_squares_check")}


def _add_verify(sub):
    sub.add_argument("--suite", required=True,
                     choices=(*RANK_SUITES, "determine", "census", "klyachko"))
    sub.add_argument("--n", type=_rank, required=True)
    sub.add_argument("--p", type=int, default=3)
    sub.add_argument("--flavor", choices=("lie", "group"), default="lie")
    # Serial only: perfbench/workloads.py passes --jobs 1 to every census
    # item, so the flag stays, hidden, until the benchmark stops passing it.
    sub.add_argument("--jobs", type=int, choices=(1,), default=1,
                     help=argparse.SUPPRESS)
    sub.add_argument("--check-orbits", action="store_true")
    sub.add_argument("--seed", type=int, default=0,
                     help="census only: move each line's vector by a seeded "
                          "symplectic g; equal counts show labels constant on "
                          "lines (--check-orbits tests invariance)")


def build_parser(command=None):
    """The CLI parser with every subcommand, or with only `command`'s.

    A narrowed parser's usage line still lists every subcommand, so it
    prints the same help and errors as the full one.
    """
    listed = None
    if command is not None:
        listed = "{%s}" % ",".join(COMMANDS)
    ap = argparse.ArgumentParser(
        prog="exospringer",
        description="Orbit tables, hyperoctahedral characters and "
                    "finite-field censuses for the exotic nilpotent cone.")
    subs = ap.add_subparsers(dest="command", required=True, metavar=listed)
    for name, (text, add_arguments, _) in COMMANDS.items():
        if command in (None, name):
            add_arguments(subs.add_parser(name, help=text))
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
        raise ValueError("branch needs --n >= 2")
    matrix = hyperoct.restrict_branching(args.n)
    ups = bipartitions_of(args.n)
    downs = bipartitions_of(args.n - 1)
    # each row of the matrix is keyed in bipartitions_of(n - 1) order
    if args.format == "json":
        payload = {str(up): {str(dn): mult for dn, mult in matrix[up].items()
                             if mult} for up in ups}
        sys.stdout.write(json.dumps({"n": args.n, "branching": payload},
                                    indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\t".join(["up\\down"] + [str(d) for d in downs]) + "\n")
        for up in ups:
            sys.stdout.write("\t".join([str(up)] + [str(mult) for mult
                                                    in matrix[up].values()]) + "\n")
    return 0


def cmd_classify(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("classify --input %s is not JSON: %s"
                         % (args.input, exc)) from None
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
    label = parse_bipartition(args.label)
    # before SymplecticSpace, so a huge --n builds no 2n x 2n matrix
    bicomb.check_rank(label, args.n)
    check_modulus(args.p)
    space = SymplecticSpace(args.n, args.p)
    nf = normal_form_pair(label, space)
    sys.stdout.write(json.dumps(nf.pair.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args):
    report = {"suite": args.suite, "n": args.n, "mismatches": []}
    if args.suite in RANK_SUITES:
        low, check = RANK_SUITES[args.suite]
        if args.n < low:
            raise ValueError("verify --suite %s needs --n >= %d" % (args.suite, low))
        for n in range(low, args.n + 1):
            # looked up at call time, so a replaced check is the one run
            report["mismatches"] += getattr(springer, check)(n)
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
            for name in ("orbit_stabilizer_ok", "transitive"):
                if not chk[name]:
                    report["mismatches"].append(
                        {"check": "census-orbit", "n": args.n,
                         "instance": "%s %s" % (chk["label"], name),
                         "expected": True, "got": chk})
    elif args.suite == "klyachko":
        report["p"] = args.p
        kres = census.klyachko_census(args.n, args.p)
        report["klyachko"] = kres
        for name, expected, got in (
                ("count_matches", kres["gl_class_count"], kres["orbit_count"]),
                ("every_orbit_hit_by_embedding", True, False)):
            if not kres[name]:
                report["mismatches"].append(
                    {"check": "klyachko", "n": args.n, "instance": name,
                     "expected": expected, "got": got})
    report["pass"] = not report["mismatches"]
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["pass"] else 1


# Each subcommand once, in help order: name -> (help, add arguments, handler).
COMMANDS = {
    "orbits": ("orbit labels with dimensions",
               lambda sub: _add_common(sub, fmt=("tsv", "json")), cmd_orbits),
    "hasse": ("closure-order Hasse diagram",
              lambda sub: _add_common(sub, fmt=("dot", "tsv", "json")), cmd_hasse),
    "chartable": ("W_n character table",
                  lambda sub: _add_common(sub, fmt=("tsv", "json")), cmd_chartable),
    "springer": ("the full Springer table", _add_springer, cmd_springer),
    "branch": ("branching matrix W_n down to W_{n-1}",
               lambda sub: _add_common(sub, fmt=("tsv", "json")), cmd_branch),
    "classify": ("classify an exotic pair from JSON", _add_classify, cmd_classify),
    "repr": ("normal-form representative of a label", _add_repr, cmd_repr),
    "verify": ("run a verification suite", _add_verify, cmd_verify),
}


def _join_label(argv):
    """argv with each '--label VALUE' joined as '--label=VALUE': a label
    with an empty first component, such as '-|3', starts with '-', and
    argparse reads a separate value that starts with '-' as an option."""
    out, rest = [], list(argv)
    while rest:
        arg = rest.pop(0)
        if arg == "--label" and rest:
            arg += "=" + rest.pop(0)
        out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(_join_label(argv))
    try:
        _gate(args)
        return COMMANDS[args.command][2](args)
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
