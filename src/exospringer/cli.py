"""Command line entry point.

Subcommands: orbits, hasse, chartable, springer, branch, classify,
repr, verify.  Each handler returns (stdout text, exit status) and
writes nothing; `main` writes the text once, so an error leaves stdout
empty.  Exit status: 0 success, 1 check failure (with a JSON mismatch
report), 2 usage error: argparse's message for a bad command line, and
after parsing one `error: ...` line on stderr for a ValueError or
OSError, which bad outside input raises; any other error propagates.
Output is byte-deterministic for fixed inputs; verify reports carry no
timings.  JSON output has the same bytes as json.dumps(obj, indent=2,
sort_keys=True): `_json` writes the indented layout and the ints, and
json's C encoder every key and other scalar.  Outside input is
validated here, at the edge; the per-rank verify suites (RANK_SUITES)
each return a list of mismatch reports.
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
    "orbits": 24, "hasse": 15, "chartable": 14, "springer": 15, "branch": 11,
    "verify --suite restriction": 11, "verify --suite determine": 11,
    "verify --suite d-diff": 18, "verify --suite sum-squares": 21,
}
# repr's ceiling by the same rule; its normal-form checks and its JSON
# output cost about n^2.
REPR_MAX_N = 850


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


# verify's flags that some suites never read: dest -> (the suites, default)
SUITE_FLAGS = {"p": (("census", "klyachko"), 3), "flavor": (("census",), "lie"),
               "check_orbits": (("census",), False), "seed": (("census",), 0)}


def _add_verify(sub):
    sub.add_argument("--suite", required=True,
                     choices=(*RANK_SUITES, "determine", "census", "klyachko"))
    sub.add_argument("--n", type=_rank, required=True)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--flavor", choices=("lie", "group"), default=None)
    # Serial only: perfbench/workloads.py passes --jobs 1 to every census
    # item, so the flag stays, hidden, until the benchmark stops passing it.
    sub.add_argument("--jobs", type=int, choices=(1,), default=1,
                     help=argparse.SUPPRESS)
    sub.add_argument("--check-orbits", action="store_true", default=None)
    sub.add_argument("--seed", type=int, default=None,
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


# json's C encoder, which `indent` turns off in json.dumps
_scalar = json.JSONEncoder().encode


def _json(obj):
    """`obj` as JSON text: sorted keys, indent 2, final newline.

    The same bytes as json.dumps(obj, indent=2, sort_keys=True) + "\\n",
    without its pure-Python encoder: the indented layout of dicts, lists
    and tuples is written here, exact ints (not bools) by str as json
    writes them, and every key and other scalar by json's C encoder.  A
    key that is not a str raises TypeError, where json.dumps would
    convert it.
    """
    return _layout(obj, "\n") + "\n"


def _layout(obj, newline):
    """JSON text of `obj`, whose lines after the first start with
    `newline` (a newline and the enclosing indent)."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, not %s"
                                % type(key).__name__)
        keys = sorted(obj)
        texts = _texts([obj[key] for key in keys], inner)
        body = [_scalar(key) + ": " + text for key, text in zip(keys, texts)]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _texts(obj, inner)
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    return _scalar(obj)


def _texts(items, newline):
    """The JSON text of each item: a list of exact ints is one map(str),
    and an exact int or a str in any other list costs no call of
    _layout."""
    if all(type(x) is int for x in items):
        return map(str, items)
    return [str(x) if type(x) is int else _scalar(x) if type(x) is str
            else _layout(x, newline) for x in items]


def _tsv(rows):
    """One line per row: the str of each field, tab-joined."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def cmd_orbits(args):
    n = args.n
    rows = [(format_bipartition(b), bicomb.orbit_dim(b, n),
             bicomb.fiber_dim_d(b, n)) for b in bipartitions_of(n)]
    if args.format == "tsv":
        return _tsv(rows), 0
    return _json({"n": n, "orbits": [
        {"label": lab, "dim": d, "d": dd} for lab, d, dd in rows]}), 0


def cmd_hasse(args):
    rows = [(format_bipartition(a), format_bipartition(b))
            for a, b in bicomb.hasse_covers(args.n)]
    if args.format == "tsv":
        return _tsv(rows), 0
    if args.format == "json":
        return _json({"n": args.n, "covers": rows}), 0
    # DOT: each label ranked by its orbit dimension, each cover upper -> lower
    lines = ['  "%s" [rank=%d];' % (format_bipartition(b), bicomb.orbit_dim(b, args.n))
             for b in bipartitions_of(args.n)]
    lines += ['  "%s" -> "%s";' % (upper, lower) for lower, upper in rows]
    return "\n".join(["digraph hasse {", *lines, "}"]) + "\n", 0


def cmd_chartable(args):
    table = hyperoct.CharacterTable(args.n)
    if args.format == "json":
        return _json(table.to_json()), 0
    header = ["irrep\\class"] + [c.signature for c in table.classes]
    return _tsv([header] + [[label, *row] for label, row
                            in zip(table.rows, table.values)]), 0


def cmd_springer(args):
    rows = springer.springer_table(args.n)
    if args.census_p is not None:
        counts = census.orbit_census(args.n, args.census_p).label_counts
        for row in rows:
            row["census_count"] = counts[row["label"]]
    if args.format == "json":
        return _json({"n": args.n, "rows": rows}), 0
    extra = () if args.census_p is None else ("census_count",)
    header = ("label", "dim", "d", "irrep", "irrep_dim", "covers", *extra)
    return _tsv([header] + [
        (r["label"], r["dim_orbit"], r["d"], r["irrep"], r["irrep_dim"],
         ",".join(r["covers"]), *(r[key] for key in extra)) for r in rows]), 0


def cmd_branch(args):
    if args.n < 2:
        raise ValueError("branch needs --n >= 2")
    matrix = hyperoct.restrict_branching(args.n)
    ups = bipartitions_of(args.n)
    # each row of the matrix is keyed in bipartitions_of(n - 1) order
    if args.format == "json":
        payload = {str(up): {str(dn): mult for dn, mult in matrix[up].items()
                             if mult} for up in ups}
        return _json({"n": args.n, "branching": payload}), 0
    header = ["up\\down", *bipartitions_of(args.n - 1)]
    return _tsv([header] + [[up, *matrix[up].values()] for up in ups]), 0


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
    except RecursionError:
        raise ValueError("classify --input %s is nested too deeply"
                         % args.input) from None
    pair = ExoticPair.from_json(obj)
    label, stab_dim = classify.label_and_stabilizer_dim(pair)
    n = pair.space.n
    return _json({"label": format_bipartition(label),
                  "dim_orbit": bicomb.orbit_dim(label, n),
                  "d": bicomb.fiber_dim_d(label, n),
                  "stab_dim": stab_dim}), 0


def cmd_repr(args):
    label = parse_bipartition(args.label)
    # before SymplecticSpace, so a huge --n builds no 2n x 2n matrix
    bicomb.check_rank(label, args.n)
    if args.n > REPR_MAX_N:
        raise ValueError("repr is gated to n <= %d (got n=%d)"
                         % (REPR_MAX_N, args.n))
    check_modulus(args.p)
    space = SymplecticSpace(args.n, args.p)
    return _json(normal_form_pair(label, space).pair.to_json()), 0


def _fill_suite_flags(args):
    """Default each unset SUITE_FLAGS flag; refuse one its suite never reads."""
    unread = []
    for dest, (suites, default) in SUITE_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.suite not in suites:
            unread.append("--" + dest.replace("_", "-"))
    if unread:
        raise ValueError("verify --suite %s does not read %s"
                         % (args.suite, ", ".join(unread)))


def cmd_verify(args):
    _fill_suite_flags(args)
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
            report["mismatches"].append(springer.mismatch(
                "determine", args.n, "bijection", "unique identity", str(exc)))
    elif args.suite == "census":
        report["p"] = args.p
        result = census.orbit_census(
            args.n, args.p, flavor=args.flavor,
            check_orbits=args.check_orbits, basis_seed=args.seed)
        report["census"] = result.to_json()
        # cone x V has p^(2n^2) points: p^(2n^2 - 2n) cone x, p^(2n) vectors
        labels = sorted(map(format_bipartition, bipartitions_of(args.n)))
        for instance, expected, got in (
                ("labels", labels, sorted(result.label_counts)),
                ("total points", args.p ** (2 * args.n ** 2),
                 sum(result.label_counts.values()))):
            if got != expected:
                report["mismatches"].append(springer.mismatch(
                    "census", args.n, instance, expected, got))
        for chk in result.orbit_checks:
            for name in ("orbit_stabilizer_ok", "transitive"):
                if not chk[name]:
                    report["mismatches"].append(springer.mismatch(
                        "census-orbit", args.n, "%s %s" % (chk["label"], name),
                        True, chk))
    elif args.suite == "klyachko":
        report["p"] = args.p
        kres = census.klyachko_census(args.n, args.p)
        report["klyachko"] = kres
        for name, expected, got in (
                ("count_matches", kres["gl_class_count"], kres["orbit_count"]),
                ("every_orbit_hit_by_embedding", True, False)):
            if not kres[name]:
                report["mismatches"].append(springer.mismatch(
                    "klyachko", args.n, name, expected, got))
    report["pass"] = not report["mismatches"]
    return _json(report), 0 if report["pass"] else 1


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
        text, status = COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
