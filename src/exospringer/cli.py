"""Command line entry point.

Subcommands: orbits, hasse, chartable, springer, branch, classify,
repr, verify, each one entry of COMMANDS.  `main` parses a command line
that starts with a known command with that command's parser alone, as
the full parser's subparsers action would, and builds the full parser
only for any other command line.  Each handler returns (stdout text,
exit status) and writes nothing; `main` writes the text once, so an
error leaves stdout empty.  Exit status: 0 success, 1 check failure
(with a JSON mismatch report), 2 usage error: argparse's message for a
bad command line, and after parsing one `error: ...` line on stderr
for a ValueError or OSError, which bad outside input raises; any other
error propagates.
Output is byte-deterministic for fixed inputs; verify reports carry no
timings.  JSON output has the same bytes as json.dumps(obj, indent=2,
sort_keys=True): `_json` writes the indented layout and the ints, and
json's C encoder every key and other scalar.  Outside input is
validated here, at the edge.  Each verify suite is one entry of
VERIFY_SUITES: its --n range, the suite flags it reads and its run.
"""

import argparse
import json
import sys

from . import bicomb, census, classify, hyperoct, springer
from .bicomb import bipartitions_of, format_bipartition, parse_bipartition
from .ffield import check_modulus, json_fields
from .symplectic import ExoticPair, SymplecticSpace, normal_form_pair


# The largest --n of each symbolic command (a verify suite's is in its
# VERIFY_SUITES entry): the largest n whose cold run took under 5 s in
# every measurement (2-vCPU VM, Python 3.11.7); n + 1 took 1.3-3.6x as long.
SYMBOLIC_MAX_N = {"orbits": 24, "hasse": 15, "chartable": 14, "springer": 15,
                  "branch": 11}
# repr's ceiling by the same rule; its normal-form checks and its JSON
# output cost about n^2.
REPR_MAX_N = 850
# classify's ceiling by the same rule, on repr's normal form of n|- (at
# p = 3 and 2^31 - 1, and moved by a seeded g), whose nilpotent part has
# the largest index, n; checked on the JSON's n before any matrix is built.
# About half its time is packed products: the n r x 2n ones of the Jordan
# chains' power kernels and the 2n x 2n ones of validation's squaring
# chain; the rest is the kernels' reductions and validation's entry-by-
# entry readout.  p = 2^31 - 1 moved is the slowest case: its product
# digits take 9 bytes.
CLASSIFY_MAX_N = 128


def _gate(args):
    """Refuse an --n past the command's ceiling, before any table is built."""
    name, ceiling = args.command, SYMBOLIC_MAX_N.get(args.command)
    if name == "verify":
        name = "verify --suite %s" % args.suite
        ceiling = VERIFY_SUITES[args.suite][1]
    if ceiling is not None and args.n > ceiling:
        raise ValueError("%s is gated to n <= %d (got n=%d)"
                         % (name, ceiling, args.n))


def _int(text):
    """int(text) for an optional '-' and ASCII digits; int() alone also
    reads full-width digits, '_' and spaces.  Named int, so that argparse
    refuses anything else as it refuses a bad int: 'invalid int value'."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"


def _rank(text):
    """The --n value: every subcommand needs rank n >= 1."""
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % n)
    return n


def _add_common(sub, fmt=None):
    sub.add_argument("--n", type=_rank, required=True)
    if fmt:
        sub.add_argument("--format", choices=fmt, default=fmt[0])


def _add_springer(sub):
    _add_common(sub, fmt=("json", "tsv"))
    sub.add_argument("--census-p", type=_int, default=None,
                     help="join exact point counts over F_p (census gates apply)")


def _add_classify(sub):
    sub.add_argument("--input", required=True,
                     help="path to ExoticPair JSON, or - for stdin")


def _add_repr(sub):
    _add_common(sub)
    sub.add_argument("--p", type=_int, default=3)
    sub.add_argument("--label", required=True, help="bipartition, e.g. '2,1|1'")


# verify's flags that only some suites read: dest -> default
SUITE_FLAGS = {"p": 3, "flavor": "lie", "check_orbits": False, "seed": 0}


def _add_verify(sub):
    sub.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    sub.add_argument("--n", type=_rank, required=True)
    sub.add_argument("--p", type=_int, default=None)
    sub.add_argument("--flavor", choices=("lie", "group"), default=None)
    # Serial only: perfbench/workloads.py passes --jobs 1 to every census
    # item, so the flag stays, hidden, until the benchmark stops passing it.
    sub.add_argument("--jobs", type=_int, choices=(1,), default=1,
                     help=argparse.SUPPRESS)
    sub.add_argument("--check-orbits", action="store_true", default=None)
    sub.add_argument("--seed", type=_int, default=None,
                     help="census only: move each line's vector by a seeded "
                          "symplectic g; equal counts show labels constant on "
                          "lines (--check-orbits tests invariance)")


def build_parser():
    """The CLI parser with every subcommand; `_parse` builds it only for a
    command line that no one command's parser reads to its end."""
    ap = argparse.ArgumentParser(
        prog="exospringer",
        description="Orbit tables, hyperoctahedral characters and "
                    "finite-field censuses for the exotic nilpotent cone.")
    subs = ap.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, _) in COMMANDS.items():
        add_arguments(subs.add_parser(name, help=text))
    return ap


def _command_parser(name):
    """`name`'s parser alone: the one `build_parser` gives that subcommand,
    with its prog, 'exospringer <name>'."""
    sub = argparse.ArgumentParser(prog="exospringer " + name)
    COMMANDS[name][1](sub)
    return sub


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
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError("classify --input %s is not %s text: %s at byte %d"
                         % (args.input, exc.encoding, exc.reason, exc.start)
                         ) from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("classify --input %s is not JSON: %s"
                         % (args.input, exc)) from None
    except ValueError:
        # the one other ValueError of json.loads: int()'s digit limit
        raise ValueError("classify --input %s has an integer of more than "
                         "%d digits" % (args.input,
                                        sys.get_int_max_str_digits())
                         ) from None
    except RecursionError:
        raise ValueError("classify --input %s is nested too deeply"
                         % args.input) from None
    # json_fields reads n first, as `ExoticPair.from_json` does, so a bad
    # n gets the same error; a large one is refused before any matrix
    [n] = json_fields(obj, {"n": int}, "exotic pair")
    if n > CLASSIFY_MAX_N:
        raise ValueError("classify is gated to n <= %d (got n=%d)"
                         % (CLASSIFY_MAX_N, n))
    pair = ExoticPair.from_json(obj)
    label, stab_dim = classify.label_and_stabilizer_dim(pair)
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


def _each_rank(check):
    """A suite's run of springer's `check` on each rank from its lowest to
    --n, looked up at call time so that a replaced check is the one run."""
    return lambda args, low: ({}, [record for n in range(low, args.n + 1)
                                   for record in getattr(springer, check)(n)])


def _determine(args, low):
    try:
        springer.determine_correspondence(args.n)
    except springer.AmbiguousAssignmentError as exc:
        return {}, [springer.mismatch("determine", args.n, "bijection",
                                      "unique identity", str(exc))]
    return {}, []


def _census(args, low):
    result = census.orbit_census(args.n, args.p, args.flavor,
                                 args.check_orbits, args.seed)
    # cone x V has p^(2n^2) points: p^(2n^2 - 2n) cone x, p^(2n) vectors
    labels = sorted(map(format_bipartition, bipartitions_of(args.n)))
    records = [springer.mismatch("census", args.n, instance, expected, got)
               for instance, expected, got in (
                   ("labels", labels, sorted(result.label_counts)),
                   ("total points", args.p ** (2 * args.n ** 2),
                    sum(result.label_counts.values())))
               if got != expected]
    records += [springer.mismatch("census-orbit", args.n,
                                  "%s %s" % (chk["label"], name), True, chk)
                for chk in result.orbit_checks
                for name in ("orbit_stabilizer_ok", "transitive")
                if not chk[name]]
    return {"p": args.p, "census": result.to_json()}, records


def _klyachko(args, low):
    kres = census.klyachko_census(args.n, args.p)
    return {"p": args.p, "klyachko": kres}, [
        springer.mismatch("klyachko", args.n, name, expected, got)
        for name, expected, got in (
            ("count_matches", kres["gl_class_count"], kres["orbit_count"]),
            ("every_orbit_hit_by_embedding", True, False)) if not kres[name]]


# Each verify suite once, in --suite order: name -> (lowest --n, ceiling
# or None where census gates it, the SUITE_FLAGS it reads, run(args,
# lowest n) -> (report fields, mismatch records)).
VERIFY_SUITES = {
    "restriction": (1, 11, (), _each_rank("verify_restriction")),
    "d-diff": (2, 18, (), _each_rank("d_difference_check")),
    "sum-squares": (1, 21, (), _each_rank("sum_squares_check")),
    "determine": (1, 11, (), _determine),
    "census": (1, None, ("p", "flavor", "check_orbits", "seed"), _census),
    "klyachko": (1, None, ("p",), _klyachko),
}


def cmd_verify(args):
    low, _, reads, run = VERIFY_SUITES[args.suite]
    unread = ", ".join("--" + dest.replace("_", "-") for dest in SUITE_FLAGS
                       if dest not in reads and getattr(args, dest) is not None)
    if unread:
        raise ValueError("verify --suite %s does not read %s"
                         % (args.suite, unread))
    for dest, default in SUITE_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if args.n < low:
        raise ValueError("verify --suite %s needs --n >= %d" % (args.suite, low))
    fields, mismatches = run(args, low)
    return _json({"suite": args.suite, "n": args.n, "mismatches": mismatches,
                  "pass": not mismatches, **fields}), 1 if mismatches else 0


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


def _parse(argv):
    """The Namespace of argv, as the full parser reads it.  Its subparsers
    action hands the arguments after a command name to that command's
    parser, `parse_known_args(rest, None)`, and sets `command`; so a
    known command is parsed that way here.  The full parser is built only
    when there is no known command or arguments are left over, and it
    gives argparse's own error."""
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(_join_label(argv))
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
