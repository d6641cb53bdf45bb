import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from exospringer import cli
from exospringer.cli import main

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def validate(obj, schema_name, schema=None):
    """Validate obj against docs/<schema_name>, or against `schema` (an
    edited copy of it) where one is given."""
    from jsonschema import validators
    from referencing import Registry, Resource
    schema = schema or json.loads((DOCS / schema_name).read_text())
    registry = Registry()
    for f in DOCS.glob("*.schema.json"):
        resource = Resource.from_contents(json.loads(f.read_text()))
        registry = registry.with_resource(uri=f.name, resource=resource)
    cls = validators.validator_for(schema)
    cls(schema, registry=registry).validate(obj)


def test_orbits_tsv_frozen(capsys):
    code, out = run(capsys, "orbits", "--n", "2", "--format", "tsv")
    assert code == 0
    assert out == ("2|-\t8\t0\n"
                   "1|1\t6\t1\n"
                   "1,1|-\t4\t2\n"
                   "-|2\t4\t2\n"
                   "-|1,1\t0\t4\n")


def test_output_bytes_deterministic(capsys):
    _, first = run(capsys, "springer", "--n", "3", "--format", "json")
    _, second = run(capsys, "springer", "--n", "3", "--format", "json")
    assert first == second
    parsed = json.loads(first)
    assert parsed["n"] == 3 and len(parsed["rows"]) == 10
    # emitted JSON re-parses to the in-memory structure
    from exospringer.springer import springer_table
    assert parsed == {"n": 3, "rows": springer_table(3)}
    # verify reports too: no wall-clock field
    argv = ("verify", "--suite", "census", "--n", "1", "--p", "3", "--seed", "5")
    code, first = run(capsys, *argv)
    assert code == 0
    _, second = run(capsys, *argv)
    assert first == second
    assert "elapsed_s" not in json.loads(first)


def test_repr_classify_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "repr", "--n", "2", "--label", "1|1", "--p", "3")
    assert code == 0
    pair_obj = json.loads(out)
    validate(pair_obj, "exotic_pair.schema.json")
    validate(pair_obj["x"], "matrix.schema.json")
    path = tmp_path / "pair.json"
    path.write_text(out)
    code, out = run(capsys, "classify", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"label": "1|1", "dim_orbit": 6, "d": 1,
                               "stab_dim": 4}


def test_classify_checks_the_modulus_once_per_validated_object(
        monkeypatch, capsys):
    # at p = 2^31 - 1 a primality test is the dearest check on the classify
    # path: one for the matrix JSON, whose modulus the space shares, and
    # none for the space or the trusted matrices built from them
    from exospringer import ffield
    from exospringer.bicomb import parse_bipartition
    from exospringer.census import seeded_basis_change
    from exospringer.symplectic import ExoticPair, SymplecticSpace, \
        normal_form_pair
    p = 2**31 - 1
    space = SymplecticSpace(4, p)
    nf = normal_form_pair(parse_bipartition("2,1|1"), space)
    g = seeded_basis_change(space, 5)
    pair = ExoticPair(space, g * nf.pair.x * space.adjoint(g),
                      g.apply(nf.pair.v), "group")
    tested = []
    is_odd_prime = ffield.is_odd_prime

    def counted(q):
        tested.append(q)
        return is_odd_prime(q)

    monkeypatch.setattr(ffield, "is_odd_prime", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(pair.to_json())))
    code, out = run(capsys, "classify", "--input", "-")
    assert code == 0
    assert json.loads(out)["label"] == "2,1|1"
    assert tested == [p]


def test_classify_builds_the_jordan_chains_once_per_call(monkeypatch, capsys):
    # the label and the stabilizer dimension are both read off one chain
    # basis of the nilpotent part
    from exospringer import classify, ffield
    from exospringer.bicomb import parse_bipartition
    from exospringer.census import seeded_basis_change
    from exospringer.symplectic import ExoticPair, SymplecticSpace, \
        normal_form_pair
    built = []
    jordan_chains = ffield.jordan_chains

    def counted(n_mat):
        built.append(n_mat)
        return jordan_chains(n_mat)

    monkeypatch.setattr(ffield, "jordan_chains", counted)
    monkeypatch.setattr(classify, "jordan_chains", counted)
    space = SymplecticSpace(3, 5)
    for calls, (label, flavor) in enumerate(
            (("2|1", "group"), ("1|1,1", "lie"), ("-|3", "group")), start=1):
        nf = normal_form_pair(parse_bipartition(label), space)
        g = seeded_basis_change(space, calls)
        x = g * nf.pair.x * space.adjoint(g)
        pair = ExoticPair(space, x if flavor == "group" else x - space._one,
                          g.apply(nf.pair.v), flavor)
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(json.dumps(pair.to_json())))
        code, out = run(capsys, "classify", "--input", "-")
        assert code == 0
        assert json.loads(out)["label"] == label
        assert len(built) == calls
        assert built[-1] == pair.nilpotent_part()


def test_verify_sum_squares(capsys):
    code, out = run(capsys, "verify", "--suite", "sum-squares", "--n", "8")
    assert code == 0
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert report["pass"] is True and report["mismatches"] == []


def test_verify_exit_contract_with_injected_mismatch(monkeypatch, capsys):
    from exospringer import springer
    from exospringer.hyperoct import wn_order
    monkeypatch.setattr(springer, "sum_squares_check", lambda n: [
        {"check": "sum-squares", "n": n, "instance": "sum of squared dims",
         "expected": wn_order(n), "got": 0}])
    code, out = run(capsys, "verify", "--suite", "sum-squares", "--n", "2")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert report["pass"] is False
    assert [(m["check"], m["n"], m["expected"]) for m in report["mismatches"]] \
        == [("sum-squares", 1, 2), ("sum-squares", 2, 8)]


def test_verify_restriction_checks_rank_one(monkeypatch, capsys):
    # W_1 -> W_0 is a real restriction: --n 1 runs it rather than passing empty
    from exospringer import springer
    mismatch = {"check": "restriction", "n": 1, "instance": "1|- -> -|-",
                "expected": 1, "got": 0}
    monkeypatch.setattr(springer, "verify_restriction",
                        lambda n: [mismatch] if n == 1 else [])
    code, out = run(capsys, "verify", "--suite", "restriction", "--n", "1")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert report["pass"] is False and report["mismatches"] == [mismatch]


def test_verify_census_report(capsys):
    code, out = run(capsys, "verify", "--suite", "census", "--n", "1", "--p", "3",
                    "--check-orbits")
    assert code == 0
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    validate(report["census"], "census_result.schema.json")
    assert report["census"]["labels"] == {"-|1": 1, "1|-": 8}


def test_verify_klyachko_report(capsys):
    code, out = run(capsys, "verify", "--suite", "klyachko", "--n", "1", "--p", "5")
    assert code == 0
    assert json.loads(out)["klyachko"]["orbit_count"] == 4


def test_verify_klyachko_names_each_failed_check(monkeypatch, capsys):
    from exospringer import census
    klyachko_census = census.klyachko_census
    for broken, want in (
            ({"every_orbit_hit_by_embedding": False},
             [("every_orbit_hit_by_embedding", True, False)]),
            ({"count_matches": False, "orbit_count": 3},
             [("count_matches", 4, 3)]),
            ({"count_matches": False, "orbit_count": 3,
              "every_orbit_hit_by_embedding": False},
             [("count_matches", 4, 3),
              ("every_orbit_hit_by_embedding", True, False)])):
        monkeypatch.setattr(census, "klyachko_census",
                            lambda n, p, broken=broken:
                            {**klyachko_census(n, p), **broken})
        code, out = run(capsys, "verify", "--suite", "klyachko", "--n", "1",
                        "--p", "5")
        assert code == 1
        report = json.loads(out)
        validate(report, "verify_report.schema.json")
        assert [(m["check"], m["instance"], m["expected"], m["got"])
                for m in report["mismatches"]] \
            == [("klyachko",) + record for record in want]


def test_verify_census_orbit_names_each_failed_check(monkeypatch, capsys):
    from exospringer import census
    orbit_census = census.orbit_census
    for broken in (("orbit_stabilizer_ok",), ("transitive",),
                   ("orbit_stabilizer_ok", "transitive")):
        def failing(*args, broken=broken, **kwargs):
            result = orbit_census(*args, **kwargs)
            for name in broken:
                result.orbit_checks[0][name] = False
            return result

        monkeypatch.setattr(census, "orbit_census", failing)
        code, out = run(capsys, "verify", "--suite", "census", "--n", "1",
                        "--p", "3", "--check-orbits")
        assert code == 1
        report = json.loads(out)
        validate(report, "verify_report.schema.json")
        label = report["census"]["orbit_checks"][0]["label"]
        assert [(m["check"], m["instance"], m["expected"])
                for m in report["mismatches"]] \
            == [("census-orbit", "%s %s" % (label, name), True) for name in broken]
        assert all(m["got"]["label"] == label for m in report["mismatches"])


def test_verify_sum_squares_reports_the_actual_sum(monkeypatch, capsys):
    from exospringer import hyperoct
    from exospringer.bicomb import Bipartition
    irrep_dim = hyperoct.irrep_dim
    monkeypatch.setattr(hyperoct, "irrep_dim",
                        lambda b: irrep_dim(b) + (b == Bipartition((1,), ())))
    code, out = run(capsys, "verify", "--suite", "sum-squares", "--n", "3")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    # only rank 1 has the label 1|-: its dims become 2 and 1
    assert report["mismatches"] == [
        {"check": "sum-squares", "n": 1, "instance": "sum of squared dims",
         "expected": 2, "got": 5}]


def test_verify_determine_and_restriction(capsys):
    code, _ = run(capsys, "verify", "--suite", "determine", "--n", "4")
    assert code == 0
    code, _ = run(capsys, "verify", "--suite", "restriction", "--n", "4")
    assert code == 0
    code, _ = run(capsys, "verify", "--suite", "d-diff", "--n", "5")
    assert code == 0


def test_springer_with_census_counts(capsys):
    code, out = run(capsys, "springer", "--n", "1", "--format", "json",
                    "--census-p", "3")
    assert code == 0
    rows = {r["label"]: r for r in json.loads(out)["rows"]}
    assert rows["1|-"]["census_count"] == 8
    assert rows["-|1"]["census_count"] == 1


@pytest.mark.parametrize("n, p", [(1, 3), (1, 5), (2, 3)])
def test_springer_tsv_adds_the_census_counts_as_a_seventh_column(capsys, n, p):
    argv = ("springer", "--n", str(n), "--census-p", str(p), "--format")
    code, out = run(capsys, *argv, "json")
    assert code == 0
    want = {r["label"]: r["census_count"] for r in json.loads(out)["rows"]}
    code, out = run(capsys, *argv, "tsv")
    assert code == 0
    header, *lines = [line.split("\t") for line in out.splitlines()]
    assert header == ["label", "dim", "d", "irrep", "irrep_dim", "covers",
                      "census_count"]
    assert {line[0]: int(line[6]) for line in lines} == want
    assert len(lines) == len(want) and all(len(line) == 7 for line in lines)


def test_hasse_dot(capsys):
    code, out = run(capsys, "hasse", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and '"2|-" -> "1|1";' in out


def test_chartable_json(capsys):
    code, out = run(capsys, "chartable", "--n", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["values"][0][0] == 1
    assert len(obj["rows"]) == len(obj["cols"]) == 5
    from exospringer.hyperoct import CharacterTable
    assert obj == CharacterTable(2).to_json()


# what the CLI writes: str-keyed dicts, lists and tuples of ints (bools
# and ints past 2^64 too), None and non-ASCII strings, empty containers
JSON_INTS = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text() | JSON_INTS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(JSON_INTS) | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_has_the_bytes_of_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", ({1: 2}, {True: 0}, {"a": [{None: 1}]}))
def test_json_refuses_a_key_that_is_not_a_str(obj):
    # json.dumps would write the key 1 as "1" and True as "true"
    with pytest.raises(TypeError, match="keys must be str"):
        cli._json(obj)


def test_branch_tsv(capsys):
    code, out = run(capsys, "branch", "--n", "2", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("up\\down")
    assert len(lines) == 6


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    code, _ = run(capsys, "repr", "--n", "2", "--label", "3|-", "--p", "3")
    assert code == 2        # size mismatch
    code, _ = run(capsys, "repr", "--n", "1", "--label", "1|-", "--p", "9")
    assert code == 2        # composite modulus
    code, _ = run(capsys, "classify", "--input", "/nonexistent/file.json")
    assert code == 2
    # one --n rule: n >= 1 everywhere, n >= 2 for branch
    for argv in (["orbits", "--n", "0"], ["chartable", "--n", "0"],
                 ["verify", "--suite", "sum-squares", "--n", "0"],
                 ["springer", "--n", "0"], ["hasse", "--n", "-1"],
                 ["verify", "--suite", "determine", "--n", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --n: must be >= 1" in capsys.readouterr().err
    code, _ = run(capsys, "branch", "--n", "1")
    assert code == 2
    # d-diff compares rank n with rank n - 1 >= 1: no vacuous pass at n = 1
    code = main(["verify", "--suite", "d-diff", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--n >= 2" in captured.err
    # the census has no --checkpoint flag, and verify no failure hook
    for flag, extra in (("--checkpoint", ["f.json"]), ("--inject-failure", [])):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "census", "--n", "1", "--p", "3",
                  flag] + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err
    # the census is serial: --jobs accepts 1 only
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "census", "--n", "1", "--p", "3",
              "--jobs", "2"])
    assert exc.value.code == 2
    assert "argument --jobs: invalid choice: 2" in capsys.readouterr().err
    # integer flags take an optional '-' and ASCII digits, nothing else
    # that int() reads: full-width digits, '_', a sign '+' or spaces
    verify = ["verify", "--suite", "census", "--n", "1"]
    for argv, message in (
            (["orbits", "--n", "x"], "argument --n: invalid _rank value: 'x'"),
            (["orbits", "--n", "\uff13"],
             "argument --n: invalid _rank value: '\uff13'"),
            (["orbits", "--n", "1_0"], "argument --n: invalid _rank value: '1_0'"),
            (["orbits", "--n", " 2"], "argument --n: invalid _rank value: ' 2'"),
            (["repr", "--n", "1", "--label", "1|-", "--p", "x"],
             "argument --p: invalid int value: 'x'"),
            (["repr", "--n", "1", "--label", "1|-", "--p", "\uff13"],
             "argument --p: invalid int value: '\uff13'"),
            (verify + ["--p", "1_1"], "argument --p: invalid int value: '1_1'"),
            (["springer", "--n", "2", "--census-p", "+3"],
             "argument --census-p: invalid int value: '+3'"),
            (verify + ["--seed", "\uff11"],
             "argument --seed: invalid int value: '\uff11'"),
            (verify + ["--seed=-1_0"],
             "argument --seed: invalid int value: '-1_0'"),
            (verify + ["--jobs", "\uff11"],
             "argument --jobs: invalid int value: '\uff11'"),
            (verify + ["--jobs", " 1"],
             "argument --jobs: invalid int value: ' 1'"),
            (["verify", "--suite", "bogus", "--n", "1"],
             "argument --suite: invalid choice: 'bogus' (choose from "
             "'restriction', 'd-diff', 'sum-squares', 'determine', 'census', "
             "'klyachko')")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "exospringer %s: error: %s" % (argv[0], message), argv
    # a leading '-' is still read as a sign
    code, out = run(capsys, *verify, "--seed", "-3")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv", [
    ["branch", "--n", "1"],
    ["verify", "--suite", "d-diff", "--n", "1"],
    ["repr", "--n", "2", "--label", "3|-", "--p", "3"],
    ["chartable", "--n", "40"],
    ["classify", "--input", "/nonexistent.json"],
    # a flag the suite never reads
    ["verify", "--suite", "sum-squares", "--n", "2", "--p", "9"],
    ["verify", "--suite", "klyachko", "--n", "1", "--p", "3", "--flavor",
     "group", "--check-orbits", "--seed", "5"],
    ["verify", "--suite", "determine", "--n", "3", "--seed", "7",
     "--check-orbits"]])
def test_usage_errors_after_parsing_print_one_error_line(capsys, argv):
    # past argparse, every usage error takes main's one exit-2 path
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_verify_refuses_a_flag_its_suite_never_reads(capsys):
    for suite, flags, named in (
            ("sum-squares", ["--p", "9"], "--p"),
            ("klyachko", ["--flavor", "group", "--check-orbits", "--seed", "5"],
             "--flavor, --check-orbits, --seed"),
            ("determine", ["--seed", "7", "--check-orbits"],
             "--check-orbits, --seed")):
        code = main(["verify", "--suite", suite, "--n", "2", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: verify --suite %s does not read %s\n"
                                % (suite, named))
    # a suite that reads a flag still defaults it: --p 3
    code, out = run(capsys, "verify", "--suite", "klyachko", "--n", "1")
    assert code == 0 and json.loads(out)["p"] == 3


# one usage error per subcommand, each raised by a different argparse rule
USAGE_ERRORS = {
    "orbits": ["orbits", "--n", "0"],
    "hasse": ["hasse", "--n", "2", "--format", "svg"],
    "chartable": ["chartable"],
    "springer": ["springer", "--n", "x"],
    "branch": ["branch", "--n", "3", "--format"],
    "classify": ["classify", "--input", "-", "--bogus"],
    "repr": ["repr", "--n", "2"],
    "verify": ["verify", "--suite", "census", "--n", "0"],
}


def full_parser_main(argv):
    """main as it ran when every call built the full parser."""
    args = cli.build_parser().parse_args(cli._join_label(argv))
    try:
        cli._gate(args)
        text, status = cli.COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return status


def outcome(capsys, run, argv):
    """(exit code, stdout, stderr) of run(argv)."""
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a command line the command's parser reads, per command, to which the
# equivalence corpus adds one unrecognized trailing argument
READ_TO_THE_END = {
    "orbits": ["orbits", "--n", "1"],
    "hasse": ["hasse", "--n", "1", "--format", "tsv"],
    "chartable": ["chartable", "--n", "1"],
    "springer": ["springer", "--n", "1"],
    "branch": ["branch", "--n", "2"],
    "classify": ["classify", "--input", "-"],
    "repr": ["repr", "--n", "1", "--label", "1|-"],
    "verify": ["verify", "--suite", "sum-squares", "--n", "1"],
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS) + [None])
def test_main_prints_what_the_full_parser_does(monkeypatch, capsys, command):
    if command is None:
        corpus = [[], ["--help"], ["nonsense"]]
    else:
        corpus = [USAGE_ERRORS[command], [command, "--help"],
                  READ_TO_THE_END[command] + ["extra"]]
        if command == "repr":
            corpus.append(["repr", "--n", "3", "--p", "3", "--label", "-|3"])
    built = []
    full = cli.build_parser

    def recording():
        built.append(True)
        return full()

    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in corpus:
        expected = outcome(capsys, full_parser_main, argv)
        del built[:]
        assert outcome(capsys, main, argv) == expected, argv
        # the full parser is built only where a known command's own
        # parser leaves an argument over, which the full one then refuses
        left_over = "unrecognized arguments: " in expected[2]
        assert built == [True] * (command is None or left_over), argv
    # the top-level help still lists all eight subcommands
    if command is None:
        help_lines = outcome(capsys, main, ["--help"])[1].splitlines()
        assert len(cli.COMMANDS) == 8
        for name in cli.COMMANDS:
            assert any(line.split()[:1] == [name] for line in help_lines), name


def test_malformed_pair_json_names_the_missing_field(tmp_path, capsys):
    code, out = run(capsys, "repr", "--n", "1", "--label", "1|-", "--p", "3")
    pair = json.loads(out)
    for drop, where in (("n", None), ("flavor", None), ("entries", "x")):
        broken = json.loads(out)
        del (broken[where] if where else broken)[drop]
        path = tmp_path / ("no_%s.json" % drop)
        path.write_text(json.dumps(broken))
        code = main(["classify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "missing field %r" % drop in captured.err
    assert pair["n"] == 1


@pytest.mark.parametrize("where, field, value", [
    ("x", "entries", 5), (None, "v", 5), (None, "n", "a")])
def test_mistyped_pair_json_field_is_a_usage_error(capsys, where, field,
                                                   value):
    # a wrong JSON type is bad input (exit 2), not a crash with a traceback
    _, out = run(capsys, "repr", "--n", "1", "--label", "1|-", "--p", "3")
    pair = json.loads(out)
    (pair[where] if where else pair)[field] = value
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-m", "exospringer.cli", "classify",
                          "--input", "-"], input=json.dumps(pair),
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:")
    assert "field %r" % field in out.stderr
    assert "Traceback" not in out.stderr


def test_classify_input_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text("not json\n")
    code = main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: classify --input %s is not JSON: "
                                   % path)


@pytest.mark.parametrize("source", ("stdin", "file"))
def test_classify_input_nested_too_deeply_is_named(monkeypatch, tmp_path,
                                                   capsys, source):
    # json.loads raises RecursionError, not JSONDecodeError, on lists
    # nested 100,000 deep: a named usage error, not a traceback
    text = "[" * 100000 + "]" * 100000
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        where = "-"
    else:
        path = tmp_path / "deep.json"
        path.write_text(text)
        where = str(path)
    code = main(["classify", "--input", where])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        "error: classify --input %s is nested too deeply\n" % where


@pytest.mark.parametrize("label_args", (["--label", "-|3"], ["--label=-|3"]))
def test_repr_label_with_an_empty_first_component(capsys, label_args):
    from exospringer import classify
    from exospringer.bicomb import Bipartition
    from exospringer.symplectic import ExoticPair
    code, out = run(capsys, "repr", "--n", "3", "--p", "3", *label_args)
    assert code == 0
    pair = ExoticPair.from_json(json.loads(out))
    assert classify.exotic_type(pair) == Bipartition((), (3,))


def test_repr_label_with_a_non_integer_part_gets_the_grammar(capsys):
    code = main(["repr", "--n", "2", "--label", "2|x", "--p", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: bipartition must look like '2,1|1', "
                            "got '2|x'\n")


@pytest.mark.parametrize("label", ("1_0|-", "+1|-", "1|-0", "1|0", "\uff11|-"))
def test_repr_label_outside_the_grammar_gets_the_grammar(capsys, label):
    # int() reads each of these parts ("1_0" as 10, "+1", "-0" and "0",
    # and a full-width digit); the grammar takes only [1-9][0-9]*
    code = main(["repr", "--n", "1", "--label", label, "--p", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: bipartition must look like '2,1|1', "
                            "got %r\n" % label)


def test_huge_prime_modulus_is_a_quick_usage_error(capsys):
    # 2^61 - 1 is prime; it must be refused for its size, not trial-divided
    _, out = run(capsys, "repr", "--n", "1", "--label", "1|-", "--p", "3")
    pair = json.loads(out)
    pair["p"] = pair["x"]["p"] = 2**61 - 1
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for argv, stdin in (
            (["repr", "--n", "1", "--label", "1|-", "--p", str(2**61 - 1)], None),
            (["classify", "--input", "-"], json.dumps(pair))):
        out = subprocess.run([sys.executable, "-m", "exospringer.cli"] + argv,
                             input=stdin, capture_output=True, text=True,
                             timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: modulus too large: %d\n" % (2**61 - 1)


def test_repr_checks_the_label_size_before_building_the_space(capsys):
    # --n 100000 with a label of size 1 is refused before SymplecticSpace
    # builds its 200000 x 200000 J; the address-space cap turns a check
    # moved after it into a quick MemoryError, not a huge allocation
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "exospringer.cli", "repr", "--n", "100000",
         "--label", "1|-", "--p", "3"], capture_output=True, text=True,
        timeout=60, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert time.perf_counter() - start < 2
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: |label| = 1 but n = 100000\n"
    # the label is checked first, so a bad --p as well is not the one named
    for p in ("3", "9"):
        code = main(["repr", "--n", "2", "--label", "3|-", "--p", p])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: |label| = 3 but n = 2\n"


def test_cli_import_starts_no_process_pool():
    # the census is serial, so the CLI's import graph holds no
    # multiprocessing; and no record class, so no dataclasses (which
    # imports inspect) on the cold start
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "import exospringer.cli\n"
            "print([m for m in ('multiprocessing', 'dataclasses', 'inspect')\n"
            "       if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_census_check_orbits_past_n2_is_gated(monkeypatch, capsys):
    from exospringer import census

    def no_enumeration(*args):
        raise RuntimeError("enumeration started past the size gate")

    monkeypatch.setattr(census, "_census_chunk", no_enumeration)
    code = main(["verify", "--suite", "census", "--n", "3", "--p", "3",
                 "--check-orbits"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "census is gated to n <= 2" in captured.err


def test_symbolic_commands_are_gated_before_any_table(monkeypatch, capsys):
    from exospringer import bicomb, cli, hyperoct, springer

    def no_table(*args):
        raise RuntimeError("a table was built past the size gate")

    for module, name in ((hyperoct, "CharacterTable"),
                         (hyperoct, "restrict_branching"),
                         (bicomb, "hasse_covers"), (cli, "bipartitions_of"),
                         (springer, "springer_table"),
                         (springer, "verify_restriction"),
                         (springer, "determine_correspondence"),
                         (springer, "d_difference_check"),
                         (springer, "sum_squares_check")):
        monkeypatch.setattr(module, name, no_table)
    t0 = time.perf_counter()
    assert main(["chartable", "--n", "40"]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == \
        "error: chartable is gated to n <= 14 (got n=40)\n"
    # every ceiling: each command's, and each verify suite's but census's
    gated = [([name], ceiling) for name, ceiling in cli.SYMBOLIC_MAX_N.items()]
    gated += [(["verify", "--suite", suite], ceiling)
              for suite, (_, ceiling, _, _) in cli.VERIFY_SUITES.items()
              if ceiling is not None]
    assert len(gated) == 9
    for command, ceiling in gated:
        code = main(command + ["--n", str(ceiling + 1)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: %s is gated to n <= %d (got n=%d)\n" \
            % (" ".join(command), ceiling, ceiling + 1)
    # every size the benchmark runs stays under its ceiling
    assert min(ceiling for _, ceiling in gated) >= 8


def test_a_suite_added_to_the_table_needs_nothing_else(monkeypatch, capsys):
    # floor 2, ceiling 3, reads --p: one entry, and no other edit
    calls = []

    def run_extra(args, low):
        calls.append((args.n, low, args.p))
        return {"p": args.p}, []

    monkeypatch.setitem(cli.VERIFY_SUITES, "extra", (2, 3, ("p",), run_extra))
    help_text = outcome(capsys, main, ["verify", "--help"])[1]
    assert "{restriction,d-diff,sum-squares,determine,census,klyachko,extra}" \
        in help_text
    code, out = run(capsys, "verify", "--suite", "extra", "--n", "3")
    report = json.loads(out)
    assert code == 0 and calls == [(3, 2, 3)]
    assert report == {"suite": "extra", "n": 3, "p": 3, "mismatches": [],
                      "pass": True}
    schema = json.loads((DOCS / "verify_report.schema.json").read_text())
    schema["properties"]["suite"]["enum"].append("extra")
    validate(report, "verify_report.schema.json", schema)
    for flags, message in (
            (["--n", "4"], "is gated to n <= 3 (got n=4)"),
            (["--n", "1"], "needs --n >= 2"),
            (["--n", "2", "--seed", "1"], "does not read --seed")):
        code = main(["verify", "--suite", "extra", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: verify --suite extra %s\n" % message
    assert len(calls) == 1


def test_report_schema_lists_every_suite_in_table_order():
    schema = json.loads((DOCS / "verify_report.schema.json").read_text())
    assert schema["properties"]["suite"]["enum"] == list(cli.VERIFY_SUITES)


def test_orbits_json(capsys):
    code, out = run(capsys, "orbits", "--n", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["orbits"] == [{"label": "1|-", "dim": 2, "d": 0},
                             {"label": "-|1", "dim": 0, "d": 1}]


@pytest.mark.parametrize("argv", [
    ["orbits", "--n", "3", "--format", "json"],
    ["hasse", "--n", "3", "--format", "tsv"],
    ["chartable", "--n", "3"],
    ["springer", "--n", "3", "--format", "tsv"],
    ["branch", "--n", "3", "--format", "json"],
    ["classify", "--input", "PAIR"],
    ["repr", "--n", "2", "--label", "1|1", "--p", "3"],
    ["verify", "--suite", "census", "--n", "1", "--p", "3"]])
def test_handlers_return_their_text_and_main_writes_it(tmp_path, capsys, argv):
    path = tmp_path / "pair.json"
    main(["repr", "--n", "2", "--label", "2|-", "--p", "5"])
    path.write_text(capsys.readouterr().out)
    argv = [str(path) if arg == "PAIR" else arg for arg in argv]
    args = cli.build_parser().parse_args(argv)
    text, status = cli.COMMANDS[argv[0]][2](args)
    assert type(text) is str and type(status) is int
    assert capsys.readouterr().out == ""
    assert (main(argv), capsys.readouterr().out) == (status, text)
    assert status == 0 and text.endswith("\n")


def test_an_error_midway_through_a_table_leaves_stdout_empty(
        monkeypatch, capsys):
    calls = []

    def third_call_fails(label):
        calls.append(label)
        if len(calls) == 3:
            raise ValueError("the third label")
        return format_bipartition(label)

    format_bipartition = cli.format_bipartition
    monkeypatch.setattr(cli, "format_bipartition", third_call_fails)
    code = main(["hasse", "--n", "3", "--format", "tsv"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: the third label\n"


def test_an_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    from exospringer import springer

    def missing(n):
        raise KeyError("a table entry")

    monkeypatch.setattr(springer, "springer_table", missing)
    with pytest.raises(KeyError):
        main(["springer", "--n", "2"])
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_repr_is_gated_before_the_normal_form(monkeypatch, capsys):
    def reached(*args):
        raise RuntimeError("reached past the gate")

    monkeypatch.setattr(cli, "SymplecticSpace", lambda n, p: None)
    monkeypatch.setattr(cli, "normal_form_pair", reached)
    ceiling = cli.REPR_MAX_N
    with pytest.raises(RuntimeError):
        main(["repr", "--n", str(ceiling), "--label", "%d|-" % ceiling])
    t0 = time.perf_counter()
    code = main(["repr", "--n", str(ceiling + 1), "--label", "%d|-" % (ceiling + 1)])
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: repr is gated to n <= %d (got n=%d)\n" \
        % (ceiling, ceiling + 1)


def test_classify_is_gated_before_the_pair_is_built(monkeypatch, capsys):
    # the gate reads n alone: past the ceiling no matrix, space or pair is
    # built, and at the ceiling the pair is
    from exospringer.ffield import FpMatrix

    def reached(*args):
        raise RuntimeError("reached past the gate")

    class Pair:
        from_json = staticmethod(reached)

    monkeypatch.setattr(FpMatrix, "from_json", classmethod(reached))
    monkeypatch.setattr(cli, "ExoticPair", Pair)
    ceiling = cli.CLASSIFY_MAX_N

    def classify(n):
        obj = {"n": n, "p": 3, "flavor": "lie", "x": {}, "v": []}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        return main(["classify", "--input", "-"])

    with pytest.raises(RuntimeError):
        classify(ceiling)
    t0 = time.perf_counter()
    code = classify(ceiling + 1)
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: classify is gated to n <= %d (got n=%d)\n" \
        % (ceiling, ceiling + 1)
    for obj, error in (([], "exotic pair JSON must be an object"),
                       ({"p": 3}, "exotic pair JSON is missing field 'n'"),
                       ({"n": "9"}, "exotic pair JSON field 'n' must be an "
                                    "integer")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        assert main(["classify", "--input", "-"]) == 2
        assert capsys.readouterr().err == "error: %s\n" % error


def run_broken_census(monkeypatch, capsys, break_counts):
    from exospringer import census
    orbit_census = census.orbit_census

    def broken(*args, **kwargs):
        result = orbit_census(*args, **kwargs)
        break_counts(result.label_counts)
        return result

    monkeypatch.setattr(census, "orbit_census", broken)
    code, out = run(capsys, "verify", "--suite", "census", "--n", "1", "--p", "3")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    return [(m["check"], m["instance"], m["expected"], m["got"])
            for m in report["mismatches"]]


def test_verify_census_checks_the_label_set(monkeypatch, capsys):
    # as many labels as bipartitions of n, but one of them wrong
    def rename(counts):
        counts["2|-"] = counts.pop("-|1")

    assert run_broken_census(monkeypatch, capsys, rename) == [
        ("census", "labels", ["-|1", "1|-"], ["1|-", "2|-"])]


def test_verify_census_checks_the_point_count(monkeypatch, capsys):
    # cone x V has p^(2n^2) points: 3^2 at n = 1
    def drift(counts):
        counts["1|-"] += 1

    assert run_broken_census(monkeypatch, capsys, drift) == [
        ("census", "total points", 9, 10)]


def test_verify_restriction_reports_a_flipped_branching_entry(monkeypatch,
                                                              capsys):
    from exospringer import hyperoct
    from exospringer.bicomb import parse_bipartition
    restrict = hyperoct.restrict_branching
    up, down = parse_bipartition("1|1"), parse_bipartition("1|-")

    def flipped(n):
        matrix = restrict(n)
        if n == 2:
            matrix[up] = {**matrix[up], down: 0}
        return matrix

    monkeypatch.setattr(hyperoct, "restrict_branching", flipped)
    code, out = run(capsys, "verify", "--suite", "restriction", "--n", "2")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert report["mismatches"] == [
        {"check": "restriction", "n": 2, "instance": "1|1 -> 1|-",
         "expected": 1, "got": 0}]


def test_verify_d_diff_reports_each_removal_of_a_shifted_d(monkeypatch,
                                                          capsys):
    # d(1|1) one too large: its own removals at rank 2 read one more, the
    # rank-3 labels with 1|1 as a child one less
    from exospringer import springer
    from exospringer.bicomb import parse_bipartition
    fiber_dim_d = springer.fiber_dim_d
    shifted = parse_bipartition("1|1")
    monkeypatch.setattr(springer, "fiber_dim_d",
                        lambda b, n: fiber_dim_d(b, n) + (b == shifted))
    code, out = run(capsys, "verify", "--suite", "d-diff", "--n", "3")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert [(m["n"], m["instance"], m["expected"], m["got"])
            for m in report["mismatches"]] == [
        (2, "1|1 remove comp 1 row 1", 0, 1),
        (2, "1|1 remove comp 2 row 1", 1, 2),
        (3, "2|1 remove comp 1 row 1", 0, -1),
        (3, "1|2 remove comp 2 row 1", 1, 0),
        (3, "1,1|1 remove comp 1 row 2", 2, 1),
        (3, "1|1,1 remove comp 2 row 2", 3, 2)]
    assert {m["check"] for m in report["mismatches"]} == {"d-difference"}


@pytest.mark.parametrize("label, below, message", [
    ("2|-", ("1|-", "-|1"), "axiom 2|- -> 2|- conflicts with branching at rank 2"),
    ("1|1", ("1|-",), "rank 2 admits no bijections")])
def test_verify_determine_reports_an_ambiguous_assignment(monkeypatch, capsys,
                                                          label, below, message):
    # 2|- restricting to both rank-1 labels breaks its axiom; 1|1
    # restricting to 1|- alone leaves the orbit 1|1 no candidate irrep
    from exospringer import hyperoct
    from exospringer.bicomb import bipartitions_of, parse_bipartition
    restrict = hyperoct.restrict_branching

    def broken(n):
        matrix = restrict(n)
        if n == 2:
            matrix[parse_bipartition(label)] = {
                other: int(str(other) in below) for other in bipartitions_of(1)}
        return matrix

    monkeypatch.setattr(hyperoct, "restrict_branching", broken)
    code, out = run(capsys, "verify", "--suite", "determine", "--n", "2")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert report["mismatches"] == [
        {"check": "determine", "n": 2, "instance": "bijection",
         "expected": "unique identity", "got": message}]


def test_classify_refuses_a_flavor_in_the_wrong_case(monkeypatch, capsys):
    _, out = run(capsys, "repr", "--n", "1", "--label", "1|-", "--p", "3")
    pair = json.loads(out)
    pair["flavor"] = "Lie"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(pair)))
    code = main(["classify", "--input", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: flavor must be 'lie' or 'group'\n"


# a valid lie pair at n = 1, p = 3 (x = 0), and the edits of it, or the
# texts, that the hostile corpus feeds to classify
GOOD_PAIR = {"n": 1, "p": 3, "flavor": "lie", "v": [1, 0],
             "x": {"p": 3, "rows": 2, "cols": 2, "entries": [0, 0, 0, 0]}}


def edited(**fields):
    """GOOD_PAIR as JSON text, with each field set; an x_ name sets x's."""
    pair = json.loads(json.dumps(GOOD_PAIR))
    for name, value in fields.items():
        if name.startswith("x_"):
            pair["x"][name[2:]] = value
        else:
            pair[name] = value
    return json.dumps(pair)


HOSTILE_PAIRS = {
    "n is a bool": edited(n=True),
    "n is NaN": edited(n=0).replace('"n": 0', '"n": NaN'),
    "n has 5000 digits": edited(n=0).replace('"n": 0', '"n": ' + "7" * 5000),
    "a float entry": edited(x_entries=[0, 1.5, 0, 0]),
    # reduced mod p, as every FpMatrix entry is, to an x not self-adjoint
    "negative entries": edited(x_entries=[0, -1, 0, 0]),
    "p = 9": edited(p=9, x_p=9),
    "the pair's p is not x's": edited(p=5),
    "a short v": edited(v=[1]),
    "a bogus flavor": edited(flavor="exotic"),
    "x is 1x4": edited(x_rows=1, x_cols=4),
    "x is not nilpotent": edited(x_entries=[1, 0, 0, 1]),
    "a top-level array": json.dumps([GOOD_PAIR]),
    "x is a list": edited(x=[[0, 0], [0, 0]]),
    "n = 0": edited(n=0),
    "n = -1": edited(n=-1),
    "bytes that are not UTF-8": b'{"n": 1, "p": 3, "flavor": "\xff\xfe"}',
    "x has 10^9 rows of 0 columns": edited(x_rows=10**9, x_cols=0,
                                           x_entries=[]),
}


# the exact error line of some hostile cases, with the --input path
HOSTILE_ERRORS = {
    "x has 10^9 rows of 0 columns": "empty matrix",
    "n has 5000 digits":
        "classify --input {input} has an integer of more than 4300 digits",
    "bytes that are not UTF-8":
        "classify --input {input} is not utf-8 text: invalid start byte at "
        "byte 28",
}


def test_the_hostile_corpus_starts_from_a_pair_classify_reads(monkeypatch,
                                                              capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(edited()))
    code, out = run(capsys, "classify", "--input", "-")
    assert code == 0 and json.loads(out)["label"] == "1|-"


@pytest.mark.parametrize("case", sorted(HOSTILE_PAIRS))
def test_classify_refuses_hostile_input_with_one_error_line(monkeypatch,
                                                            tmp_path, capsys,
                                                            case):
    text = HOSTILE_PAIRS[case]
    if isinstance(text, bytes):
        path = tmp_path / "pair.json"
        path.write_bytes(text)
        where = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        where = "-"
    t0 = time.perf_counter()
    code = main(["classify", "--input", where])
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if case in HOSTILE_ERRORS:
        line = HOSTILE_ERRORS[case].format(input=where)
        assert captured.err == "error: %s\n" % line


def test_report_schema_pins_the_mismatch_record():
    from jsonschema import ValidationError
    from exospringer.springer import mismatch
    record = mismatch("restriction", 2, "1|1 -> 1|-", 1, 0)
    report = {"suite": "restriction", "n": 2, "mismatches": [record],
              "pass": False}
    validate(report, "verify_report.schema.json")
    for broken in ({**record, "extra": 1}, {**record, "check": "restrict"}):
        with pytest.raises(ValidationError):
            validate({**report, "mismatches": [broken]},
                     "verify_report.schema.json")
