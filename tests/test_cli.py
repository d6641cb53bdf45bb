import json
import os
import pathlib
import subprocess
import sys

import pytest

from exospringer.cli import main

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def validate(obj, schema_name):
    from jsonschema import validators
    from referencing import Registry, Resource
    schema = json.loads((DOCS / schema_name).read_text())
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
    assert parsed == springer_table(3).to_json()
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


def test_verify_sum_squares(capsys):
    code, out = run(capsys, "verify", "--suite", "sum-squares", "--n", "8")
    assert code == 0
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert report["pass"] is True and report["mismatches"] == []


def test_verify_exit_contract_with_injected_mismatch(monkeypatch, capsys):
    from exospringer import springer
    monkeypatch.setattr(springer, "sum_squares_check", lambda n: False)
    code, out = run(capsys, "verify", "--suite", "sum-squares", "--n", "2")
    assert code == 1
    report = json.loads(out)
    validate(report, "verify_report.schema.json")
    assert report["pass"] is False
    assert [(m["check"], m["n"], m["expected"]) for m in report["mismatches"]] \
        == [("sum-squares", 1, 2), ("sum-squares", 2, 8)]


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


def test_cli_import_starts_no_process_pool():
    # the census is serial, so the CLI's import graph holds no multiprocessing
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "import exospringer.cli\n"
            "print('multiprocessing' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_census_check_orbits_at_p5_is_gated(monkeypatch, capsys):
    from exospringer import census

    def no_enumeration(*args):
        raise RuntimeError("enumeration started past the size gate")

    monkeypatch.setattr(census, "_census_chunk", no_enumeration)
    code = main(["verify", "--suite", "census", "--n", "2", "--p", "5",
                 "--check-orbits"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Sp_4(F_5) has 9360000 elements" in captured.err


def test_orbits_json(capsys):
    code, out = run(capsys, "orbits", "--n", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["orbits"] == [{"label": "1|-", "dim": 2, "d": 0},
                             {"label": "-|1", "dim": 0, "d": 1}]
