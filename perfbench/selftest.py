"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test suite on purpose: the file name does not
match `test_*.py`, so a plain `pytest` does not collect it.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_reported_only_with_ten_samples_beyond():
    hundred = list(range(100, 0, -1))
    assert run.percentile(hundred, 90) == (90, 10)
    assert run.reportable(hundred, 90)
    assert run.percentile(hundred[:99], 90)[1] == 9
    assert not run.reportable(hundred[:99], 90)
    assert run.percentile(range(20), 50) == (9, 10)
    assert run.reportable(range(20), 50)
    assert not run.reportable(range(19), 50)
    assert run.percentile([7.5], 90) == (7.5, 0)


def _spans(stack, events):
    for name, t in events:
        if name is None:
            stack.exit(t)
        else:
            stack.enter(name, t)
    return stack


def test_self_time_of_nested_spans():
    # commutant [0, 10] > kernel_basis [1, 8] > rref [2, 5], then rref [8.5, 9]
    stack = _spans(tracer.SpanStack(), [
        ("commutant", 0), ("kernel_basis", 1), ("rref", 2), (None, 5),
        (None, 8), ("rref", 8.5), (None, 9), (None, 10)])
    assert stack.self_s == {"commutant": 2.5, "kernel_basis": 4, "rref": 3.5}
    assert stack.count == {"commutant": 1, "kernel_basis": 1, "rref": 2}
    assert stack.edges[("kernel_basis", "rref")] == 1
    assert stack.edges[("commutant", "rref")] == 1
    assert stack.edges[(None, "commutant")] == 1


def test_self_time_of_recursive_spans_sums_to_the_outer_span():
    stack = _spans(tracer.SpanStack(), [
        ("sn", 0), ("sn", 2), ("sn", 3), (None, 4), (None, 6), (None, 10)])
    assert stack.count["sn"] == 3
    assert stack.self_s["sn"] == 10


def test_error_rate_counts_a_crashed_pass_as_a_failure():
    good = {"checks": [["a", True], ["b", True]]}
    bad = {"checks": [["a", True], ["b", False]]}
    assert run.tally([good, good]) == (4, 0)
    assert run.tally([good, bad]) == (4, 1)
    assert run.tally([good, None]) == (3, 1)
    assert run.tally([None]) == (1, 1)


def _program():
    from exospringer import bicomb, census, cli, symplectic
    return {"bicomb": bicomb, "census": census, "cli": cli,
            "symplectic": symplectic}


def _reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def test_tracer_wraps_every_alias_and_undoes_it():
    from exospringer import classify, cli, ffield, symplectic
    targets = tracer.originals()
    original_commutant = ffield.commutant_basis
    uninstall = tracer.install(tracer.SpanStack())
    try:
        assert tracer.unwrapped_aliases(targets) == []
        assert classify.commutant_basis is not original_commutant
        assert classify.commutant_basis is ffield.commutant_basis
        assert symplectic.check_modulus is ffield.check_modulus
        assert cli.check_modulus is ffield.check_modulus
        assert vars(ffield.FpMatrix)["__rmul__"] is vars(ffield.FpMatrix)["__mul__"]
        assert id(vars(ffield.FpMatrix)["__mul__"]) not in targets
    finally:
        uninstall()
    assert ffield.commutant_basis is original_commutant
    assert len(tracer.unwrapped_aliases(targets)) >= len(targets)


def test_traced_pass_passes_the_same_checks_as_an_untraced_one():
    _, plain = run.spawn("census", 5)
    _, traced = run.spawn("census", 5, trace=True)
    assert plain["checks"] == traced["checks"]
    assert all(ok for _, ok in plain["checks"])
    assert traced["layers"]["census.x_scanned.count"] > 0
    assert "layers" not in plain


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_no_workload_runs_more_than_one_job(name):
    items = workloads.build(name, 1, _reference(), _program())
    for item in items:
        assert workloads.jobs_of(item.argv) <= 1


def test_jobs_of_reads_the_flag():
    assert workloads.jobs_of(["verify", "--jobs", "2"]) == 2
    assert workloads.jobs_of(["verify"]) == 1


def test_a_warm_cache_fails_the_cold_start_check():
    from exospringer import bicomb
    caches = worker.lru_caches(tracer.modules())
    assert {layer for layer, _ in caches} == {"bicomb", "hyperoct"}
    bicomb.bipartitions_of(3)
    try:
        with pytest.raises(RuntimeError, match="bipartitions_of"):
            worker.check_cold(caches)
    finally:
        for _, fn in caches:
            fn.cache_clear()
    worker.check_cold(caches)


def test_classify_mix_is_fixed_and_seeded():
    ref = _reference()
    a = workloads.classify_specs(1, ref)
    assert a == workloads.classify_specs(1, ref)
    assert a != workloads.classify_specs(2, ref)
    assert len(a) == workloads.CLASSIFY_ITEMS
    large = [s for s in a if s[1] == workloads.LARGE_P]
    assert len(large) == workloads.CLASSIFY_LARGE_P_ITEMS
    assert {s[2] for s in large} == set(ref["labels"]["3"])


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.UNITS)
    layers = dict(tracer.layer_metrics(tracer.SpanStack(), {}))
    layers["bench.large_p_pairs_s"] = 0.0
    names = set(run.per_layer([{"wall_s": 1.0}],
                              {"wall_s": 1.0, "layers": layers}))
    assert {m["name"] for m in bench["per_layer"]} == names
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
