import random

import pytest

from exospringer import bicomb, hyperoct, springer
from exospringer.bicomb import (Bipartition, bipartitions_of, n_invariant,
                                parse_bipartition, partitions_of)
from exospringer.hyperoct import wn_order
from exospringer.springer import (
    _count_matchings, d_difference_check, determine_correspondence,
    springer_table, sum_squares_check, verify_restriction)


def bp(s):
    return parse_bipartition(s)


def rows_by_label(n):
    return {row["label"]: row for row in springer_table(n)}


def test_table_rank1():
    rows = rows_by_label(1)
    open_row = rows["1|-"]
    assert (open_row["irrep_dim"], open_row["dim_orbit"], open_row["d"]) \
        == (1, 2, 0)
    zero_row = rows["-|1"]
    assert (zero_row["irrep_dim"], zero_row["dim_orbit"], zero_row["d"]) \
        == (1, 0, 1)


def test_table_rank2():
    rows = springer_table(2)
    assert [r["irrep_dim"] for r in rows] == [1, 2, 1, 1, 1]
    assert [r["dim_orbit"] for r in rows] == [8, 6, 4, 4, 0]
    assert rows_by_label(2)["2|-"]["covers"] == ["1|1"]


def test_open_and_zero_rows():
    for n in range(1, 7):
        rows = rows_by_label(n)
        assert rows[str(Bipartition((n,), ()))]["d"] == 0
        assert rows[str(Bipartition((), (1,) * n))]["d"] == n * n
        for r in rows.values():
            assert r["dim_orbit"] + 2 * r["d"] == 2 * n * n
            assert r["irrep"] == r["label"]


def test_partition_rows_match_unenhanced_orbits():
    # rows with empty first component biject with partitions and carry
    # the matrix-only orbit dimension 2n^2 - 2n - 4 n(lambda)
    for n in range(1, 7):
        rows = [(bp(r["label"]), r) for r in springer_table(n)]
        rows = [(label, r) for label, r in rows if not label.first]
        assert len(rows) == len(partitions_of(n))
        for label, r in rows:
            lam = label.second
            assert r["dim_orbit"] == 2 * n * n - 2 * n - 4 * n_invariant(lam)


def test_determine_is_identity_up_to_6():
    solution = determine_correspondence(6)
    assert sorted(solution) == [1, 2, 3, 4, 5, 6]
    for n, mapping in solution.items():
        assert len(mapping) == len(bipartitions_of(n))
        assert all(orbit == irrep for orbit, irrep in mapping.items())


def test_restriction_matches_removals():
    for n in range(2, 7):
        assert verify_restriction(n) == []


def test_d_difference_exact():
    for n in range(2, 8):
        assert d_difference_check(n) == []


def test_d_difference_examples():
    from exospringer.bicomb import fiber_dim_d
    assert fiber_dim_d(bp("1|1"), 2) - fiber_dim_d(bp("-|1"), 1) == 0 == 2 * 1 - 2
    assert fiber_dim_d(bp("1|1"), 2) - fiber_dim_d(bp("1|-"), 1) == 1 == 2 * 1 - 1


def test_sum_squares():
    for n in range(1, 9):
        assert sum_squares_check(n) == []
    assert sum(r["irrep_dim"] ** 2 for r in springer_table(2)) == 8
    assert wn_order(8) == 10321920


def test_one_hook_product_per_partition(monkeypatch):
    # from cold caches, as each benchmark item starts: f^lam for the 67
    # partitions of sizes 0-8 and no more
    for module in (bicomb, hyperoct):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    calls = []
    hook_lengths = bicomb.hook_lengths

    def counted(parts):
        calls.append(parts)
        return hook_lengths(parts)

    monkeypatch.setattr(bicomb, "hook_lengths", counted)
    assert sum_squares_check(8) == []
    assert len(calls) <= sum(map(len, map(partitions_of, range(9)))) == 67


def test_table_refuses_a_failed_sum_of_squares(monkeypatch):
    from exospringer import springer
    failed = {"check": "sum-squares", "n": 2, "instance": "sum of squared dims",
              "expected": 8, "got": 9}
    monkeypatch.setattr(springer, "sum_squares_check", lambda n: [failed])
    with pytest.raises(AssertionError, match=r"\|W_2\| = 8"):
        springer_table(2)


def test_matching_counter_detects_ambiguity():
    # the uniqueness check counts every constraint-satisfying bijection;
    # a symmetric candidate graph must report more than one
    a, b = bp("2|-"), bp("1,1|-")
    ambiguous = {a: {a, b}, b: {a, b}}
    count, witness = _count_matchings(ambiguous)
    assert count == 2 and witness is not None
    pinned = {a: {a}, b: {a, b}}
    count, witness = _count_matchings(pinned)
    assert count == 1 and witness == {a: a, b: b}
    starved = {a: {b}, b: {b}}
    count, witness = _count_matchings(starved)
    assert count == 0 and witness is None


def set_based_count_matchings(candidates):
    # the backtracker _count_matchings had before its bitmasks: candidate
    # sets of Bipartitions, the same pick rule and order
    orbits = sorted(candidates, key=Bipartition.sort_key)
    found = []

    def backtrack(assigned, used):
        if len(found) >= 2:
            return
        if len(assigned) == len(orbits):
            found.append(dict(assigned))
            return
        pending = [o for o in orbits if o not in assigned]
        pick = min(pending, key=lambda o: len(candidates[o] - used))
        for irrep in sorted(candidates[pick] - used, key=Bipartition.sort_key):
            assigned[pick] = irrep
            backtrack(assigned, used | {irrep})
            del assigned[pick]

    backtrack({}, frozenset())
    return len(found), (found[0] if found else None)


def test_matching_counter_matches_the_set_based_backtracker():
    a, b = bp("2|-"), bp("1,1|-")
    cases = [{a: {a, b}, b: {a, b}}, {a: {a}, b: {a, b}}, {a: {b}, b: {b}}]
    rng = random.Random(20260809)
    for n in (2, 3, 4, 5):
        labels = bipartitions_of(n)
        for _ in range(40):
            # a planted bijection, so that some maps have a matching
            planted = rng.sample(labels, len(labels))
            cases.append({orbit: set(rng.sample(labels, rng.randint(0, 3)))
                          | ({irrep} if rng.random() < 0.9 else set())
                          for orbit, irrep in zip(labels, planted)})
    counts = set()
    for candidates in cases:
        got = _count_matchings(candidates)
        want = set_based_count_matchings(candidates)
        assert got == want
        if got[1] is not None:
            assert list(got[1].items()) == list(want[1].items())
        counts.add(got[0])
    assert counts == {0, 1, 2}


def test_matching_counter_is_not_bound_by_the_recursion_limit():
    # one search frame per orbit: 1,165 orbits at rank 12, past Python's
    # default recursion limit of 1,000
    labels = bipartitions_of(12)
    count, witness = _count_matchings({label: {label} for label in labels})
    assert count == 1 and witness == {label: label for label in labels}


def test_table_json():
    # the rows `springer --format json` prints, in bipartitions_of order
    rows = springer_table(2)
    assert [r["label"] for r in rows] == list(map(str, bipartitions_of(2)))
    assert rows[0] == {"label": "2|-", "dim_orbit": 8, "d": 0, "irrep": "2|-",
                       "irrep_dim": 1, "covers": ["1|1"]}


def test_candidates_equal_the_scan_over_every_irrep(monkeypatch):
    # the restriction map gives each orbit the same candidates as
    # comparing its required set with every irrep's restriction set
    from exospringer import hyperoct, springer
    from exospringer.bicomb import removable_nodes
    seen = []
    count_matchings = springer._count_matchings

    def recorded(candidates):
        seen.append({k: set(v) for k, v in candidates.items()})
        return count_matchings(candidates)

    monkeypatch.setattr(springer, "_count_matchings", recorded)
    determine_correspondence(7)
    assert len(seen) == 7
    for n, got in enumerate(seen, start=1):
        labels = bipartitions_of(n)
        branch = {irrep: frozenset(k for k, v in row.items() if v == 1)
                  for irrep, row in hyperoct.restrict_branching(n).items()}
        want = {}
        for orbit in labels:
            # one rank down the solution is the identity
            required = frozenset(child for _, _, child in removable_nodes(orbit))
            want[orbit] = {irrep for irrep in labels if branch[irrep] == required}
        want[Bipartition((n,), ())] = {Bipartition((n,), ())}
        want[Bipartition((), (1,) * n)] = {Bipartition((), (1,) * n)}
        assert got == want


def test_determine_refuses_a_branching_multiplicity_of_two(monkeypatch):
    from exospringer import hyperoct
    restrict = hyperoct.restrict_branching

    def doubled(n):
        matrix = restrict(n)
        if n == 2:
            row = dict(matrix[bp("1|1")])
            row[bp("1|-")] = 2
            matrix = {**matrix, bp("1|1"): row}
        return matrix

    monkeypatch.setattr(hyperoct, "restrict_branching", doubled)
    with pytest.raises(AssertionError, match=r"branching of 1\|1 is not "
                                             r"multiplicity-free"):
        determine_correspondence(3)


def test_sum_squares_reports_the_actual_sum(monkeypatch):
    from exospringer import hyperoct, springer
    irrep_dim = hyperoct.irrep_dim
    monkeypatch.setattr(hyperoct, "irrep_dim",
                        lambda b: irrep_dim(b) + (b == bp("1|1")))
    # rank 2 dims become 1, 3, 1, 1, 1: the squares sum to 13, not 8
    assert sum_squares_check(2) == [
        {"check": "sum-squares", "n": 2, "instance": "sum of squared dims",
         "expected": 8, "got": 13}]
    assert sum_squares_check(1) == []
    with pytest.raises(AssertionError, match=r"\|W_2\| = 8"):
        springer.springer_table(2)


def broken_rank_two(monkeypatch, rows):
    """restrict_branching with the rank-2 rows named in `rows` (irrep ->
    the labels it restricts to) replaced."""
    restrict = hyperoct.restrict_branching

    def broken(n):
        matrix = restrict(n)
        if n == 2:
            for irrep, below in rows.items():
                matrix[bp(irrep)] = {other: int(str(other) in below)
                                     for other in bipartitions_of(1)}
        return matrix

    monkeypatch.setattr(hyperoct, "restrict_branching", broken)


def test_determine_refuses_an_axiom_the_branching_contradicts(monkeypatch):
    broken_rank_two(monkeypatch, {"2|-": ("1|-", "-|1")})
    with pytest.raises(springer.AmbiguousAssignmentError,
                       match=r"axiom 2\|- -> 2\|- conflicts with branching "
                             r"at rank 2"):
        determine_correspondence(2)


def test_determine_refuses_a_rank_without_a_bijection(monkeypatch):
    broken_rank_two(monkeypatch, {"1|1": ("1|-",)})
    with pytest.raises(springer.AmbiguousAssignmentError,
                       match="rank 2 admits no bijections"):
        determine_correspondence(2)


def test_determine_refuses_a_unique_bijection_other_than_the_identity(
        monkeypatch):
    # swapped rows pair the orbit 1,1|- with -|2 and -|2 with 1,1|-
    broken_rank_two(monkeypatch, {"1,1|-": ("-|1",), "-|2": ("1|-",)})
    with pytest.raises(AssertionError,
                       match="constraint solution differs from the identity map"):
        determine_correspondence(2)
