import pytest

from exospringer.bicomb import (Bipartition, bipartitions_of, n_invariant,
                                parse_bipartition, partitions_of)
from exospringer.hyperoct import wn_order
from exospringer.springer import (
    _count_matchings, d_difference_check, determine_correspondence,
    springer_table, sum_squares_check, verify_restriction)


def bp(s):
    return parse_bipartition(s)


def test_table_rank1():
    table = springer_table(1)
    open_row = table.record(bp("1|-"))
    assert open_row.irrep_dim == 1 and open_row.orbit_dim == 2 and open_row.d == 0
    zero_row = table.record(bp("-|1"))
    assert zero_row.irrep_dim == 1 and zero_row.orbit_dim == 0 and zero_row.d == 1


def test_table_rank2():
    table = springer_table(2)
    assert [r.irrep_dim for r in table.records] == [1, 2, 1, 1, 1]
    assert [r.orbit_dim for r in table.records] == [8, 6, 4, 4, 0]
    assert table.record(bp("2|-")).covers == (bp("1|1"),)


def test_open_and_zero_rows():
    for n in range(1, 7):
        table = springer_table(n)
        assert table.record(Bipartition((n,), ())).d == 0
        assert table.record(Bipartition((), (1,) * n)).d == n * n
        for r in table.records:
            assert r.orbit_dim + 2 * r.d == 2 * n * n
            assert r.irrep == r.label


def test_partition_rows_match_unenhanced_orbits():
    # rows with empty first component biject with partitions and carry
    # the matrix-only orbit dimension 2n^2 - 2n - 4 n(lambda)
    for n in range(1, 7):
        table = springer_table(n)
        rows = [r for r in table.records if not r.label.first]
        assert len(rows) == len(partitions_of(n))
        for r in rows:
            lam = r.label.second
            assert r.orbit_dim == 2 * n * n - 2 * n - 4 * n_invariant(lam)


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
        assert sum_squares_check(n)
    assert sum(r.irrep_dim ** 2 for r in springer_table(2).records) == 8
    assert wn_order(8) == 10321920


def test_table_refuses_a_failed_sum_of_squares(monkeypatch):
    from exospringer import springer
    monkeypatch.setattr(springer, "sum_squares_check", lambda n: False)
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


def test_table_json():
    obj = springer_table(2).to_json()
    assert obj["n"] == 2
    assert obj["rows"][0]["label"] == "2|-"
    assert obj["rows"][0]["irrep"] == "2|-"
