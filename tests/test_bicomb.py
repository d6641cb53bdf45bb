from itertools import accumulate
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from exospringer.bicomb import (
    Bipartition, RankMismatchError, bipartitions_of, check_rank, closure_leq,
    dominance_leq, fiber_dim_d, format_bipartition, hasse_covers,
    interleave_c, n_invariant, orbit_dim, parse_bipartition,
    partition_sum, partitions_of, removable_nodes, standard_tableau_count)
from exospringer.hyperoct import inner_product, wn_character, wn_classes
from exospringer.symplectic import nu_blocks


def partition_count_oracle(n):
    # Euler pentagonal-number recurrence, independent of partitions_of
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def bp(s):
    return parse_bipartition(s)


def test_partitions_against_euler_oracle():
    for n in range(11):
        assert len(partitions_of(n)) == partition_count_oracle(n)


def test_bipartition_counts():
    assert [str(b) for b in bipartitions_of(1)] == ["1|-", "-|1"]
    assert len(bipartitions_of(2)) == 5
    # convolution of partition counts
    expected = sum(partition_count_oracle(m) * partition_count_oracle(6 - m)
                   for m in range(7))
    assert len(bipartitions_of(6)) == expected == 65


def test_n_invariant():
    assert n_invariant((5,)) == 0
    assert n_invariant((1,) * 6) == 15             # n(n-1)/2 for n=6
    assert n_invariant((1, 1, 1, 1)) == 6
    assert n_invariant((2, 1)) == 1


def test_interleave():
    assert interleave_c(bp("2|-")) == (2, 0)
    assert interleave_c(bp("1|1")) == (1, 1)
    assert interleave_c(bp("1,1|-")) == (1, 0, 1, 0)


def test_dominance():
    assert dominance_leq((1, 1), (2, 0))
    assert not dominance_leq((1, 0, 1), (0, 2))
    assert not dominance_leq((0, 2), (1, 0, 1))
    assert dominance_leq((1, 2, 1), (1, 2, 1))
    with pytest.raises(RankMismatchError):
        dominance_leq((1,), (2,))


def padded(seq, length):
    return [seq[i] if i < len(seq) else 0 for i in range(length)]


def dominance_by_index(c, cprime):
    length = max(len(c), len(cprime))
    a, b = padded(c, length), padded(cprime, length)
    return all(sum(a[:i + 1]) <= sum(b[:i + 1]) for i in range(length))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 4), max_size=7),
       st.lists(st.integers(-3, 4), max_size=7))
def test_dominance_matches_the_padded_prefix_sums(c, head):
    # cprime ends with the part that makes the totals equal; the lengths
    # differ, and zeros and negative parts occur, so every prefix sum of
    # the longer composition counts, past the end of the shorter one
    cprime = head + [sum(c) - sum(head)]
    assert dominance_leq(c, cprime) == dominance_by_index(c, cprime)
    assert dominance_leq(cprime, c) == dominance_by_index(cprime, c)


partitions = st.lists(st.integers(1, 6), max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@settings(max_examples=300, deadline=None)
@given(partitions, partitions)
def test_partition_arithmetic_matches_the_padded_indices(mu, nu):
    length = max(len(mu), len(nu))
    a, b = padded(mu, length), padded(nu, length)
    assert interleave_c(Bipartition(mu, nu)) == tuple(
        x for i in range(length) for x in (a[i], b[i]))
    assert partition_sum(mu, nu) == tuple(a[i] + b[i] for i in range(length))
    # the blocks of nu are its maximal runs of equal parts, rows p..q
    p_rows = [i for i in range(1, len(nu) + 1) if i == 1 or nu[i - 2] != nu[i - 1]]
    q_rows = [i for i in range(1, len(nu) + 1) if i == len(nu) or nu[i] != nu[i - 1]]
    assert nu_blocks(nu) == ([q - p + 1 for p, q in zip(p_rows, q_rows)],
                             [nu[p - 1] for p in p_rows], p_rows, q_rows)


def test_closure_examples():
    bottom = bp("-|1,1")
    for b in bipartitions_of(2):
        assert closure_leq(bottom, b)
    for n in (1, 2, 3, 4):
        top = Bipartition((n,), ())
        for b in bipartitions_of(n):
            assert closure_leq(b, top)
    assert not closure_leq(bp("1,1|-"), bp("-|2"))
    assert not closure_leq(bp("-|2"), bp("1,1|-"))
    with pytest.raises(RankMismatchError):
        closure_leq(bp("1|-"), bp("2|-"))


def test_orbit_dim_examples():
    for n in (1, 2, 3, 5):
        assert orbit_dim(Bipartition((n,), ()), n) == 2 * n * n
        assert orbit_dim(Bipartition((), (1,) * n), n) == 0
    dims = [orbit_dim(b, 2) for b in bipartitions_of(2)]
    assert dims == [8, 6, 4, 4, 0]


def test_fiber_dim_examples():
    for n in (1, 2, 3, 5):
        assert fiber_dim_d(Bipartition((n,), ()), n) == 0
        assert fiber_dim_d(Bipartition((), (1,) * n), n) == n * n
    assert [fiber_dim_d(b, 2) for b in bipartitions_of(2)] == [0, 1, 2, 2, 4]


def test_dim_plus_2d_identity():
    for n in range(1, 8):
        for b in bipartitions_of(n):
            assert orbit_dim(b, n) + 2 * fiber_dim_d(b, n) == 2 * n * n


def test_removable_nodes():
    assert removable_nodes(bp("2|-")) == [(1, 1, bp("1|-"))]
    assert removable_nodes(bp("1|1")) == [(1, 1, bp("-|1")), (2, 1, bp("1|-"))]
    assert len(removable_nodes(bp("2,1|1"))) == 3
    with pytest.raises(ValueError):
        removable_nodes(Bipartition((), ()))


def test_removals_land_one_rank_down():
    for n in range(1, 7):
        for b in bipartitions_of(n):
            for comp, row, child in removable_nodes(b):
                assert child.n == n - 1
                assert comp in (1, 2) and row >= 1


def test_hasse_n1_n2():
    assert [(str(a), str(b)) for a, b in hasse_covers(1)] == [("-|1", "1|-")]
    edges = {(str(a), str(b)) for a, b in hasse_covers(2)}
    assert edges == {("1|1", "2|-"), ("1,1|-", "1|1"), ("-|2", "1|1"),
                     ("-|1,1", "1,1|-"), ("-|1,1", "-|2")}


def test_hasse_covers_match_brute_force_closure_order():
    # the prefix-sum kernel against covers read off closure_leq directly,
    # in the same order
    for n in range(1, 6):
        labels = bipartitions_of(n)
        expected = []
        for upper in labels:
            under = [a for a in labels if a != upper and closure_leq(a, upper)]
            expected += [(lower, upper) for lower in under
                         if not any(lower != mid and closure_leq(lower, mid)
                                    for mid in under)]
        assert list(hasse_covers(n)) == expected


def set_based_hasse_covers(n):
    # the transitive reduction with one Python set per label, over every
    # pair of labels: the kernel hasse_covers had before its bitmask pass
    labels = bipartitions_of(n)
    sums = [tuple(accumulate(interleave_c(b))) for b in labels]
    below = [[j for j, lo in enumerate(sums) if j != i and all(map(le, lo, hi))]
             for i, hi in enumerate(sums)]
    covers = []
    for upper, under in zip(labels, below):
        between = set()
        for mid in under:
            between.update(below[mid])
        covers.extend((labels[j], upper) for j in under if j not in between)
    return tuple(covers)


@pytest.mark.parametrize("n", range(6, 10))
def test_hasse_covers_match_the_set_based_reduction(n):
    assert hasse_covers(n) == set_based_hasse_covers(n)


def test_hasse_n3_graded():
    labels = bipartitions_of(3)
    assert len(labels) == 10
    for lower, upper in hasse_covers(3):
        assert closure_leq(lower, upper)
        assert orbit_dim(lower, 3) < orbit_dim(upper, 3)


def test_partial_order_axioms_up_to_7():
    for n in range(1, 8):
        labels = bipartitions_of(n)
        leq = {(a, b): closure_leq(a, b) for a in labels for b in labels}
        for a in labels:
            assert leq[(a, a)]
        for a in labels:
            for b in labels:
                if a != b and leq[(a, b)]:
                    assert not leq[(b, a)]
        # transitivity via boolean matrix composition
        index = {lab: i for i, lab in enumerate(labels)}
        rows = []
        for a in labels:
            bits = 0
            for b in labels:
                if leq[(a, b)]:
                    bits |= 1 << index[b]
            rows.append(bits)
        for i, a in enumerate(labels):
            combined = rows[i]
            probe = rows[i]
            for j in range(len(labels)):
                if probe >> j & 1:
                    combined |= rows[j]
            assert combined == rows[i]


def test_strict_dimension_monotonicity_up_to_7():
    for n in range(1, 8):
        labels = bipartitions_of(n)
        for a in labels:
            for b in labels:
                if a != b and closure_leq(a, b):
                    assert orbit_dim(a, n) < orbit_dim(b, n)


def test_unique_extremes_up_to_7():
    for n in range(1, 8):
        labels = bipartitions_of(n)
        top = Bipartition((n,), ())
        bottom = Bipartition((), (1,) * n)
        for b in labels:
            assert closure_leq(b, top)
            assert closure_leq(bottom, b)
        assert sum(1 for b in labels
                   if all(closure_leq(o, b) for o in labels)) == 1
        assert sum(1 for b in labels
                   if all(closure_leq(b, o) for o in labels)) == 1


def test_string_grammar():
    assert format_bipartition(bp("2,1|1")) == "2,1|1"
    assert format_bipartition(bp("-|1,1")) == "-|1,1"
    assert bp("2,1|1") == Bipartition((2, 1), (1,))
    with pytest.raises(ValueError):
        parse_bipartition("2,1")
    with pytest.raises(ValueError):
        parse_bipartition("1,2|-")      # not weakly decreasing


def test_every_written_label_parses_back():
    # every label `format_bipartition` writes, and the README's forms: "-"
    # or an empty string for an empty component, parts of several digits
    for n in range(7):
        for b in bipartitions_of(n):
            assert parse_bipartition(format_bipartition(b)) == b
    assert parse_bipartition("-|3") == parse_bipartition("|3") == \
        Bipartition((), (3,))
    assert parse_bipartition("12,10|-") == Bipartition((12, 10), ())
    for text in ("0|-", "01|-", "1,|-", "1_0|-", "+1|-", "1|-0", "\uff11|-"):
        with pytest.raises(ValueError, match="bipartition must look like"):
            parse_bipartition(text)


def test_the_public_constructors_still_validate():
    # only the labeller's trusted path skips the partition checks
    for first, second in (((1, 2), ()), ((), (1, 2)), ((2, -1), ())):
        with pytest.raises(ValueError):
            Bipartition(first, second)
    for text in ("1,2|-", "1|1,3", "2,x|1"):
        with pytest.raises(ValueError):
            parse_bipartition(text)


def test_hook_count():
    assert standard_tableau_count((2, 1)) == 2
    assert standard_tableau_count(()) == 1
    assert standard_tableau_count((3, 2)) == 5


def test_equal_bipartitions_hash_equal():
    a = Bipartition((2, 1), (1,))
    equal = (parse_bipartition("2,1|1"), Bipartition([2, 1, 0], (1, 0)),
             Bipartition((2, 1), (1,)))
    for b in equal:
        assert a == b and hash(a) == hash(b) and b is not a
    assert hash(a) == hash(((2, 1), (1,)))
    assert a != Bipartition((1,), (2, 1))
    assert {a: "2,1|1"}[equal[1]] == "2,1|1"


def test_labels_built_inside_equal_their_validated_rebuild():
    # bipartitions_of, removable_nodes and fuse_class_up build their
    # labels without re-checking the parts; each must be exactly what the
    # validating constructor gives for the same parts
    from exospringer.hyperoct import fuse_class_up

    def same_as_validated(b):
        rebuilt = Bipartition(b.first, b.second)
        assert b == rebuilt and hash(b) == hash(rebuilt)
        assert (b.first, b.second) == (rebuilt.first, rebuilt.second)
        assert type(b.first) is tuple and type(b.second) is tuple

    for n in range(0, 9):
        for b in bipartitions_of(n):
            same_as_validated(b)
            same_as_validated(fuse_class_up(b))
            assert fuse_class_up(b).n == n + 1
            if n:
                for _, _, child in removable_nodes(b):
                    same_as_validated(child)
                    assert child.n == n - 1


def test_dimensions_refuse_a_label_of_another_rank():
    # fiber_dim_d gets its rank check from orbit_dim, before d is returned
    for dim in (orbit_dim, fiber_dim_d):
        with pytest.raises(RankMismatchError, match=r"\|label\| = 1 but n = 2"):
            dim(bp("1|-"), 2)


def one_class_function(n):
    return {c.signature: 1 for c in wn_classes(n)}


# the size checks no other test reaches; the rest are pinned where they live
@pytest.mark.parametrize("call", [
    lambda: check_rank(bp("2,1|-"), 2),
    lambda: wn_character(bp("1|-"), bp("2|-")),
    lambda: inner_product(one_class_function(1), one_class_function(2), 2),
], ids=["check_rank", "wn_character", "inner_product"])
def test_other_size_checks_raise_rank_mismatch(call):
    with pytest.raises(RankMismatchError):
        call()


@pytest.mark.parametrize("bad", [1.5, "2"])
def test_bipartition_refuses_a_part_that_is_not_an_integer(bad):
    with pytest.raises(TypeError):
        Bipartition((2, 1), (bad,))
    with pytest.raises(TypeError):
        Bipartition((bad,), ())
