import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_matrix, random_sp_element, zeros
from exospringer import census as census_mod, classify, ffield
from exospringer.bicomb import Bipartition, bipartitions_of, closure_leq, \
    format_bipartition
from exospringer.census import (
    CENSUS_PRIMES, SizeGateError, UnionFind, enumerate_exotic_nilcone,
    gl_class_count, iter_self_adjoint, klyachko_census, orbit_census,
    sp_generators, sp_group_elements, sp_group_order, stabilizer_census,
    _is_nilpotent)
from exospringer.ffield import FpMatrix
from exospringer.symplectic import ExoticPair, SymplecticSpace, normal_form_pair


def brute_sp2_order(p):
    # direct enumeration of 2x2 matrices with g^T J g = J
    sp = SymplecticSpace(1, p)
    count = 0
    for flat in itertools.product(range(p), repeat=4):
        g = FpMatrix([flat[:2], flat[2:]], p)
        if g.transpose() * sp.J * g == sp.J:
            count += 1
    return count


def brute_gl2_class_count(p):
    # union-find on GL_2(F_p), each element by its index, under
    # conjugation by everything
    elements = []
    for flat in itertools.product(range(p), repeat=4):
        g = FpMatrix([flat[:2], flat[2:]], p)
        if g.is_invertible():
            elements.append(g)
    index = {g.entries: i for i, g in enumerate(elements)}
    uf = UnionFind(len(elements))
    for g in elements:
        gi = g.inverse()
        for i, h in enumerate(elements):
            uf.union(i, index[(g * h * gi).entries])
    return len({uf.find(i) for i in range(len(elements))})


def test_sp_group_order_against_enumeration():
    assert brute_sp2_order(3) == 24 == sp_group_order(1, 3)
    assert brute_sp2_order(5) == 120 == sp_group_order(1, 5)
    assert sp_group_order(2, 3) == 81 * 8 * 80 == 51840


def test_sp_group_elements_n1():
    elements = sp_group_elements(1, 3)
    assert len(elements) == 24
    seen = {g.entries for g in elements}
    # closed under products and inverses (spot check)
    for g in elements[:6]:
        assert g.inverse().entries in seen
        for h in elements[:6]:
            assert (g * h).entries in seen


def test_sp_generators_are_symplectic():
    for n, p in ((1, 3), (2, 3), (2, 5)):
        sp = SymplecticSpace(n, p)
        for g in sp_generators(sp):
            assert sp.membership(g, "H_group")


def test_size_gates():
    with pytest.raises(SizeGateError):
        sp_group_elements(3, 3)
    with pytest.raises(SizeGateError):
        orbit_census(1, 7)
    with pytest.raises(SizeGateError):
        klyachko_census(3, 3)
    assert CENSUS_PRIMES == (3, 5)


@pytest.mark.parametrize("flavor", ("Lie", "typo"))
@pytest.mark.parametrize("n", (1, 3))
def test_an_unknown_flavor_is_refused_before_the_gate(flavor, n):
    # every flavor but 'lie' used to run the group census; n = 3 is past
    # the size gate, so the flavor is checked first
    with pytest.raises(ValueError, match="flavor must be 'lie' or 'group'"):
        orbit_census(n, 3, flavor)
    with pytest.raises(ValueError, match="flavor must be 'lie' or 'group'"):
        next(enumerate_exotic_nilcone(n, 3, flavor))


@pytest.mark.parametrize("n, flavor, error",
                         ((3, "lie", SizeGateError), (1, "typo", ValueError)))
def test_the_nilcone_stream_is_refused_at_the_call(n, flavor, error):
    # no next(): as a generator function it checked only at the first pair
    with pytest.raises(error):
        enumerate_exotic_nilcone(n, 3, flavor)


def test_nilcone_enumeration_counts():
    pairs = list(enumerate_exotic_nilcone(1, 3))
    assert len(pairs) == 9            # x forced to 0, all 9 vectors
    assert all(p.x.is_zero() for p in pairs)
    assert len(list(enumerate_exotic_nilcone(1, 5))) == 25
    space = SymplecticSpace(2, 3)
    candidates = list(iter_self_adjoint(space))
    assert len(candidates) == 3 ** 6
    nilpotent = [x for x in candidates if _is_nilpotent(x)]
    assert len(nilpotent) == 81


def test_orbit_census_n1():
    result = orbit_census(1, 3, check_orbits=True)
    assert result.label_counts == {"-|1": 1, "1|-": 8}
    assert result.total_points == 9
    for chk in result.orbit_checks:
        assert chk["transitive"] and chk["orbit_stabilizer_ok"]
    result5 = orbit_census(1, 5)
    assert result5.label_counts == {"-|1": 1, "1|-": 24}


def test_orbit_census_n2_counts():
    result = orbit_census(2, 3)
    assert len(result.label_counts) == len(bipartitions_of(2)) == 5
    assert sum(result.label_counts.values()) == result.total_points == 81 * 81
    assert result.label_counts["-|1,1"] == 1      # the zero pair alone
    for label, count in result.label_counts.items():
        assert sp_group_order(2, 3) % count == 0


def test_stabilizer_census_examples():
    sp = SymplecticSpace(1, 3)
    zero = zeros(2, 2, 3)
    assert stabilizer_census(ExoticPair(sp, zero, (0, 0), "lie")) == 24
    assert stabilizer_census(ExoticPair(sp, zero, (1, 0), "lie")) == 3
    # Sp_4(F_3) is listed once, here: stabilizer_census is this listing
    # and its fixed-point count
    sp4 = sp_group_elements(2, 3)
    open_pair = normal_form_pair(Bipartition((2,), ()), SymplecticSpace(2, 3)).pair
    count = orbit_census(2, 3).label_counts["2|-"]
    assert census_mod._stabilizer_order(sp4, open_pair.x, open_pair.v) * count \
        == sp_group_order(2, 3)
    # the orbit check reads |Stab| = |G| / |orbit| off its union-find; the
    # listed group's fixed-point count of each representative must agree
    for (n, p), flavors in (((1, 3), ("lie", "group")),
                            ((1, 5), ("lie", "group")), ((2, 3), ("lie",))):
        group = sp4 if (n, p) == (2, 3) else sp_group_elements(n, p)
        for flavor in flavors:
            result = orbit_census(n, p, flavor, check_orbits=True)
            assert len(result.orbit_checks) == len(bipartitions_of(n))
            for chk in result.orbit_checks:
                x, v = result.reps[chk["label"]]
                assert census_mod._stabilizer_order(group, x, v) \
                    == chk["stabilizer_order"], (n, p, flavor, chk)


def test_census_counts_invariant_under_basis_change(rng):
    space = SymplecticSpace(1, 3)
    g = random_sp_element(rng, space)
    gi = g.inverse()
    counts = {}
    for pair in enumerate_exotic_nilcone(1, 3):
        moved = ExoticPair(space, g * pair.x * gi, g.apply(pair.v), "lie")
        gl_label = classify.enhanced_type(moved.x, moved.v)
        label = format_bipartition(Bipartition(
            classify.halve_doubled(gl_label.first),
            classify.halve_doubled(gl_label.second)))
        counts[label] = counts.get(label, 0) + 1
    assert counts == orbit_census(1, 3).label_counts
    # the seeded entry point: g permutes the cone and its lines, so the
    # seeded pass labels the same points, each line through another of its
    # vectors; equal counts show that labels are constant on lines (the
    # pointwise test below checks invariance)
    for seed in (1, 20260809):
        assert orbit_census(2, 3, basis_seed=seed).label_counts == \
            orbit_census(2, 3).label_counts


def packed_labels(part, vectors, p):
    # the label string of each vector against part, through the census's
    # batch entry, looked up per call as the census does
    patterns, label = classify.packed_labeler(vectors, p)(part)
    return [label[q] for q in patterns]


def moved_label_mismatches(n, p, flavor):
    # the cone points P = (x, v) whose label differs from that of g.P =
    # (g x g^-1, g v), for g each generating transvection of Sp (so that no
    # mismatch means every label is Sp-invariant) and one seeded basis
    # change; labels come from classify.packed_labeler, as in the census,
    # on x (lie) or x - 1 (group)
    space = SymplecticSpace(n, p)
    moves = sp_generators(space) + [census_mod.seeded_basis_change(space, 7)]
    vectors = list(census_mod.iter_vectors(space))
    mismatches = []
    for _, x in census_mod._cone_xs(space, flavor):
        part = x if flavor == "lie" else x - space._one
        labels = packed_labels(part, vectors, p)
        for g in moves:
            moved = packed_labels(g * part * space.adjoint(g),
                                  [g.apply(v) for v in vectors], p)
            mismatches += [(x, v, g) for v, a, b in zip(vectors, labels, moved)
                           if a != b]
    return mismatches


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("flavor", ("lie", "group"))
def test_labels_are_invariant_point_by_point(n, flavor):
    assert moved_label_mismatches(n, 3, flavor) == []


def test_only_the_pointwise_check_catches_a_basis_dependent_labeler(
        monkeypatch):
    # a batch labeller that is constant on lines but reads a coordinate of
    # x: an x with a zero first row keeps its labels, any other x labels
    # every v as it labels 0 (the first vector), each v keeping its pattern
    # and so its weight
    packed_labeler = classify.packed_labeler

    def basis_dependent(vectors, p):
        labels_of = packed_labeler(vectors, p)

        def labels(n_mat):
            patterns, label = labels_of(n_mat)
            if any(n_mat.entries[0]):
                label = dict.fromkeys(label, label[patterns[0]])
            return patterns, label
        return labels

    flavors = ("lie", "group")
    right = {flavor: orbit_census(2, 3, flavor).label_counts
             for flavor in flavors}
    monkeypatch.setattr(classify, "packed_labeler", basis_dependent)
    for flavor in flavors:
        counts = orbit_census(2, 3, flavor).label_counts
        assert counts != right[flavor]
        # the seeded counts still equal the unseeded ones
        for seed in (1, 20260809):
            assert orbit_census(2, 3, flavor,
                                basis_seed=seed).label_counts == counts
        assert moved_label_mismatches(2, 3, flavor)


def test_unipotent_census_matches_nilpotent():
    for n in (1, 2):
        lie = orbit_census(n, 3, flavor="lie")
        group = orbit_census(n, 3, flavor="group")
        assert lie.label_counts == group.label_counts


def test_log_bijects_unipotent_onto_nilpotent_n2():
    from exospringer.census import _is_unipotent
    space = SymplecticSpace(2, 3)
    unipotent = [x for x in iter_self_adjoint(space) if _is_unipotent(x)]
    nilpotent = {x.entries for x in iter_self_adjoint(space) if _is_nilpotent(x)}
    images = {space.log_map(x).entries for x in unipotent}
    assert len(images) == len(unipotent)
    assert images == nilpotent


def test_cyclic_strata_and_closure_shadow():
    # every census point's cyclic span dimension equals the first part
    # of its label, and the filter cyclic <= m cuts out exactly the
    # closure of ((m), (n-m))
    n, p = 2, 3
    seen = {}
    for pair in enumerate_exotic_nilcone(n, p):
        label = classify.exotic_type(pair)
        cd = classify.cyclic_dim(pair)
        first = label.first[0] if label.first else 0
        assert cd == first
        seen.setdefault(cd, set()).add(label)
    for m in range(n + 1):
        stratum = Bipartition((m,), (n - m,))
        inside = {lab for cd, labs in seen.items() if cd <= m for lab in labs}
        expected = {lab for lab in bipartitions_of(n)
                    if closure_leq(lab, stratum)}
        assert inside == expected


def test_census_second_prime_matches_orbit_stabilizer_predictions():
    # stabilizer group orders across primes follow the fixed structure
    # measured at p=3 (reductive factor times a p-power, cross-prime
    # stabilizer dimensions agree), so the p=5 counts are forced:
    #   2|-    |Z| = p^2             (2-dim unipotent stabilizer)
    #   1|1    |Z| = p^4
    #   1,1|-  |Z| = |Sp_2(F_p)| p^3
    #   -|2    |Z| = |Sp_2(F_p)| p^3
    #   -|1,1  the whole group
    result = orbit_census(2, 5)
    sp4 = sp_group_order(2, 5)
    sp2 = sp_group_order(1, 5)
    assert result.label_counts == {
        "2|-": sp4 // 5 ** 2,
        "1|1": sp4 // 5 ** 4,
        "1,1|-": sp4 // (sp2 * 5 ** 3),
        "-|2": sp4 // (sp2 * 5 ** 3),
        "-|1,1": 1,
    }
    assert result.total_points == 5 ** 8


@pytest.mark.parametrize("flavor", ("lie", "group"))
def test_census_second_prime_computes_the_predicted_stabilizer_orders(flavor):
    # the computed twin of the predictions above: each orbit's size is read
    # off the union-find, with no group listed (Sp_4(F_5) has 9,360,000
    # elements)
    result = orbit_census(2, 5, flavor, check_orbits=True)
    assert {chk["label"]: chk["stabilizer_order"]
            for chk in result.orbit_checks} == {
        "-|1,1": 9360000, "-|2": 15000, "1,1|-": 15000, "1|1": 625, "2|-": 25}
    for chk in result.orbit_checks:
        assert chk["transitive"] and chk["orbit_stabilizer_ok"]
        assert chk["stabilizer_order"] * chk["count"] == sp_group_order(2, 5)


def test_orbit_check_lists_no_group(monkeypatch):
    def listed(*args):
        raise RuntimeError("the orbit check listed the group")

    monkeypatch.setattr(census_mod, "sp_group_elements", listed)
    monkeypatch.setattr(census_mod, "_stabilizer_order", listed)
    result = orbit_census(2, 3, check_orbits=True)
    assert len(result.orbit_checks) == 5
    for chk in result.orbit_checks:
        assert chk["transitive"] and chk["orbit_stabilizer_ok"]


def test_orbit_check_fails_the_label_whose_count_is_off(monkeypatch):
    scan = census_mod._census_chunk

    def one_count_off(*args):
        counts, reps, points = scan(*args)
        counts["1|1"] += 1
        return counts, reps, points

    monkeypatch.setattr(census_mod, "_census_chunk", one_count_off)
    checks = orbit_census(2, 3, check_orbits=True).orbit_checks
    assert [chk["label"] for chk in checks if not chk["orbit_stabilizer_ok"]] \
        == ["1|1"]
    assert all(chk["transitive"] for chk in checks)


def test_orbit_check_refuses_an_orbit_size_that_does_not_divide_the_order(
        monkeypatch):
    # |Sp_2(F_3)| = 24, with orbits of 1 and 8 points; a group order of 25
    # leaves the 8-point orbit with no integer stabilizer order
    monkeypatch.setattr(census_mod, "sp_group_order", lambda n, q: 25)
    with pytest.raises(AssertionError, match="orbit of 1\\|- has 8 points"):
        orbit_census(1, 3, check_orbits=True)


def test_klyachko_small():
    assert klyachko_census(1, 3)["orbit_count"] == 2
    assert klyachko_census(1, 5)["orbit_count"] == 4
    result = klyachko_census(2, 3)
    assert result["orbit_count"] == 8
    assert result["count_matches"] and result["every_orbit_hit_by_embedding"]
    # independent oracle for the expected count
    assert brute_gl2_class_count(3) == 8 == gl_class_count(2, 3)


def test_klyachko_second_prime():
    result = klyachko_census(2, 5)
    assert result["orbit_count"] == 24 == gl_class_count(2, 5)
    assert result["count_matches"] and result["every_orbit_hit_by_embedding"]


@pytest.mark.parametrize("n, check_orbits", [(n, check)
                                              for n in (1, 2)
                                              for check in (False, True)])
def test_census_scans_the_cone_once(monkeypatch, n, check_orbits):
    scans = []
    scan = census_mod._census_chunk

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(census_mod, "_census_chunk", counted)
    result = orbit_census(n, 3, check_orbits=check_orbits)
    assert len(scans) == 1
    assert result.total_points == 3 ** (2 * n * n)   # the cone has dim 2n^2


@pytest.mark.parametrize("n, p, seed", [(n, p, seed)
                                        for n, p in ((1, 3), (1, 5), (2, 3))
                                        for seed in (0, 7)])
def test_census_matches_labelling_every_point(n, p, seed):
    # the census labels 0 and one vector per line from Jordan-chain
    # valuations; labelling every point of the cone by the definition (the
    # halved enhanced type on the commutant span), with v moved by the same
    # seeded basis change, must give the same counts and the same first
    # point per label
    space = SymplecticSpace(n, p)
    g = census_mod.seeded_basis_change(space, seed) if seed else \
        FpMatrix.identity(space.dim, p)
    counts, reps = {}, {}
    for pair in enumerate_exotic_nilcone(n, p):
        moved = ExoticPair(space, pair.x, g.apply(pair.v), "lie")
        gl_label = classify.enhanced_type(moved.x, moved.v)
        label = format_bipartition(Bipartition(
            classify.halve_doubled(gl_label.first),
            classify.halve_doubled(gl_label.second)))
        counts[label] = counts.get(label, 0) + 1
        reps.setdefault(label, (moved.x, moved.v))
    result = orbit_census(n, p, basis_seed=seed)
    assert result.label_counts == counts
    assert result.reps == reps


def test_census_labels_each_line_once(monkeypatch):
    # one batch call per x labels v = 0 and one vector per line through 0,
    # and the orbit check reuses those labels instead of labelling again
    calls = []
    packed_labeler = classify.packed_labeler

    def counting_labeler(vectors, p):
        labels_of = packed_labeler(vectors, p)

        def counted(n_mat):
            patterns, label = labels_of(n_mat)
            calls.append(len(patterns))
            return patterns, label
        return counted

    monkeypatch.setattr(classify, "packed_labeler", counting_labeler)
    n, p = 1, 3
    result = orbit_census(n, p, check_orbits=True)
    nilpotent_x = 1                                 # x = 0 only at n = 1
    assert calls == [nilpotent_x * (1 + (p ** (2 * n) - 1) // (p - 1))] == [5]
    assert result.label_counts == {"-|1": 1, "1|-": 8}
    assert all(chk["transitive"] and chk["orbit_stabilizer_ok"]
               for chk in result.orbit_checks)


@pytest.mark.parametrize("flavor", ("lie", "group"))
def test_census_derives_each_valuation_label_once(monkeypatch, flavor):
    # one census pass shares its (lengths, pattern) -> label dict across
    # every cone x, and a pattern keeps one bit per live chain, so each
    # distinct (lengths, valuations) key is derived once, not once per x
    keys = []
    valuation_label = classify._valuation_label

    def recorded(lengths, valuations):
        keys.append((tuple(lengths), tuple(valuations)))
        return valuation_label(lengths, valuations)

    monkeypatch.setattr(classify, "_valuation_label", recorded)
    shared = orbit_census(2, 3, flavor).label_counts
    assert keys and len(keys) == len(set(keys))
    # the same counts with one private dict per cone x
    packed_labeler = classify.packed_labeler
    monkeypatch.setattr(classify, "packed_labeler",
                        lambda vectors, p: lambda n_mat:
                        packed_labeler(vectors, p)(n_mat))
    del keys[:]
    assert orbit_census(2, 3, flavor).label_counts == shared
    assert len(keys) > len(set(keys))


@pytest.mark.parametrize("n, p", [(1, 3), (1, 5), (2, 3), (2, 5)])
@pytest.mark.parametrize("flavor", ("lie", "group"))
def test_packed_labels_equal_the_pointwise_labeler(n, p, flavor):
    # every cone x against the line vectors of seeds 0 and 7: the packed
    # label of each vector is exotic_labeler's, one pair at a time
    space = SymplecticSpace(n, p)
    g = census_mod.seeded_basis_change(space, 7)
    line_vectors = [census_mod._line_reps(space)]
    line_vectors.append([g.apply(v) for v in line_vectors[0]])
    batches = [classify.packed_labeler(vs, p) for vs in line_vectors]
    names = {}
    for _, x in census_mod._cone_xs(space, flavor):
        part = x if flavor == "lie" else x - space._one
        label_of = classify.exotic_labeler(part)
        for vs, labels_of in zip(line_vectors, batches):
            patterns, label = labels_of(part)
            assert len(patterns) == len(vs)
            for v, q in zip(vs, patterns):
                bp = label_of(v)
                name = names.get(bp) or names.setdefault(bp, format_bipartition(bp))
                assert label[q] == name
                assert (q == 0) == (not any(v))     # only v = 0 has pattern 0


@pytest.mark.parametrize("dim, p", [(4, 11), (10, 3)])
def test_packed_labels_refuse_a_size_the_bytes_cannot_hold(dim, p):
    # at (2, 11) a dot product can reach 4 * 10^2 >= 256, which carries
    # into the next vector's byte; at n = 5 there are 10 > 8 rows per
    # pattern byte.  The entries 300 cannot be packed into a byte either,
    # so the refusal comes before any packing
    with pytest.raises(AssertionError,
                       match=r"2n <= 8 and 2n \(p - 1\)\^2 < 256 "
                             r"\(got 2n = %d, p = %d\)" % (dim, p)):
        classify.packed_labeler([(300,) * dim], p)


def test_a_seeded_census_multiplies_no_cone_matrix(matmul_calls):
    # the seed moves the line vectors only (x -> g x g^-1 permutes the
    # cone), so the seeded pass makes the products of the unseeded pass
    # and of building g, and none per cone x
    orbit_census(2, 3)
    unseeded = len(matmul_calls)
    space = SymplecticSpace(2, 3)
    del matmul_calls[:]
    census_mod.seeded_basis_change(space, 7)
    change = len(matmul_calls)
    del matmul_calls[:]
    orbit_census(2, 3, basis_seed=7)
    assert len(matmul_calls) == unseeded + change


@pytest.mark.parametrize("flavor", ("lie", "group"))
def test_the_scan_codes_every_point_by_its_position(monkeypatch, flavor):
    # no point is encoded: an x's code is its position in iter_self_adjoint
    # and a vector's its position in iter_vectors; the point (x, v) is
    # k * p^4 + v-code, k the position of x along the cone, and each point
    # (x, c.v), c = 1..p-1, is mapped to the label of (x, v)
    encoded = []
    monkeypatch.setattr(census_mod, "_encode",
                        lambda *args: encoded.append(args))
    space = SymplecticSpace(2, 3)
    p = space.p
    _, _, (codes, labels) = census_mod._census_chunk(space, flavor, 0, True)
    assert encoded == []
    vs = list(census_mod.iter_vectors(space))
    v_code = {v: code for code, v in enumerate(vs)}
    keep = _is_nilpotent if flavor == "lie" else census_mod._is_unipotent
    cone = [(x_code, x) for x_code, x in enumerate(iter_self_adjoint(space))
            if keep(x)]
    expected = {}
    for k, (_, x) in enumerate(cone):
        label = classify.exotic_labeler(
            x if flavor == "lie" else x - space._one)
        for v in vs:
            name = format_bipartition(label(v))
            for c in range(1, p):
                expected[k * p ** 4 + v_code[tuple(c * a % p for a in v)]] = name
    assert len(expected) == 81 * p ** 4        # 81 cone x at n = 2, p = 3
    assert codes == [x_code for x_code, _ in cone]
    assert dict(enumerate(labels)) == expected


def test_group_listing_gate_refuses_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise RuntimeError("enumeration started past the size gate")

    monkeypatch.setattr(census_mod, "_times_transvection", no_enumeration)
    space = SymplecticSpace(2, 5)
    zero = zeros(4, 4, 5)
    for call in (lambda: sp_group_elements(2, 5),
                 lambda: stabilizer_census(ExoticPair(space, zero, (0,) * 4, "lie"))):
        with pytest.raises(SizeGateError, match="Sp_4\\(F_5\\) has 9360000"):
            call()


@pytest.mark.parametrize("p", [3, 5])
def test_group_listing_equals_a_closure_under_dense_products(p):
    # the listing extends each element by rank-one transvection updates;
    # a plain BFS over dense products with the generator matrices must
    # reach the same elements
    space = SymplecticSpace(1, p)
    gens = sp_generators(space)
    start = FpMatrix.identity(2, p)
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [h for h in {g * t for g in frontier for t in gens}
                    if h not in seen]
        seen.update(frontier)
    listed = sp_group_elements(1, p)
    assert len(listed) == len(set(listed)) == len(seen) == sp_group_order(1, p)
    assert set(listed) == seen


def test_group_listing_gate_allows_the_listed_sizes():
    census_mod._gate_group(2, 3)            # |Sp_4(F_3)| = 51,840: allowed
    assert len(sp_group_elements(1, 5)) == sp_group_order(1, 5) == 120
    assert orbit_census(1, 5, check_orbits=True).orbit_checks


def test_group_order_check_survives_python_O(monkeypatch):
    monkeypatch.setattr(census_mod, "sp_group_order", lambda n, q: 25)
    with pytest.raises(AssertionError, match="closure found 24 elements"):
        sp_group_elements(1, 3)
    # the same check under -O, where a bare assert would be stripped
    src = pathlib.Path(census_mod.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from exospringer import census\n"
            "census.sp_group_order = lambda n, q: 25\n"
            "try:\n"
            "    census.sp_group_elements(1, 3)\n"
            "except AssertionError as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("1 closure found 24 elements")


@pytest.mark.parametrize("n, p", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_cone_tests_match_is_nilpotent_on_self_adjoint_x(monkeypatch, n, p):
    # x^n = 0 and (x - 1)^n = 0 decide the cone because a self-adjoint
    # nilpotent has doubled Jordan type; the oracle is x^2n = 0, which
    # decides nilpotence for every 2n x 2n matrix
    space = SymplecticSpace(n, p)
    one = FpMatrix.identity(2 * n, p)
    full = {"lie": [], "group": []}      # the scan that decides every x
    for code, x in enumerate(iter_self_adjoint(space)):
        nilpotent = x.power(2 * n).is_zero()
        unipotent = (x - one).power(2 * n).is_zero()
        assert census_mod._is_nilpotent(x) == nilpotent
        assert census_mod._is_unipotent(x) == unipotent
        full["lie"] += [(code, x)] * nilpotent
        full["group"] += [(code, x)] * unipotent
    assert {flavor: len(xs) for flavor, xs in full.items()} == \
        {"lie": p ** (2 * n * n - 2 * n), "group": p ** (2 * n * n - 2 * n)}
    # the cone scan keeps the same (code, x), deciding only the x on the
    # trace hyperplane (trace 0 or 2n): p^(d-1) of the p^d, d = 2n^2 - n
    for flavor, name, trace in (("lie", "_is_nilpotent", 0),
                                ("group", "_is_unipotent", 2 * n % p)):
        decided = []
        keep = getattr(census_mod, name)
        monkeypatch.setattr(census_mod, name,
                            lambda x, keep=keep: decided.append(x) or keep(x))
        assert list(census_mod._cone_xs(space, flavor)) == full[flavor]
        assert len(decided) == len(set(decided)) == p ** (2 * n * n - n - 1)
        assert all(sum(x.entries[i][i] for i in range(2 * n)) % p == trace
                   for x in decided)


@pytest.mark.parametrize("n, p", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_the_pfaffian_locus_is_the_invertible_locus(n, p):
    # Pf(J x) != 0 exactly where x has full rank, code by code
    space = SymplecticSpace(n, p)
    pfaffians = census_mod._pfaffian_rows(space)
    xs = list(iter_self_adjoint(space))
    assert len(pfaffians) == len(xs) == p ** (2 * n * n - n)
    assert [bool(f) for f in pfaffians] == [x.rank() == 2 * n for x in xs]


def test_the_pfaffian_squares_to_the_determinant():
    sympy = pytest.importorskip("sympy")
    space = SymplecticSpace(2, 3)
    pfaffians = census_mod._pfaffian_rows(space)
    for f, x in zip(pfaffians, iter_self_adjoint(space), strict=True):
        assert f * f % 3 == sympy.Matrix(x.entries).det() % 3


def linear_rows_digit_by_digit(columns, p):
    # `_linear_rows` before a zero coefficient got its own path
    rows = [[0] for _ in columns[0]]
    for column in columns:
        rows = [[(y + d * a) % p for d in range(p) for y in row]
                for row, a in zip(rows, column)]
    return rows


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_linear_rows_repeat_a_row_at_a_zero_coefficient(data):
    p = data.draw(st.sampled_from((3, 5, 7)))
    width = data.draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    columns = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                                 min_size=1, max_size=4))
    assert census_mod._linear_rows(columns, p) == \
        linear_rows_digit_by_digit(columns, p)


@pytest.mark.parametrize("n, p", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_klyachko_ranks_only_the_gl_scan_and_the_embeddings(monkeypatch, n, p):
    # only the n^2 + 1 klyachko_embed calls that give the embedding table's
    # columns rank their n x n block; the locus itself is read off Pf(J x),
    # so no 2n x 2n x is ranked, and no g of GL_n is ranked on its own
    ranked = []
    rank, sparse = FpMatrix.rank, ffield.sparse_rank
    monkeypatch.setattr(FpMatrix, "rank",
                        lambda m: ranked.append(m.rows) or rank(m))
    sparse_calls = []
    monkeypatch.setattr(ffield, "sparse_rank",
                        lambda rows, q: sparse_calls.append(1) or sparse(rows, q))
    result = klyachko_census(n, p)
    assert result["count_matches"] and result["every_orbit_hit_by_embedding"]
    assert set(ranked) == {n}
    assert len(sparse_calls) == len(ranked) == n * n + 1


@pytest.mark.parametrize("n, p", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_the_klyachko_table_is_the_embedding_of_every_g(n, p):
    # the linear table against the embedding itself: at the code of each
    # n x n g (its row-major entries as base-p digits), the code of
    # klyachko_embed(embed_gl(g)) when g is invertible, and a code off the
    # Pf locus when it is singular
    space = SymplecticSpace(n, p)
    table = census_mod._klyachko_table(space)
    pfaffians = census_mod._pfaffian_rows(space)
    assert len(table) == p ** (n * n)
    invertible = 0
    for flat in itertools.product(range(p), repeat=n * n):
        g = FpMatrix([flat[i * n:(i + 1) * n] for i in range(n)], p)
        code = table[census_mod._vector_code(flat, p)]
        if g.is_invertible():
            invertible += 1
            assert code == census_mod._encode(
                space, space.klyachko_embed(space.embed_gl(g)))
        else:
            assert not pfaffians[code]
    gl_order = 1
    for i in range(n):
        gl_order *= p ** n - p ** i
    assert invertible == gl_order


@pytest.fixture
def scalar_products(monkeypatch):
    """A list that grows by one entry per entry product in ffield's
    matrix arithmetic: a dot product of length m adds m."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return a * b

    monkeypatch.setattr(ffield, "mul", counted)
    return calls


def test_cone_test_takes_one_product_at_n2_and_none_at_n1(matmul_calls,
                                                          scalar_products):
    # the census predicates form no FpMatrix: x^n is built on row tuples,
    # x^1 with no product and x^2 with one, read entry by entry up to its
    # first nonzero entry, so when (x x)[0][0] != 0 one dot product is made
    for n in (1, 2):
        space = SymplecticSpace(n, 3)
        one = FpMatrix.identity(space.dim, 3)
        for x in iter_self_adjoint(space):
            for keep, y in ((census_mod._is_nilpotent, x),
                            (census_mod._is_unipotent, x - one)):
                del scalar_products[:]
                kept = keep(x)
                assert matmul_calls == []
                made = len(scalar_products)
                if n == 1:
                    assert made == 0
                elif kept:
                    assert made == 4 ** 3
                elif sum(a * row[0] for a, row in zip(y.entries[0], y.entries)) % 3:
                    assert made == 4
                else:
                    assert made % 4 == 0 and 8 <= made <= 4 ** 3


def test_pair_validation_takes_the_power_chain(matmul_calls, row_products,
                                               scalar_products):
    # x^n (or (x - 1)^n) comes from one squaring chain, 0, 1, 2, 2
    # products at n = 1..4: FpMatrix.power forms them all, and
    # ExoticPair.validate all but the last, which it reads entry by entry,
    # every entry when x is on the cone
    for n, chain in ((1, 0), (2, 1), (3, 2), (4, 2)):
        space = SymplecticSpace(n, 5)
        pair = normal_form_pair(Bipartition((n,), ()), space).pair
        lie = pair.nilpotent_part()
        del row_products[:]
        assert lie.power(n).is_zero()
        assert len(row_products) == chain
        for x, flavor in ((lie, "lie"), (pair.x, "group")):
            del matmul_calls[:], scalar_products[:]
            ExoticPair(space, x, pair.v, flavor)
            assert matmul_calls == []
            assert len(scalar_products) == chain * space.dim ** 3


def test_group_census_labels_x_minus_one_with_no_log_map(monkeypatch):
    # the scan has shown each x self-adjoint with (x - 1)^n = 0, which is
    # all that log_map would check again
    calls = []
    monkeypatch.setattr(SymplecticSpace, "log_map",
                        lambda self, x: calls.append(x))
    orbit_census(2, 3, "group")
    orbit_census(1, 5, "group", check_orbits=True)
    assert calls == []


def test_generators_are_checked_by_membership_in_the_action_tables(monkeypatch):
    # each transvection is checked in closed form as it is built, and by
    # membership once, when its action tables are built
    checked = []
    membership = SymplecticSpace.membership

    def counted(self, x, which):
        checked.append(which)
        return membership(self, x, which)

    monkeypatch.setattr(SymplecticSpace, "membership", counted)
    for n, p in ((1, 3), (2, 3), (2, 5)):
        space = SymplecticSpace(n, p)
        del checked[:]
        gens = sp_generators(space)
        assert checked == []
        census_mod._action_tables(space, gens)
        assert checked.count("H_group") == len(gens)


@pytest.mark.parametrize("n, p", [(1, 3), (1, 5), (2, 3)])
def test_action_tables_match_conjugation(n, p):
    # every entry of every table against the matrix action it encodes,
    # decoding codes by their position in the code-order enumerations
    space = SymplecticSpace(n, p)
    xs = list(iter_self_adjoint(space))
    vs = list(census_mod.iter_vectors(space))
    assert [census_mod._encode(space, x) for x in xs] == list(range(len(xs)))
    gens = sp_generators(space)
    tables = census_mod._action_tables(space, gens)
    assert len(tables) == len(gens)
    for g, (x_table, v_table) in zip(gens, tables):
        gi = g.inverse()
        assert sorted(x_table) == list(range(len(xs)))
        assert sorted(v_table) == list(range(len(vs)))
        for code, x in enumerate(xs):
            assert xs[x_table[code]] == g * x * gi
        for code, v in enumerate(vs):
            assert vs[v_table[code]] == g.apply(v)


@pytest.mark.parametrize("n, p", [(1, 3), (2, 5)])
def test_encode_refuses_a_matrix_that_is_not_self_adjoint(n, p):
    # E_12 is not self-adjoint, yet its entries at the leading positions
    # would read as a valid code
    space = SymplecticSpace(n, p)
    entries = [[0] * space.dim for _ in range(space.dim)]
    entries[0][1] = 1
    x = FpMatrix(entries, p)
    assert not space.membership(x, "g_minus_theta")
    with pytest.raises(AssertionError, match="not self-adjoint"):
        census_mod._encode(space, x)


def test_action_tables_refuse_a_generator_off_the_self_adjoint_space():
    # conjugation by the shear moves a self-adjoint x off the space; the
    # tables conjugate by g* = g^-1, so they refuse it as not symplectic
    space = SymplecticSpace(2, 3)
    shear = FpMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    assert shear.is_invertible() and not space.membership(shear, "H_group")
    assert not all(space.membership(shear * b * shear.inverse(), "g_minus_theta")
                   for b in space.adjoint_eigenbasis(1))
    with pytest.raises(AssertionError, match="is not symplectic"):
        census_mod._action_tables(space, sp_generators(space) + [shear])


def test_each_orbit_pass_builds_the_tables_once(monkeypatch):
    builds = []
    build = census_mod._action_tables

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(census_mod, "_action_tables", counted)
    for run in (lambda: klyachko_census(2, 3),
                lambda: orbit_census(1, 3, check_orbits=True)):
        for calls in (1, 2):
            run()
            assert len(builds) == calls    # built per call, never reused
        builds.clear()


@pytest.mark.parametrize("run, kept, what", [
    (lambda: orbit_census(1, 3, "lie", check_orbits=True), "zero", "cone"),
    (lambda: orbit_census(1, 3, "group", check_orbits=True), "one", "cone"),
    (lambda: klyachko_census(1, 3), "one", "invertible self-adjoint locus")])
def test_a_generator_moving_a_point_off_the_locus_is_refused(
        monkeypatch, run, kept, what):
    # one generator's x-table is broken to send one x of the locus (x = 0
    # on the nilpotent cone, x = 1 on the unipotent cone and the
    # invertible locus) to the other, which is off the locus
    space = SymplecticSpace(1, 3)
    codes = {"zero": 0, "one": census_mod._encode(space, space._one)}
    off = codes["one" if kept == "zero" else "zero"]
    build = census_mod._action_tables

    def broken(*args):
        tables = build(*args)
        x_table, v_table = tables[0]
        x_table = list(x_table)
        x_table[codes[kept]] = off
        tables[0] = (x_table, v_table)
        return tables

    monkeypatch.setattr(census_mod, "_action_tables", broken)
    with pytest.raises(AssertionError,
                       match="a generator moved a point off the %s$" % what):
        run()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from((3, 5, 7, 2**31 - 1)),
       st.integers(0, 2**31 - 1))
def test_seeded_basis_change_is_the_word_in_all_generators(n, p, seed):
    # the old construction: every generator built, then a word of 12
    space = SymplecticSpace(n, p)
    assert census_mod.seeded_basis_change(space, seed) == \
        random_sp_element(random.Random(seed), space, word_len=12)


def test_seeded_basis_change_builds_no_transvection_and_checks_once(monkeypatch):
    # the word is 12 rank-one updates, each factor checked in closed
    # form; only the product is checked by membership.  No factor makes a
    # dense apply: J u is read off J's signed permutation and g u off the
    # nonzero entries of u
    built, checked, applied = [], [], []
    membership = SymplecticSpace.membership

    def counted(self, x, which):
        checked.append(which)
        return membership(self, x, which)

    monkeypatch.setattr(census_mod, "transvection",
                        lambda space, u: built.append(u))
    monkeypatch.setattr(SymplecticSpace, "membership", counted)
    monkeypatch.setattr(FpMatrix, "apply",
                        lambda self, vec: applied.append(vec))
    for n in (1, 4):
        checked.clear()
        space = SymplecticSpace(n, 5)
        g = census_mod.seeded_basis_change(space, 11)
        assert built == [] and checked == ["H_group"] and applied == []
        assert membership(space, g, "H_group")


@pytest.mark.parametrize("n, p", [(n, p) for n in (1, 2, 3, 4)
                                  for p in (3, 2**31 - 1)])
def test_seeded_basis_change_is_inverted_by_its_adjoint(n, p):
    space = SymplecticSpace(n, p)
    for seed in (1, 2, 3):
        g = census_mod.seeded_basis_change(space, seed)
        assert space.adjoint(g) == g.inverse()


def test_rank_one_update_is_the_product_with_the_transvection(rng):
    # on any g, symplectic or not: g + (g u)(J u)^T = g (1 + u (J u)^T)
    for n, p in ((1, 3), (2, 5), (3, 7), (4, 2**31 - 1)):
        space = SymplecticSpace(n, p)
        for _ in range(5):
            g = random_matrix(rng, space.dim, space.dim, p)
            u = tuple(rng.randrange(p) for _ in range(space.dim))
            ju = space.J.apply(u)
            t = FpMatrix([[(i == j) + a * b for j, b in enumerate(ju)]
                          for i, a in enumerate(u)], p)
            assert not space.membership(g, "H_group")
            assert census_mod._times_transvection(space, g, u) == g * t


def test_closed_form_factor_check_agrees_with_membership(rng):
    # (J u).u = 0, the closed-form check on each factor of the seeded word,
    # against membership of T = 1 + u (J u)^T, built here: on every u at
    # (1, 3) and (2, 3), and on random u at n = 3 and 4
    def accepts(space, u):
        try:
            census_mod._times_transvection(space, space._one, u)
        except AssertionError:
            return False
        return True

    for n, p in ((1, 3), (2, 3), (3, 5), (4, 2**31 - 1)):
        space = SymplecticSpace(n, p)
        if n <= 2:
            vectors = itertools.product(range(p), repeat=2 * n)
        else:
            vectors = [tuple(rng.randrange(p) for _ in range(2 * n))
                       for _ in range(50)]
        for u in vectors:
            ju = space.J.apply(u)
            t = FpMatrix([[(i == j) + a * b for j, b in enumerate(ju)]
                          for i, a in enumerate(u)], p)
            assert accepts(space, u) == space.membership(t, "H_group")


def test_closed_form_factor_check_raises_like_transvection():
    # with J, and the signed permutation it is read as, swapped for the
    # symmetric e_i <-> f_i, (J u).u = 2 != 0 for u = e_1 + f_1, and both
    # checks refuse with the same message
    space = SymplecticSpace(1, 3)
    object.__setattr__(space, "J", FpMatrix([[0, 1], [1, 0]], 3))
    object.__setattr__(space, "_signed_perm", ((1, 1), (0, 1)))
    for build in (census_mod.transvection,
                  lambda s, u: census_mod._times_transvection(s, s._one, u)):
        with pytest.raises(AssertionError,
                           match=r"transvection along \(1, 1\) is not symplectic"):
            build(space, (1, 1))
