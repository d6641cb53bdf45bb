import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import random_sp_element, zeros
from exospringer import census as census_mod, classify
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
    # union-find on GL_2(F_p) under conjugation by everything
    elements = []
    for flat in itertools.product(range(p), repeat=4):
        g = FpMatrix([flat[:2], flat[2:]], p)
        if g.is_invertible():
            elements.append(g)
    uf = UnionFind()
    for g in elements:
        uf.add(g.entries)
    for g in elements:
        gi = g.inverse()
        for h in elements:
            uf.union(h.entries, (g * h * gi).entries)
    return uf.class_count()


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
    sp2 = SymplecticSpace(2, 3)
    open_pair = normal_form_pair(Bipartition((2,), ()), sp2).pair
    count = orbit_census(2, 3).label_counts["2|-"]
    assert stabilizer_census(open_pair) * count == sp_group_order(2, 3)


def test_census_counts_invariant_under_basis_change(rng):
    space = SymplecticSpace(1, 3)
    g = random_sp_element(rng, space)
    gi = g.inverse()
    counts = {}
    for pair in enumerate_exotic_nilcone(1, 3):
        moved = ExoticPair(space, g * pair.x * gi, g.apply(pair.v), "lie")
        label = format_bipartition(classify.exotic_type(moved))
        counts[label] = counts.get(label, 0) + 1
    assert counts == orbit_census(1, 3).label_counts
    # same property through the seeded-basis-change entry point
    for seed in (1, 20260809):
        assert orbit_census(2, 3, basis_seed=seed).label_counts == \
            orbit_census(2, 3).label_counts


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
    # the census labels 0 and one vector per line; labelling every point
    # of the cone, through the same seeded basis change, must give the
    # same counts and the same first point per label
    space = SymplecticSpace(n, p)
    g = census_mod.seeded_basis_change(space, seed) if seed else \
        FpMatrix.identity(space.dim, p)
    gi = g.inverse()
    counts, reps = {}, {}
    for pair in enumerate_exotic_nilcone(n, p):
        moved = ExoticPair(space, g * pair.x * gi, g.apply(pair.v), "lie")
        label = format_bipartition(classify.exotic_type(moved))
        counts[label] = counts.get(label, 0) + 1
        reps.setdefault(label, (moved.x.to_json(), list(moved.v)))
    result = orbit_census(n, p, basis_seed=seed)
    assert result.label_counts == counts
    assert result.reps == reps


def test_census_labels_each_line_once(monkeypatch):
    # one labeller call per x for v = 0 and one per line through 0, and
    # the orbit check reuses those labels instead of labelling again
    calls = []
    labeler = classify.exotic_labeler

    def counting_labeler(n_mat):
        label_of = labeler(n_mat)

        def counted(v):
            calls.append(v)
            return label_of(v)
        return counted

    monkeypatch.setattr(classify, "exotic_labeler", counting_labeler)
    n, p = 1, 3
    result = orbit_census(n, p, check_orbits=True)
    nilpotent_x = 1                                 # x = 0 only at n = 1
    assert len(calls) == nilpotent_x * (1 + (p ** (2 * n) - 1) // (p - 1)) == 5
    assert result.label_counts == {"-|1": 1, "1|-": 8}
    assert all(chk["transitive"] and chk["orbit_stabilizer_ok"]
               for chk in result.orbit_checks)


def test_group_listing_gate_refuses_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise RuntimeError("enumeration started past the size gate")

    monkeypatch.setattr(census_mod, "_census_chunk", no_enumeration)
    monkeypatch.setattr(census_mod, "sp_generators", no_enumeration)
    space = SymplecticSpace(2, 5)
    zero = zeros(4, 4, 5)
    for call in (lambda: sp_group_elements(2, 5),
                 lambda: stabilizer_census(ExoticPair(space, zero, (0,) * 4, "lie")),
                 lambda: orbit_census(2, 5, check_orbits=True),
                 lambda: orbit_census(2, 5, flavor="group", check_orbits=True)):
        with pytest.raises(SizeGateError, match="Sp_4\\(F_5\\) has 9360000"):
            call()


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
