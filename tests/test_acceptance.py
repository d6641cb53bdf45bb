"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run
pytest -s to watch them).  Every comparison is exact integer equality;
the stated wall-clock bounds are asserted too.
"""

import time

from exospringer import census, classify, hyperoct, springer
from exospringer.bicomb import (Bipartition, bipartitions_of, closure_leq,
                                orbit_dim)
from exospringer.hyperoct import (graded_fiber_module, inner_product,
                                  irrep_dim, wn_character, wn_classes,
                                  wn_order)
from exospringer.symplectic import SymplecticSpace, normal_form_pair


def report(number, name, elapsed, bound):
    line = "ACCEPTANCE %02d %-28s PASS  (%.1fs of %ds allowed)" % (
        number, name, elapsed, bound)
    print("\n" + line)
    assert elapsed < bound, "time bound exceeded: %s" % line


def test_01_orbit_parametrization():
    t0 = time.perf_counter()
    for n, p, expected in ((1, 3, 2), (1, 5, 2)):
        result = census.orbit_census(n, p)
        assert len(result.label_counts) == expected == len(bipartitions_of(n))
    t1 = time.perf_counter()
    result = census.orbit_census(2, 3)
    assert len(result.label_counts) == 5 == len(bipartitions_of(2))
    elapsed_n2 = time.perf_counter() - t1
    assert elapsed_n2 < 60, "n=2 census must finish within 60 s on one core"
    report(1, "orbit-parametrization", time.perf_counter() - t0, 120)


def test_02_orbit_stabilizer_and_dimension():
    t0 = time.perf_counter()
    result = census.orbit_census(2, 3, check_orbits=True)
    order = census.sp_group_order(2, 3)
    for chk in result.orbit_checks:
        assert chk["transitive"]
        assert chk["stabilizer_order"] * chk["count"] == order
    for n in range(1, 5):
        for label in bipartitions_of(n):
            dims = set()
            for p in (3, 5, 7):
                pair = normal_form_pair(label, SymplecticSpace(n, p)).pair
                dims.add(classify.stabilizer_dim(pair, include_v=True))
            assert len(dims) == 1, "cross-prime disagreement at %s" % (label,)
            assert dims.pop() == (2 * n * n + n) - orbit_dim(label, n)
    report(2, "orbit-stabilizer+dimension", time.perf_counter() - t0, 600)


def test_03_sum_of_squares():
    t0 = time.perf_counter()
    for n in range(1, 9):
        total = sum(irrep_dim(b) ** 2 for b in bipartitions_of(n))
        assert total == wn_order(n)
    assert wn_order(8) == 10321920
    report(3, "sum-of-squares", time.perf_counter() - t0, 1)


def test_04_restriction_shadow():
    t0 = time.perf_counter()
    for n in range(2, 7):
        matrix = hyperoct.restrict_branching(n)
        for row in matrix.values():
            assert all(v in (0, 1) for v in row.values())
        assert springer.verify_restriction(n) == []
    report(4, "restriction-shadow", time.perf_counter() - t0, 30)


def test_05_fiber_dimension_law():
    t0 = time.perf_counter()
    for n in range(2, 8):
        assert springer.d_difference_check(n) == []
    report(5, "fiber-dimension-law", time.perf_counter() - t0, 1)


def test_06_springer_determination():
    t0 = time.perf_counter()
    solution = springer.determine_correspondence(6)
    for n, mapping in solution.items():
        assert all(orbit == irrep for orbit, irrep in mapping.items())
        assert len(set(mapping.values())) == len(bipartitions_of(n))
    report(6, "springer-determination", time.perf_counter() - t0, 60)


def test_07_parabolic_line_stabilizers():
    t0 = time.perf_counter()
    instances = 0
    for n in (2, 3, 4):
        for p in (3, 5):
            sp = SymplecticSpace(n, p)
            for label in bipartitions_of(n):
                nf = normal_form_pair(label, sp)
                ell = nf.num_blocks
                if ell > 3:
                    continue
                z = classify.stabilizer_dim(nf.pair, include_v=True)
                for i in range(1, ell + 1):
                    q = nf.q_rows[i - 1]
                    mu1_next = nf.mu1_values[i] if i < ell else 0
                    if nf.mu1_values[i - 1] > mu1_next:
                        got = classify.parabolic_stabilizer_dim(nf, i, "i_node")
                        assert got == z - 2 * q + 2, (label, i, p)
                        instances += 1
                    if nf.nu_values[i - 1] > nf.mu1_values[i - 1]:
                        got = classify.parabolic_stabilizer_dim(nf, i, "ii_node")
                        assert got == z - 2 * q + 1, (label, i, p)
                        instances += 1
    assert instances >= 100
    report(7, "parabolic-line-stabilizers", time.perf_counter() - t0, 120)


def test_08_klyachko_bijection():
    t0 = time.perf_counter()
    for n, p, expected in ((1, 3, 2), (1, 5, 4), (2, 3, 8)):
        result = census.klyachko_census(n, p)
        assert result["orbit_count"] == expected == result["gl_class_count"]
        assert result["every_orbit_hit_by_embedding"]
    report(8, "klyachko-bijection", time.perf_counter() - t0, 300)


def test_09_log_map_coherence():
    t0 = time.perf_counter()
    for n in (1, 2):
        lie = census.orbit_census(n, 3, flavor="lie")
        group = census.orbit_census(n, 3, flavor="group")
        assert lie.label_counts == group.label_counts
    report(9, "log-map-coherence", time.perf_counter() - t0, 120)


def test_10_stratification_and_closure():
    t0 = time.perf_counter()
    n, p = 2, 3
    by_cyclic = {}
    for pair in census.enumerate_exotic_nilcone(n, p):
        label = classify.exotic_type(pair)
        cd = classify.cyclic_dim(pair)
        first = label.first[0] if label.first else 0
        assert cd == first
        by_cyclic.setdefault(cd, set()).add(label)
    for m, labels in by_cyclic.items():
        assert labels == {lab for lab in bipartitions_of(n)
                          if (lab.first[0] if lab.first else 0) == m}
    for rank in range(1, 8):
        labels = bipartitions_of(rank)
        index = {lab: i for i, lab in enumerate(labels)}
        up = []
        for a in labels:
            assert closure_leq(a, a)
            bits = 0
            for b in labels:
                if closure_leq(a, b):
                    bits |= 1 << index[b]
                    if a != b:
                        assert not closure_leq(b, a)
                        assert orbit_dim(a, rank) < orbit_dim(b, rank)
            up.append(bits)
        for i in range(len(labels)):
            closure = up[i]
            for j in range(len(labels)):
                if up[i] >> j & 1:
                    closure |= up[j]
            assert closure == up[i]       # transitive
    report(10, "stratification+closure", time.perf_counter() - t0, 120)


def test_11_character_table_integrity():
    t0 = time.perf_counter()
    for n in range(1, 7):
        rows = {b: {c.signature: wn_character(b, c.signature)
                    for c in wn_classes(n)} for b in bipartitions_of(n)}
        labels = bipartitions_of(n)
        for i, a in enumerate(labels):
            for b in labels[i:]:
                assert inner_product(rows[a], rows[b], n) == (1 if a == b else 0)
        central = Bipartition((), (1,) * n)
        for label in labels:
            assert rows[label][central] == \
                (-1) ** sum(label.second) * irrep_dim(label)
        for c1 in wn_classes(n):
            for c2 in wn_classes(n):
                total = sum(rows[b][c1.signature] * rows[b][c2.signature]
                            for b in labels)
                assert total == (c1.centralizer_order
                                 if c1.signature == c2.signature else 0)
    g = graded_fiber_module(3, 3, (2, 1), ())
    assert g == {0: {Bipartition((2, 1), ()): 1}}
    g1 = graded_fiber_module(1, 0, (), (1,))
    assert g1[0] == {Bipartition((1,), ()): 1}
    assert g1[2] == {Bipartition((), (1,)): 1}
    report(11, "character-table-integrity", time.perf_counter() - t0, 120)
