import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

from exospringer import hyperoct
from exospringer.bicomb import Bipartition, bipartitions_of, parse_bipartition, \
    partitions_of, removable_nodes
from exospringer.hyperoct import (
    CharacterTable, SizeMismatchError, centralizer_order, graded_fiber_module,
    inner_product, irrep_dim, restrict_branching, restrict_row,
    sn_character, wn_character, wn_classes, wn_order)


def bp(s):
    return parse_bipartition(s)


def identity_class(n):
    return Bipartition((1,) * n, ())


def total_dim(module):
    # dimension of a graded W_n module: sum of multiplicity times irrep dim
    return sum(m * irrep_dim(label)
               for mults in module.degrees.values()
               for label, m in mults.items())


def z_oracle(parts):
    # independent computation of z_lambda
    z = 1
    for val in set(parts):
        m = parts.count(val)
        z *= val ** m * factorial(m)
    return z


def signed_permutation_class(mat):
    """Cycle-type signature (alpha, beta) of a 2x2 signed permutation."""
    # identify the permutation and the signs
    perm = {}
    sign = {}
    for j in range(2):
        i = next(i for i in range(2) if mat[i][j] != 0)
        perm[j] = i
        sign[j] = mat[i][j]
    alpha, beta = [], []
    seen = set()
    for j in range(2):
        if j in seen:
            continue
        cyc, s, cur = 0, 1, j
        while cur not in seen:
            seen.add(cur)
            s *= sign[cur]
            cur = perm[cur]
            cyc += 1
        (alpha if s == 1 else beta).append(cyc)
    return Bipartition(tuple(sorted(alpha, reverse=True)),
                       tuple(sorted(beta, reverse=True)))


def test_classes_small():
    ones = wn_classes(1)
    assert len(ones) == 2 and [c.size for c in ones] == [1, 1]
    twos = wn_classes(2)
    assert len(twos) == 5
    sizes = {str(c.signature): c.size for c in twos}
    assert sizes == {"1,1|-": 1, "2|-": 2, "1|1": 2, "-|2": 2, "-|1,1": 1}
    threes = wn_classes(3)
    assert len(threes) == 10 and sum(c.size for c in threes) == 48


def test_centralizer_order_formula():
    for n in range(1, 6):
        for sig in bipartitions_of(n):
            expected = (z_oracle(list(sig.first)) * 2 ** len(sig.first)
                        * z_oracle(list(sig.second)) * 2 ** len(sig.second))
            assert centralizer_order(sig) == expected


def test_sn_character_examples():
    for n in range(1, 6):
        for rho in partitions_of(n):
            assert sn_character((n,), rho) == 1
            assert sn_character((1,) * n, rho) == (-1) ** (n - len(rho))
    assert sn_character((2, 1), (1, 1, 1)) == 2
    assert sn_character((2, 1), (3,)) == -1
    with pytest.raises(SizeMismatchError):
        sn_character((2,), (1,))


def test_sn_orthogonality():
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                total = sum(Fraction(sn_character(lam, rho) * sn_character(mu, rho),
                                     z_oracle(list(rho)))
                            for rho in parts)
                assert total == (1 if lam == mu else 0)


def test_wn_character_identity_and_sign():
    for n in range(1, 5):
        for cls in wn_classes(n):
            sig = cls.signature
            assert wn_character(Bipartition((n,), ()), sig) == 1
            merged = tuple(sorted(sig.first + sig.second, reverse=True))
            expected = ((-1) ** len(sig.second)) * \
                ((-1) ** (n - len(merged)))
            assert wn_character(Bipartition((), (1,) * n), sig) == expected


def test_wn_two_dim_irrep_against_signed_matrices():
    # the 2-dim irreducible of W_2 is the signed permutation action;
    # collect traces by class from the 8 signed permutation matrices
    mats = []
    for perm in ((0, 1), (1, 0)):
        for signs in itertools.product((1, -1), repeat=2):
            m = [[0, 0], [0, 0]]
            for j, (i, s) in enumerate(zip(perm, signs)):
                m[i][j] = s
            mats.append(m)
    assert len(mats) == 8
    traces = {}
    for m in mats:
        sig = signed_permutation_class(m)
        tr = m[0][0] + m[1][1]
        traces.setdefault(str(sig), set()).add(tr)
    assert all(len(v) == 1 for v in traces.values())
    for cls in wn_classes(2):
        got = wn_character(bp("1|1"), cls.signature)
        assert got == traces[str(cls.signature)].pop()


def test_wn_frozen_row():
    row = {str(c.signature): wn_character(bp("1|1"), c.signature)
           for c in wn_classes(2)}
    assert row == {"1,1|-": 2, "2|-": 0, "1|1": 0, "-|2": 0, "-|1,1": -2}


def test_irrep_dims():
    assert irrep_dim(bp("3|-")) == 1
    assert irrep_dim(bp("1|1")) == 2
    assert irrep_dim(bp("1|2")) == 3
    assert irrep_dim(bp("2,1|1")) == 4 * 2 * 1
    for n in range(1, 6):
        for label in bipartitions_of(n):
            assert wn_character(label, identity_class(n)) == irrep_dim(label)


def test_sum_of_squares():
    for n in range(1, 9):
        assert sum(irrep_dim(b) ** 2 for b in bipartitions_of(n)) == wn_order(n)


def test_row_orthogonality():
    for n in range(1, 6):
        table = {b: {c.signature: wn_character(b, c.signature)
                     for c in wn_classes(n)} for b in bipartitions_of(n)}
        for a in bipartitions_of(n):
            for b in bipartitions_of(n):
                ip = inner_product(table[a], table[b], n)
                assert ip == (1 if a == b else 0)


def test_column_orthogonality():
    for n in range(1, 5):
        labels = bipartitions_of(n)
        for c1 in wn_classes(n):
            for c2 in wn_classes(n):
                total = sum(wn_character(b, c1.signature)
                            * wn_character(b, c2.signature) for b in labels)
                expected = c1.centralizer_order if c1.signature == c2.signature else 0
                assert total == expected


def regular_character(n):
    return {cls.signature: wn_order(n) if cls.signature == identity_class(n) else 0
            for cls in wn_classes(n)}


def test_regular_character_decomposition():
    n = 3
    reg = regular_character(n)
    table = {b: {c.signature: wn_character(b, c.signature)
                 for c in wn_classes(n)} for b in bipartitions_of(n)}
    for b in bipartitions_of(n):
        assert inner_product(reg, table[b], n) == irrep_dim(b)


def test_central_element_values():
    for n in range(1, 6):
        central = Bipartition((), (1,) * n)
        for label in bipartitions_of(n):
            expected = (-1) ** sum(label.second) * irrep_dim(label)
            assert wn_character(label, central) == expected


def test_character_table_object():
    table = CharacterTable(2)
    assert table.values[0][0] == 1
    assert [row[0] for row in table.values] == [irrep_dim(b)
                                                for b in table.rows]
    obj = table.to_json()
    assert obj["n"] == 2 and len(obj["values"]) == 5


def test_branching_frozen_examples():
    b = restrict_branching(2)
    assert b[bp("1|1")] == {bp("1|-"): 1, bp("-|1"): 1}
    for n in range(2, 6):
        mat = restrict_branching(n)
        assert mat[Bipartition((n,), ())] == \
            {lab: (1 if lab == Bipartition((n - 1,), ()) else 0)
             for lab in bipartitions_of(n - 1)}


def test_branching_is_removable_node_incidence():
    for n in range(2, 7):
        mat = restrict_branching(n)
        for label in bipartitions_of(n):
            row = mat[label]
            assert all(v in (0, 1) for v in row.values())
            nodes = {r for _, _, r in removable_nodes(label)}
            assert sum(row.values()) == len(nodes)
            assert {k for k, v in row.items() if v} == nodes


def test_branching_matches_fraction_inner_products():
    # the integer dot-product kernel against the Fraction definition
    for n in range(1, 6):
        table = CharacterTable(n - 1)
        expected = {b: {other: inner_product(restrict_row(b), table.row(other), n - 1)
                        for other in table.rows}
                    for b in bipartitions_of(n)}
        assert restrict_branching(n) == expected


def _corrupted_table_errors(n=3):
    """Messages raised by restrict_branching(n + 1) and CharacterTable(n)
    when chi^(n|-) on the identity class of W_n reads 2 instead of 1."""
    clean = hyperoct._character_table_rows

    def corrupted(m):
        rows = clean(m)
        if m != n:
            return rows
        rows = {label: dict(row) for label, row in rows.items()}
        rows[Bipartition((n,), ())][identity_class(n)] += 1
        return rows

    errors = []
    hyperoct._character_table_rows = corrupted
    try:
        for check in (lambda: restrict_branching(n + 1), lambda: CharacterTable(n)):
            try:
                check()
                errors.append(None)
            except AssertionError as exc:
                errors.append(str(exc))
    finally:
        hyperoct._character_table_rows = clean
    return errors


def test_corrupted_table_checks_survive_python_O():
    expected = ["<Res chi^4|-, chi^3|-> is not an integer",
                "chi^3|-(1) = 2, but dim 3|- = 1"]
    assert _corrupted_table_errors() == expected
    assert restrict_branching(4)[Bipartition((4,), ())][Bipartition((3,), ())] == 1
    # the same checks under -O, where bare asserts would be stripped
    tests = pathlib.Path(__file__).resolve().parent
    code = ("import sys\n"
            "sys.path.insert(0, %r)\n"
            "from test_hyperoct import _corrupted_table_errors\n"
            "print(sys.flags.optimize, _corrupted_table_errors())\n"
            % str(tests))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 %r\n" % (expected,)


def test_graded_fiber_top_and_bottom():
    g = graded_fiber_module(1, 0, (), (1,))
    assert g.degrees[0] == {bp("1|-"): 1}
    assert g.degrees[2] == {bp("-|1"): 1}
    g2 = graded_fiber_module(3, 3, (2, 1), ())
    assert list(g2.degrees) == [0]
    assert g2.degrees[0] == {bp("2,1|-"): 1}
    for n in range(1, 5):
        g3 = graded_fiber_module(n, 0, (), (n,))
        assert total_dim(g3) == 2 ** n
    # the top graded piece is the label itself
    for (n, m, r1, r2) in ((3, 1, (1,), (2,)), (4, 2, (1, 1), (2,)),
                           (3, 2, (2,), (1,))):
        g4 = graded_fiber_module(n, m, r1, r2)
        assert g4.degrees[2 * (n - m)] == {Bipartition(r1, r2): 1}


def test_graded_fiber_errors():
    with pytest.raises(ValueError):
        graded_fiber_module(2, 3, (1, 1, 1), ())
    with pytest.raises(ValueError):
        graded_fiber_module(2, 1, (2,), ())
