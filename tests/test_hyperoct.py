import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from exospringer import hyperoct
from exospringer.bicomb import Bipartition, bipartitions_of, parse_bipartition, \
    partitions_of, removable_nodes
from exospringer.hyperoct import (
    CharacterTable, SizeMismatchError, centralizer_order, graded_fiber_module,
    induce_product, inner_product, irrep_dim, restrict_branching,
    sn_character, wn_character, wn_character_row, wn_classes, wn_order)


def restrict_row(irrep):
    """Values of Res chi^irrep on the classes of W_{n-1}, through the class
    fusion W_{n-1} -> W_n."""
    return {c.signature: wn_character(irrep, hyperoct.fuse_class_up(c.signature))
            for c in wn_classes(irrep.n - 1)}


def bp(s):
    return parse_bipartition(s)


def identity_class(n):
    return Bipartition((1,) * n, ())


def total_dim(module):
    # dimension of a graded W_n module: sum of multiplicity times irrep dim
    return sum(m * irrep_dim(label)
               for mults in module.values()
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


def test_table_kernel_matches_fusion_formula():
    # the packed table against the definition, irrep order included; n = 8
    # and 9 need 2- and 4-byte digits
    for n in range(1, 10):
        expected = {}
        for irrep in bipartitions_of(n):
            row = wn_character_row(irrep)
            expected[irrep] = tuple(row[c.signature] for c in wn_classes(n))
        assert list(hyperoct._character_table_rows(n).items()) == \
            list(expected.items())


def test_wn_character_reads_the_class_column():
    for n in range(1, 5):
        table = CharacterTable(n)
        for irrep in table.rows:
            row = table.row(irrep)
            for cls in wn_classes(n):
                assert wn_character(irrep, cls.signature) == row[cls.signature]


def flat_splittings(parts):
    # every multiset splitting (sub, rest, weight), not grouped by size
    out = [((), (), 1)]
    for val in sorted(set(parts), reverse=True):
        m = parts.count(val)
        out = [(sub + (val,) * k, rest + (val,) * (m - k), w * comb(m, k))
               for sub, rest, w in out for k in range(m + 1)]
    return out


def induce_oracle(n, m, f_left, f_right):
    # the fusion sum over all splittings, those of the wrong size skipped
    values = {}
    for cls in wn_classes(n):
        total = 0
        for a1, a2, wa in flat_splittings(cls.signature.first):
            for b1, b2, wb in flat_splittings(cls.signature.second):
                if sum(a1) + sum(b1) == m:
                    total += wa * wb * f_left(a1, b1) * f_right(a2, b2)
        values[cls.signature] = total
    return values


def merged(a, b):
    return tuple(sorted(a + b, reverse=True))


def fiber_callables(rho1, rho2, k):
    # the class functions graded_fiber_module induces in degree 2k
    def left(a1, b1):
        return sn_character(rho1, merged(a1, b1))

    def right(a2, b2):
        coeffs = hyperoct._subset_weight_poly(a2, b2)
        weight = coeffs[k] if k < len(coeffs) else 0
        return weight * sn_character(rho2, merged(a2, b2))

    return left, right


def test_induce_product_matches_unfiltered_fusion_sum():
    for n in range(1, 7):
        for m in range(n + 1):
            for rho1 in partitions_of(m):
                for rho2 in partitions_of(n - m):
                    for k in range(n - m + 1):
                        left, right = fiber_callables(rho1, rho2, k)
                        assert induce_product(n, m, left, right) == \
                            induce_oracle(n, m, left, right)


def graded_by_degree(n, m, rho1, rho2):
    # one induce_product per degree 2k, each decomposed by inner products
    # with the character table
    table = CharacterTable(n)
    degrees = {}
    for k in range(n - m + 1):
        values = induce_product(n, m, *fiber_callables(rho1, rho2, k))
        mults = {irrep: inner_product(values, table.row(irrep), n)
                 for irrep in table.rows}
        degrees[2 * k] = {irrep: mult for irrep, mult in mults.items() if mult}
    return degrees


def test_graded_fiber_module_matches_one_induction_per_degree():
    for n in range(1, 7):
        for m in range(n + 1):
            for rho1 in partitions_of(m):
                for rho2 in partitions_of(n - m):
                    assert graded_fiber_module(n, m, rho1, rho2) == \
                        graded_by_degree(n, m, rho1, rho2)


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
    # the packed integer kernel against the Fraction definition
    for n in range(1, 8):
        table = CharacterTable(n - 1)
        down = {other: table.row(other) for other in table.rows}
        expected = {}
        for b in bipartitions_of(n):
            res = restrict_row(b)
            expected[b] = {other: inner_product(res, chi, n - 1)
                           for other, chi in down.items()}
        assert restrict_branching(n) == expected


def dot_loop_branching(n):
    """restrict_branching as one sum(map(mul, ...)) per pair of irreps,
    the loop the packed kernel replaced."""
    column = hyperoct._columns(n)
    down_classes = wn_classes(n - 1)
    fusion = [column[hyperoct.fuse_class_up(c.signature)] for c in down_classes]
    sizes = [c.size for c in down_classes]
    out = {}
    for irrep, values in hyperoct._character_table_rows(n).items():
        weighted = [size * values[j] for size, j in zip(sizes, fusion)]
        out[irrep] = {}
        for other, chi in hyperoct._character_table_rows(n - 1).items():
            mult, rem = divmod(sum(map(mul, weighted, chi)), wn_order(n - 1))
            assert rem == 0
            out[irrep][other] = mult
    return out


def test_branching_at_8_matches_the_dot_loop():
    assert restrict_branching(8) == dot_loop_branching(8)


def test_branching_rows_are_in_bipartition_order():
    # cmd_branch writes each TSV row from the row's values in this order
    for n in range(1, 9):
        mat = restrict_branching(n)
        assert list(mat) == list(bipartitions_of(n))
        for row in mat.values():
            assert list(row) == list(bipartitions_of(n - 1))


def dot_loop(rows, table):
    return [[sum(map(mul, a, t)) for t in table] for a in rows]


@st.composite
def row_sets(draw):
    """(rows, table): rows of one length (1 included), all-zero rows among
    them, and a table of any height, 0 included.  Entries are small or up
    to 2^bits in size, bits drawn so that the digits land on every width:
    1 byte from the small ones, then 2, 4 and 8 bytes, and wider."""
    bits = draw(st.sampled_from((1, 5, 12, 28, 60, 200)))
    entries = st.one_of(st.integers(-3, 3), st.just(0),
                        st.integers(-2 ** bits, 2 ** bits),
                        st.sampled_from((2 ** bits, -2 ** bits)))
    length = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=length, max_size=length)
    zero = [0] * length
    rows = draw(st.lists(st.one_of(row, st.just(zero)), max_size=5))
    table = draw(st.lists(st.one_of(row, st.just(zero)), max_size=5))
    return rows, table


@st.composite
def tight_row_sets(draw):
    """(rows, table) with reach = (sum_j |a_j|) * max|t| at 2^(8s-3) or
    above and below 2^(8s-2), so that reach's bit length plus 2 fills s
    bytes exactly, s one of the widths read in C or a wider one, and a dot
    product of +reach and one of -reach."""
    size = draw(st.one_of(st.sampled_from((1, 2, 4, 8)), st.integers(9, 30)))
    top = draw(st.integers(1, 2 ** (8 * size - 4)))
    total = draw(st.integers(-(-2 ** (8 * size - 3) // top),
                             (2 ** (8 * size - 2) - 1) // top))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=4)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(parts),
                          max_size=len(parts)))
    a = [s * x for s, x in zip(signs, parts)]
    aligned = [s * top for s in signs]
    other = draw(st.lists(st.integers(-top, top), min_size=len(a),
                          max_size=len(a)))
    return [a], [aligned, [-x for x in aligned], other]


@settings(max_examples=200, deadline=None)
@given(st.one_of(row_sets(), tight_row_sets()))
@example(([], [[128]]))         # the table's entries set the width alone
@example(([[0]], [[2 ** 70]]))
def test_dot_rows_equals_the_dot_loop(case):
    rows, table = case
    assert hyperoct._dot_rows(rows, table) == dot_loop(rows, table)


# the widths read in C and two wider ones, read digit by digit
SIZES = (1, 2, 4, 8, 9, 16)


@pytest.mark.parametrize("size", SIZES)
def test_digit_size_is_the_first_width_with_two_spare_bits(size):
    reach = 2 ** (8 * size - 2) - 1
    assert hyperoct._digit_size(reach) == size
    wider = {1: 2, 2: 4, 4: 8}.get(size, size + 1)
    assert hyperoct._digit_size(reach + 1) == wider
    for bound in (reach, reach + 1):
        assert hyperoct._dot_rows([[bound], [-bound]], [[1], [-1], [0]]) == \
            [[bound, -bound, 0], [-bound, bound, 0]]


@pytest.mark.parametrize("size", SIZES)
def test_read_digits_reads_zero_negative_and_boundary_digits(size):
    low, high = -2 ** (8 * size - 1), 2 ** (8 * size - 1) - 1
    spare = 2 ** (8 * size - 2) - 1
    digits = (0, 1, -1, high, low, spare, -spare, -1, low, 0)
    total = sum(d << (8 * size * k) for k, d in enumerate(digits))
    assert hyperoct._read_digits(total, size, len(digits)) == digits
    assert hyperoct._pack_digits(digits, size) == total
    assert hyperoct._read_digits(0, size, 3) == (0, 0, 0)
    assert hyperoct._read_digits(0, size, 0) == ()
    assert hyperoct._pack_digits((), size) == 0


@st.composite
def digit_strings(draw):
    size = draw(st.one_of(st.sampled_from(SIZES), st.integers(1, 12)))
    bound = 2 ** (8 * size - 1)
    digits = draw(st.lists(st.one_of(st.integers(-bound, bound - 1),
                                     st.sampled_from((0, -1, -bound, bound - 1))),
                           max_size=8))
    return size, tuple(digits)


@settings(max_examples=200, deadline=None)
@given(digit_strings())
def test_pack_and_read_digits_invert_each_other(case):
    size, digits = case
    total = sum(d << (8 * size * k) for k, d in enumerate(digits))
    assert hyperoct._pack_digits(digits, size) == total
    assert hyperoct._read_digits(total, size, len(digits)) == digits


def _corrupted_table_errors(n=3):
    """Messages raised by restrict_branching(n + 1) and CharacterTable(n)
    when chi^(n|-) on the identity class of W_n (column 0) reads 2
    instead of 1."""
    clean = hyperoct._character_table_rows

    def corrupted(m):
        rows = clean(m)
        if m != n:
            return rows
        rows = dict(rows)
        label = Bipartition((n,), ())
        rows[label] = (rows[label][0] + 1,) + rows[label][1:]
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
    assert g[0] == {bp("1|-"): 1}
    assert g[2] == {bp("-|1"): 1}
    g2 = graded_fiber_module(3, 3, (2, 1), ())
    assert list(g2) == [0]
    assert g2[0] == {bp("2,1|-"): 1}
    for n in range(1, 5):
        g3 = graded_fiber_module(n, 0, (), (n,))
        assert total_dim(g3) == 2 ** n
    # the top graded piece is the label itself
    for (n, m, r1, r2) in ((3, 1, (1,), (2,)), (4, 2, (1, 1), (2,)),
                           (3, 2, (2,), (1,))):
        g4 = graded_fiber_module(n, m, r1, r2)
        assert g4[2 * (n - m)] == {Bipartition(r1, r2): 1}


def test_graded_fiber_errors():
    with pytest.raises(ValueError):
        graded_fiber_module(2, 3, (1, 1, 1), ())
    with pytest.raises(ValueError):
        graded_fiber_module(2, 1, (2,), ())
