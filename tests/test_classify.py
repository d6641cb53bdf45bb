import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import random_sp_element, zeros
from exospringer import classify, ffield
from exospringer.bicomb import (Bipartition, bipartitions_of, n_invariant,
                                orbit_dim, partition_sum)
from exospringer.classify import (
    NotDoubledError, cyclic_dim, enhanced_type, exotic_labeler, exotic_type,
    parabolic_stabilizer_dim, stabilizer_dim)
from exospringer.census import seeded_basis_change
from exospringer.ffield import (FpMatrix, NotNilpotentError, jordan_chains,
                                nilpotent_jordan_type)
from exospringer.symplectic import (ExoticPair, NormalFormData, SymplecticSpace,
                                   normal_form_pair)


@pytest.fixture(autouse=True)
def nilpotent_part_is_log_map(monkeypatch):
    """On every group pair a test here validates, the nilpotent part, which
    is x - 1 with no check, equals the checked `log_map(x)`."""
    pairs = []
    validate = ExoticPair.validate

    def recorded(self):
        validate(self)
        if self.flavor == "group":
            pairs.append(self)

    monkeypatch.setattr(ExoticPair, "validate", recorded)
    yield pairs
    for pair in pairs:
        assert pair.nilpotent_part() == pair.space.log_map(pair.x)


def test_enhanced_examples():
    p = 3
    j2 = FpMatrix([[0, 1], [0, 0]], p)
    assert enhanced_type(j2, (0, 1)) == Bipartition((2,), ())
    assert enhanced_type(j2, (1, 0)) == Bipartition((1,), (1,))
    assert enhanced_type(j2, (0, 0)) == Bipartition((), (2,))
    n = FpMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]], p)
    assert enhanced_type(n, (0, 0, 0)) == Bipartition((), (2, 1))


def test_enhanced_types_sum_to_jordan_type(rng):
    p = 3
    for _ in range(30):
        blocks = []
        total = 0
        while total < 4:
            size = rng.randrange(1, 5 - total)
            blocks.append(size)
            total += size
        m = sum(blocks)
        entries = [[0] * m for _ in range(m)]
        at = 0
        for b in blocks:
            for i in range(b - 1):
                entries[at + i][at + i + 1] = 1
            at += b
        n_mat = FpMatrix(entries, p)
        v = tuple(rng.randrange(p) for _ in range(m))
        label = enhanced_type(n_mat, v)
        assert partition_sum(label.first, label.second) == \
            nilpotent_jordan_type(n_mat)


def test_exotic_examples():
    sp = SymplecticSpace(1, 3)
    one = FpMatrix.identity(2, 3)
    assert exotic_type(ExoticPair(sp, one, (1, 0), "group")) == \
        Bipartition((1,), ())
    for n in (1, 2, 3):
        spn = SymplecticSpace(n, 3)
        eye = FpMatrix.identity(2 * n, 3)
        assert exotic_type(ExoticPair(spn, eye, (0,) * (2 * n), "group")) == \
            Bipartition((), (1,) * n)


def test_not_doubled_on_non_self_adjoint_input():
    # classification through the ambient group of a matrix that is not
    # self-adjoint produces an undoubled label and must fail loudly
    j2 = FpMatrix([[0, 1], [0, 0]], 3)
    labeler = exotic_labeler(j2)
    with pytest.raises(NotDoubledError):
        labeler((0, 1))


def span_label(n_mat, v):
    # the definition: the halved enhanced type on the commutant span
    gl_label = enhanced_type(n_mat, v)
    return Bipartition(classify.halve_doubled(gl_label.first),
                       classify.halve_doubled(gl_label.second))


@pytest.mark.parametrize("p", (3, 5, 7, 2**31 - 1))
def test_labeler_matches_commutant_span_on_moved_normal_forms(p):
    for n in (2, 3, 4):
        space = SymplecticSpace(n, p)
        for seed, label in enumerate(bipartitions_of(n), start=1):
            pair = normal_form_pair(label, space).pair
            g = seeded_basis_change(space, seed)
            x = g * pair.nilpotent_part() * g.inverse()
            v = g.apply(pair.v)
            assert exotic_labeler(x)(v) == span_label(x, v) == label
            # a second vector for the same x: its label still agrees
            w = g.apply(tuple(reversed(pair.v)))
            assert exotic_labeler(x)(w) == span_label(x, w)


def test_labeler_labels_equal_the_validated_bipartitions():
    # exotic_labeler builds its labels unchecked: every label it returns
    # for any v, on every normal form at n <= 4 over F_3, is the object the
    # validating constructor makes, equal to it and hashing the same
    for n in (1, 2, 3, 4):
        space = SymplecticSpace(n, 3)
        for label in bipartitions_of(n):
            pair = normal_form_pair(label, space).pair
            labeler = exotic_labeler(pair.nilpotent_part())
            assert labeler(pair.v) == label
            returned = {id(bp): bp for bp in map(
                labeler, itertools.product(range(3), repeat=space.dim))}
            for bp in returned.values():
                checked = Bipartition(bp.first, bp.second)
                assert bp == checked and hash(bp) == hash(checked)


def test_nilpotent_part_is_the_checked_log_map(rng, nilpotent_part_is_log_map):
    for n in (1, 2, 3, 4):
        for p in (3, 2**31 - 1):
            space = SymplecticSpace(n, p)
            for label in bipartitions_of(n):
                pair = normal_form_pair(label, space).pair
                g = random_sp_element(rng, space)
                moved = ExoticPair(space, g * pair.x * space.adjoint(g),
                                   g.apply(pair.v), "group")
                assert moved.nilpotent_part() == space.log_map(moved.x)
                lie = ExoticPair(space, moved.nilpotent_part(), moved.v, "lie")
                assert lie.nilpotent_part() is lie.x
    # the fixture saw the moved pairs (the normal forms are built trusted,
    # with no validate call) and checks them again after the test
    assert len(nilpotent_part_is_log_map) == 2 * sum(
        len(bipartitions_of(n)) for n in (1, 2, 3, 4))


def subspace_rebuilding_jordan_chains(n_mat):
    # reference builder: the span is a Subspace, built and row-reduced
    # again at each new vector
    m, p = n_mat.rows, n_mat.p
    kernels = ffield._power_kernels(n_mat)
    chains = []
    for s in range(len(kernels), 0, -1):
        below = kernels[s - 2].basis if s > 1 else ()
        span = ffield.Subspace._trusted(
            m, below + tuple(c[len(c) - s] for c in chains), p)
        for w in kernels[s - 1].basis:
            if any(span._reduce(w)[1]):
                span = ffield.Subspace._trusted(m, span.basis + (w,), p)
                chain = [w]
                for _ in range(s - 1):
                    chain.append(n_mat.apply(chain[-1]))
                chains.append(chain)
    p_mat = FpMatrix._trusted(tuple(zip(*[u for c in chains for u in c])), p)
    return tuple(map(len, chains)), p_mat.inverse()


@pytest.mark.parametrize("p", (3, 5, 7, 2**31 - 1))
def test_jordan_chains_match_the_subspace_rebuilding_builder(rng, p):
    # random nilpotent self-adjoint x: the log of every normal form, as it
    # is and moved by random symplectic elements
    for n in (1, 2, 3, 4):
        space = SymplecticSpace(n, p)
        for label in bipartitions_of(n):
            x = normal_form_pair(label, space).pair.nilpotent_part()
            for k in range(3):
                g = random_sp_element(rng, space) if k else space._one
                moved = g * x * space.adjoint(g)
                assert jordan_chains(moved) == \
                    subspace_rebuilding_jordan_chains(moved)


def test_labeler_refuses_a_non_nilpotent_matrix():
    with pytest.raises(NotNilpotentError):
        exotic_labeler(FpMatrix.identity(4, 3))
    with pytest.raises(NotNilpotentError):
        exotic_labeler(FpMatrix([[1, 0], [0, 0]], 5))


def test_roundtrip_all_labels():
    for p in (3, 5):
        for n in range(1, 5):
            sp = SymplecticSpace(n, p)
            for label in bipartitions_of(n):
                nf = normal_form_pair(label, sp)
                assert exotic_type(nf.pair) == label


def test_roundtrip_rank5():
    for p in (3, 5):
        sp = SymplecticSpace(5, p)
        for label in bipartitions_of(5):
            nf = normal_form_pair(label, sp)
            assert exotic_type(nf.pair) == label


def test_conjugation_invariance(rng):
    for n in (1, 2, 3):
        sp = SymplecticSpace(n, 3)
        for label in bipartitions_of(n):
            pair = normal_form_pair(label, sp).pair
            for _ in range(3):
                g = random_sp_element(rng, sp)
                moved = ExoticPair(sp, g * pair.x * g.inverse(),
                                   g.apply(pair.v), "group")
                assert exotic_type(moved) == label


def test_sp_eigenbasis_size_and_closure():
    for n, p in ((1, 3), (2, 5), (3, 3)):
        sp = SymplecticSpace(n, p)
        basis = sp.adjoint_eigenbasis(-1)
        assert len(basis) == 2 * n * n + n
        # spot-check the bracket stays inside the algebra
        h1, h2 = basis[0], basis[-1]
        assert sp.membership(h1 * h2 - h2 * h1, "sp_lie")


def test_stabilizer_dim_examples():
    sp = SymplecticSpace(2, 3)
    one = FpMatrix.identity(4, 3)
    full = ExoticPair(sp, one, (0, 0, 0, 0), "group")
    assert stabilizer_dim(full, include_v=False) == 10     # dim sp_4
    pair = normal_form_pair(Bipartition((1,), (1,)), sp).pair
    assert stabilizer_dim(pair, include_v=True) == 10 - 6 == 4


def test_stabilizer_dim_without_v_matches_centralizer_formula():
    # x of type lambda u lambda: dim Z_H(x) = dim H - (2n^2 - 2n - 4 n(lambda))
    from exospringer.bicomb import partitions_of
    for n in (1, 2, 3):
        sp = SymplecticSpace(n, 3)
        dim_h = 2 * n * n + n
        for lam in partitions_of(n):
            pair = normal_form_pair(Bipartition((), lam), sp).pair
            expected = dim_h - (2 * n * n - 2 * n - 4 * n_invariant(lam))
            assert stabilizer_dim(pair, include_v=False) == expected
            assert stabilizer_dim(pair, include_v=False) % 2 == n % 2


def test_stabilizer_v_drop_is_twice_mu1():
    for n in range(1, 5):
        sp = SymplecticSpace(n, 3)
        for label in bipartitions_of(n):
            pair = normal_form_pair(label, sp).pair
            with_v = stabilizer_dim(pair, include_v=True)
            without = stabilizer_dim(pair, include_v=False)
            assert with_v == without - 2 * sum(label.first)


def test_stabilizer_dims_agree_across_primes():
    for n in (1, 2, 3):
        for label in bipartitions_of(n):
            dims = set()
            for p in (3, 5, 7):
                pair = normal_form_pair(label, SymplecticSpace(n, p)).pair
                dims.add(stabilizer_dim(pair, include_v=True))
            assert len(dims) == 1
            assert dims.pop() == (2 * n * n + n) - orbit_dim(label, n)


def test_cyclic_dim():
    sp = SymplecticSpace(2, 3)
    zero_pair = ExoticPair(sp, FpMatrix.identity(4, 3), (0, 0, 0, 0), "group")
    assert cyclic_dim(zero_pair) == 0
    for n in (1, 2, 3, 4):
        spn = SymplecticSpace(n, 3)
        open_pair = normal_form_pair(Bipartition((n,), ()), spn).pair
        assert cyclic_dim(open_pair) == n
    pair = normal_form_pair(Bipartition((1,), (1,)), sp).pair
    assert cyclic_dim(pair) == 1


def test_cyclic_dim_vs_first_part():
    for n in range(1, 5):
        sp = SymplecticSpace(n, 3)
        for label in bipartitions_of(n):
            pair = normal_form_pair(label, sp).pair
            mu1 = label.first
            first = mu1[0] if mu1 else 0
            cd = cyclic_dim(pair)
            assert cd == first
            assert cd <= sum(mu1)
            if mu1 and len(mu1) == 1:
                assert cd == sum(mu1)
            if len(mu1) > 1:
                assert cd < sum(mu1)


def test_parabolic_examples_rank2():
    sp = SymplecticSpace(2, 3)
    nf = normal_form_pair(Bipartition((1,), (1,)), sp)
    assert parabolic_stabilizer_dim(nf, 1, "i_node") == 4
    assert parabolic_stabilizer_dim(nf, 1, "ii_node") == 3


def test_parabolic_examples_rank3():
    for p in (3, 5):
        sp = SymplecticSpace(3, p)
        nf = normal_form_pair(Bipartition((2,), (1,)), sp)
        assert nf.nu == (3,)
        z = stabilizer_dim(nf.pair, include_v=True)
        assert parabolic_stabilizer_dim(nf, 1, "i_node") == z
        assert parabolic_stabilizer_dim(nf, 1, "ii_node") == z - 1


def test_parabolic_line_law_small():
    # dim drops by 2 q_i - 2 (node case i) or 2 q_i - 1 (case ii)
    for n in (2, 3):
        sp = SymplecticSpace(n, 3)
        for label in bipartitions_of(n):
            nf = normal_form_pair(label, sp)
            z = stabilizer_dim(nf.pair, include_v=True)
            ell = nf.num_blocks
            for i in range(1, ell + 1):
                q = nf.q_rows[i - 1]
                mu1_next = nf.mu1_values[i] if i < ell else 0
                if nf.mu1_values[i - 1] > mu1_next:
                    assert parabolic_stabilizer_dim(nf, i, "i_node") == \
                        z - 2 * q + 2
                if nf.nu_values[i - 1] > nf.mu1_values[i - 1]:
                    assert parabolic_stabilizer_dim(nf, i, "ii_node") == \
                        z - 2 * q + 1


def test_parabolic_case_i_needs_removable_node():
    # with no removable first-component node at the block end, the true
    # stabilizer-with-line dimension is one below the removal law; the
    # operation refuses such instances (brute-force group counts over
    # F_3 and F_5 back the refusal: (p-1)p^4 points, a 5-dim group,
    # where the law would say 6)
    sp = SymplecticSpace(3, 3)
    nf = normal_form_pair(Bipartition((1, 1), (1,)), sp)
    assert nf.mu1_values == (1, 1)
    with pytest.raises(IndexError):
        parabolic_stabilizer_dim(nf, 1, "i_node")
    # same geometry computed without the line shortcut: kernel with the
    # line condition has dim 8, not z - 2q + 2 = 9
    from exospringer.classify import _kernel_dim, _stabilizer_columns
    w = nf.jordan_basis[(1, 1)]
    columns = _stabilizer_columns(sp, nf.pair.x, nf.pair.v, line=w)
    assert len(columns) == len(sp.adjoint_eigenbasis(-1))
    assert _kernel_dim(sp, columns) == 8
    assert stabilizer_dim(nf.pair, include_v=True) - 2 * 1 + 2 == 9


def test_parabolic_errors():
    sp = SymplecticSpace(2, 3)
    nf = normal_form_pair(Bipartition((1,), (1,)), sp)
    with pytest.raises(IndexError):
        parabolic_stabilizer_dim(nf, 2, "i_node")
    with pytest.raises(ValueError):
        parabolic_stabilizer_dim(nf, 1, "nonsense")
    nf_open = normal_form_pair(Bipartition((2,), ()), sp)
    with pytest.raises(IndexError):
        parabolic_stabilizer_dim(nf_open, 1, "ii_node")   # mu2 part is zero


def test_span_type_check_survives_python_O(monkeypatch):
    # a Jordan type on W that does not add up to dim W must raise, also
    # under -O, where a bare assert would be stripped
    monkeypatch.setattr(classify, "nilpotent_jordan_type", lambda m: (1,))
    with pytest.raises(AssertionError, match="does not add up to dim W = 2"):
        enhanced_type(zeros(2, 2, 3), (1, 0))
    src = pathlib.Path(classify.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from exospringer import classify\n"
            "from exospringer.ffield import FpMatrix\n"
            "classify.nilpotent_jordan_type = lambda m: (1,)\n"
            "zero = FpMatrix(((0, 0), (0, 0)), 3)\n"
            "try:\n"
            "    classify.enhanced_type(zero, (1, 0))\n"
            "except AssertionError as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("1 Jordan type (1,) on W does not add up to dim W = 2")


def test_chain_cover_check_survives_python_O(monkeypatch):
    # chains that do not span F_p^m must raise, also under -O, where a
    # bare assert would be stripped
    monkeypatch.setattr(ffield, "_power_kernels",
                        lambda m: [ffield.Subspace(2, [(1, 0)], 3)])
    with pytest.raises(AssertionError, match="span 1 of 2 dimensions"):
        jordan_chains(zeros(2, 2, 3))
    src = pathlib.Path(classify.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from exospringer import ffield\n"
            "ffield._power_kernels = lambda m: [ffield.Subspace(2, [(1, 0)], 3)]\n"
            "zero = ffield.FpMatrix(((0, 0), (0, 0)), 3)\n"
            "try:\n"
            "    ffield.jordan_chains(zero)\n"
            "except AssertionError as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("1 Jordan chains span 1 of 2 dimensions")


def dense_stabilizer_rows(space, basis, x, v, line):
    # the same conditions from full matrix products, one entry at a time
    p, dim = space.p, space.dim
    images = [h * x - x * h for h in basis]
    rows = [[img.entries[i][j] for img in images]
            for i in range(dim) for j in range(dim)]
    if v is not None:
        hv = [h.apply(v) for h in basis]
        rows += [[w[i] for w in hv] for i in range(dim)]
    if line is not None:
        k = next(i for i, c in enumerate(line) if c)
        hw = [h.apply(line) for h in basis]
        rows += [[(w[j] * line[k] - w[k] * line[j]) % p for w in hw]
                 for j in range(dim) if j != k]
    return rows


def dense_kernel_dim(space, basis, x, v, line):
    dense = dense_stabilizer_rows(space, basis, x, v, line)
    return len(basis) - len(FpMatrix(dense, space.p).rref()[1])


def moved_normal_form(nf, g):
    # the normal form carried by the symplectic g: (g x g^-1, g v), and
    # both frames moved by g
    space = nf.pair.space
    pair = ExoticPair(space, g * nf.pair.x * space.adjoint(g),
                      g.apply(nf.pair.v), nf.pair.flavor)
    return NormalFormData(
        pair, nf.label, nf.nu,
        {key: g.apply(w) for key, w in nf.jordan_basis.items()},
        {key: g.apply(w) for key, w in nf.dual_basis.items()},
        nf.block_sizes, nf.nu_values, nf.mu1_values, nf.p_rows, nf.q_rows)


@pytest.mark.parametrize("p", (3, 2**31 - 1))
def test_stabilizer_dims_match_the_dense_oracle_on_moved_pairs(p):
    cases = 0
    for n in (1, 2, 3, 4):
        space = SymplecticSpace(n, p)
        basis = space.adjoint_eigenbasis(-1)
        for seed, label in enumerate(bipartitions_of(n), start=1):
            nf = moved_normal_form(normal_form_pair(label, space),
                                   seeded_basis_change(space, seed))
            x, v = nf.pair.x, nf.pair.v
            assert stabilizer_dim(nf.pair, include_v=False) == \
                dense_kernel_dim(space, basis, x, None, None)
            assert stabilizer_dim(nf.pair, include_v=True) == \
                dense_kernel_dim(space, basis, x, v, None)
            for i in range(1, nf.num_blocks + 1):
                mu1 = nf.mu1_values[i - 1]
                mu1_next = nf.mu1_values[i] if i < nf.num_blocks else 0
                if mu1 > mu1_next:
                    w = nf.jordan_basis[(nf.q_rows[i - 1], 1)]
                    assert parabolic_stabilizer_dim(nf, i, "i_node") == \
                        dense_kernel_dim(space, basis, x, v, w)
                    cases += 1
                if nf.nu_values[i - 1] > mu1:
                    w = nf.dual_basis[(nf.p_rows[i - 1], nf.nu_values[i - 1])]
                    assert parabolic_stabilizer_dim(nf, i, "ii_node") == \
                        dense_kernel_dim(space, basis, x, v, w)
                    cases += 1
    assert cases > 50


@pytest.mark.parametrize("p", (3, 2**31 - 1))
def test_sparse_stabilizer_rows_match_dense_products(rng, p):
    # for self-adjoint x the bracket [h, x] is self-adjoint, so its rows
    # are the dense rows at the leading 1s of the self-adjoint basis, and
    # they cut out the same kernel as the full dense system; the rows are
    # built from the adjoint units, the dense ones from the basis matrices
    from exospringer.classify import _kernel_dim, _stabilizer_columns
    for n in (1, 2, 3, 4):
        space = SymplecticSpace(n, p)
        dim = space.dim
        basis = space.adjoint_eigenbasis(-1)
        assert all(sum(map(bool, sum(h.entries, ()))) <= 2 for h in basis)
        coords = [sum(b.entries, ()).index(1)
                  for b in space.adjoint_eigenbasis(1)]
        for label in bipartitions_of(n)[:3]:
            pair = normal_form_pair(label, space).pair
            g = random_sp_element(rng, space)
            x = g * pair.x * g.inverse()
            assert space.membership(x, "g_minus_theta")
            v = g.apply(pair.v)
            line = tuple(rng.randrange(p) for _ in range(dim))
            line = line if any(line) else space.e(1)
            for v, w in ((None, None), (v, None), (v, line), (None, line)):
                columns = _stabilizer_columns(space, x, v, line=w)
                dense = dense_stabilizer_rows(space, basis, x, v, w)
                # one sparse column per unknown, no stored zero, read
                # back as dense rows over the conditions
                conditions = len(coords) + len(dense) - dim * dim
                assert len(columns) == len(basis)
                assert all(0 <= r < conditions and 0 < a < p
                           for col in columns for r, a in col.items())
                rows = [[col.get(r, 0) for col in columns]
                        for r in range(conditions)]
                assert rows[:len(coords)] == [dense[c] for c in coords]
                assert rows[len(coords):] == dense[dim * dim:]
                assert _kernel_dim(space, columns) == \
                    len(basis) - len(FpMatrix(dense, p).rref()[1])


def test_stabilizer_dim_cost(monkeypatch):
    # n = 4: one system of 2n^2 + n sparse columns over 2n^2 - n commutator
    # coordinates and 2n v coordinates, built from the adjoint units with
    # no sp basis matrix, and ranked by one sparse elimination with no
    # reduced echelon form
    n, p = 4, 5
    space = SymplecticSpace(n, p)
    label = Bipartition((2, 1), (1,))
    nf = normal_form_pair(label, space)
    g = seeded_basis_change(space, 3)
    pair = ExoticPair(space, g * nf.pair.x * g.inverse(), g.apply(nf.pair.v),
                      nf.pair.flavor)
    systems, ranked, rref_calls, bases = [], [], [], []
    stabilizer_columns, rref_rows = classify._stabilizer_columns, ffield._rref_rows
    sparse_rank = classify.sparse_rank
    eigenbasis = SymplecticSpace.adjoint_eigenbasis

    def recorded(*args, **kwargs):
        columns = stabilizer_columns(*args, **kwargs)
        systems.append((len(columns), {r for col in columns for r in col}))
        return columns

    def rank_counted(columns, p):
        ranked.append(len(columns))
        return sparse_rank(columns, p)

    def counted(*args):
        rref_calls.append(1)
        return rref_rows(*args)

    def listed(self, sign):
        bases.append(sign)
        return eigenbasis(self, sign)

    monkeypatch.setattr(classify, "_stabilizer_columns", recorded)
    monkeypatch.setattr(classify, "sparse_rank", rank_counted)
    monkeypatch.setattr(ffield, "_rref_rows", counted)
    monkeypatch.setattr(SymplecticSpace, "adjoint_eigenbasis", listed)
    assert stabilizer_dim(pair, include_v=True) == \
        2 * n * n + n - orbit_dim(label, n)
    [(unknowns, conditions)] = systems
    assert unknowns == 2 * n * n + n == 36
    assert conditions <= set(range(2 * n * n - n + 2 * n)) == set(range(28 + 8))
    assert conditions & set(range(28)) and conditions - set(range(28))
    assert ranked == [36]
    assert rref_calls == []
    assert bases == []
