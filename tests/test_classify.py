import itertools
import operator
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_invertible, random_matrix, random_sp_element, zeros
from exospringer import classify, ffield
from exospringer.bicomb import (Bipartition, bipartitions_of, n_invariant,
                                orbit_dim, partition_sum)
from exospringer.classify import (
    NotDoubledError, cyclic_dim, enhanced_type, exotic_labeler, exotic_type,
    label_and_stabilizer_dim, parabolic_stabilizer_dim, stabilizer_dim)
from exospringer.census import _cone_xs, _line_reps, seeded_basis_change
from exospringer.ffield import (FpMatrix, NotNilpotentError, jordan_chains,
                                nilpotent_jordan_type, power_is_zero,
                                sparse_rank)
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


def dense_power_kernels(n_mat):
    # the kernels of N, N^2, ..., as `ffield._power_kernels` built them
    # before it read each one off the reduced rows of the one before: each
    # power formed by a dense product and reduced from scratch
    m, p = n_mat.rows, n_mat.p
    kernels = []
    power = n_mat
    while True:
        kernel = ffield._kernel_rows(power.entries, m, p)
        if len(kernel) == (len(kernels[-1]) if kernels else 0):
            raise NotNilpotentError("matrix is not nilpotent")
        kernels.append(kernel)
        if len(kernel) == m:
            return kernels
        power = power * n_mat


def subspace_rebuilding_jordan_chains(n_mat):
    # reference builder: the chains of N^T, reversed, with the dense-power
    # kernels and the span a Subspace, built and row-reduced again at each
    # new vector
    t = n_mat.transpose()
    m, p = t.rows, t.p
    kernels = [[tuple(v) for _, v in kernel]
               for kernel in dense_power_kernels(t)]
    chains = []
    for s in range(len(kernels), 0, -1):
        below = tuple(kernels[s - 2]) if s > 1 else ()
        span = ffield.Subspace._trusted(
            m, below + tuple(c[len(c) - s] for c in chains), p)
        for w in kernels[s - 1]:
            if any(span._reduce(w)[1]):
                span = ffield.Subspace._trusted(m, span.basis + (w,), p)
                chain = [w]
                for _ in range(s - 1):
                    chain.append(t.apply(chain[-1]))
                chains.append(chain)
    return tuple(tuple(reversed(c)) for c in chains)


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
                for mat in (moved, moved.transpose()):
                    assert ffield._power_kernels(mat) == \
                        dense_power_kernels(mat)
                blocks = jordan_chains(moved)
                assert blocks == subspace_rebuilding_jordan_chains(moved)
                assert tuple(map(len, blocks)) == nilpotent_jordan_type(moved)
                # the rows of each block of P^-1: r_0 x = 0, r_k x = r_(k-1)
                for rows in blocks:
                    times_x = [(FpMatrix._trusted((r,), p) * moved).entries[0]
                               for r in rows]
                    assert times_x == [(0,) * moved.rows] + list(rows[:-1])
                assert FpMatrix(sum(blocks, ()), p).is_invertible()


@pytest.mark.parametrize("p", (3, 5, 2**31 - 1))
def test_power_kernels_match_the_dense_powers_on_any_matrix(rng, p):
    # random strictly upper triangular matrices conjugated by a random
    # invertible matrix (nilpotent, with no symmetry of the cone), and
    # random matrices that are not nilpotent, which both refuse
    for m in (1, 2, 3, 5, 7):
        for _ in range(6):
            upper = FpMatrix([[rng.randrange(p) if j > i else 0
                               for j in range(m)] for i in range(m)], p)
            q = random_invertible(rng, m, p)
            nilpotent = q * upper * q.inverse()
            assert ffield._power_kernels(nilpotent) == \
                dense_power_kernels(nilpotent)
            other = random_matrix(rng, m, m, p)
            if not power_is_zero(other.entries, m, p):
                for kernels in (ffield._power_kernels, dense_power_kernels):
                    with pytest.raises(NotNilpotentError):
                        kernels(other)


def test_labelers_invert_nothing_and_reduce_each_kernel_power_once(monkeypatch):
    # every lie-cone x at (2, 3): one rref per power of x up to its
    # nilpotency index, no Subspace and no inverse
    space = SymplecticSpace(2, 3)
    xs = [x for _, x in _cone_xs(space, "lie")]
    assert len(xs) == 81
    indices = [next(k for k in range(1, 5) if power_is_zero(x.entries, k, 3))
               for x in xs]
    rrefs = []
    rref_rows = ffield._rref_rows

    def counted(*args):
        rrefs.append(args)
        return rref_rows(*args)

    def refuse(*args):
        raise AssertionError("the labeller built a Subspace or an inverse")

    monkeypatch.setattr(ffield, "_rref_rows", counted)
    monkeypatch.setattr(FpMatrix, "inverse", refuse)
    monkeypatch.setattr(ffield.Subspace, "_set", refuse)
    for x in xs:
        exotic_labeler(x)
    assert len(rrefs) == sum(indices)


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
    w = nf.jordan_basis[(1, 1)]
    columns = _stabilizer_columns(sp, nf.pair.x, nf.pair.v, line=w)
    assert len(columns) == len(sp.adjoint_eigenbasis(-1)) + 1   # h, then t
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
    monkeypatch.setattr(ffield, "_power_kernels", lambda m: [[(0, [1, 0])]])
    with pytest.raises(AssertionError, match="span 1 of 2 dimensions"):
        jordan_chains(zeros(2, 2, 3))
    src = pathlib.Path(classify.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from exospringer import ffield\n"
            "ffield._power_kernels = lambda m: [[(0, [1, 0])]]\n"
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


# The x-basis stabilizer system `classify` solved line stabilizers with
# before they moved to the chain basis, kept as the oracle for
# `_chain_stabilizer_dim`: one sparse column per sp_2n unit, with h x = x h
# read off the entries of x.

def _kernel_dim(space, columns):
    """dim of the solution space of a homogeneous system given as one
    sparse column per unknown."""
    return len(columns) - sparse_rank(columns, space.p)


def _stabilizer_columns(space, x, v, line=None):
    """Linear conditions on h in sp_2n, as one sparse column {condition:
    coefficient} per unknown, h's coordinate on the unit E_ij + c E_kl of
    `space.adjoint_units(-1)`: [h, x] = 0, h v = 0, h<w> in <w>.

    x must be self-adjoint: then so is [h, x] for h in sp_2n, and it is
    zero iff its 2n^2 - n coordinates, its entries at the (a, b) of
    `adjoint_units(1)`, are; these are conditions 0 .. 2n^2 - n - 1, and
    the 2n entries of h v (with v), then the 2n entries of h w - t w
    (with a line w), follow.  The line adds one last unknown t, fixed by
    h as w != 0, so the kernel dimension is that of h alone.  With the
    coordinates indexed by row a and by column b, a term c E_ij adds
    c x[j][b] to coordinate (i, b) of h x - x h, -c x[a][i] to
    coordinate (a, j), and c v_j to entry i of h v (and of h w).
    """
    dim, p, xe = space.dim, space.p, x.entries
    by_row, by_col = [[] for _ in range(dim)], [[] for _ in range(dim)]
    coords = space.adjoint_units(1)
    for r, (a, b, _, _, _) in enumerate(coords):
        by_row[a].append((r, b))
        by_col[b].append((r, a))
    hv_at = len(coords)
    hw_at = hv_at + (dim if v is not None else 0)
    cols = []
    for i, j, k, l, c in space.adjoint_units(-1):
        # the unit is E_ij alone when it is its own image
        terms = ((i, j, 1),) if (k, l) == (i, j) else ((i, j, 1), (k, l, c))
        col = {}
        for i, j, c in terms:
            xj = xe[j]
            for r, b in by_row[i]:
                if xj[b]:
                    col[r] = col.get(r, 0) + c * xj[b]
            for r, a in by_col[j]:
                if xe[a][i]:
                    col[r] = col.get(r, 0) - c * xe[a][i]
            if v is not None and v[j]:
                col[hv_at + i] = col.get(hv_at + i, 0) + c * v[j]
            if line is not None and line[j]:
                col[hw_at + i] = col.get(hw_at + i, 0) + c * line[j]
        cols.append({r: b for r, a in col.items() if (b := a % p)})
    if line is not None:
        cols.append({hw_at + j: -w % p for j, w in enumerate(line) if w})
    return cols


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
                dense = dense_stabilizer_rows(space, basis, x, v, None)
                expected = [dense[c] for c in coords] + dense[dim * dim:]
                if w is not None:
                    # h w - t w = 0 with one more unknown t, last
                    hw = [h.apply(w) for h in basis]
                    expected = [row + [0] for row in expected] + \
                        [[u[i] for u in hw] + [-w[i] % p] for i in range(dim)]
                # one sparse column per unknown, no stored zero, read
                # back as dense rows over the conditions
                assert len(columns) == len(expected[0])
                assert all(0 <= r < len(expected) and 0 < a < p
                           for col in columns for r, a in col.items())
                assert [[col.get(r, 0) for col in columns]
                        for r in range(len(expected))] == expected
                assert _kernel_dim(space, columns) == \
                    dense_kernel_dim(space, basis, x, v, w)


def x_basis_stabilizer_dim(pair, include_v, line=None):
    # the x-basis oracle above, with or without v and a line
    space = pair.space
    return _kernel_dim(space, _stabilizer_columns(
        space, pair.x, pair.v if include_v else None, line=line))


def valid_lines(nf):
    # (i, case, w) for each node `parabolic_stabilizer_dim` accepts, with
    # the vector w of its line
    for i in range(1, nf.num_blocks + 1):
        mu1 = nf.mu1_values[i - 1]
        mu1_next = nf.mu1_values[i] if i < nf.num_blocks else 0
        if mu1 > mu1_next:
            yield i, "i_node", nf.jordan_basis[(nf.q_rows[i - 1], 1)]
        if nf.nu_values[i - 1] > mu1:
            yield (i, "ii_node",
                   nf.dual_basis[(nf.p_rows[i - 1], nf.nu_values[i - 1])])


def commutation_row_stabilizer_dim(blocks, v, p):
    # `classify._chain_stabilizer_dim` before it read S' as Hankel blocks:
    # the m(m+1)/2 unknowns S'_ab (a <= b), one row S'_(a, b+1) - S'_(b, a+1)
    # per a < b (no term at a chain's end), and the m rows of S' v'
    m = sum(map(len, blocks))
    ends = {end - 1 for end in itertools.accumulate(map(len, blocks))}
    unknown = [[0] * m for _ in range(m)]
    for k, (a, b) in enumerate(
            itertools.combinations_with_replacement(range(m), 2)):
        unknown[a][b] = unknown[b][a] = k
    rows = []
    for a in range(m):
        for b in range(a + 1, m):
            row = {}
            if b not in ends:
                row[unknown[a][b + 1]] = 1
            if a not in ends:
                row[unknown[b][a + 1]] = p - 1
            rows.append(row)
    if v is not None:
        coords = [(b, c) for b, c in enumerate(
            sum(map(operator.mul, row, v)) % p
            for chain in blocks for row in chain) if c]
        rows += [{unknown[a][b]: c for b, c in coords} for a in range(m)]
    return m * (m + 1) // 2 - ffield.sparse_rank(rows, p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=12)
       .filter(lambda lengths: sum(lengths) <= 12),
       st.sampled_from((3, 5, 7, 2**31 - 1)), st.data())
def test_hankel_count_equals_the_commutation_row_rank(lengths, p, data):
    # P = 1, so the chain rows are unit vectors and v' = v; chains in any
    # order of lengths, and a v' with many zero entries
    m = sum(lengths)
    units = iter([tuple(int(i == j) for j in range(m)) for i in range(m)])
    blocks = tuple(tuple(next(units) for _ in range(l)) for l in lengths)
    v = tuple(data.draw(st.lists(st.just(0) | st.integers(0, p - 1),
                                 min_size=m, max_size=m)))
    assert classify._chain_stabilizer_dim(blocks, None, p) == \
        commutation_row_stabilizer_dim(blocks, None, p) == \
        sum(min(a, b) for a, b in itertools.combinations_with_replacement(
            lengths, 2))
    assert classify._chain_stabilizer_dim(blocks, v, p) == \
        commutation_row_stabilizer_dim(blocks, v, p)


@pytest.mark.parametrize("p", (3, 5, 7, 2**31 - 1))
def test_chain_basis_stabilizer_dims_equal_the_x_basis_system(p):
    # every label of n <= 4, moved by a seeded symplectic g, in both
    # flavors (x - 1 of a moved unipotent is on the lie cone), with its
    # normal-form v and with a random v, and with and without v; and the
    # moved normal form's line stabilizers, at every valid node
    rng = random.Random(p)
    lines = 0
    for n in (1, 2, 3, 4):
        space = SymplecticSpace(n, p)
        for seed, label in enumerate(bipartitions_of(n)):
            nf = normal_form_pair(label, space)
            g = seeded_basis_change(space, seed)
            moved = moved_normal_form(nf, g)
            nodes = list(valid_lines(moved))
            assert [parabolic_stabilizer_dim(moved, i, case)
                    for i, case, _ in nodes] == \
                [x_basis_stabilizer_dim(moved.pair, True, line=w)
                 for _, _, w in nodes]
            lines += len(nodes)
            y = g * nf.pair.x * space.adjoint(g)
            random_v = tuple(rng.randrange(p) for _ in range(space.dim))
            for flavor, x in (("group", y), ("lie", y - space._one)):
                for v in (g.apply(nf.pair.v), random_v):
                    pair = ExoticPair(space, x, v, flavor)
                    dims = [stabilizer_dim(pair, include_v)
                            for include_v in (False, True)]
                    assert dims == [x_basis_stabilizer_dim(pair, include_v)
                                    for include_v in (False, True)]
                    blocks = jordan_chains(pair.nilpotent_part())
                    assert dims == [commutation_row_stabilizer_dim(
                        blocks, w, p) for w in (None, v)]
                    assert label_and_stabilizer_dim(pair) == \
                        (exotic_type(pair), dims[1])
    assert lines > 50


@pytest.mark.parametrize("n, p", ((1, 3), (2, 3)))
@pytest.mark.parametrize("flavor", ("lie", "group"))
def test_chain_basis_stabilizer_dims_on_every_census_point(n, p, flavor):
    # the points the census labels: every cone x, with v = 0 and one v per
    # line (h (c v) = 0 iff h v = 0, so a line has one stabilizer); the
    # chains of each x are built once, as `label_and_stabilizer_dim` does
    space = SymplecticSpace(n, p)
    vectors = _line_reps(space)
    for _, x in _cone_xs(space, flavor):
        pair = ExoticPair._trusted(space, x, vectors[0], flavor)
        assert stabilizer_dim(pair, include_v=False) == \
            x_basis_stabilizer_dim(pair, include_v=False)
        blocks = jordan_chains(pair.nilpotent_part())
        for v in vectors:
            pair = ExoticPair._trusted(space, x, v, flavor)
            assert classify._chain_stabilizer_dim(blocks, v, p) == \
                x_basis_stabilizer_dim(pair, include_v=True)


def test_stabilizer_dim_cost(monkeypatch):
    # n = 4: one `jordan_chains` of the nilpotent part, whose Jordan type
    # (3, 3, 1, 1) gives the Hankel blocks of S' sum min(l_i, l_j) = 16
    # unknowns t_(i,j,s), and the m = 8 rows of S' v' = 0 over them, ranked
    # by one sparse elimination; without v no rank at all.  It reads no
    # entry of x: no x-basis system, no sp_2n unit or basis matrix, no
    # reduced echelon form but the kernels the chains are built from, and
    # no product in the chains of more than the r < m reduced rows of a
    # kernel step, each by the one packed N of the call
    n, p = 4, 5
    m = 2 * n
    space = SymplecticSpace(n, p)
    label = Bipartition((2, 1), (1,))
    nf = normal_form_pair(label, space)
    g = seeded_basis_change(space, 3)
    pair = ExoticPair(space, g * nf.pair.x * g.inverse(), g.apply(nf.pair.v),
                      nf.pair.flavor)
    chains, ranked, rref_calls, products, packs, inside = [], [], [], [], [], []
    jordan, rref_rows = classify.jordan_chains, ffield._rref_rows
    pack_rows, times_packed = ffield._pack_rows, ffield._times_packed
    sparse_rank = classify.sparse_rank

    def chained(n_mat):
        chains.append(n_mat)
        inside.append(n_mat)
        try:
            return jordan(n_mat)
        finally:
            inside.pop()

    def rank_counted(rows, p):
        ranked.append([dict(row) for row in rows])
        return sparse_rank(rows, p)

    def counted(*args):
        rref_calls.append(bool(inside))
        return rref_rows(*args)

    def pack_counted(b, p):
        packs.append((bool(inside), len(b)))
        return pack_rows(b, p)

    def product_counted(a, packed, read):
        products.append((bool(inside), len(a)))
        return times_packed(a, packed, read)

    def refuse(*args, **kwargs):
        raise AssertionError("the stabilizer read x in its own basis")

    monkeypatch.setattr(classify, "jordan_chains", chained)
    monkeypatch.setattr(classify, "sparse_rank", rank_counted)
    monkeypatch.setattr(ffield, "_rref_rows", counted)
    monkeypatch.setattr(ffield, "_pack_rows", pack_counted)
    monkeypatch.setattr(ffield, "_times_packed", product_counted)
    monkeypatch.setattr(SymplecticSpace, "adjoint_units", refuse)
    monkeypatch.setattr(SymplecticSpace, "adjoint_eigenbasis", refuse)
    assert stabilizer_dim(pair, include_v=False) == 16
    assert ranked == []
    chains.clear()
    assert stabilizer_dim(pair, include_v=True) == \
        2 * n * n + n - orbit_dim(label, n)
    assert chains == [pair.nilpotent_part()]
    [rows] = ranked
    assert len(rows) == m
    assert {k for row in rows for k in row} <= set(range(16))
    assert any(rows) and all(0 < a < p for row in rows for a in row.values())
    assert rref_calls and all(rref_calls)
    assert products and all(inside and r < m for inside, r in products)
    assert packs == [(True, m)] * 2      # one per call


def test_parabolic_stabilizer_dim_cost(monkeypatch):
    # n = 3, label 2|1 moved by a seeded symplectic g: each line stabilizer
    # takes one `jordan_chains` of the nilpotent part and one inverse of its
    # rows, for the pairings g_k of the chain vectors with w, and reads no
    # sp_2n unit or basis matrix
    space = SymplecticSpace(3, 5)
    nf = moved_normal_form(normal_form_pair(Bipartition((2,), (1,)), space),
                           seeded_basis_change(space, 3))
    nodes = list(valid_lines(nf))
    assert [case for _, case, _ in nodes] == ["i_node", "ii_node"]
    z = stabilizer_dim(nf.pair, include_v=True)
    expected = [x_basis_stabilizer_dim(nf.pair, True, line=w)
                for _, _, w in nodes]
    assert expected == [z, z - 1]
    chains, inverted = [], []
    jordan, inverse = classify.jordan_chains, FpMatrix.inverse

    def chained(n_mat):
        chains.append(n_mat)
        return jordan(n_mat)

    def counted(self):
        inverted.append(self)
        return inverse(self)

    def refuse(*args, **kwargs):
        raise AssertionError("the line stabilizer read x in its own basis")

    monkeypatch.setattr(classify, "jordan_chains", chained)
    monkeypatch.setattr(FpMatrix, "inverse", counted)
    monkeypatch.setattr(SymplecticSpace, "adjoint_units", refuse)
    monkeypatch.setattr(SymplecticSpace, "adjoint_eigenbasis", refuse)
    for (i, case, _), dim in zip(nodes, expected):
        chains.clear()
        inverted.clear()
        assert parabolic_stabilizer_dim(nf, i, case) == dim
        assert chains == [nf.pair.nilpotent_part()]
        assert len(inverted) == 1


def test_halve_doubled_refuses_undoubled_parts():
    assert classify.halve_doubled((3, 3, 1, 1)) == (3, 1)
    with pytest.raises(NotDoubledError, match="odd number of parts"):
        classify.halve_doubled((2, 2, 1))
    with pytest.raises(NotDoubledError, match=r"parts \(2, 1\) are not doubled"):
        classify.halve_doubled((2, 1))
