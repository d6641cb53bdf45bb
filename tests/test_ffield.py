import functools
import operator
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_matrix, random_invertible, zeros
from exospringer import ffield
from exospringer.census import _cone_xs
from exospringer.ffield import (
    FpMatrix, NonSquareError, NotNilpotentError, NotStableError, Subspace,
    _rref_rows, commutant_basis, induced_action, inv_mod, jordan_chains,
    nilpotent_jordan_type, is_odd_prime, power_is_zero, sparse_rank)
from exospringer.symplectic import SymplecticSpace


def field_arith(a, b, op, p):
    """Field operation on representatives a, b in [0, p)."""
    if op == "add":
        return (a + b) % p
    if op == "sub":
        return (a - b) % p
    if op == "mul":
        return (a * b) % p
    if op == "inv":
        return inv_mod(b, p)
    if op == "div":
        return (a * inv_mod(b, p)) % p
    raise ValueError("unknown op %r" % (op,))


def contains(subspace, vec):
    # vec lies in the span iff adding it leaves the dimension unchanged
    grown = Subspace(subspace.ambient_dim, subspace.basis + (tuple(vec),),
                     subspace.p)
    return grown.dim == subspace.dim


def egcd_inverse(a, p):
    # extended Euclid, the oracle for inv_mod
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def jordan_from_ranks(n_mat):
    # oracle: rank sequence of powers, partition via conjugate differences
    m = n_mat.rows
    ranks = [m]
    cur = FpMatrix.identity(m, n_mat.p)
    for _ in range(m):
        cur = cur * n_mat
        ranks.append(cur.rank())
    ge = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]  # #parts >= j
    parts = []
    for j in range(len(ge), 0, -1):
        parts += [j] * (ge[j - 1] - (ge[j] if j < len(ge) else 0))
    return tuple(sorted(parts, reverse=True))


def jordan_block_nilpotent(size, p):
    return FpMatrix([[1 if j == i + 1 else 0 for j in range(size)]
                     for i in range(size)], p)


def test_prime_gate():
    assert is_odd_prime(3) and is_odd_prime(7) and is_odd_prime(2**31 - 1)
    assert not is_odd_prime(2) and not is_odd_prime(9) and not is_odd_prime(1)
    with pytest.raises(ValueError):
        FpMatrix([[1]], 4)
    with pytest.raises(ValueError):
        FpMatrix([[1]], 2)


def test_field_arith_examples():
    assert field_arith(0, 2, "inv", 3) == 2          # 2*2 = 4 = 1 mod 3
    assert field_arith(0, 1, "inv", 7) == 1
    assert egcd_inverse(3, 7) == 5                   # oracle first
    assert field_arith(0, 3, "inv", 7) == 5
    assert field_arith(4, 5, "add", 7) == 2
    assert field_arith(4, 5, "sub", 7) == 6
    assert field_arith(4, 5, "mul", 7) == 6
    assert field_arith(4, 5, "div", 7) == (4 * egcd_inverse(5, 7)) % 7
    with pytest.raises(ZeroDivisionError):
        field_arith(1, 0, "div", 5)


def test_inverse_matches_egcd_oracle(rng):
    for p in (3, 7, 101):
        for _ in range(25):
            a = rng.randrange(1, p)
            assert inv_mod(a, p) == egcd_inverse(a, p)


def test_rank_examples():
    assert zeros(4, 4, 3).rank() == 0
    assert FpMatrix.identity(5, 7).rank() == 5
    assert jordan_block_nilpotent(3, 3).rank() == 2


def test_kernel_examples():
    assert FpMatrix.identity(3, 3).kernel_basis().dim == 0
    assert zeros(2, 2, 3).kernel_basis().dim == 2
    # J_2 + J_1 nilpotent: rank-count oracle says kernel dim = 3 - rank = 2
    n = FpMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 5)
    assert 3 - n.rank() == 2
    assert n.kernel_basis().dim == 2
    for v in n.kernel_basis().basis:
        assert n.apply(v) == (0, 0, 0)


def test_rank_nullity_random(rng):
    for _ in range(40):
        p = rng.choice((3, 5, 7))
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(rng, rows, cols, p)
        assert m.rank() + m.kernel_basis().dim == cols


def test_subspace_canonical():
    a = Subspace(3, [(1, 1, 0), (0, 0, 1)], 3)
    b = Subspace(3, [(2, 2, 1), (0, 0, 2), (1, 1, 2)], 3)
    assert a == b and hash(a) == hash(b)
    assert contains(a, (1, 1, 2))
    assert not contains(a, (1, 0, 0))


def test_commutant_zero_matrix():
    basis = commutant_basis(zeros(3, 3, 5))
    assert len(basis) == 9


def test_commutant_regular_nilpotent():
    # oracle: the commutant of a regular nilpotent is the span of its powers
    for m, p in ((2, 3), (3, 3), (4, 5)):
        y = jordan_block_nilpotent(m, p)
        basis = commutant_basis(y)
        assert len(basis) == m
        powers = [FpMatrix.identity(m, p)]
        for _ in range(m - 1):
            powers.append(powers[-1] * y)
        flat = Subspace(m * m, [tuple(x for row in b.entries for x in row)
                                for b in basis], p)
        for q in powers:
            assert contains(flat, tuple(x for row in q.entries for x in row))
        for z in basis:
            assert z * y == y * z


def test_commutant_two_singletons_is_full_gl2():
    assert len(commutant_basis(zeros(2, 2, 3))) == 4


def test_commutant_dimension_formula():
    # nilpotent of type lambda: dim of the commutant is sum (2i-1) lambda_i
    shapes = ((2, 1), (2, 2), (3, 1), (1, 1, 1), (3, 2, 1))
    for lam in shapes:
        m = sum(lam)
        entries = [[0] * m for _ in range(m)]
        at = 0
        for b in lam:
            for i in range(b - 1):
                entries[at + i][at + i + 1] = 1
            at += b
        expected = sum((2 * i + 1) * part for i, part in enumerate(lam))
        assert len(commutant_basis(FpMatrix(entries, 5))) == expected


def test_commutant_closed_under_product(rng):
    y = FpMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], 3)
    basis = commutant_basis(y)
    flat = Subspace(16, [tuple(x for row in b.entries for x in row)
                         for b in basis], 3)
    for _ in range(10):
        a, b = rng.choice(basis), rng.choice(basis)
        prod = a * b
        assert prod * y == y * prod
        assert contains(flat, tuple(x for row in prod.entries for x in row))


def test_jordan_type_examples():
    assert nilpotent_jordan_type(zeros(3, 3, 3)) == (1, 1, 1)
    assert nilpotent_jordan_type(jordan_block_nilpotent(4, 5)) == (4,)
    assert all(jordan_block_nilpotent(m, 3).power(m).is_zero()
               and not jordan_block_nilpotent(m, 3).power(m - 1).is_zero()
               for m in range(1, 6))
    n22 = FpMatrix([[0, 0, 1, 0], [0, 0, 0, 1],
                    [0, 0, 0, 0], [0, 0, 0, 0]], 3)
    assert (n22 * n22).is_zero() and n22.rank() == 2
    assert jordan_from_ranks(n22) == (2, 2)     # oracle
    assert nilpotent_jordan_type(n22) == (2, 2)


def test_jordan_type_errors():
    with pytest.raises(NotNilpotentError):
        nilpotent_jordan_type(FpMatrix.identity(2, 3))
    # singular but not nilpotent: the ranks 3, 2, 2 stall above 0
    idempotent = FpMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 3)
    assert idempotent.power(3) == idempotent     # no power vanishes
    with pytest.raises(NotNilpotentError):
        nilpotent_jordan_type(idempotent)
    with pytest.raises(NonSquareError):
        nilpotent_jordan_type(zeros(2, 3, 3))
    with pytest.raises(NonSquareError):
        zeros(2, 3, 3).power(2)


def test_power_matches_repeated_products_at_its_product_count(row_products,
                                                              rng):
    # power squares from k's lowest set bit, never multiplying by the
    # identity: floor(log2 k) + popcount(k) - 1 products for k >= 1,
    # counted on row tuples, where the squaring chain forms them
    a = random_invertible(rng, 3, 5)
    naive = [FpMatrix.identity(3, 5)]
    for _ in range(20):
        naive.append(naive[-1] * a)
    for k, expected in enumerate(naive):
        del row_products[:]
        assert a.power(k) == expected
        assert len(row_products) == (k.bit_length() + bin(k).count("1") - 2
                                     if k else 0)
    assert a.power(0) == FpMatrix.identity(3, 5)
    with pytest.raises(ValueError):
        a.power(-1)
    with pytest.raises(NonSquareError):
        zeros(2, 3, 3).power(1)


def test_jordan_conjugation_invariant(rng):
    for _ in range(15):
        p = rng.choice((3, 5))
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
        n = FpMatrix(entries, p)
        g = random_invertible(rng, m, p)
        conj = g * n * g.inverse()
        assert nilpotent_jordan_type(conj) == nilpotent_jordan_type(n)
        assert jordan_from_ranks(conj) == nilpotent_jordan_type(n)


def random_nilpotent(rng, m, p):
    """A random nilpotent m x m matrix: Jordan blocks of random sizes,
    conjugated by a random invertible matrix."""
    sizes = []
    while sum(sizes) < m:
        sizes.append(rng.randrange(1, m - sum(sizes) + 1))
    entries = [[0] * m for _ in range(m)]
    at = 0
    for size in sizes:
        for i in range(size - 1):
            entries[at + i][at + i + 1] = 1
        at += size
    g = random_invertible(rng, m, p)
    return g * FpMatrix(entries, p) * g.inverse()


def chain_form(lengths, p):
    # N in the chain basis: each N^k u goes to N^(k+1) u, the last to 0
    m = sum(lengths)
    entries = [[0] * m for _ in range(m)]
    at = 0
    for length in lengths:
        for k in range(length - 1):
            entries[at + k + 1][at + k] = 1
        at += length
    return FpMatrix(entries, p)


def test_jordan_chains_match_jordan_type(rng):
    for p in (3, 5, 2**31 - 1):
        for m in range(1, 9):
            for _ in range(3):
                n_mat = random_nilpotent(rng, m, p)
                blocks = jordan_chains(n_mat)
                lengths = tuple(map(len, blocks))
                p_inv = FpMatrix(sum(blocks, ()), p)
                assert lengths == nilpotent_jordan_type(n_mat) == \
                    jordan_from_ranks(n_mat)
                # P^-1 N P is the chain form, so P^-1 is a chain basis change
                p_mat = p_inv.inverse()
                assert p_inv * n_mat * p_mat == chain_form(lengths, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_jordan_chains_conjugate_random_nilpotents_to_chain_form(data):
    p = data.draw(st.sampled_from((3, 7, 2**31 - 1)))
    m = data.draw(st.integers(1, 8))
    sizes = []
    while sum(sizes) < m:
        sizes.append(data.draw(st.integers(1, m - sum(sizes))))
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    # g = L U with unit-diagonal triangular factors is invertible
    lower = FpMatrix([[data.draw(entry) if j < i else int(i == j)
                       for j in range(m)] for i in range(m)], p)
    upper = FpMatrix([[data.draw(entry) if j > i else int(i == j)
                       for j in range(m)] for i in range(m)], p)
    g = lower * upper
    n_mat = g * chain_form(sorted(sizes, reverse=True), p) * g.inverse()
    blocks = jordan_chains(n_mat)
    lengths = tuple(map(len, blocks))
    p_inv = FpMatrix(sum(blocks, ()), p)
    assert lengths == tuple(sorted(sizes, reverse=True))
    assert p_inv * n_mat * p_inv.inverse() == chain_form(lengths, p)


@pytest.mark.parametrize("lengths", ((3, 1, 1), (2, 2, 1, 1), (3, 2, 1),
                                     (4, 2, 2, 1), (3, 3, 1), (1, 1, 1)))
@pytest.mark.parametrize("p", (3, 5))
def test_jordan_chains_of_mixed_lengths(rng, lengths, p):
    # steps with no new top (between lengths 4 and 2, or 3 and 1) are
    # skipped, and each scan stops at its last top; the chains still
    # conjugate N to its chain form
    for _ in range(3):
        g = random_invertible(rng, sum(lengths), p)
        n_mat = g * chain_form(lengths, p) * g.inverse()
        blocks = jordan_chains(n_mat)
        assert tuple(map(len, blocks)) == lengths
        p_inv = FpMatrix(sum(blocks, ()), p)
        assert p_inv * n_mat * p_inv.inverse() == chain_form(lengths, p)


def test_jordan_chains_reduce_at_most_four_vectors_per_cone_x(monkeypatch):
    # the 81 nilpotent self-adjoint x at (2, 3): x = 0, of type (1^4), needs
    # its 4 tops; every other x, of type (2, 2), needs 2 tops of ker T^2
    # and no step 1.  Scanning all of ker T^2 and redoing step 1 took 8.
    calls = []
    echelon_add = ffield._echelon_add

    def counted(*args):
        calls.append(1)
        return echelon_add(*args)

    monkeypatch.setattr(ffield, "_echelon_add", counted)
    per_x = []
    for _, x in _cone_xs(SymplecticSpace(2, 3), "lie"):
        del calls[:]
        lengths = tuple(map(len, jordan_chains(x)))
        per_x.append(len(calls))
        assert len(calls) <= 4
        assert lengths in ((1, 1, 1, 1), (2, 2))
    assert len(per_x) == 81
    assert sum(per_x) == 198


@st.composite
def cone_test_matrices(draw):
    """(M, p): an arbitrary square matrix, or a nilpotent (or nilpotent
    plus 1) one, Jordan blocks conjugated by an invertible g = L U, so
    that both tests of `power_is_zero` often come out True."""
    p = draw(st.sampled_from((3, 5, 7, 2**31 - 1)))
    m = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    if draw(st.booleans()):
        return FpMatrix([[draw(entry) for _ in range(m)] for _ in range(m)], p), p
    sizes = []
    while sum(sizes) < m:
        sizes.append(draw(st.integers(1, m - sum(sizes))))
    lower = FpMatrix([[draw(entry) if j < i else int(i == j)
                       for j in range(m)] for i in range(m)], p)
    upper = FpMatrix([[draw(entry) if j > i else int(i == j)
                       for j in range(m)] for i in range(m)], p)
    g = lower * upper
    n_mat = g * chain_form(sorted(sizes, reverse=True), p) * g.inverse()
    if draw(st.booleans()):
        n_mat = n_mat + FpMatrix.identity(m, p)
    return n_mat, p


@settings(max_examples=300, deadline=None)
@given(cone_test_matrices(), st.integers(1, 9))
def test_power_is_zero_matches_the_full_power(mp, k):
    # the oracle is k - 1 plain products, not FpMatrix.power, which shares
    # its squaring chain with power_is_zero
    m, p = mp
    one = FpMatrix.identity(m.rows, p)

    def full_power(x):
        return functools.reduce(operator.mul, [x] * k)

    assert power_is_zero(m.entries, k, p) == full_power(m).is_zero()
    assert power_is_zero(m.entries, k, p, minus_one=True) == \
        full_power(m - one).is_zero()


def test_power_is_zero_needs_a_positive_power():
    with pytest.raises(ValueError, match="k >= 1"):
        power_is_zero(((0,),), 0, 3)


def dot_loop_product_rows(a, b, p):
    # `ffield._product_rows` before it packed b: one dot product per entry
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % p for col in bt)
                 for row in a)


# p = 3, 5 and 7 take 1-byte digits for up to 7 rows of b, p = 61 2 bytes,
# 4099 4, 1048583 8, and 2^31 - 1 8 for up to 4 rows and 9 beyond
PACKING_PRIMES = (3, 5, 7, 61, 4099, 1048583, 2**31 - 1)


@st.composite
def product_factors(draw):
    """(a, b, p): the rows of an r x k and a k x m matrix over F_p, with
    entries often p - 1, the largest digit sums."""
    p = draw(st.sampled_from(PACKING_PRIMES))
    r, k, m = (draw(st.integers(1, 9)) for _ in range(3))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(entry) for _ in range(m)] for _ in range(k)]
    return a, b, p


@settings(max_examples=300, deadline=None)
@given(product_factors())
def test_packed_product_matches_the_dot_loop(abp):
    a, b, p = abp
    assert ffield._product_rows(a, b, p) == dot_loop_product_rows(a, b, p)


@pytest.mark.parametrize("p", PACKING_PRIMES)
def test_packed_product_does_not_carry_at_its_bound(p):
    # every entry p - 1, so each digit is k (p - 1)^2, the bound its width
    # is taken from, for k rows of b on both sides of each width's edge
    # (7/8 rows at p = 7, 4/5 at 2^31 - 1, 63/64 at p = 3)
    for k in (1, 4, 5, 7, 8, 63, 64, 144):
        a = [[p - 1] * k] * 2
        b = [[p - 1] * 3] * k
        assert ffield._product_rows(a, b, p) == \
            ((k * (p - 1) ** 2 % p,) * 3,) * 2 == \
            dot_loop_product_rows(a, b, p)


def test_packing_primes_take_every_digit_width():
    widths = {ffield._digit_width(k * (p - 1) ** 2)
              for p in PACKING_PRIMES for k in range(1, 10)}
    assert widths == {1, 2, 4, 8, 9}
    assert ffield._digit_width(63 * 4) == 1 < ffield._digit_width(64 * 4)
    assert [ffield._digit_width(2 ** (8 * s) - 1)
            for s in range(1, 17)] == [1, 2, 4, 4, 8, 8, 8, 8, 9, 10, 12, 12,
                                       16, 16, 16, 16]


@pytest.mark.parametrize("width", (1, 2, 4, 8, 9, 10, 12, 16))
def test_every_digit_width_reads_the_same_product(monkeypatch, rng, width):
    # widths 10, 12 and 16 need 2^10, 2^18 and 2^66 rows at p = 2^31 - 1,
    # so each width is forced here on products that any width holds
    monkeypatch.setattr(ffield, "_digit_width", lambda reach: width)
    for p in (3, 7):
        a = [[rng.randrange(p) for _ in range(5)] for _ in range(4)]
        b = [[rng.randrange(p) for _ in range(6)] for _ in range(5)]
        assert ffield._product_rows(a, b, p) == dot_loop_product_rows(a, b, p)


def test_power_kernels_pack_n_once(monkeypatch):
    # the eight products of the n = 8 regular nilpotent's kernel steps are
    # by one packed N, and each is one dot product per reduced row of r < m
    packs, products = [], []
    pack_rows, times_packed = ffield._pack_rows, ffield._times_packed

    def pack_counted(b, p):
        packs.append(len(b))
        return pack_rows(b, p)

    def times_counted(a, packed, read):
        products.append(len(a))
        return times_packed(a, packed, read)

    monkeypatch.setattr(ffield, "_pack_rows", pack_counted)
    monkeypatch.setattr(ffield, "_times_packed", times_counted)
    kernels = ffield._power_kernels(chain_form([8], 2**31 - 1))
    assert list(map(len, kernels)) == list(range(1, 9))
    assert packs == [8]
    assert products == list(range(7, 0, -1))


@st.composite
def ranked_matrices(draw):
    """A rows x cols product of rows x k and k x cols factors: tall, wide,
    zero (k = 0) and rank-deficient shapes."""
    p = draw(st.sampled_from((3, 7, 2**31 - 1)))
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    k = draw(st.integers(0, min(rows, cols)))
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    a = [[draw(entry) for _ in range(k)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(k)]
    return FpMatrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                     if k else [0] * cols for row in a], p)


@settings(max_examples=150, deadline=None)
@given(ranked_matrices())
def test_rank_by_forward_elimination_matches_rref(m):
    assert m.rank() == len(m.rref()[1])
    assert m.is_invertible() == (m.is_square() and len(m.rref()[1]) == m.rows)


@st.composite
def sparse_matrices(draw):
    """1..40 x 1..40 matrices of every density, with zero rows and zero
    columns, some of them a product through a narrower middle."""
    p = draw(st.sampled_from((3, 5, 7, 2**31 - 1)))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.sampled_from((0.05, 0.2, 0.5, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))

    def entry():
        return rng.randrange(1, p) if rng.random() < density else 0

    k = draw(st.one_of(st.none(), st.integers(0, min(rows, cols))))
    if k is None:
        entries = [[entry() for _ in range(cols)] for _ in range(rows)]
    else:
        a = [[entry() for _ in range(k)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(k)]
        entries = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                   if k else [0] * cols for row in a]
    return FpMatrix([[0 if i in zero_rows or j in zero_cols else a
                      for j, a in enumerate(row)]
                     for i, row in enumerate(entries)], p)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_matches_dense_rref_pivots(m):
    _, pivots = _rref_rows([list(row) for row in m.entries], m.cols, m.p)
    assert m.rank() == len(pivots)
    # by columns too, as the stabilizer systems are ranked
    columns = [{i: a for i, a in enumerate(col) if a}
               for col in zip(*m.entries)]
    assert sparse_rank(columns, m.p) == len(pivots)


def test_jordan_chains_errors():
    with pytest.raises(NotNilpotentError):
        jordan_chains(FpMatrix.identity(2, 3))
    idempotent = FpMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 3)
    with pytest.raises(NotNilpotentError):
        jordan_chains(idempotent)
    # nilpotent plus a unit on one coordinate: ker N^s stalls at dim 2
    stalled = FpMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 2]], 5)
    with pytest.raises(NotNilpotentError):
        jordan_chains(stalled)
    with pytest.raises(NonSquareError):
        jordan_chains(zeros(2, 3, 3))


def test_induced_action_examples():
    p = 3
    m = FpMatrix([[0, 1], [0, 0]], p)          # (M-0)e2 = e1
    w_full = Subspace(2, [(1, 0), (0, 1)], p)
    assert nilpotent_jordan_type(induced_action(m, w_full, "restrict")) == (2,)
    w = Subspace(2, [(1, 0)], p)
    restr = induced_action(m, w, "restrict")
    assert restr.entries == ((0,),)
    quot = induced_action(m, w, "quotient")
    assert quot.entries == ((0,),)
    assert nilpotent_jordan_type(quot) == (1,)


def test_induced_action_not_stable():
    p = 3
    m = FpMatrix([[0, 1], [0, 0]], p)
    with pytest.raises(NotStableError):
        induced_action(m, Subspace(2, [(0, 1)], p), "restrict")


def test_restrict_quotient_sizes_sum(rng):
    p = 3
    n = FpMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]], p)
    w = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)], p)
    t1 = nilpotent_jordan_type(induced_action(n, w, "restrict"))
    t2 = nilpotent_jordan_type(induced_action(n, w, "quotient"))
    assert sum(t1) + sum(t2) == 4


def test_matrix_json_roundtrip():
    m = FpMatrix([[1, 2, 0], [0, 1, 2]], 3)
    assert FpMatrix.from_json(m.to_json()) == m
    obj = m.to_json()
    assert obj == {"p": 3, "rows": 2, "cols": 3, "entries": [1, 2, 0, 0, 1, 2]}


@pytest.mark.parametrize("rows, cols, entries, p, error", [
    (10**9, 0, [], 3, "empty matrix"),
    (0, 3, [], 3, "empty matrix"),
    (-2, -1, [1, 2], 3, "empty matrix"),
    (10**9, 0, [], 9, "modulus must be an odd prime, got 9"),
    (3, 0, [1], 3, "entries length != rows*cols")])
def test_matrix_json_with_an_empty_shape_builds_no_row(rows, cols, entries,
                                                       p, error):
    # 10^9 empty rows would take minutes and gigabytes to build; each
    # shape gets the error it got when they were built
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        FpMatrix.from_json({"p": p, "rows": rows, "cols": cols,
                            "entries": entries})
    assert time.perf_counter() - t0 < 1
    assert str(exc.value) == error


def test_matrix_inverse(rng):
    for _ in range(20):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(1, 5)
        g = random_invertible(rng, n, p)
        assert g * g.inverse() == FpMatrix.identity(n, p)
    with pytest.raises(ZeroDivisionError):
        zeros(2, 2, 3).inverse()
