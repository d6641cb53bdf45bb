import pytest

from conftest import random_matrix, random_invertible, zeros
from exospringer.ffield import (
    FpMatrix, NonSquareError, NotNilpotentError, NotStableError, Subspace,
    commutant_basis, induced_action, inv_mod,
    nilpotent_jordan_type, is_odd_prime)


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
    return subspace.coordinates(vec) is not None


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
    assert all(jordan_block_nilpotent(m, 3).is_nilpotent() for m in range(1, 6))
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
    assert not idempotent.is_nilpotent()
    with pytest.raises(NotNilpotentError):
        nilpotent_jordan_type(idempotent)
    with pytest.raises(NonSquareError):
        nilpotent_jordan_type(zeros(2, 3, 3))
    with pytest.raises(NonSquareError):
        zeros(2, 3, 3).is_nilpotent()


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


def test_matrix_inverse(rng):
    for _ in range(20):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(1, 5)
        g = random_invertible(rng, n, p)
        assert g * g.inverse() == FpMatrix.identity(n, p)
    with pytest.raises(ZeroDivisionError):
        zeros(2, 2, 3).inverse()
