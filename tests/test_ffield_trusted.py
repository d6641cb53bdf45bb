"""The trusted interior of ffield agrees with its validated edge.

Every operation builds its result without validation; each result must
equal the same entries pushed through the public constructor, which
reduces mod p and checks the modulus and the shape.  The same holds for
the other value types that share `Frozen._trusted`.
"""

from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from exospringer import bicomb, ffield
from exospringer.bicomb import Bipartition, bipartitions_of
from exospringer.census import enumerate_exotic_nilcone
from exospringer.ffield import (FpMatrix, Subspace, check_modulus,
                                commutant_basis, induced_action, is_odd_prime)
from exospringer.symplectic import ExoticPair

LARGE_P = 2**31 - 1
PRIMES = (3, 5, 7, LARGE_P)


def assert_valid(m):
    """m is exactly what the public constructor makes of its entries."""
    p = m.p
    assert isinstance(m.entries, tuple)
    assert all(isinstance(row, tuple) for row in m.entries)
    assert all(type(x) is int and 0 <= x < p for row in m.entries for x in row)
    rebuilt = FpMatrix(m.entries, p)
    assert m == rebuilt
    assert (m.rows, m.cols) == (rebuilt.rows, rebuilt.cols)


def assert_valid_span(w):
    rebuilt = Subspace(w.ambient_dim, w.basis, w.p)
    assert w == rebuilt and w._pivots == rebuilt._pivots
    assert all(type(x) is int and 0 <= x < w.p for v in w.basis for x in v)


@st.composite
def matrices(draw, rows=None, cols=None, p=None):
    p = p or draw(st.sampled_from(PRIMES))
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)
    if p == LARGE_P:  # small values too, so that ranks vary at 2^31 - 1
        entry = st.one_of(st.integers(0, 2), entry)
    return FpMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], p)


@st.composite
def square_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    return draw(matrices(n, n, p)), draw(matrices(n, n, p))


@settings(max_examples=60, deadline=None)
@given(square_pairs(), st.integers(-10, 10), st.integers(0, 6))
def test_matrix_operations_are_valid(pair, scalar, k):
    a, b = pair
    for result in (a + b, a - b, a * b, a * scalar, scalar * a, -a,
                   a.transpose(), a.rref()[0], a.power(k),
                   FpMatrix.identity(a.rows, a.p)):
        assert_valid(result)
    if a.is_invertible():
        inv = a.inverse()
        assert_valid(inv)
        assert a * inv == FpMatrix.identity(a.rows, a.p)
    assert_valid_span(a.kernel_basis())


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_matches_elimination_facts(m):
    red, pivots = m.rref()
    assert_valid(red)
    assert len(pivots) == m.rank() == m.transpose().rank()
    for i, c in enumerate(pivots):
        assert red.entries[i][c] == 1
        assert all(red.entries[j][c] == 0 for j in range(red.rows) if j != i)
    assert all(not any(row) for row in red.entries[len(pivots):])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutant_and_induced_action_are_valid(data):
    m = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from(PRIMES))
    # a strictly upper triangular matrix is nilpotent
    entry = st.integers(0, min(p - 1, 2))
    y = FpMatrix([[data.draw(entry) if j > i else 0 for j in range(m)]
                  for i in range(m)], p)
    basis = commutant_basis(y)
    for z in basis:
        assert_valid(z)
        assert z * y == y * z
    v = tuple(data.draw(st.integers(0, p - 1)) for _ in range(m))
    w = Subspace(m, [z.apply(v) for z in basis], p)   # y-stable
    if 0 < w.dim:
        assert_valid(induced_action(y, w, "restrict"))
    if w.dim < m:
        assert_valid(induced_action(y, w, "quotient"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trusted_span_equals_public_span(data):
    p = data.draw(st.sampled_from(PRIMES))
    dim = data.draw(st.integers(1, 4))
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    vecs = data.draw(st.lists(st.tuples(*[entry] * dim), max_size=5))
    public = Subspace(dim, vecs, p)
    assert_valid_span(public)
    scales = [data.draw(st.integers(1, p - 1)) for _ in vecs]
    scaled = [tuple((c * x) % p for x in v) for c, v in zip(scales, vecs)]
    shuffled = data.draw(st.permutations(scaled))
    for gens in (vecs, scaled, shuffled, [list(v) for v in shuffled]):
        trusted = Subspace._trusted(dim, gens, p)
        assert trusted == public and hash(trusted) == hash(public)
        assert trusted._pivots == public._pivots
        assert all(isinstance(v, tuple) for v in trusted.basis)


TRUSTED_CASES = {
    "Bipartition": lambda: (Bipartition, [
        (b.first, b.second) for n in range(5) for b in bipartitions_of(n)]),
    "ExoticPair": lambda: (ExoticPair, [
        (q.space, q.x, q.v, q.flavor) for flavor in ("lie", "group")
        for q in enumerate_exotic_nilcone(1, 3, flavor)]),
}


@pytest.mark.parametrize("kind", sorted(TRUSTED_CASES))
def test_trusted_value_equals_validated_value(kind, monkeypatch):
    cls, cases = TRUSTED_CASES[kind]()
    validated = [cls(*args) for args in cases]

    def refuse(*args):
        raise AssertionError("_trusted ran a check")

    monkeypatch.setattr(bicomb, "check_partition", refuse)
    monkeypatch.setattr(ExoticPair, "validate", refuse)
    monkeypatch.setattr(ffield, "check_modulus", refuse)
    with pytest.raises(AssertionError):     # the validated path does check
        cls(*cases[0])
    for args, value in zip(cases, validated):
        trusted = cls._trusted(*args)
        assert type(trusted) is cls
        assert trusted == value and hash(trusted) == hash(value)


def test_modulus_check_rejects_bad_moduli_after_a_good_one():
    assert check_modulus(LARGE_P) == LARGE_P
    FpMatrix([[1]], LARGE_P)
    for bad in (1, 2, 9, -3, 2147483659):       # the last is prime, too large
        with pytest.raises(ValueError):
            check_modulus(bad)
        with pytest.raises(ValueError):
            FpMatrix([[1]], bad)
        with pytest.raises(ValueError):
            Subspace(1, [(1,)], bad)
    assert check_modulus(3) == 3
    with pytest.raises((TypeError, ValueError)):
        check_modulus(3.0)                      # not taken for 3
    with pytest.raises((TypeError, ValueError)):
        FpMatrix([[1]], 3.0)


def test_modulus_size_is_checked_before_primality():
    # both are refused for their size alone: 2^61 - 1 is prime, and
    # 2^89 - 1 is past the range where the primality test is exact
    for huge in (2**61 - 1, 2**89 - 1):
        with pytest.raises(ValueError, match="modulus too large"):
            check_modulus(huge)
    for not_an_int in ("7", None):
        with pytest.raises(TypeError):
            check_modulus(not_an_int)


def _by_trial_division(n):
    return n >= 3 and n % 2 == 1 and all(
        n % d for d in range(3, isqrt(n) + 1, 2))


def test_primality_test_agrees_with_trial_division():
    assert all(is_odd_prime(n) == _by_trial_division(n)
               for n in range(-5, 10**5))
    # strong pseudoprimes to base 2, Carmichael numbers, and the least
    # strong pseudoprime to bases 2, 3, 5 and 7
    for n in (2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 25326001,
              3215031751, 2**31 - 3, 2**31 + 1, 2147483659):
        assert is_odd_prime(n) == _by_trial_division(n), n


def test_primality_test_is_exact_far_past_the_modulus_bound():
    # 2^61 - 1 used to hang in trial division; the 12-base test decides
    # it at once
    assert is_odd_prime(2**61 - 1) and is_odd_prime(2**31 - 1)
    assert not is_odd_prime(2**61 + 1)
    # the least strong pseudoprime to the prime bases 2..31, which base 37
    # exposes
    assert not is_odd_prime(3825123056546413051)
    # the least strong pseudoprime to all twelve bases 2..37: composite, so
    # from there on the test refuses instead of guessing
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    for n in (psi12, psi12 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="not decided exactly"):
            is_odd_prime(n)
    assert not is_odd_prime(psi12 + 1)             # even: no test needed


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or n - 1 in [pow(x, 2**r, n) for r in range(s)]


# psi_k, the least strong pseudoprime to the first k prime bases, as a
# product of its prime factors
PSI = {1: (23, 89), 2: (829, 1657), 3: (2251, 11251), 4: (151, 751, 28351),
       5: (6763, 10627, 29947), 6: (1303, 16927, 157543),
       7: (10670053, 32010157), 8: (10670053, 32010157),
       9: (149491, 747451, 34233211), 10: (149491, 747451, 34233211),
       11: (149491, 747451, 34233211)}


@pytest.mark.parametrize("k", sorted(PSI))
def test_each_psi_k_is_refused(k):
    # psi_k passes the first k bases, so it is refused only if the test
    # takes more of them from psi_k on
    psi = prod(PSI[k])
    assert all(_strong_probable_prime(psi, a) for a in ffield._MR_BASES[:k])
    assert not is_odd_prime(psi)
    # the largest bound at which the test still takes k bases or fewer
    assert max(bound for bound, used in ffield._MR_PSI if used <= k) <= psi


@given(st.integers(2**31 - 2**16, 2**31 + 2**16))
@settings(max_examples=200, deadline=None)
def test_primality_test_agrees_with_trial_division_near_the_bound(n):
    assert is_odd_prime(n) == _by_trial_division(n)


@pytest.mark.parametrize("p", PRIMES)
def test_public_constructors_still_validate(p):
    m = FpMatrix([[-1, p + 2], [2 * p, -p - 1]], p)
    assert m.entries == ((p - 1, 2), (0, p - 1))
    assert FpMatrix.from_json({"p": p, "rows": 1, "cols": 2,
                               "entries": [-1, p + 2]}).entries == ((p - 1, 2),)
    assert Subspace(2, [(-1, p + 2)], p) == Subspace(2, [(p - 1, 2)], p)
    for bad in ([], [[]], [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            FpMatrix(bad, p)
    with pytest.raises(ValueError):
        FpMatrix.identity(0, p)
    with pytest.raises(ValueError):
        Subspace(2, [(1, 2, 3)], p)


@pytest.mark.parametrize("bad", [1.5, "2"])
def test_fpmatrix_refuses_an_entry_that_is_not_an_integer(bad):
    with pytest.raises(TypeError):
        FpMatrix([[1, bad]], 3)


@pytest.mark.parametrize("bad", [1.5, "2"])
def test_subspace_refuses_a_coordinate_that_is_not_an_integer(bad):
    with pytest.raises(TypeError):
        Subspace(2, [[bad, 2]], 3)
