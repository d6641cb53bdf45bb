"""The F_p kernels against sympy's `DomainMatrix` over GF(p), an
implementation of the same arithmetic that shares no code with this
package.  sympy is a test-only dependency; without it the module is
skipped.  Sizes stay small: a sympy product chain is slow past about
10 x 10.
"""

import pytest
from hypothesis import given, settings, strategies as st

from exospringer import ffield
from exospringer.ffield import power_is_zero

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

# every digit width of the packed product, 1 to 9 bytes (see test_ffield)
PRIMES = (3, 5, 7, 61, 4099, 2**31 - 1)


def domain_matrix(rows, p):
    field = sympy.GF(p)
    return DomainMatrix([[field(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), field)


def entries(dm, p):
    # GF(p) elements print symmetrically, in (-p/2, p/2)
    return tuple(tuple(int(x) % p for x in row) for row in dm.to_list())


@st.composite
def factors(draw):
    p = draw(st.sampled_from(PRIMES))
    r, k, m = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(entry) for _ in range(m)] for _ in range(k)]
    return a, b, p


@settings(max_examples=60, deadline=None)
@given(factors())
def test_products_match_sympy(abp):
    a, b, p = abp
    assert ffield._product_rows(a, b, p) == \
        entries(domain_matrix(a, p) * domain_matrix(b, p), p)


@st.composite
def nilpotent_or_not(draw):
    """(rows, p): a strictly upper triangular matrix, nilpotent, with one
    entry of its first column perhaps set, moved by a unipotent lower
    triangular g, and perhaps plus 1, so that both tests of
    `power_is_zero` come out both ways."""
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(0, 1), st.integers(0, p - 1))
    upper = [[draw(entry) if j > i else 0 for j in range(m)] for i in range(m)]
    if draw(st.booleans()):
        upper[draw(st.integers(0, m - 1))][0] = draw(entry)
    g = domain_matrix([[draw(entry) if j < i else int(i == j)
                        for j in range(m)] for i in range(m)], p)
    moved = g * domain_matrix(upper, p) * g.inv()
    if draw(st.booleans()):
        moved += DomainMatrix.eye(m, sympy.GF(p))
    return entries(moved, p), p


@settings(max_examples=60, deadline=None)
@given(nilpotent_or_not(), st.integers(1, 6))
def test_power_is_zero_matches_sympy(mp, k):
    rows, p = mp
    power = domain_matrix(rows, p) ** k
    assert power_is_zero(rows, k, p) == power.is_zero_matrix
    shifted = domain_matrix(rows, p) - DomainMatrix.eye(len(rows),
                                                          sympy.GF(p))
    assert power_is_zero(rows, k, p, minus_one=True) == \
        (shifted ** k).is_zero_matrix
