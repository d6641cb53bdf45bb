import random

import pytest

from exospringer import ffield
from exospringer.census import sp_generators
from exospringer.ffield import FpMatrix


@pytest.fixture
def rng():
    return random.Random(20260809)


@pytest.fixture
def matmul_calls(monkeypatch):
    """A list that grows by one entry per FpMatrix product in the test."""
    calls = []
    mul = FpMatrix.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FpMatrix, "__mul__", counted)
    return calls


@pytest.fixture
def row_products(monkeypatch):
    """A list that grows by one entry per product of row tuples in ffield,
    the products of `FpMatrix.__mul__` and of the squaring chain alike."""
    calls = []
    product_rows = ffield._product_rows

    def counted(a, b, p):
        calls.append(1)
        return product_rows(a, b, p)

    monkeypatch.setattr(ffield, "_product_rows", counted)
    return calls


def zeros(rows, cols, p):
    return FpMatrix(((0,) * cols,) * rows, p)


def random_matrix(rng, rows, cols, p):
    return FpMatrix([[rng.randrange(p) for _ in range(cols)]
                     for _ in range(rows)], p)


def random_invertible(rng, n, p):
    while True:
        m = random_matrix(rng, n, n, p)
        if m.is_invertible():
            return m


def random_sp_element(rng, space, word_len=8):
    """A pseudorandom symplectic element as a word in the transvection
    generators (seeded, so tests are reproducible)."""
    gens = sp_generators(space)
    g = FpMatrix.identity(space.dim, space.p)
    for _ in range(word_len):
        g = g * rng.choice(gens)
    return g
