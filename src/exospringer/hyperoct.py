"""Character theory of the hyperoctahedral group W_n = S_n x| (Z/2Z)^n.

Conjugacy classes and irreducibles are both labelled by bipartitions
of n.  A class (alpha, beta) records the cycle types of positive and
negative cycles; its centralizer order is the wreath-product formula
z_alpha 2^l(alpha) z_beta 2^l(beta).

The irreducible labelled (mu, nu) is induced from W_m x W_{n-m}
(m = |mu|): the S_m-character mu extended with the (Z/2Z)^m acting
trivially, times the S_{n-m}-character nu twisted by the
product-of-signs linear character delta.  Characters are given by the
standard induction formula over class fusion, so every value is an
exact integer.  The convention "first component <-> trivial Z/2
action" is locked by the identity/sign acceptance checks.

_splittings is the one enumeration of a class's splittings.
wn_character_row states the formula irrep by irrep through
induce_product, which serves only it (the definition the tests check
against); the cached table, _character_table_rows, evaluates the same
sum by Kronecker substitution: each class's splittings become digits of
a few big integers shared by every irrep (mu, nu) with |mu| = m, and
each row is one integer whose signed digits are its values, in
wn_classes(n) order.  graded_fiber_module fills all its degrees in one
pass.  The branching and graded-module inner products (_dot_rows) are
packed the same way.  _pack_digits and _read_digits convert between a
packed integer and its digits in C (struct) at 1, 2, 4 and 8 bytes per
digit, and digit by digit beyond.
"""

import functools
import struct
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial
from operator import mul

from .bicomb import Bipartition, bipartitions_of, partitions_of, \
    standard_tableau_count


class SizeMismatchError(ValueError):
    pass


def wn_order(n):
    return 2 ** n * factorial(n)


def _z_cycle(parts):
    """z_lambda = prod i^{m_i} m_i! for a cycle type lambda."""
    z = 1
    for part, m in Counter(parts).items():
        z *= part ** m * factorial(m)
    return z


def centralizer_order(signature):
    alpha, beta = signature.first, signature.second
    return (_z_cycle(alpha) * 2 ** len(alpha)
            * _z_cycle(beta) * 2 ** len(beta))


class WnClass:
    __slots__ = ("signature", "centralizer_order", "size")

    def __init__(self, signature, order):
        self.signature = signature
        self.centralizer_order = centralizer_order(signature)
        self.size, rem = divmod(order, self.centralizer_order)
        if rem:
            raise AssertionError("centralizer order %d of %s does not divide %d"
                                 % (self.centralizer_order, signature, order))

    def __repr__(self):
        return "WnClass(%s, size=%d)" % (self.signature, self.size)


def class_sort_key(signature):
    # identity class ((1^n), -) first
    return (sum(signature.second), signature.first, signature.second)


@functools.lru_cache(maxsize=None)
def wn_classes(n):
    """All conjugacy classes of W_n; sizes sum to 2^n n!.

    n = 0 is allowed (the trivial group), so restriction to W_0 and
    induction from W_0 x W_n work uniformly.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    order = wn_order(n)
    sigs = sorted(bipartitions_of(n), key=class_sort_key)
    classes = tuple(WnClass(s, order) for s in sigs)
    total = sum(c.size for c in classes)
    if total != order:
        raise AssertionError("class sizes of W_%d sum to %d, not %d"
                             % (n, total, order))
    return classes


@functools.lru_cache(maxsize=None)
def sn_character(lam, rho):
    """chi^lam on the S_n class of cycle type rho (Murnaghan-Nakayama)."""
    lam = tuple(lam)
    rho = tuple(rho)
    if sum(lam) != sum(rho):
        raise SizeMismatchError("|%r| != |%r|" % (lam, rho))
    if not rho:
        return 1
    t, rest = rho[0], rho[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        b2 = b - t
        if b2 < 0 or b2 in beta_set:
            continue
        crossed = sum(1 for c in beta if b2 < c < b)
        new_beta = sorted((beta_set - {b}) | {b2}, reverse=True)
        new_lam = tuple(x for x in (v - (k - 1 - i)
                                    for i, v in enumerate(new_beta))
                        if x > 0)
        total += (-1) ** crossed * sn_character(new_lam, rest)
    return total


@functools.lru_cache(maxsize=None)
def _sub_multisets(parts):
    """All multiset splittings (sub, rest, weight) of a partition, grouped
    by size: entry s of the result holds those with |sub| = s."""
    out = [((), (), 1)]
    for val, m in sorted(Counter(parts).items(), reverse=True):
        out = [(sub + (val,) * k, rest + (val,) * (m - k), w * comb(m, k))
               for sub, rest, w in out for k in range(m + 1)]
    groups = [[] for _ in range(sum(parts) + 1)]
    for split in out:
        groups[sum(split[0])].append(split)
    return tuple(tuple(g) for g in groups)


def _splittings(signature):
    """Splittings of the class (alpha, beta) as (m, A, B) per pair of size
    groups: each (a1, a2, wa) of A and (b1, b2, wb) of B give a1 + a2 =
    alpha and b1 + b2 = beta as multisets, of size m = |a1| + |b1| and
    weight wa * wb, the product of the multiplicity binomials.  Yielding
    groups keeps the callers' inner loops free of generator steps."""
    beta = _sub_multisets(signature.second)
    for s, alpha_group in enumerate(_sub_multisets(signature.first)):
        for t, beta_group in enumerate(beta):
            yield s + t, alpha_group, beta_group


def _merge_sorted(a, b):
    return tuple(sorted(a + b, reverse=True))


def induce_product(n, m, f_left, f_right):
    """Induce f_left (x) f_right from W_m x W_{n-m} up to W_n.

    f_left and f_right are class functions given as callables on
    (alpha, beta) signatures of W_m and W_{n-m}.  Returns a dict
    signature -> integer value, by the fusion formula
    Ind(f)(c) = sum over splittings of the class multisets, weighted
    by the product of multiplicity binomials.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    return {cls.signature: sum(wa * wb * f_left(a1, b1) * f_right(a2, b2)
                               for size, alpha, beta in _splittings(cls.signature)
                               if size == m
                               for a1, a2, wa in alpha for b1, b2, wb in beta)
            for cls in wn_classes(n)}


def wn_character_row(irrep):
    """Values of the irreducible chi^(mu, nu) on all classes of W_n, by
    the fusion formula (the definition _character_table_rows computes)."""
    mu, nu = irrep.first, irrep.second
    n = irrep.n
    m = sum(mu)

    def left(a1, b1):
        return sn_character(mu, _merge_sorted(a1, b1))

    def right(a2, b2):
        return sn_character(nu, _merge_sorted(a2, b2)) * (-1) ** len(b2)

    return induce_product(n, m, left, right)


@functools.lru_cache(maxsize=None)
def _columns(n):
    """signature -> its column, the position of its class in wn_classes(n);
    built once per n and shared, so callers must not change it."""
    return {c.signature: j for j, c in enumerate(wn_classes(n))}


def wn_character(irrep, cls):
    """chi^(mu,nu) evaluated on the class (alpha, beta)."""
    if irrep.n != cls.n:
        raise SizeMismatchError("irrep rank %d != class rank %d"
                                % (irrep.n, cls.n))
    return _character_table_rows(irrep.n)[irrep][_columns(cls.n)[cls]]


def irrep_dim(irrep):
    """C(n, |mu|) f^mu f^nu."""
    mu, nu = irrep.first, irrep.second
    n = irrep.n
    return (comb(n, sum(mu)) * standard_tableau_count(mu)
            * standard_tableau_count(nu))


@functools.lru_cache(maxsize=None)
def _character_table_rows(n):
    """irrep -> tuple of its values on wn_classes(n) in order (identity
    class first), irreps in bipartitions_of(n) order.

    The fusion formula of wn_character_row, packed by Kronecker
    substitution.  Each splitting (a1, b1, a2, b2) of a class, of size m
    and weight w in _splittings, adds w * (-1)^len(b2) to the digit of its
    class column in one integer T_ij, where i and j are the positions of
    a1 + b1 and a2 + b2 in partitions_of(m) and partitions_of(n - m).
    The row of (mu, nu) with |mu| = m is then sum_j chi^nu_j sum_i
    chi^mu_i T_ij, one integer whose digits are the row, read by
    _read_digits.  The digit width of each m is taken from the data:
    every |value| is at most the largest per-class sum of |weight| times
    the largest |chi^mu| and |chi^nu|.
    """
    classes = wn_classes(n)
    ranks = [partitions_of(k) for k in range(n + 1)]
    position = [{rho: i for i, rho in enumerate(parts)} for parts in ranks]
    sn_rows = [{lam: tuple(sn_character(lam, rho) for rho in parts)
                for lam in parts} for parts in ranks]
    terms = [[] for _ in range(n + 1)]  # m -> (column, i, j, signed weight)
    for c, cls in enumerate(classes):
        for m, alpha, beta in _splittings(cls.signature):
            left, right, out = position[m], position[n - m], terms[m]
            for a1, a2, wa in alpha:
                for b1, b2, wb in beta:
                    out.append((c, left[_merge_sorted(a1, b1)],
                                right[_merge_sorted(a2, b2)],
                                -wa * wb if len(b2) % 2 else wa * wb))
    cells, sizes = [], []  # per m: T_ij as [[T_ij for i] for j], digit bytes
    for m, split in enumerate(terms):
        weights = [0] * len(classes)
        for c, _, _, w in split:
            weights[c] += abs(w)
        top = (max(abs(x) for row in sn_rows[m].values() for x in row)
               * max(abs(x) for row in sn_rows[n - m].values() for x in row))
        size = _digit_size(max(weights) * top)
        width = 8 * size
        cell = [[0] * len(ranks[m]) for _ in ranks[n - m]]
        for c, i, j, w in split:
            cell[j][i] += w << (width * c)
        cells.append(cell)
        sizes.append(size)
    inner = {}  # mu -> [sum_i chi^mu_i T_ij for j]
    rows = {}
    for irrep in bipartitions_of(n):
        mu, nu = irrep.first, irrep.second
        m = sum(mu)
        if mu not in inner:
            inner[mu] = [sum(map(mul, sn_rows[m][mu], column))
                         for column in cells[m]]
        rows[irrep] = _read_digits(sum(map(mul, sn_rows[n - m][nu], inner[mu])),
                                   sizes[m], len(classes))
    return rows


class CharacterTable:
    """Square integer character table of W_n.

    Rows are irreducibles in the canonical bipartition order, columns
    are classes with the identity class first, so the first column
    lists dimensions.
    """

    def __init__(self, n):
        self.n = n
        self.classes = wn_classes(n)
        self.rows = bipartitions_of(n)
        self.values = tuple(_character_table_rows(n).values())
        for label, row in zip(self.rows, self.values):
            if row[0] != irrep_dim(label):
                raise AssertionError("chi^%s(1) = %d, but dim %s = %d"
                                     % (label, row[0], label, irrep_dim(label)))

    def row(self, irrep):
        return dict(zip((c.signature for c in self.classes),
                        self.values[self.rows.index(irrep)]))

    def to_json(self):
        return {"n": self.n,
                "rows": [str(r) for r in self.rows],
                "cols": [str(c.signature) for c in self.classes],
                "class_sizes": [c.size for c in self.classes],
                "values": [list(r) for r in self.values]}


def inner_product(f, g, n):
    """Class-function inner product, a rational (integer for characters)."""
    order = wn_order(n)
    total = 0
    for cls in wn_classes(n):
        sig = cls.signature
        if sig not in f or sig not in g:
            raise SizeMismatchError("class function missing class %s" % (sig,))
        total += cls.size * f[sig] * g[sig]
    return Fraction(total, order)


def fuse_class_up(signature):
    """Class fusion W_{n-1} -> W_n: add a positive fixed point."""
    return Bipartition(_merge_sorted(signature.first, (1,)), signature.second)


# struct codes of the signed integers of 1, 2, 4 and 8 bytes
_DIGIT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _digit_size(reach):
    """Bytes per digit for digits of absolute value at most reach: at least
    2 bits past reach, rounded up to 1, 2, 4 or 8 bytes where that is
    enough, so that _read_digits and _pack_digits run in C."""
    size = (reach.bit_length() + 2 + 7) // 8
    return next((s for s in _DIGIT_CODES if s >= size), size)


def _top_bits(size, count):
    """sum_k 2^(8 size - 1) 2^(8 size k) for k < count: the top bit of
    every digit."""
    return int.from_bytes(b"\x80".rjust(size, b"\0") * count, "little")


def _read_digits(total, size, count):
    """The count signed base-2^(8 size) digits d_k of total = sum_k d_k
    2^(8 size k), as a tuple, each -2^(8 size - 1) <= d_k < 2^(8 size - 1).

    Adding 2^(8 size - 1) to every digit makes each one lie in
    [0, 2^(8 size)), so none borrows from the next; flipping that bit
    back leaves each digit in two's complement, which struct reads at
    1, 2, 4 and 8 bytes, and int.from_bytes digit by digit beyond.
    """
    offset = _top_bits(size, count)
    packed = ((total + offset) ^ offset).to_bytes(size * count, "little")
    if size in _DIGIT_CODES:
        return struct.unpack("<%d%s" % (count, _DIGIT_CODES[size]), packed)
    return tuple(int.from_bytes(packed[k:k + size], "little", signed=True)
                 for k in range(0, len(packed), size))


def _pack_digits(digits, size):
    """sum_k digits[k] 2^(8 size k), the inverse of _read_digits: the
    digits are written in two's complement and the top bits flipped."""
    if size in _DIGIT_CODES:
        packed = struct.pack("<%d%s" % (len(digits), _DIGIT_CODES[size]), *digits)
    else:
        packed = b"".join(d.to_bytes(size, "little", signed=True) for d in digits)
    offset = _top_bits(size, len(digits))
    return (int.from_bytes(packed, "little") ^ offset) - offset


def _dot_rows(rows, table):
    """[[sum(map(mul, a, t)) for t in table] for a in rows], exactly, with
    one big-integer dot product per row (Kronecker substitution).

    Column j of the table is packed once as C_j = sum_k table[k][j] 2^(wk).
    Then sum_j a_j C_j holds <a, table[k]> as its base-2^w digit k, read
    by _read_digits.  The width w is taken from the data: every
    |<a, t>| is at most (sum_j |a_j|) * max |t_j|, and every packed entry
    at most max |t_j|.
    """
    table = list(table)
    top = max((abs(x) for t in table for x in t), default=0)
    weight = max((sum(map(abs, a)) for a in rows), default=0)
    size = _digit_size(max(weight, 1) * top)
    columns = [_pack_digits(column, size) for column in zip(*table)]
    return [list(_read_digits(sum(map(mul, a, columns)), size, len(table)))
            for a in rows]


def restrict_branching(n):
    """Branching matrix B[label][label'] = <Res chi, chi'> (all 0 or 1).

    Each entry is sum_c |c| Res chi(c) chi'(c) / |W_{n-1}|, an exact
    integer dot product over class-ordered rows, all of them formed by
    _dot_rows; a non-zero remainder raises AssertionError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    column = _columns(n)
    down_classes = wn_classes(n - 1)
    fusion = [column[fuse_class_up(c.signature)] for c in down_classes]
    sizes = [c.size for c in down_classes]
    order = wn_order(n - 1)
    down = _character_table_rows(n - 1)
    up = _character_table_rows(n)
    weighted = [[size * values[j] for size, j in zip(sizes, fusion)]
                for values in up.values()]
    out = {}
    for irrep, dots in zip(up, _dot_rows(weighted, down.values())):
        row = {}
        for other, dot in zip(down, dots):
            mult, rem = divmod(dot, order)
            if rem:
                raise AssertionError("<Res chi^%s, chi^%s> is not an integer"
                                     % (irrep, other))
            row[other] = mult
        out[irrep] = row
    return out


def _subset_weight_poly(alpha, beta):
    """Coefficients of prod (1 + t^a_i) prod (1 - t^b_j).

    Coefficient k is the trace of a class (alpha, beta) on the k-subset
    part of the cohomology of a product of projective lines, where each
    sign factor acts trivially in degree 0 and by -1 in degree 2.
    """
    size = sum(alpha) + sum(beta)
    coeffs = [0] * (size + 1)
    coeffs[0] = 1
    for part, sign in [(a, 1) for a in alpha] + [(b, -1) for b in beta]:
        nxt = coeffs[:]
        for k in range(size + 1 - part):
            nxt[k + part] += sign * coeffs[k]
        coeffs = nxt
    return coeffs


def graded_fiber_module(n, m, rho1, rho2):
    """Graded module induced from a flag-fibre stratum of depth m.

    rho1 is a partition of m carried with trivial sign action; rho2 a
    partition of n - m twisted against the graded cohomology of
    (P^1)^(n-m), whose degree-2k piece is the k-subset permutation
    module with sign factors on the chosen coordinates.  Returns the
    W_n-irrep decomposition degree by degree, as
    {degree: {Bipartition: multiplicity}}.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    rho1 = tuple(rho1)
    rho2 = tuple(rho2)
    if sum(rho1) != m or sum(rho2) != n - m:
        raise ValueError("|rho1| must be m and |rho2| must be n - m")
    table = _character_table_rows(n)
    classes = wn_classes(n)
    order = wn_order(n)
    # weighted[k][c] = |c| * (induced degree-2k value on c), for every k
    # at once: _subset_weight_poly(a2, b2) has one coefficient per degree
    weighted = [[0] * len(classes) for _ in range(n - m + 1)]
    for c, cls in enumerate(classes):
        for size, alpha, beta in _splittings(cls.signature):
            if size != m:
                continue
            for (a1, a2, wa), (b1, b2, wb) in product(alpha, beta):
                term = (cls.size * wa * wb
                        * sn_character(rho1, _merge_sorted(a1, b1))
                        * sn_character(rho2, _merge_sorted(a2, b2)))
                for row, coeff in zip(weighted, _subset_weight_poly(a2, b2)):
                    row[c] += term * coeff
    degrees = {}
    for k, dots in enumerate(_dot_rows(weighted, table.values())):
        mults = {}
        for irrep, dot in zip(table, dots):
            val = Fraction(dot, order)
            if val.denominator != 1 or val < 0:
                raise AssertionError("multiplicity of %s in degree %d is %s"
                                     % (irrep, 2 * k, val))
            mult = int(val)
            if mult:
                mults[irrep] = mult
        degrees[2 * k] = mults
    return degrees
