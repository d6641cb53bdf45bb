"""Character theory of the hyperoctahedral group W_n = S_n x| (Z/2Z)^n.

Conjugacy classes and irreducibles are both labelled by bipartitions
of n.  A class (alpha, beta) records the cycle types of positive and
negative cycles; its centralizer order is the wreath-product formula
z_alpha 2^l(alpha) z_beta 2^l(beta).

The irreducible labelled (mu, nu) is induced from W_m x W_{n-m}
(m = |mu|): the S_m-character mu extended with the (Z/2Z)^m acting
trivially, times the S_{n-m}-character nu twisted by the
product-of-signs linear character delta.  Characters are computed by
the standard induction formula over class fusion, so every value is an
exact integer.  The convention "first component <-> trivial Z/2
action" is locked by the identity/sign acceptance checks.
"""

import functools
from fractions import Fraction
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
    mult = {}
    for part in parts:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
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
    """All multiset splittings of a partition: (sub, rest, weight)."""
    mult = {}
    for part in parts:
        mult[part] = mult.get(part, 0) + 1
    values = sorted(mult, reverse=True)
    out = [((), (), 1)]
    for val in values:
        m = mult[val]
        grown = []
        for sub, rest, w in out:
            for k in range(m + 1):
                grown.append((sub + (val,) * k, rest + (val,) * (m - k),
                              w * comb(m, k)))
        out = grown
    return tuple(out)


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
    values = {}
    for cls in wn_classes(n):
        alpha, beta = cls.signature.first, cls.signature.second
        total = 0
        for a1, a2, wa in _sub_multisets(alpha):
            for b1, b2, wb in _sub_multisets(beta):
                if sum(a1) + sum(b1) != m:
                    continue
                total += wa * wb * f_left(a1, b1) * f_right(a2, b2)
        values[cls.signature] = total
    return values


def wn_character_row(irrep):
    """Values of the irreducible chi^(mu, nu) on all classes of W_n."""
    mu, nu = irrep.first, irrep.second
    n = irrep.n
    m = sum(mu)

    def left(a1, b1):
        return sn_character(mu, _merge_sorted(a1, b1))

    def right(a2, b2):
        return sn_character(nu, _merge_sorted(a2, b2)) * (-1) ** len(b2)

    return induce_product(n, m, left, right)


def wn_character(irrep, cls):
    """chi^(mu,nu) evaluated on the class (alpha, beta)."""
    if irrep.n != cls.n:
        raise SizeMismatchError("irrep rank %d != class rank %d"
                                % (irrep.n, cls.n))
    return _character_table_rows(irrep.n)[irrep][cls]


def irrep_dim(irrep):
    """C(n, |mu|) f^mu f^nu."""
    mu, nu = irrep.first, irrep.second
    n = irrep.n
    return (comb(n, sum(mu)) * standard_tableau_count(mu)
            * standard_tableau_count(nu))


@functools.lru_cache(maxsize=None)
def _character_table_rows(n):
    return {irrep: wn_character_row(irrep) for irrep in bipartitions_of(n)}


def _class_ordered_rows(n):
    """irrep -> tuple of its values on wn_classes(n) in order (identity
    class first), irreps in bipartitions_of(n) order."""
    classes = wn_classes(n)
    return {irrep: tuple(row[c.signature] for c in classes)
            for irrep, row in _character_table_rows(n).items()}


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
        self.values = tuple(_class_ordered_rows(n).values())
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


def restrict_row(irrep):
    """Values of Res chi^irrep on the classes of W_{n-1}."""
    n = irrep.n
    row = _character_table_rows(n)[irrep]
    return {c.signature: row[fuse_class_up(c.signature)]
            for c in wn_classes(n - 1)}


def restrict_branching(n):
    """Branching matrix B[label][label'] = <Res chi, chi'> (all 0 or 1).

    Each entry is sum_c |c| Res chi(c) chi'(c) / |W_{n-1}|, an integer
    dot product over class-ordered rows; a non-zero remainder raises
    AssertionError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    column = {c.signature: j for j, c in enumerate(wn_classes(n))}
    down_classes = wn_classes(n - 1)
    fusion = [column[fuse_class_up(c.signature)] for c in down_classes]
    sizes = [c.size for c in down_classes]
    order = wn_order(n - 1)
    down = _class_ordered_rows(n - 1).items()
    out = {}
    for irrep, values in _class_ordered_rows(n).items():
        weighted = [size * values[j] for size, j in zip(sizes, fusion)]
        row = {}
        for other, chi in down:
            mult, rem = divmod(sum(map(mul, weighted, chi)), order)
            if rem:
                raise AssertionError("<Res chi^%s, chi^%s> is not an integer"
                                     % (irrep, other))
            row[other] = mult
        out[irrep] = row
    return out


class GradedWnModule:
    """Even-graded W_n module recorded as multiplicity vectors."""

    def __init__(self, n, degrees):
        self.n = n
        self.degrees = degrees  # degree -> {Bipartition: multiplicity}
        for mults in degrees.values():
            if any(m < 0 for m in mults.values()):
                raise AssertionError("negative multiplicity in %r" % (mults,))

    def to_json(self):
        return {"n": self.n,
                "degrees": {str(d): {str(k): v for k, v in mults.items() if v}
                            for d, mults in sorted(self.degrees.items())}}


def _subset_weight_poly(alpha, beta):
    """Coefficients of prod (1 + t^a_i) prod (1 - t^b_j).

    Coefficient k is the trace of a class (alpha, beta) on the k-subset
    part of the cohomology of a product of projective lines, where each
    sign factor acts trivially in degree 0 and by -1 in degree 2.
    """
    size = sum(alpha) + sum(beta)
    coeffs = [0] * (size + 1)
    coeffs[0] = 1
    for part in alpha:
        nxt = coeffs[:]
        for k in range(size + 1 - part):
            nxt[k + part] += coeffs[k]
        coeffs = nxt
    for part in beta:
        nxt = coeffs[:]
        for k in range(size + 1 - part):
            nxt[k + part] -= coeffs[k]
        coeffs = nxt
    return coeffs


def graded_fiber_module(n, m, rho1, rho2):
    """Graded module induced from a flag-fibre stratum of depth m.

    rho1 is a partition of m carried with trivial sign action; rho2 a
    partition of n - m twisted against the graded cohomology of
    (P^1)^(n-m), whose degree-2k piece is the k-subset permutation
    module with sign factors on the chosen coordinates.  Returns the
    W_n-irrep decomposition degree by degree.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    rho1 = tuple(rho1)
    rho2 = tuple(rho2)
    if sum(rho1) != m or sum(rho2) != n - m:
        raise ValueError("|rho1| must be m and |rho2| must be n - m")
    table = _character_table_rows(n)

    def left(a1, b1):
        return sn_character(rho1, _merge_sorted(a1, b1))

    degrees = {}
    for k in range(n - m + 1):
        def right(a2, b2, k=k):
            coeffs = _subset_weight_poly(a2, b2)
            weight = coeffs[k] if k < len(coeffs) else 0
            return weight * sn_character(rho2, _merge_sorted(a2, b2))

        values = induce_product(n, m, left, right)
        mults = {}
        for irrep in bipartitions_of(n):
            val = inner_product(values, table[irrep], n)
            if val.denominator != 1 or val < 0:
                raise AssertionError("multiplicity of %s in degree %d is %s"
                                     % (irrep, 2 * k, val))
            mult = int(val)
            if mult:
                mults[irrep] = mult
        degrees[2 * k] = mults
    return GradedWnModule(n, degrees)
