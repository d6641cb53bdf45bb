"""Partition and bipartition combinatorics.

Partitions are tuples of positive ints in weakly decreasing order.
A bipartition is an ordered pair of partitions; with total size n it
labels at once an orbit of the 2n-dimensional cone, a hyperoctahedral
conjugacy class and a hyperoctahedral irreducible.

String grammar: "2,1|1" means ((2,1),(1)); an empty component is "-".

Sizes that differ have one rule, `check_rank(label, n)`, and one error,
`RankMismatchError` (a ValueError), which every size check raises.
"""

import functools
from itertools import accumulate, zip_longest
from math import factorial, prod
from operator import index

from .ffield import Frozen


class RankMismatchError(ValueError):
    pass


def check_rank(label, n):
    """Refuse a label, class or irrep whose size is not n."""
    if label.n != n:
        raise RankMismatchError("|label| = %d but n = %d" % (label.n, n))


def check_partition(parts):
    parts = tuple(x for x in map(index, parts) if x)
    if any(x < 0 for x in parts):
        raise ValueError("negative part in %r" % (parts,))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts not weakly decreasing: %r" % (parts,))
    return parts


@functools.lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, largest-first lexicographic."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def n_invariant(parts):
    """The statistic sum (i-1)*parts[i-1] controlling orbit dimensions."""
    return sum(i * part for i, part in enumerate(parts))


def hook_lengths(parts):
    conj = conjugate(parts)
    return [[parts[i] - j + conj[j] - i - 1 for j in range(parts[i])]
            for i in range(len(parts))]


def conjugate(parts):
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


@functools.lru_cache(maxsize=None)
def standard_tableau_count(parts):
    """f^lambda by the hook length formula (exact integer); parts is a
    tuple, and each partition's hook product is taken once."""
    n = sum(parts)
    den = prod(map(prod, hook_lengths(parts)))
    count, rem = divmod(factorial(n), den)
    if rem:
        raise AssertionError("hook product %d does not divide %d! for %r"
                             % (den, n, parts))
    return count


class Bipartition(Frozen):
    """Ordered pair of partitions; the universal label of this package.

    `_trusted(first, second)` wraps two valid partitions: tuples of
    positive ints, weakly decreasing.  Labels built inside the package
    take that path, as their parts are valid by construction
    (`partitions_of`, a removed corner, a merged-in part 1);
    `Bipartition(...)` and `parse_bipartition` check outside input.
    """

    __slots__ = ("first", "second", "_hash")
    _set_args = ("first", "second")

    def __init__(self, first, second):
        self._set(check_partition(first), check_partition(second))

    def _set(self, first, second):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        # Frozen's hash, stored: keys of the branching and restriction dicts
        object.__setattr__(self, "_hash", hash((first, second)))

    @property
    def n(self):
        return sum(self.first) + sum(self.second)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Bipartition(%r, %r)" % (self.first, self.second)

    def __str__(self):
        return format_bipartition(self)

    def sort_key(self):
        # descending lex on the interleaved composition: a linear
        # extension of the closure order with the open orbit first
        c = interleave_c(self)
        padded = c + (0,) * (2 * self.n - len(c))
        return tuple(-x for x in padded)


def parse_bipartition(text):
    """The bipartition written `text`: two components split by "|", each
    "-", empty, or comma-separated ASCII parts [1-9][0-9]*.  Any other
    part, such as "0", "+1", "1_0" or a non-ASCII digit, which int()
    would read, gets the grammar error."""
    grammar = "bipartition must look like '2,1|1', got %r" % (text,)
    parts = text.strip().split("|")
    if len(parts) != 2:
        raise ValueError(grammar)

    def one(s):
        s = s.strip()
        if s in ("-", ""):
            return ()
        words = s.split(",")
        if not all(w.isascii() and w.isdigit() and w[0] != "0" for w in words):
            raise ValueError(grammar)
        return tuple(map(int, words))

    return Bipartition(one(parts[0]), one(parts[1]))


def format_bipartition(bp):
    def one(parts):
        return ",".join(str(x) for x in parts) if parts else "-"

    return "%s|%s" % (one(bp.first), one(bp.second))


@functools.lru_cache(maxsize=None)
def bipartitions_of(n):
    """All bipartitions of n in the canonical total order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    for m in range(n + 1):
        for mu in partitions_of(m):
            for nu in partitions_of(n - m):
                out.append(Bipartition._trusted(mu, nu))
    out.sort(key=Bipartition.sort_key)
    return tuple(out)


def interleave_c(bp):
    """The interleaved composition (mu_1, nu_1, mu_2, nu_2, ...)."""
    return tuple(part for pair in zip_longest(bp.first, bp.second, fillvalue=0)
                 for part in pair)


def dominance_leq(c, cprime):
    """Dominance order on compositions of equal total (after 0-padding)."""
    if sum(c) != sum(cprime):
        raise RankMismatchError("totals differ: %r vs %r" % (c, cprime))
    s1 = s2 = 0
    for a, b in zip_longest(c, cprime, fillvalue=0):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True


def closure_leq(bmu, bla):
    """Orbit closure order: bmu <= bla iff c(bmu) <= c(bla) in dominance."""
    return dominance_leq(interleave_c(bmu), interleave_c(bla))


def partition_sum(mu, nu):
    """Componentwise sum (mu_i + nu_i) of two partitions."""
    return tuple(map(sum, zip_longest(mu, nu, fillvalue=0)))


def orbit_dim(bla, n):
    """dim of the orbit labelled bla: 2n^2 - 2n - 4 n(nu) + 2|mu^(1)|."""
    check_rank(bla, n)
    nu = partition_sum(bla.first, bla.second)
    d = 2 * n * n - 2 * n - 4 * n_invariant(nu) + 2 * sum(bla.first)
    if d < 0 or d % 2:
        raise AssertionError("orbit dimension %d of %s is not even and >= 0"
                             % (d, bla))
    return d


def fiber_dim_d(bla, n):
    """Springer fibre dimension d = 2 n(nu) + n - |mu^(1)|."""
    nu = partition_sum(bla.first, bla.second)
    d = 2 * n_invariant(nu) + n - sum(bla.first)
    # orbit_dim checks the rank; cross identity: dim + 2d = 2n^2
    if orbit_dim(bla, n) + 2 * d != 2 * n * n:
        raise AssertionError("dim + 2d != 2n^2 for %s" % (bla,))
    return d


def removable_nodes(bla):
    """All corner removals: list of (component, row, resulting bipartition).

    component is 1 or 2, row is 1-based in the component's own indexing.
    """
    if bla.n < 1:
        raise ValueError("nothing to remove from the empty bipartition")
    out = []
    for comp, parts in ((1, bla.first), (2, bla.second)):
        for i, part in enumerate(parts):
            nxt = parts[i + 1] if i + 1 < len(parts) else 0
            if part > nxt:
                shrunk = parts[:i] + ((part - 1,) if part > 1 else ()) + parts[i + 1:]
                pair = (shrunk, bla.second) if comp == 1 else (bla.first, shrunk)
                out.append((comp, i + 1, Bipartition._trusted(*pair)))
    return out


@functools.lru_cache(maxsize=None)
def hasse_covers(n):
    """Covering pairs (lower, upper) of the closure order on rank n, grouped
    by upper in bipartitions_of(n) order, lowers in that order too.

    bipartitions_of(n) is a linear extension of the closure order, largest
    first (dominance implies lex order), so every label below label i comes
    after it.  One pass from the last label to the first keeps below[i],
    the set of labels under i, as an int bitmask: label i tests only the
    later labels j > i, in ascending order; a j already in the mask is
    skipped, and a j found below i brings below[j] along (transitivity).
    A j tested and found below i is a cover: a mid strictly between them
    would come before j, so it was found first and put j in the mask.

    closure_leq(a, b) iff every prefix sum of c(a) is <= that of c(b),
    the prefix sums padded with n to length 2n.  They are packed into one
    int per label, 1 + n.bit_length() bits per sum, so the test is one
    subtraction: with the top bit of every field set in hi, no field of
    hi - lo borrows, and the top bits all survive iff lo <= hi fieldwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = bipartitions_of(n)
    count = len(labels)
    width = n.bit_length() + 1
    top = sum(1 << (width * k + width - 1) for k in range(2 * n))
    packed = []
    for b in labels:
        sums = list(accumulate(interleave_c(b)))
        sums += [n] * (2 * n - len(sums))
        packed.append(sum(s << (width * k) for k, s in enumerate(sums)))
    below = [0] * count
    covers = [None] * count
    for i in range(count - 1, -1, -1):
        hi = packed[i] | top
        mask = 0
        found = []
        todo = (1 << count) - (1 << (i + 1))  # the labels after i
        while todo:
            low = todo & -todo
            j = low.bit_length() - 1
            if (hi - packed[j]) & top == top:
                found.append(j)
                mask |= low | below[j]
                todo &= ~below[j]
            todo ^= low
        below[i] = mask
        covers[i] = found
    return tuple((labels[j], upper) for upper, found in zip(labels, covers)
                 for j in found)

