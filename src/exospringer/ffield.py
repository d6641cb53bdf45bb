"""Exact arithmetic and linear algebra over prime fields F_p, p an odd prime.

Everything here is pure and exact: field elements are plain ints in
[0, p), matrices are immutable tuples of tuples, and all eliminations
are integer arithmetic mod p.  Subspaces are kept in reduced row
echelon form so that equal subspaces compare equal.

Inputs are validated once, at the API edge.  The public constructors
(`FpMatrix(...)`, `FpMatrix.from_json`, `FpMatrix.identity` and
`Subspace(...)`) check the modulus, reduce every entry mod p and check
the shape.  The primality test is a deterministic Miller-Rabin; at
p = 2^31 - 1 it is the dearest of the checks (about 20 us, against
0.4 us at p = 7, on a 2-core Xeon with Python 3.11).  Results are
trusted inside: every operation's output is reduced by construction, so
it is built with `Frozen._trusted` (or `FpMatrix._identity`), which
skips all three checks; `Frozen` is the one immutable base of the
package's value types.  Library code that builds an already-reduced
matrix or span over a modulus it has checked uses `_trusted` too, so a
symplectic space tests its p once and none of the matrices it makes.

Ranks come from one sparse elimination, `sparse_rank`, on {index: value}
rows; a kernel is one `_rref_rows`, kept as semi-echelon (pivot, row)
pairs, and `_reduce` is the one loop that reduces a vector against them.
Only `kernel_basis` makes a kernel canonical.  One library path inverts:
the parabolic line stabilizer, once per call, for its chain basis.
Every matrix product is one kernel on row tuples, `_product_rows`, by
Kronecker substitution: `_pack_rows` packs each row k of the right
factor b once as an int whose base-2^(8 s) digit j is b[k][j], so each
row of the product is one big-integer dot product, `_times_packed`,
whose digits are its entries.  A digit is at most len(b) (p - 1)^2, so
none carries, and the width s is the fewest bytes that hold that bound
among 1, 2, 4 and 8 and those plus 8, the widths read in C
(`_digit_width`).
Nilpotence is decided by one test on row tuples, `power_is_zero`.  It
and `FpMatrix.power` take their factors from one squaring chain,
`_power_factors`.  The kernels of the powers of a nilpotent N, which
`jordan_chains` and `nilpotent_jordan_type` read, form no power:
`_power_kernels` takes each one off the reduced rows of the one before,
times N, packed once per call.
"""

import struct
from operator import attrgetter, index, mul


class Frozen:
    """Base of a value type: validated at the API edge, trusted inside,
    never mutated.  A subclass stores its slots in `_set`, which its
    checking `__init__` calls, and so does `_trusted`, with no check.
    `_set_args`, two or more attributes, names `_set`'s arguments and is
    the value's identity: `_key` reads them as a tuple, values of one
    type are equal when their keys are, a value hashes as its key, and
    copy and pickle rebuild it from its key through `_trusted`, since
    `__setattr__` refuses to set its slots."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._set_args)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return self._trusted, self._key(self)

    @classmethod
    def _trusted(cls, *values):
        obj = object.__new__(cls)
        obj._set(*values)
        return obj


class NonSquareError(ValueError):
    pass


class NotNilpotentError(ValueError):
    pass


class NotStableError(ValueError):
    pass


# (psi_k, k): Miller-Rabin with the first k primes as bases is exact
# below psi_k, the least strong pseudoprime to all of them (Pomerance,
# Selfridge and Wagstaff, Math. Comp. 1980; Jaeschke, Math. Comp. 1993;
# Jiang and Deng, Math. Comp. 2014).  psi_8 = psi_7 and psi_11 = psi_10 =
# psi_9, so 8, 10 and 11 bases decide nothing more.  Each n < psi_k is
# tested with the shortest such prefix, every base of which is below n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
           (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
           (3825123056546413051, 9), (318665857834031151167461, 12))


def is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    n = index(p)                    # refuses non-integers such as 3.0
    for psi, k in _MR_PSI:
        if n < psi:
            break
    else:
        raise ValueError("primality of %d is not decided exactly" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p):
    # size first: no modulus above 2^31 is accepted, prime or not
    if p > 2**31:
        raise ValueError("modulus too large: %d" % p)
    if not is_odd_prime(p):
        raise ValueError("modulus must be an odd prime, got %r" % (p,))
    return p


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, -1, p)


_JSON_TYPES = {int: "an integer", str: "a string", dict: "an object",
               list: "a list of integers"}


def json_fields(obj, fields, what):
    """The values of the JSON object `obj` at the names in `fields`, in order.

    `fields` maps each name to the type its value must have: int, str,
    dict, or list (of ints); booleans are not integers.  Raises ValueError
    naming the first missing or mistyped field, so that bad input gets a
    message a user can act on rather than a bare KeyError or TypeError.
    """
    if not isinstance(obj, dict):
        raise ValueError("%s JSON must be an object" % what)
    values = []
    for name, kind in fields.items():
        if name not in obj:
            raise ValueError("%s JSON is missing field %r" % (what, name))
        value = obj[name]
        if type(value) is not kind or (
                kind is list and any(type(c) is not int for c in value)):
            raise ValueError("%s JSON field %r must be %s"
                             % (what, name, _JSON_TYPES[kind]))
        values.append(value)
    return tuple(values)


def _rref_rows(rows, ncols, p):
    """Reduce a list of rows, entries in [0, p), to reduced row echelon form.

    Works in place on the list and returns (rows, pivot column indices);
    the first len(pivots) rows are the nonzero ones.  A row it changes is
    replaced by a new list, so the rows themselves, lists or tuples, are
    never written.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = inv_mod(rows[r][c], p)
        top = rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def _kernel_rows(rows, ncols, p):
    """{v : M v = 0} for the matrix M with these rows, by one `_rref_rows`,
    as `_rref_kernel` reads it."""
    return _rref_kernel(*_rref_rows(list(rows), ncols, p), ncols, p)


def _rref_kernel(red, pivots, ncols, p):
    """{v : M v = 0} for the matrix M with reduced rows `red` and these
    pivots, as [(c, v)] over the free columns c: v is 1 at c and 0 at
    every other free column, so the list is semi-echelon (see `_reduce`)."""
    kernel = [(c, [0] * ncols) for c in range(ncols) if c not in pivots]
    for c, v in kernel:
        v[c] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[c] % p
    return kernel


def _reduce(basis, vec, p):
    """(coefficients, remainder) of vec, entries in [0, p), against the
    semi-echelon basis [(pivot, row)], each row 1 at its pivot and 0 at
    the pivots before it; the remainder is zero iff vec lies in the span."""
    v = list(vec)
    coeffs = []
    for pc, row in basis:
        c = v[pc]
        coeffs.append(c)
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return tuple(coeffs), v


def sparse_rank(rows, p):
    """Rank of vectors given as {index: value} dicts, values in [1, p).

    One sparse elimination: each step takes the shortest row left as the
    pivot, clears one of its indices from the other rows and drops it
    and every row that becomes empty.  The dicts are used up: the rows
    are changed in place, so a caller passes rows it will not read again.
    """
    rank = 0
    rows = [row for row in rows if row]
    while rows:
        rank += 1
        if len(rows) == 1:
            break
        rows.sort(key=len, reverse=True)
        top = rows.pop()
        c, lead = top.popitem()
        # row + row[c] * top, for each remaining row, clears index c
        scale = p - pow(lead, -1, p)
        top = [(k, b * scale % p) for k, b in top.items()]
        rest = []
        for row in rows:
            f = row.pop(c, 0)
            if f:
                for k, b in top:
                    a = (row.get(k, 0) + f * b) % p
                    if a:
                        row[k] = a
                    else:
                        del row[k]
            if row:
                rest.append(row)
        rows = rest
    return rank


# struct codes of the unsigned ints of 1, 2, 4 and 8 bytes, and the digit
# widths struct reads: one of those, or 8 bytes and one of those
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_DIGIT_WIDTHS = (*_WORD_CODES, *(8 + w for w in _WORD_CODES))


def _digit_width(reach):
    """Bytes per digit for digits in [0, reach]: the fewest that hold
    reach among 1, 2, 4 and 8, and 8 more than those (9, 10, 12 and 16),
    so that `_pack_rows` packs and reads every digit in C.  Over a modulus
    p <= 2^31, a digit of a product by k rows is below k 2^62, so 16 bytes
    hold it for any k below 2^66."""
    size = (reach.bit_length() + 7) // 8
    for width in _DIGIT_WIDTHS:
        if width >= size:
            return width
    raise ValueError("no digit width holds %d" % reach)


def _pack_rows(b, p):
    """(packed, read): row k of b, entries in [0, p), packed as the int
    packed[k] whose base-2^(8 s) digit j is b[k][j] (Kronecker
    substitution), and read, which turns a sum of multiples of these ints
    into its digits mod p, as a tuple.

    For a row a, sum(map(mul, a, packed)) holds (a b)_j as its digit j,
    and no digit carries into the next: each is at most len(b) (p - 1)^2,
    and the width s is `_digit_width` of that bound.  read runs in C but
    for the mod: at 1 byte one bytes.translate by a mod-p table; at 2, 4
    and 8 bytes one struct unpack, then % p; wider (a large p, such as
    2^31 - 1 with more than four rows), one struct unpack of each digit as
    a low 8-byte word and a high word of s - 8 bytes, joined, then % p."""
    ncols = len(b[0])
    size = _digit_width(len(b) * (p - 1) ** 2)
    if size == 1:
        table = (bytes(range(p)) * (256 // p + 1))[:256]
        packed = [int.from_bytes(bytes(row), "little") for row in b]

        def read(total):
            return tuple(total.to_bytes(ncols, "little").translate(table))
    elif size <= 8:
        form = struct.Struct("<%d%s" % (ncols, _WORD_CODES[size]))
        packed = [int.from_bytes(form.pack(*row), "little") for row in b]
        unpack, nbytes = form.unpack, form.size

        def read(total):
            return tuple([d % p for d in unpack(total.to_bytes(nbytes,
                                                                "little"))])
    else:
        form = struct.Struct("<" + ("Q" + _WORD_CODES[size - 8]) * ncols)
        # each entry of b, below p, is all in its low word
        packed = [int.from_bytes(form.pack(*[w for x in row for w in (x, 0)]),
                                 "little") for row in b]
        unpack, nbytes = form.unpack, form.size

        def read(total):
            words = iter(unpack(total.to_bytes(nbytes, "little")))
            return tuple([(lo | hi << 64) % p for lo, hi in zip(words, words)])
    return packed, read


def _times_packed(a, packed, read):
    """The rows of a b, for b packed by `_pack_rows` as (packed, read):
    one big-integer dot product per row of a, len(b) multiplications."""
    return tuple([read(sum(map(mul, row, packed))) for row in a])


def _product_rows(a, b, p):
    """The rows of the product of the matrices with rows a and b, entries
    in [0, p): b is packed once by `_pack_rows`, and each row of a b is
    one `_times_packed` dot product, read off its digits."""
    return _times_packed(a, *_pack_rows(b, p))


def _power_factors(rows, k, p):
    """(a, b) with a b = M^k, for the square matrix M with these rows and
    k >= 1; b is None at k = 1, where a = M.

    The one squaring chain: it starts from k's lowest set bit, so that no
    product is by the identity, and stops before its last product, which
    the caller forms or reads.  With it, M^k costs
    floor(log2 k) + popcount(k) - 1 products."""
    a = None                # M^k = a rows^k, with None for the identity
    while k > 1:
        if k & 1:
            a = rows if a is None else _product_rows(a, rows, p)
        elif k == 2 and a is None:
            return rows, rows
        rows = _product_rows(rows, rows, p)
        k >>= 1
    return (rows, None) if a is None else (a, rows)


def power_is_zero(rows, k, p, minus_one=False):
    """Whether M^k = 0, or (M - 1)^k = 0 with minus_one, for the square
    matrix M with these rows (entries in [0, p)) and k >= 1.

    The one nilpotence test.  M - 1 is M with 1 taken off its diagonal.
    The factors a b = M^k come from `_power_factors`, the chain that
    `FpMatrix.power` uses too, each of its products packed by
    `_product_rows`.  The last product a b is not packed: it is read entry
    by entry, one dot product each, and the test stops at its first
    nonzero entry, so that an x off the census's cone costs a few dot
    products and not a packed product."""
    if k < 1:
        raise ValueError("power_is_zero needs k >= 1")
    if minus_one:
        rows = tuple(row[:i] + ((row[i] - 1) % p,) + row[i + 1:]
                     for i, row in enumerate(rows))
    a, b = _power_factors(rows, k, p)
    if b is None:
        return not any(map(any, a))
    bt = tuple(zip(*b))
    return not any(sum(map(mul, row, col)) % p for row in a for col in bt)


class FpMatrix(Frozen):
    """Immutable dense matrix over F_p (row-major tuple of tuples);
    `_trusted(rows, p)` takes a non-empty tuple of equal-length tuples
    of ints in [0, p), over a checked modulus p."""

    __slots__ = ("p", "rows", "cols", "entries")
    _set_args = ("entries", "p")

    def __init__(self, entries, p):
        check_modulus(p)
        rows = tuple(tuple(index(x) % p for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self._set(rows, p)

    def _set(self, rows, p):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]))
        object.__setattr__(self, "entries", rows)

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n, p):
        check_modulus(p)
        if n < 1:
            raise ValueError("empty matrix")
        return cls._identity(n, p)

    @classmethod
    def _identity(cls, n, p):
        """The n x n identity, n >= 1, over a checked modulus p."""
        return cls._trusted(tuple(tuple(1 if i == j else 0 for j in range(n))
                                  for i in range(n)), p)

    @classmethod
    def from_json(cls, obj):
        p, rows, cols, entries = json_fields(
            obj, {"p": int, "rows": int, "cols": int, "entries": list},
            "matrix")
        return cls(_unflatten(entries, rows, cols), p)

    def to_json(self):
        return {"p": self.p, "rows": self.rows, "cols": self.cols,
                "entries": [x for row in self.entries for x in row]}

    # -- basic algebra -----------------------------------------------

    def __repr__(self):
        return "FpMatrix(%r, p=%d)" % ([list(r) for r in self.entries], self.p)

    def __add__(self, other):
        self._compat(other)
        p = self.p
        return FpMatrix._trusted(
            tuple(tuple((a + b) % p for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.entries, other.entries)), p)

    def __sub__(self, other):
        self._compat(other)
        p = self.p
        return FpMatrix._trusted(
            tuple(tuple((a - b) % p for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.entries, other.entries)), p)

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.p
            return FpMatrix._trusted(tuple(tuple((other * a) % p for a in row)
                                           for row in self.entries), p)
        if self.cols != other.rows or self.p != other.p:
            raise ValueError("shape/modulus mismatch in matmul")
        return FpMatrix._trusted(
            _product_rows(self.entries, other.entries, self.p), self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (self.p - 1)

    def _compat(self, other):
        if (self.rows, self.cols, self.p) != (other.rows, other.cols, other.p):
            raise ValueError("shape/modulus mismatch")

    def transpose(self):
        return FpMatrix._trusted(tuple(zip(*self.entries)), self.p)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def is_square(self):
        return self.rows == self.cols

    def apply(self, vec):
        """Matrix times column vector (a tuple of ints)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.p
        return tuple(sum(map(mul, row, vec)) % p for row in self.entries)

    def power(self, k):
        """self^k, by `_power_factors`' squaring chain for k >= 1."""
        if k < 0:
            raise ValueError("negative matrix power")
        if not self.is_square():
            raise NonSquareError("power of non-square matrix")
        if k == 0:
            return FpMatrix._identity(self.rows, self.p)
        a, b = _power_factors(self.entries, k, self.p)
        return FpMatrix._trusted(
            a if b is None else _product_rows(a, b, self.p), self.p)

    # -- elimination --------------------------------------------------

    def rref(self):
        """(reduced echelon form, pivot column indices)."""
        red, pivots = _rref_rows([list(row) for row in self.entries],
                                 self.cols, self.p)
        return FpMatrix._trusted(tuple(map(tuple, red)), self.p), pivots

    def rank(self):
        """The rank, by `sparse_rank` on the nonzero entries of each row."""
        return sparse_rank([{c: a for c, a in enumerate(row) if a}
                            for row in self.entries], self.p)

    def kernel_basis(self):
        """Canonical Subspace {v : Mv = 0} of the column space F_p^cols."""
        kernel = _kernel_rows(self.entries, self.cols, self.p)
        return Subspace._trusted(self.cols, [v for _, v in kernel], self.p)

    def inverse(self):
        if not self.is_square():
            raise NonSquareError("inverse of non-square matrix")
        n = self.rows
        p = self.p
        aug = [list(row) + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(self.entries)]
        red, pivots = _rref_rows(aug, 2 * n, p)
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return FpMatrix._trusted(tuple(tuple(row[n:]) for row in red), p)

    def is_invertible(self):
        return self.is_square() and self.rank() == self.rows


def _unflatten(flat, rows, cols):
    if len(flat) != rows * cols:
        raise ValueError("entries length != rows*cols")
    if rows < 1 or cols < 1:
        return ()  # refused as empty, with no row built
    return tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))


class Subspace(Frozen):
    """Subspace of F_p^n, stored as a canonical reduced-echelon basis.

    Basis vectors are rows of an rref matrix, so two equal subspaces
    always produce identical objects.  `_trusted(ambient_dim, vectors, p)`
    spans sequences of ambient_dim ints in [0, p), over a checked p.
    """

    __slots__ = ("ambient_dim", "basis", "p", "_pivots")
    _set_args = ("ambient_dim", "basis", "p")

    def __init__(self, ambient_dim, vectors, p):
        check_modulus(p)
        vecs = [[index(x) % p for x in v] for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length != ambient dim")
        self._set(ambient_dim, vecs, p)

    def _set(self, ambient_dim, vectors, p):
        red, pivots = _rref_rows([list(v) for v in vectors if any(v)],
                                 ambient_dim, p)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(map(tuple, red[:len(pivots)])))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_pivots", pivots)

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return "Subspace(dim=%d of %d, p=%d)" % (self.dim, self.ambient_dim, self.p)

    def _reduce(self, vec):
        """`_reduce` of vec against the echelon basis."""
        return _reduce(zip(self._pivots, self.basis), vec, self.p)


def commutant_basis(y):
    """Basis of {Z : ZY = YZ} inside End(F_p^m).

    The commutant is the kernel of Z |-> ZY - YZ seen as a linear map
    on the m^2-dimensional space of matrices.
    """
    if not y.is_square():
        raise NonSquareError("commutant of non-square matrix")
    m, p = y.rows, y.p
    # row (i,j) of the big system = entry (i,j) of E_kl*Y - Y*E_kl summed
    cols = []
    for k in range(m):
        for l in range(m):
            # image of the unit matrix E_kl under Z -> ZY - YZ
            img = [[0] * m for _ in range(m)]
            for j in range(m):
                img[k][j] = (img[k][j] + y.entries[l][j]) % p
            for i in range(m):
                img[i][l] = (img[i][l] - y.entries[i][k]) % p
            cols.append([img[i][j] for i in range(m) for j in range(m)])
    big = FpMatrix._trusted(tuple(zip(*cols)), p)  # m^2 x m^2, columns (k,l)
    return [FpMatrix._trusted(_unflatten(v, m, m), p)
            for v in big.kernel_basis().basis]


def _power_kernels(n_mat):
    """The `_kernel_rows` of N, N^2, ..., N^k for a nilpotent N of index k,
    with no power of N formed.

    The row space of N^(s+1) is that of N^s times N, so it is spanned by
    the r_s nonzero reduced rows of N^s times N: each step is one product
    of an r_s x m block by N, r_s dot products by N's rows as
    `_pack_rows` packs them once per call, and one `_rref_rows` of it,
    whose free columns give the kernel.  A reduced echelon form is
    canonical for its row space, so every kernel is the one the power
    itself would give.
    The kernels never shrink, and once two in a row are equal they stay
    equal, so a kernel that stops growing short of F_p^m means N is not
    nilpotent.
    """
    m, p = n_mat.rows, n_mat.p
    kernels = []
    rows = n_mat.entries
    by_n = _pack_rows(rows, p)     # N, packed once for every step
    while True:
        red, pivots = _rref_rows(list(rows), m, p)
        kernel = _rref_kernel(red, pivots, m, p)
        if len(kernel) == (len(kernels[-1]) if kernels else 0):
            raise NotNilpotentError("matrix is not nilpotent")
        kernels.append(kernel)
        if len(kernel) == m:
            return kernels
        rows = _times_packed(red[:len(pivots)], *by_n)


def nilpotent_jordan_type(n_mat):
    """Jordan type (a partition of m) of a nilpotent m x m matrix.

    The number of parts >= s is dim ker N^s - dim ker N^(s-1), so these
    kernel steps are the conjugate partition.
    """
    if not n_mat.is_square():
        raise NonSquareError("jordan type of non-square matrix")
    dims = [0] + [len(k) for k in _power_kernels(n_mat)]
    drops = [b - a for a, b in zip(dims, dims[1:])]
    out = tuple(sum(d >= i for d in drops) for i in range(1, drops[0] + 1))
    if sum(out) != n_mat.rows:
        raise AssertionError("Jordan type %r does not add up to %d"
                             % (out, n_mat.rows))
    return out


def _echelon_add(basis, vec, p):
    """Reduce vec against the semi-echelon basis [(pivot, row)]; if a
    remainder is left, append it, scaled to 1 at its first nonzero index,
    and return True."""
    v = _reduce(basis, vec, p)[1]
    pc = next((i for i, a in enumerate(v) if a), None)
    if pc is None:
        return False
    inv = pow(v[pc], -1, p)
    basis.append((pc, [a * inv % p for a in v]))
    return True


def jordan_chains(n_mat):
    """P^-1's rows, one tuple per chain, longest first, for a basis P of
    Jordan chains u, Nu, ..., N^(l-1) u of a nilpotent N.

    Row k of a block reads v's coordinate on N^k u, so the rows satisfy
    r_k N = r_(k-1) and r_0 N = 0: reversed, they are a Jordan chain
    w, T w, ..., T^(l-1) w of T = N^T.  So the chains are built for T,
    and no P is formed.  The kernels of the powers of T come from
    `_power_kernels`, one product of reduced rows by T and one reduction
    per power, with no power of T formed.  Tops are found top-down: those
    of length s are the vectors of ker T^s independent of ker T^(s-1) and
    of the longer chains' vectors there, each reduced once into one
    semi-echelon span.
    The chains of length >= s number dim ker T^s - dim ker T^(s-1), so a
    step that needs no new top is skipped, and the scan of ker T^s stops
    at its last top.
    """
    if not n_mat.is_square():
        raise NonSquareError("jordan chains of non-square matrix")
    t = n_mat.transpose()
    m, p = t.rows, t.p
    kernels = [[]] + _power_kernels(t)
    chains = []
    for s in range(len(kernels) - 1, 0, -1):
        wanted = len(kernels[s]) - len(kernels[s - 1])
        if len(chains) == wanted:
            continue
        span = list(kernels[s - 1])
        # T^(l-s) w of each longer chain, of length l, lies in ker T^s
        for c in chains:
            _echelon_add(span, c[len(c) - s], p)
        for _, w in kernels[s]:
            if len(chains) == wanted:
                break
            if _echelon_add(span, w, p):
                chain = [tuple(w)]
                for _ in range(s - 1):
                    chain.append(t.apply(chain[-1]))
                chains.append(chain)
    size = sum(map(len, chains))
    if size != m:
        raise AssertionError("Jordan chains span %d of %d dimensions"
                             % (size, m))
    return tuple(tuple(reversed(chain)) for chain in chains)


def induced_action(m_mat, w, mode):
    """Matrix of m_mat on a stable subspace W or on ambient/W.

    restrict: the matrix in W's echelon basis.
    quotient: the matrix on a fixed complement of W (coset representatives
    given by the non-pivot coordinates), well defined up to conjugacy.
    """
    if m_mat.cols != w.ambient_dim or m_mat.p != w.p:
        raise ValueError("ambient mismatch")
    p = m_mat.p
    images = []
    for b in w.basis:
        coeffs, rem = w._reduce(m_mat.apply(b))
        if any(rem):
            raise NotStableError("subspace is not stable under the matrix")
        images.append(coeffs)
    if mode == "restrict":
        if w.dim == 0:
            raise ValueError("restriction to the zero subspace")
        return FpMatrix._trusted(tuple(zip(*images)), p)
    if mode == "quotient":
        pivots = set(w._pivots)
        rest = [c for c in range(w.ambient_dim) if c not in pivots]
        if not rest:
            raise ValueError("quotient by the full space")
        # reduce each image mod W, then read off the non-pivot coordinates
        cols = []
        for c in rest:
            e = [0] * w.ambient_dim
            e[c] = 1
            img = w._reduce(m_mat.apply(tuple(e)))[1]
            cols.append([img[j] for j in rest])
        return FpMatrix._trusted(tuple(zip(*cols)), p)
    raise ValueError("mode must be 'restrict' or 'quotient'")
