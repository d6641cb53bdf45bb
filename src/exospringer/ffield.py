"""Exact arithmetic and linear algebra over prime fields F_p, p an odd prime.

Everything here is pure and exact: field elements are plain ints in
[0, p), matrices are immutable tuples of tuples, and all eliminations
are integer arithmetic mod p.  Subspaces are kept in reduced row
echelon form so that equal subspaces compare equal.

Inputs are validated once, at the API edge.  The public constructors
(`FpMatrix(...)`, `FpMatrix.from_json`, `FpMatrix.identity` and
`Subspace(...)`) check the modulus, reduce every entry mod p and check
the shape; the primality test is a deterministic Miller-Rabin, cheap
even at p = 2^31 - 1.  Results are trusted inside:
every operation's output is reduced by construction, so it is built
with the private `_trusted` constructors, which skip all three checks.  Library code that builds
an already-reduced matrix or span in a hot loop uses them too.
"""

from math import isqrt
from operator import index, mul


class NonSquareError(ValueError):
    pass


class NotNilpotentError(ValueError):
    pass


class NotStableError(ValueError):
    pass


# Miller-Rabin with these bases is exact below 3,215,031,751, which
# covers every modulus check_modulus accepts (p <= 2^31).
_MR_BASES = (2, 3, 5, 7)
_MR_EXACT_BELOW = 3215031751


def is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    n = index(p)                    # refuses non-integers such as 3.0
    if n >= _MR_EXACT_BELOW:
        return all(n % d for d in range(3, isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a == n:
            return True
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
    if not is_odd_prime(p):
        raise ValueError("modulus must be an odd prime, got %r" % (p,))
    if p > 2**31:
        raise ValueError("modulus too large: %d" % p)
    return p


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, -1, p)


def json_fields(obj, names, what):
    """The values of `names` in the JSON object `obj`, in order.

    Raises ValueError naming the first missing field, so that bad input
    gets a message a user can act on rather than a bare KeyError.
    """
    if not isinstance(obj, dict):
        raise ValueError("%s JSON must be an object" % what)
    for name in names:
        if name not in obj:
            raise ValueError("%s JSON is missing field %r" % (what, name))
    return tuple(obj[name] for name in names)


def _rref_rows(rows, ncols, p):
    """Reduce a list of row lists, entries in [0, p), to reduced row echelon form.

    Works in place and returns (rows, pivot column indices); the first
    len(pivots) rows are the nonzero ones.
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


def _set_matrix(m, rows, p):
    object.__setattr__(m, "p", p)
    object.__setattr__(m, "rows", len(rows))
    object.__setattr__(m, "cols", len(rows[0]))
    object.__setattr__(m, "entries", rows)


class FpMatrix:
    """Immutable dense matrix over F_p (row-major tuple of tuples)."""

    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(self, entries, p):
        check_modulus(p)
        rows = tuple(tuple(int(x) % p for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        _set_matrix(self, rows, p)

    @classmethod
    def _trusted(cls, rows, p):
        """Wrap rows that are already valid: a non-empty tuple of
        equal-length tuples of ints in [0, p), over a checked modulus p."""
        m = object.__new__(cls)
        _set_matrix(m, rows, p)
        return m

    def __setattr__(self, *a):
        raise AttributeError("FpMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n, p):
        check_modulus(p)
        rows = tuple(tuple(1 if i == j else 0 for j in range(n))
                     for i in range(n))
        if not rows:
            raise ValueError("empty matrix")
        return cls._trusted(rows, p)

    @classmethod
    def from_json(cls, obj):
        p, rows, cols, entries = json_fields(
            obj, ("p", "rows", "cols", "entries"), "matrix")
        return cls(_unflatten(entries, rows, cols), p)

    def to_json(self):
        return {"p": self.p, "rows": self.rows, "cols": self.cols,
                "entries": [x for row in self.entries for x in row]}

    # -- basic algebra -----------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FpMatrix) and self.p == other.p
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.p, self.entries))

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
        p = self.p
        bt = tuple(zip(*other.entries))
        return FpMatrix._trusted(tuple(tuple(sum(map(mul, row, col)) % p
                                             for col in bt)
                                       for row in self.entries), p)

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

    def is_nilpotent(self):
        """N^k = 0 for some k; squares up to a power >= m, as N^m = 0."""
        if not self.is_square():
            raise NonSquareError("nilpotence of non-square matrix")
        power, k = self, 1
        while k < self.rows:
            power = power * power
            k *= 2
        return power.is_zero()

    def power(self, k):
        if k < 0:
            raise ValueError("negative matrix power")
        if not self.is_square():
            raise NonSquareError("power of non-square matrix")
        result = FpMatrix.identity(self.rows, self.p)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- elimination --------------------------------------------------

    def rref(self):
        """(reduced echelon form, pivot column indices)."""
        red, pivots = _rref_rows([list(row) for row in self.entries],
                                 self.cols, self.p)
        return FpMatrix._trusted(tuple(map(tuple, red)), self.p), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Canonical Subspace {v : Mv = 0} of the column space F_p^cols."""
        red, pivots = self.rref()
        p = self.p
        free = [c for c in range(self.cols) if c not in pivots]
        vecs = []
        for c in free:
            v = [0] * self.cols
            v[c] = 1
            for i, pc in enumerate(pivots):
                v[pc] = (-red.entries[i][c]) % p
            vecs.append(v)
        return Subspace._trusted(self.cols, vecs, p)

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
    return tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))


class Subspace:
    """Subspace of F_p^n, stored as a canonical reduced-echelon basis.

    Basis vectors are rows of an rref matrix, so two equal subspaces
    always produce identical objects.
    """

    __slots__ = ("ambient_dim", "basis", "p", "_pivots")

    def __init__(self, ambient_dim, vectors, p):
        check_modulus(p)
        vecs = [[int(x) % p for x in v] for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length != ambient dim")
        self._set_span(ambient_dim, vecs, p)

    @classmethod
    def _trusted(cls, ambient_dim, vectors, p):
        """The span of vectors that are already valid: sequences of
        ambient_dim ints in [0, p), over a checked modulus p."""
        w = object.__new__(cls)
        w._set_span(ambient_dim, vectors, p)
        return w

    def _set_span(self, ambient_dim, vectors, p):
        red, pivots = _rref_rows([list(v) for v in vectors if any(v)],
                                 ambient_dim, p)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(map(tuple, red[:len(pivots)])))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.p == other.p
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d of %d, p=%d)" % (self.dim, self.ambient_dim, self.p)

    def coordinates(self, vec):
        """Coefficients of vec in the echelon basis, or None."""
        coeffs, rest = self._reduce([int(x) % self.p for x in vec])
        return None if any(rest) else coeffs

    def _reduce(self, vec):
        """(coefficients, remainder) of vec, entries in [0, p), against the
        echelon basis; the remainder is zero iff vec lies in the span."""
        p = self.p
        v = list(vec)
        coeffs = []
        for row, pc in zip(self.basis, self._pivots):
            c = v[pc]
            coeffs.append(c)
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return tuple(coeffs), v


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


def nilpotent_jordan_type(n_mat):
    """Jordan type (a partition of m) of a nilpotent m x m matrix.

    The multiplicity of parts >= j is rank(N^(j-1)) - rank(N^j).  The
    ranks of the powers never rise, and once two in a row are equal they
    stay equal, so a repeat above 0 means N is not nilpotent.
    """
    if not n_mat.is_square():
        raise NonSquareError("jordan type of non-square matrix")
    m = n_mat.rows
    ranks = [m]
    cur = FpMatrix.identity(m, n_mat.p)
    while ranks[-1] > 0:
        cur = cur * n_mat
        rank = cur.rank()
        if rank == ranks[-1]:
            raise NotNilpotentError("matrix is not nilpotent")
        ranks.append(rank)
    # number of parts >= j is ranks[j-1] - ranks[j]
    parts = []
    for j in range(1, len(ranks)):
        count_ge_j = ranks[j - 1] - ranks[j]
        parts.append(count_ge_j)
    # parts[j-1] = #parts >= j; convert to the partition itself
    out = []
    for j in range(len(parts), 0, -1):
        out.extend([j] * (parts[j - 1] - (parts[j] if j < len(parts) else 0)))
    out.sort(reverse=True)
    if sum(out) != m:
        raise AssertionError("Jordan type %r does not add up to %d" % (out, m))
    return tuple(out)


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
