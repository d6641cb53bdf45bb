"""Symplectic structure on F_p^(2n) and the self-adjoint geometry built on it.

The form is <u, v> = u^T J v with J = [[0, 1_n], [-1_n, 0]] in the fixed
basis order e_1..e_n, f_1..f_n.  J is read once as a signed permutation,
and every theta-structure goes through the adjoint x* = J^-1 x^T J, which
only permutes and signs entries: theta(g) = (g^-1)* has the symplectic
group as fixed points, and x* = -x and x* = x split gl_2n into the
symplectic Lie algebra sp_2n, where stabilizers live, and the self-adjoint
matrices g^-theta, whose nilpotent/unipotent pairs (x, v) this module
builds representatives for.  `adjoint_eigenbasis` gives both.
"""

from itertools import accumulate, groupby
from operator import index

from . import bicomb
from .ffield import FpMatrix, Frozen, check_modulus, json_fields, power_is_zero


class NotInGIotaThetaError(ValueError):
    pass


class NotInAError(ValueError):
    pass


class SymplecticSpace(Frozen):
    """Dimension-2n symplectic space over F_p with the block form J."""

    __slots__ = ("n", "p", "J", "_signed_perm", "_one")
    _set_args = ("n", "p")

    def __init__(self, n, p):
        if n < 1:
            raise ValueError("n must be >= 1")
        check_modulus(p)
        self._set(n, p)

    def _set(self, n, p):
        entries = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            entries[i][n + i] = 1
            entries[n + i][i] = p - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        # p is checked, so J and 1 are built trusted
        object.__setattr__(self, "J", FpMatrix._trusted(
            tuple(map(tuple, entries)), p))
        # column b of J is s_b e_pi(b): _signed_perm[b] = (pi(b), s_b)
        object.__setattr__(self, "_signed_perm", tuple(
            next((r, 1 if c == 1 else -1) for r, c in enumerate(col) if c)
            for col in zip(*self.J.entries)))
        object.__setattr__(self, "_one", FpMatrix._identity(2 * n, p))

    def __reduce__(self):
        # no trusted path: a copy is built, and checked, from (n, p)
        return SymplecticSpace, (self.n, self.p)

    def __repr__(self):
        return "SymplecticSpace(n=%d, p=%d)" % (self.n, self.p)

    @property
    def dim(self):
        return 2 * self.n

    def pairing(self, u, v):
        """<u, v> = u^T J v = sum over b of s_b u_pi(b) v_b."""
        return sum(s * u[pb] * c
                   for (pb, s), c in zip(self._signed_perm, v)) % self.p

    def e(self, i):
        """Basis vector e_i, 1-based."""
        v = [0] * self.dim
        v[i - 1] = 1
        return tuple(v)

    def f(self, i):
        return self.e(self.n + i)

    # -- the involution and adjoint ------------------------------------

    def adjoint(self, x):
        """x* = J^-1 x^T J, so <x u, v> = <u, x* v>; as J is the signed
        permutation (pi, s), x*[k][l] = s_k s_l x[pi(l)][pi(k)]."""
        self._check_size(x)
        p, perm, rows = self.p, self._signed_perm, x.entries
        return FpMatrix._trusted(tuple(
            tuple(rows[pl][pk] if sk == sl else -rows[pl][pk] % p
                  for pl, sl in perm)
            for pk, sk in perm), p)

    def adjoint_eigenbasis(self, sign):
        """Basis of {x : x* = sign x}, in canonical reduced-echelon order:
        E_ij + c E_kl for each (i, j, k, l, c) of `adjoint_units(sign)`."""
        dim, p = self.dim, self.p
        basis = []
        for i, j, k, l, coeff in self.adjoint_units(sign):
            m = [[0] * dim for _ in range(dim)]
            m[i][j] = 1
            m[k][l] = coeff
            basis.append(FpMatrix._trusted(tuple(map(tuple, m)), p))
        return basis

    def adjoint_units(self, sign):
        """(i, j, k, l, c) per element E_ij + c E_kl of `adjoint_eigenbasis`,
        whose leading 1 is at (i, j): an x with x* = sign x has its
        coordinates in that basis as its entries at these (i, j).

        sign = 1 gives the self-adjoint matrices (dim 2n^2 - n), sign = -1
        the symplectic Lie algebra (dim 2n^2 + n).  By the adjoint's
        signed permutation, E_ij* = s_k s_l E_kl with k = pi^-1(j) and
        l = pi^-1(i); each unit, in row-major order, is paired with its
        image: E_ij + sign s_k s_l E_kl for the first unit of a pair,
        E_ij alone (k, l = i, j) when it is its own image with s_k s_l = sign.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be 1 or -1, got %r" % (sign,))
        dim, p = self.dim, self.p
        preimage = {pb: (b, sb) for b, (pb, sb) in enumerate(self._signed_perm)}
        units = []
        for i in range(dim):
            l, s_l = preimage[i]
            for j in range(dim):
                k, s_k = preimage[j]
                if (k, l) < (i, j):
                    continue
                coeff = sign * s_k * s_l % p
                if (k, l) == (i, j) and coeff != 1:
                    continue
                units.append((i, j, k, l, coeff))
        expected = 2 * self.n * self.n - sign * self.n
        if len(units) != expected:
            raise AssertionError("the %+d-eigenspace of the adjoint has %d "
                                 "basis elements, expected %d"
                                 % (sign, len(units), expected))
        return units

    def membership(self, x, which):
        """Membership predicates for the theta-loci.

        g_minus_theta: self-adjoint matrices (x* = x)
        G_iota_theta:  invertible self-adjoint matrices
        sp_lie:        the symplectic Lie algebra (x* = -x)
        H_group:       the symplectic group (x* x = 1, i.e. x^T J x = J)
        """
        self._check_size(x)
        if which == "g_minus_theta":
            return self.adjoint(x) == x
        if which == "G_iota_theta":
            return self.adjoint(x) == x and x.is_invertible()
        if which == "sp_lie":
            return self.adjoint(x) == -x
        if which == "H_group":
            return self.adjoint(x) * x == self._one
        raise ValueError("unknown membership predicate %r" % (which,))

    def log_map(self, x):
        """x - 1, self-adjoint with x, for invertible self-adjoint x;
        restricted to unipotent x it is a bijection onto nilpotent
        self-adjoint matrices (census-verified)."""
        if not self.membership(x, "G_iota_theta"):
            raise NotInGIotaThetaError("log is defined on invertible self-adjoint matrices")
        return x - self._one

    def klyachko_embed(self, a):
        """a theta(a)^-1 = a a* for a = diag(x, 1), x invertible."""
        self._check_size(a)
        n, p = self.n, self.p
        x = FpMatrix._trusted(tuple(row[:n] for row in a.entries[:n]), p)
        if self.embed_gl(x) != a:
            raise NotInAError("expected a block matrix diag(x, 1_n)")
        if not x.is_invertible():
            raise NotInAError("upper-left block must be invertible")
        return a * self.adjoint(a)

    def embed_gl(self, x):
        """diag(x, 1_n) for x in GL_n."""
        return self.pair_block(x, FpMatrix._identity(self.n, self.p))

    def pair_block(self, top, bottom):
        n, p = self.n, self.p
        if any((b.rows, b.cols, b.p) != (n, n, p) for b in (top, bottom)):
            raise ValueError("expected %dx%d blocks over F_%d" % (n, n, p))
        pad = (0,) * n
        return FpMatrix._trusted(
            tuple(row + pad for row in top.entries)
            + tuple(pad + row for row in bottom.entries), p)

    def _check_size(self, x):
        if x.rows != self.dim or x.cols != self.dim or x.p != self.p:
            raise ValueError("expected a %dx%d matrix over F_%d"
                             % (self.dim, self.dim, self.p))


class ExoticPair(Frozen):
    """A self-adjoint matrix together with a vector.

    flavor 'lie':   x nilpotent self-adjoint (a point of the exotic cone)
    flavor 'group': x unipotent self-adjoint

    `_trusted(space, x, v, flavor)` wraps a valid pair: v a tuple of 2n
    ints in [0, p), x on the cone.
    """

    __slots__ = _set_args = ("space", "x", "v", "flavor")

    def __init__(self, space, x, v, flavor):
        if flavor not in ("lie", "group"):
            raise ValueError("flavor must be 'lie' or 'group'")
        v = tuple(index(c) % space.p for c in v)
        if len(v) != space.dim:
            raise ValueError("vector length != 2n")
        self._set(space, x, v, flavor)
        self.validate()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def validate(self):
        """x self-adjoint, then x^n = 0 (lie) or (x - 1)^n = 0 (group),
        which decides nilpotence on self-adjoint matrices."""
        sp = self.space
        if not sp.membership(self.x, "g_minus_theta"):
            raise ValueError("x is not self-adjoint")
        group = self.flavor == "group"
        if not power_is_zero(self.x.entries, sp.n, sp.p, minus_one=group):
            raise ValueError("group flavor requires unipotent x" if group
                             else "lie flavor requires nilpotent x")

    def nilpotent_part(self):
        """The nilpotent matrix driving classification (x itself or log x).

        For the group flavor this is x - 1, without `log_map`'s checks:
        `validate` (or, for a trusted pair, its builder) has shown that x
        is self-adjoint and (x - 1)^n = 0, and a unipotent x is
        invertible.  Testing that again would cost a rank per pair."""
        if self.flavor == "lie":
            return self.x
        return self.x - self.space._one

    def __repr__(self):
        return "ExoticPair(n=%d, p=%d, flavor=%s)" % (
            self.space.n, self.space.p, self.flavor)

    def to_json(self):
        return {"p": self.space.p, "n": self.space.n, "flavor": self.flavor,
                "x": self.x.to_json(), "v": list(self.v)}

    @classmethod
    def from_json(cls, obj):
        n, p, flavor, x, v = json_fields(
            obj, {"n": int, "p": int, "flavor": str, "x": dict, "v": list},
            "exotic pair")
        # check the shapes against n before building the 2n x 2n space
        x = FpMatrix.from_json(x)
        if not x.rows == x.cols == len(v) == 2 * n:
            raise ValueError("exotic pair JSON n = %d does not fit a %dx%d x "
                             "and a length-%d v" % (n, x.rows, x.cols, len(v)))
        # x's modulus is checked, and a matrix is never empty, so n >= 1;
        # a p other than x's is checked, then refused by `validate`
        space = (SymplecticSpace._trusted if p == x.p else SymplecticSpace)(n, p)
        return cls(space, x, tuple(v), flavor)


class NormalFormData:
    """Normal-form pair for a bipartition label, with its Jordan frame.

    jordan_basis[(i, j)] (1 <= i <= a, 1 <= j <= nu_i) is a Jordan basis
    of y - 1 on the e-span; dual_basis[(i, j)] lives in the f-span and
    pairs to 1 against jordan_basis[(i, j)] and to 0 against everything
    else.  Blocks record the repeated values of nu: block k has a_k
    rows of size nu_[k], constant first-component part mu1_[k], first
    row p_k and last row q_k.
    """

    __slots__ = ("pair", "label", "nu", "jordan_basis", "dual_basis",
                 "block_sizes", "nu_values", "mu1_values",
                 "p_rows", "q_rows")

    def __init__(self, pair, label, nu, jordan_basis, dual_basis,
                 block_sizes, nu_values, mu1_values, p_rows, q_rows):
        self.pair = pair
        self.label = label
        self.nu = nu
        self.jordan_basis = jordan_basis
        self.dual_basis = dual_basis
        self.block_sizes = block_sizes
        self.nu_values = nu_values
        self.mu1_values = mu1_values
        self.p_rows = p_rows
        self.q_rows = q_rows

    @property
    def num_blocks(self):
        return len(self.block_sizes)


def nu_blocks(nu):
    """Split nu into blocks of equal parts: (sizes, values, p_rows, q_rows)."""
    values = [part for part, _ in groupby(nu)]
    sizes = [len(list(run)) for _, run in groupby(nu)]
    q_rows = list(accumulate(sizes))
    p_rows = [q - s + 1 for q, s in zip(q_rows, sizes)]
    return sizes, values, p_rows, q_rows


def normal_form_pair(label, space):
    """Representative (x, v) of the orbit labelled by a bipartition.

    y = diag(y_n, 1) is the unipotent with Jordan type nu = mu1 + mu2 on
    the standard e-basis reindexed as v_{i,j}; x = y theta(y)^-1 = y y* is
    diag(y_n, y_n^T), built as that block on the trusted path, and
    `_check_normal_form` checks its Jordan frame; v is the sum of
    the v_{p_i, mu1_[i]} over blocks (terms with mu1_[i] = 0 are omitted:
    the column index 0 does not exist).
    """
    bicomb.check_rank(label, space.n)
    n, p = space.n, space.p
    nu = bicomb.partition_sum(label.first, label.second)
    sizes, values, p_rows, q_rows = nu_blocks(nu)
    mu1 = label.first
    mu1_values = []
    for start, size in zip(p_rows, sizes):
        vals = {mu1[r - 1] if r - 1 < len(mu1) else 0
                for r in range(start, start + size)}
        if len(vals) != 1:
            raise AssertionError("mu1 takes values %r on the nu-block at row %d"
                                 % (sorted(vals), start))
        mu1_values.append(vals.pop())

    # index map (i, j) -> position in the e-basis, row-major over rows of nu
    index = {}
    pos = 0
    for i, part in enumerate(nu, start=1):
        for j in range(1, part + 1):
            index[(i, j)] = pos
            pos += 1

    # unipotent y = 1 + N on M_n, identity on the f-span
    y_top = [[0] * n for _ in range(n)]
    for i in range(n):
        y_top[i][i] = 1
    for (i, j), col in index.items():
        if j > 1:
            y_top[index[(i, j - 1)]][col] = 1
    y_small = FpMatrix._trusted(tuple(map(tuple, y_top)), p)
    x = space.pair_block(y_small, y_small.transpose())

    jordan_basis = {key: space.e(col + 1) for key, col in index.items()}
    # <e_a, f_b> = delta_ab for this J, so the dual of e_col is f_col
    dual_basis = {key: space.f(col + 1) for key, col in index.items()}

    v = [0] * (2 * n)
    for blk in range(len(sizes)):
        jcol = mu1_values[blk]
        if jcol == 0:
            continue
        w = jordan_basis[(p_rows[blk], jcol)]
        v = [(a + b) % p for a, b in zip(v, w)]

    pair = ExoticPair._trusted(space, x, tuple(v), "group")
    nf = NormalFormData(pair, label, nu, jordan_basis, dual_basis,
                        tuple(sizes), tuple(values), tuple(mu1_values),
                        tuple(p_rows), tuple(q_rows))
    _check_normal_form(space, nf, space.embed_gl(y_small))
    return nf


def _check_normal_form(space, nf, y):
    """y - 1 shifts the Jordan basis down each chain, theta(y)^-1 - 1 shifts
    the dual basis up, and <jordan, dual> = delta; AssertionError otherwise.
    Each product reads a frame vector over its nonzero entries only, so on
    this frame of unit vectors the checks cost O(n^2), not O(n^3)."""
    p = space.p
    nonzero = {vec: [(k, a) for k, a in enumerate(vec) if a]
               for vec in (*nf.jordan_basis.values(), *nf.dual_basis.values())}

    def times(columns, vec):
        out = [0] * len(columns[0])
        for k, a in nonzero[vec]:
            out = [o + a * c for o, c in zip(out, columns[k])]
        return tuple(o % p for o in out)

    shift = tuple(zip(*(y - space._one).entries))
    # theta(y)^-1 = y*
    shift_dual = tuple(zip(*(space.adjoint(y) - space._one).entries))
    for (i, j), vec in nf.jordan_basis.items():
        expect = nf.jordan_basis.get((i, j - 1), (0,) * space.dim)
        if times(shift, vec) != tuple(expect):
            raise AssertionError("y - 1 does not shift the Jordan basis at %r"
                                 % ((i, j),))
    for (i, j), vec in nf.dual_basis.items():
        nu_i = nf.nu[i - 1]
        expect = nf.dual_basis.get((i, j + 1)) if j < nu_i else (0,) * space.dim
        if times(shift_dual, vec) != tuple(expect):
            raise AssertionError("theta(y)^-1 - 1 does not shift the dual "
                                 "basis at %r" % ((i, j),))
    # <va, vb> = va . (J vb): the columns of the rows J vb give va's pairings
    j_columns = tuple(zip(*space.J.entries))
    j_dual = tuple(zip(*(times(j_columns, vb) for vb in nf.dual_basis.values())))
    for ka, va in nf.jordan_basis.items():
        for kb, got in zip(nf.dual_basis, times(j_dual, va)):
            want = 1 if ka == kb else 0
            if got != want:
                raise AssertionError("Jordan basis %r pairs to %d, not %d, "
                                     "with dual basis %r" % (ka, got, want, kb))
