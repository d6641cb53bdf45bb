"""Orbit classification for enhanced and exotic pairs.

The enhanced algorithm: given a nilpotent N and a vector v, the span
W of (commutant of N) applied to v is N-stable; the pair of Jordan
types of N on W and on ambient/W is the orbit label.  An exotic pair
is classified through the ambient GL version, whose label is always
the doubled bipartition, and halved.

Stabilizer dimensions are computed as kernels of explicit linear
systems on the symplectic Lie algebra; the geometric (algebraic-group)
dimensions are recovered on the nose for odd p (checked across
several primes in the tests).
"""

from operator import mul

from .bicomb import Bipartition
from .ffield import (FpMatrix, Subspace, commutant_basis, induced_action,
                     nilpotent_jordan_type)


class NotDoubledError(ValueError):
    pass


class EnhancedPair:
    """A nilpotent (or unipotent) m x m matrix with a marked vector."""

    __slots__ = ("y", "v", "unipotent")

    def __init__(self, y, v, unipotent=False):
        if not y.is_square():
            raise ValueError("matrix must be square")
        v = tuple(int(c) % y.p for c in v)
        if len(v) != y.rows:
            raise ValueError("vector length mismatch")
        self.y = y
        self.v = v
        self.unipotent = unipotent

    def nilpotent_part(self):
        if self.unipotent:
            return self.y - FpMatrix.identity(self.y.rows, self.y.p)
        return self.y


def _label_from_span(n_mat, w):
    """Jordan types of N on the stable span W and on ambient/W."""
    m = n_mat.rows
    if w.dim == 0:
        lam1 = ()
        lam2 = nilpotent_jordan_type(n_mat)
    elif w.dim == m:
        lam1 = nilpotent_jordan_type(n_mat)
        lam2 = ()
    else:
        lam1 = nilpotent_jordan_type(induced_action(n_mat, w, "restrict"))
        lam2 = nilpotent_jordan_type(induced_action(n_mat, w, "quotient"))
    if sum(lam1) != w.dim:
        raise AssertionError("Jordan type %r on W does not add up to dim W = %d"
                             % (lam1, w.dim))
    return Bipartition(lam1, lam2)


def enhanced_type(pair):
    """Orbit label of an enhanced pair: (type on W, type on ambient/W)."""
    n_mat = pair.nilpotent_part()
    return _label_from_span(n_mat, commutant_image(n_mat, pair.v))


def commutant_image(n_mat, v):
    """The subspace (commutant algebra of N) . v."""
    basis = commutant_basis(n_mat)
    return Subspace._trusted(n_mat.rows, [z.apply(v) for z in basis], n_mat.p)


def exotic_type(pair):
    """Orbit label of an exotic pair (the halved doubled GL label)."""
    n_mat = pair.nilpotent_part()
    gl_label = enhanced_type(EnhancedPair(n_mat, pair.v))
    return Bipartition(halve_doubled(gl_label.first),
                       halve_doubled(gl_label.second))


def exotic_labeler(n_mat):
    """v -> exotic label, with the commutant of n_mat computed once.

    Used by the census, where one nilpotent matrix is classified
    against every vector.  The label depends on v only through the
    canonical echelon span W, so results are cached per span.
    """
    basis = [z.entries for z in commutant_basis(n_mat)]
    m, p = n_mat.rows, n_mat.p
    by_span = {}

    def label_of(v):
        if len(v) != m:
            raise ValueError("vector length mismatch")
        w = Subspace._trusted(
            m, [[sum(map(mul, row, v)) % p for row in z] for z in basis], p)
        label = by_span.get(w.basis)
        if label is None:
            gl_label = _label_from_span(n_mat, w)
            label = Bipartition(halve_doubled(gl_label.first),
                                halve_doubled(gl_label.second))
            by_span[w.basis] = label
        return label

    return label_of


def halve_doubled(parts):
    """Invert lambda -> lambda u lambda; every multiplicity must be even."""
    if len(parts) % 2 != 0:
        raise NotDoubledError("odd number of parts in %r" % (parts,))
    for i in range(0, len(parts), 2):
        if parts[i] != parts[i + 1]:
            raise NotDoubledError("parts %r are not doubled" % (parts,))
    return parts[::2]


def sp_lie_basis(space):
    """Basis of the symplectic Lie algebra {h : h* = -h}, dim 2n^2 + n.

    Blocks h = [[A, B], [C, -A^T]] with B, C symmetric.
    """
    n, p = space.n, space.p
    dim = 2 * n
    basis = []

    def make(fill):
        m = [[0] * dim for _ in range(dim)]
        fill(m)
        return FpMatrix._trusted(tuple(map(tuple, m)), p)

    for i in range(n):
        for j in range(n):
            def fill_a(m, i=i, j=j):
                m[i][j] = 1
                m[n + j][n + i] = p - 1
            basis.append(make(fill_a))
    for i in range(n):
        for j in range(i, n):
            def fill_b(m, i=i, j=j):
                m[i][n + j] = 1
                m[j][n + i] = 1
            def fill_c(m, i=i, j=j):
                m[n + i][j] = 1
                m[n + j][i] = 1
            basis.append(make(fill_b))
            basis.append(make(fill_c))
    if len(basis) != 2 * n * n + n:
        raise AssertionError("sp basis has %d elements, expected %d"
                             % (len(basis), 2 * n * n + n))
    return basis


def _kernel_dim(space, conditions, num_unknowns):
    """dim of the solution space of homogeneous conditions (rows)."""
    if not conditions:
        return num_unknowns
    mat = FpMatrix._trusted(tuple(map(tuple, conditions)), space.p)
    return num_unknowns - mat.rank()


def _stabilizer_rows(space, basis, x, v, line=None):
    """Linear conditions on sp-coefficients: h x = x h, h v = 0, h<w> in <w>."""
    rows = []
    images = [h * x - x * h for h in basis]
    dim = space.dim
    for i in range(dim):
        for j in range(dim):
            rows.append([img.entries[i][j] for img in images])
    if v is not None:
        hv = [h.apply(v) for h in basis]
        for i in range(dim):
            rows.append([w[i] for w in hv])
    if line is not None:
        p = space.p
        k = next(i for i, c in enumerate(line) if c)
        hw = [h.apply(line) for h in basis]
        for j in range(dim):
            if j == k:
                continue
            rows.append([(w[j] * line[k] - w[k] * line[j]) % p for w in hw])
    return rows


def stabilizer_dim(pair, include_v):
    """dim over F_p of {h in sp_2n : h x = x h (, h v = 0)}."""
    space = pair.space
    basis = sp_lie_basis(space)
    rows = _stabilizer_rows(space, basis, pair.x, pair.v if include_v else None)
    return _kernel_dim(space, rows, len(basis))


def cyclic_dim(pair):
    """dim span{v, xv, x^2 v, ...} (equals the first part of the label)."""
    space = pair.space
    vecs = []
    cur = pair.v
    for _ in range(space.dim):
        vecs.append(cur)
        cur = pair.x.apply(cur)
    return Subspace._trusted(space.dim, vecs, space.p).dim


def parabolic_stabilizer_dim(nf, i, case):
    """dim of the z-stabilizer cut down by a line condition.

    case 'i_node':  the line through w_i = v_{q_i, 1}; needs a removable
    first-component node at row q_i (mu1_[i] > mu1_[i+1]), which is the
    configuration the dimension law describes.  Without it the honest
    dimension comes out one lower than the law (checked by brute-force
    group counts over F_3 and F_5).
    case 'ii_node': the line through w_i = v'_{p_i, nu_[i]}; needs
    nu_[i] > mu1_[i], i.e. a nonzero second-component part on block i.
    """
    if not 1 <= i <= nf.num_blocks:
        raise IndexError("block index %d out of range 1..%d" % (i, nf.num_blocks))
    if case == "i_node":
        mu1_next = nf.mu1_values[i] if i < nf.num_blocks else 0
        if nf.mu1_values[i - 1] <= mu1_next:
            raise IndexError(
                "case i needs a removable first-component node on block %d" % i)
        w = nf.jordan_basis[(nf.q_rows[i - 1], 1)]
    elif case == "ii_node":
        if nf.nu_values[i - 1] <= nf.mu1_values[i - 1]:
            raise IndexError("case ii needs nu_[i] > mu1_[i] on block %d" % i)
        w = nf.dual_basis[(nf.p_rows[i - 1], nf.nu_values[i - 1])]
    else:
        raise ValueError("case must be 'i_node' or 'ii_node'")
    pair = nf.pair
    space = pair.space
    basis = sp_lie_basis(space)
    rows = _stabilizer_rows(space, basis, pair.x, pair.v, line=w)
    return _kernel_dim(space, rows, len(basis))
