"""Orbit classification for enhanced and exotic pairs.

The enhanced algorithm: given a nilpotent N and a vector v, the span
W of (commutant of N) applied to v is N-stable; the pair of Jordan
types of N on W and on ambient/W is the orbit label.  An exotic pair
is classified through the ambient GL version, whose label is always
the doubled bipartition, and halved.  Every exotic label, one pair at
a time or a whole census, is read by `exotic_labeler`: it computes the
commutant of N once and labels each span once.

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


def enhanced_type(n_mat, v):
    """Orbit label of the enhanced pair (N, v): (type on W, type on ambient/W)."""
    images = [z.apply(v) for z in commutant_basis(n_mat)]
    w = Subspace._trusted(n_mat.rows, images, n_mat.p)
    return _label_from_span(n_mat, w)


def exotic_type(pair):
    """Orbit label of an exotic pair (the halved doubled GL label)."""
    return exotic_labeler(pair.nilpotent_part())(pair.v)


def exotic_labeler(n_mat):
    """v -> exotic label, with the commutant of n_mat computed once.

    The one path to an exotic label: the census classifies one
    nilpotent matrix against every vector, `exotic_type` against one.
    The label depends on v only through the canonical echelon span W,
    so results are cached per span and halved once per span.
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


def _kernel_dim(space, conditions, num_unknowns):
    """dim of the solution space of homogeneous conditions (rows)."""
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
    basis = space.adjoint_eigenbasis(-1)
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
    basis = space.adjoint_eigenbasis(-1)
    rows = _stabilizer_rows(space, basis, pair.x, pair.v, line=w)
    return _kernel_dim(space, rows, len(basis))
