"""Orbit classification for enhanced and exotic pairs.

The enhanced algorithm: given a nilpotent N and a vector v, the span
W of (commutant of N) applied to v is N-stable; the pair of Jordan
types of N on W and on ambient/W is the orbit label.  `enhanced_type`
computes it so, and is the definition and test oracle.  An exotic pair
is classified through the ambient GL version, whose label is always
the doubled bipartition, and halved.  Every exotic label, one pair at
a time or a whole census, is read by `exotic_labeler`, which forms no
span: it builds the Jordan chains of N once, and in that basis
W = sum_j t^(b_j) M_j, with the b_j read off the valuations of v's
coordinates on each chain (Achar-Henderson, Orbit closures in the
enhanced nilpotent cone, Adv. Math. 2008).

Stabilizer dimensions are kernels of explicit linear systems on the
symplectic Lie algebra.  For self-adjoint x the bracket [h, x] is
self-adjoint too, so h x = x h is read on its 2n^2 - n self-adjoint
coordinates only.  The unknowns are h's coordinates on the units
E_ij + c E_kl of `adjoint_units(-1)` (and, under a line condition
h<w> in <w>, one scalar t with h w = t w), and each column is read off
the rows and columns of x that its at most two terms touch, with no sp
basis matrix built, kept sparse and ranked by `sparse_rank`.  The
geometric (algebraic-group) dimensions are recovered on the nose for
odd p (checked across several primes in the tests).
"""

from operator import mul

from .bicomb import Bipartition
from .ffield import (Subspace, commutant_basis, induced_action, jordan_chains,
                     nilpotent_jordan_type, sparse_rank)


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
    """v -> exotic label, with the Jordan chains of n_mat built once.

    The one path to an exotic label: the census classifies one
    nilpotent matrix against every vector, `exotic_type` against one.
    In the chain basis the span W of (commutant of N) . v is the sum of
    t^(b_j) M_j over the Jordan blocks M_j = F_p[t]/t^(l_j), and b_j
    depends on v only through the valuations a_j of its block
    coordinates (the index of the first nonzero one, l_j if none), so
    results are cached per valuation tuple and halved once per tuple.
    """
    lengths, p_inv = jordan_chains(n_mat)
    m, p = n_mat.rows, n_mat.p
    blocks = []                     # the rows of P^-1 for each chain
    start = 0
    for length in lengths:
        blocks.append(p_inv.entries[start:start + length])
        start += length
    by_valuations = {}

    def label_of(v):
        if len(v) != m:
            raise ValueError("vector length mismatch")
        valuations = []
        for rows in blocks:
            for k, row in enumerate(rows):
                if sum(map(mul, row, v)) % p:
                    break
            else:
                k = len(rows)
            valuations.append(k)
        key = tuple(valuations)
        label = by_valuations.get(key)
        if label is None:
            first, second = _valuation_label(lengths, valuations)
            # halving keeps the parts positive and weakly decreasing
            label = Bipartition._trusted(halve_doubled(first),
                                         halve_doubled(second))
            by_valuations[key] = label
        return label

    return label_of


def _valuation_label(lengths, valuations):
    """(type on W, type on ambient/W) for W = sum_j t^(b_j) M_j, where
    Hom(M_i, M_j) carries t^(a_i) M_i onto t^(a_i + max(0, l_j - l_i)) M_j:
    b_j = min(l_j, min over a_i < l_i of a_i + max(0, l_j - l_i))."""
    live = [(a, li) for a, li in zip(valuations, lengths) if a < li]
    cuts = [min([lj] + [a + max(0, lj - li) for a, li in live])
            for lj in lengths]
    first = sorted((lj - b for lj, b in zip(lengths, cuts) if lj > b),
                   reverse=True)
    second = sorted((b for b in cuts if b), reverse=True)
    return tuple(first), tuple(second)


def halve_doubled(parts):
    """Invert lambda -> lambda u lambda; every multiplicity must be even."""
    if len(parts) % 2 != 0:
        raise NotDoubledError("odd number of parts in %r" % (parts,))
    for i in range(0, len(parts), 2):
        if parts[i] != parts[i + 1]:
            raise NotDoubledError("parts %r are not doubled" % (parts,))
    return parts[::2]


def _kernel_dim(space, columns):
    """dim of the solution space of a homogeneous system given as one
    sparse column per unknown."""
    return len(columns) - sparse_rank(columns, space.p)


def _stabilizer_columns(space, x, v, line=None):
    """Linear conditions on h in sp_2n, as one sparse column {condition:
    coefficient} per unknown, h's coordinate on the unit E_ij + c E_kl of
    `space.adjoint_units(-1)`: [h, x] = 0, h v = 0, h<w> in <w>.

    x must be self-adjoint: then so is [h, x] for h in sp_2n, and it is
    zero iff its 2n^2 - n coordinates, its entries at the (a, b) of
    `adjoint_units(1)`, are; these are conditions 0 .. 2n^2 - n - 1, and
    the 2n entries of h v (with v), then the 2n entries of h w - t w
    (with a line w), follow.  The line adds one last unknown t, fixed by
    h as w != 0, so the kernel dimension is that of h alone.  With the
    coordinates indexed by row a and by column b, a term c E_ij adds
    c x[j][b] to coordinate (i, b) of h x - x h, -c x[a][i] to
    coordinate (a, j), and c v_j to entry i of h v (and of h w).
    """
    dim, p, xe = space.dim, space.p, x.entries
    by_row, by_col = [[] for _ in range(dim)], [[] for _ in range(dim)]
    coords = space.adjoint_units(1)
    for r, (a, b, _, _, _) in enumerate(coords):
        by_row[a].append((r, b))
        by_col[b].append((r, a))
    hv_at = len(coords)
    hw_at = hv_at + (dim if v is not None else 0)
    cols = []
    for i, j, k, l, c in space.adjoint_units(-1):
        # the unit is E_ij alone when it is its own image
        terms = ((i, j, 1),) if (k, l) == (i, j) else ((i, j, 1), (k, l, c))
        col = {}
        for i, j, c in terms:
            xj = xe[j]
            for r, b in by_row[i]:
                if xj[b]:
                    col[r] = col.get(r, 0) + c * xj[b]
            for r, a in by_col[j]:
                if xe[a][i]:
                    col[r] = col.get(r, 0) - c * xe[a][i]
            if v is not None and v[j]:
                col[hv_at + i] = col.get(hv_at + i, 0) + c * v[j]
            if line is not None and line[j]:
                col[hw_at + i] = col.get(hw_at + i, 0) + c * line[j]
        cols.append({r: b for r, a in col.items() if (b := a % p)})
    if line is not None:
        cols.append({hw_at + j: -w % p for j, w in enumerate(line) if w})
    return cols


def stabilizer_dim(pair, include_v):
    """dim over F_p of {h in sp_2n : h x = x h (, h v = 0)}; pair.x is
    self-adjoint, as every validated pair's is."""
    columns = _stabilizer_columns(pair.space, pair.x,
                                  pair.v if include_v else None)
    return _kernel_dim(pair.space, columns)


def cyclic_dim(pair):
    """dim span{v, xv, x^2 v, ...} (equals the first part of the label)."""
    rows, cur = [], pair.v
    for _ in range(pair.space.dim):
        rows.append({k: a for k, a in enumerate(cur) if a})
        cur = pair.x.apply(cur)
    return sparse_rank(rows, pair.space.p)


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
    columns = _stabilizer_columns(pair.space, pair.x, pair.v, line=w)
    return _kernel_dim(pair.space, columns)
