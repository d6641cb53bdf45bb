"""Orbit classification for enhanced and exotic pairs.

The enhanced algorithm: given a nilpotent N and a vector v, the span
W of (commutant of N) applied to v is N-stable; the pair of Jordan
types of N on W and on ambient/W is the orbit label.  `enhanced_type`
computes it so, and is the definition and test oracle.  An exotic pair
is classified through the ambient GL version, whose label is always
the doubled bipartition, and halved.  Every exotic label is read off
chain valuations, with no span formed: the rows of P^-1 for a Jordan
chain basis P of N come once from `jordan_chains`, and in that basis
W = sum_j t^(b_j) M_j, with the b_j read off the valuations of P^-1 v
on each chain (Achar-Henderson, Orbit closures in the enhanced nilpotent
cone, Adv. Math. 2008).  `exotic_labeler` reads one pair at a time,
`packed_labeler` every line vector of a census at once; both halve
through `_halved_label`.

Stabilizer dimensions are kernels of linear systems on the symplectic
Lie algebra over F_p; they equal the geometric dimensions for odd p
(checked across several primes in the tests).  `stabilizer_dim` works in
the same chain basis.  With S = J h, h is in sp_2n iff S is symmetric;
for self-adjoint x (x^T J = J x), h x = x h iff S x = x^T S, i.e. iff
S N is symmetric, for x = N or 1 + N; and h v = 0 iff S v = 0.  The
congruence S' = P^T S P turns these into S' N' symmetric and S' v' = 0,
for the chain shift N' = P^-1 N P and v' = P^-1 v, so the system reads
no entry of x.  The line condition h w in <w> of
`parabolic_stabilizer_dim` reads J in the original basis, so it keeps
the x-basis system of `_stabilizer_columns` (h's coordinates on the
units of `adjoint_units(-1)`, [h, x] read on its 2n^2 - n self-adjoint
coordinates), which is also the tests' oracle for the chain-basis one.
"""

from itertools import accumulate, combinations_with_replacement
from operator import mul

from .bicomb import Bipartition, format_bipartition
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
    """v -> exotic label, with `jordan_chains(n_mat)` built once.

    The single-pair path to an exotic label, for `exotic_type` and the
    classify CLI; a census labels every line vector of a cone x at once
    with `packed_labeler`.  In the chain basis the span W of
    (commutant of N) . v is the sum of t^(b_j) M_j over the Jordan blocks
    M_j = F_p[t]/t^(l_j), and b_j depends on v only through the block
    lengths l_j and the valuations a_j of its block coordinates (the index
    of the first nonzero one, l_j if none), so the labeller caches its
    labels per valuation tuple and halves once per tuple.
    """
    return _chain_labeler(jordan_chains(n_mat), n_mat.p)


def _chain_labeler(blocks, p):
    """`exotic_labeler`'s v -> label on the chains `blocks` of N."""
    lengths = tuple(map(len, blocks))
    m = sum(lengths)
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
        valuations = tuple(valuations)
        label = by_valuations.get(valuations)
        if label is None:
            label = by_valuations[valuations] = _halved_label(lengths, valuations)
        return label

    return label_of


def packed_labeler(vectors, p):
    """n_mat -> (patterns, labels): `exotic_labeler` on every vector of
    `vectors` at once, for one nilpotent N per call; a census makes one
    per pass, for its line vectors.

    Coordinate i of the k-th vector is byte k of packed[i], so for a row r
    of P^-1 (`jordan_chains`) the int sum_i r_i packed[i] holds r . v_k
    as its byte k.  Entries lie in [0, p), so each byte is at most
    2n (p - 1)^2 and none carries when that is below 256: AssertionError
    otherwise, before anything is packed.  One translate turns a row's
    bytes into 0/1, and byte k of `patterns` sets bit j for each row j
    that is the first nonzero row of its chain on v_k, at the chain's
    start plus the valuation a_j; 2n <= 8 rows fit a byte.  So the label
    depends only on (lengths, pattern); `labels` maps each pattern of the
    call to its label string, derived once per such key over every call.
    Only the zero vector has pattern 0.
    """
    dim = len(vectors[0])
    if dim > 8 or dim * (p - 1) ** 2 >= 256:
        raise AssertionError(
            "packed labels need 2n <= 8 and 2n (p - 1)^2 < 256 "
            "(got 2n = %d, p = %d)" % (dim, p))
    count = len(vectors)
    packed = [int.from_bytes(bytes(column), "little") for column in zip(*vectors)]
    nonzero = bytes(b % p != 0 for b in range(256))
    names = {}          # (lengths, pattern) -> label string

    def labels_of(n_mat):
        if n_mat.rows != dim:
            raise ValueError("vector length mismatch")
        blocks = jordan_chains(n_mat)
        pattern, bit = 0, 0
        for chain in blocks:
            seen = 0        # the vectors with a nonzero row higher in the chain
            for row in chain:
                dots = sum(map(mul, row, packed)).to_bytes(count, "little")
                hits = int.from_bytes(dots.translate(nonzero), "little")
                pattern |= (hits & ~seen) << bit
                seen |= hits
                bit += 1
        patterns = pattern.to_bytes(count, "little")
        lengths = tuple(map(len, blocks))
        labels = {}
        for q in set(patterns):
            label = names.get((lengths, q))
            if label is None:
                valuations, start = [], 0
                for length in lengths:      # at most one bit per chain
                    run = q >> start & (1 << length) - 1
                    valuations.append(run.bit_length() - 1 if run else length)
                    start += length
                label = names[lengths, q] = format_bipartition(
                    _halved_label(lengths, valuations))
            labels[q] = label
        return patterns, labels

    return labels_of


def _halved_label(lengths, valuations):
    """The exotic label of chain valuations: `_valuation_label`'s
    doubled GL label, halved."""
    first, second = _valuation_label(lengths, valuations)
    # halving keeps the parts positive and weakly decreasing
    return Bipartition._trusted(halve_doubled(first), halve_doubled(second))


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
    self-adjoint, as every validated pair's is.  Solved in the chain basis
    of the nilpotent part, as the module docstring derives."""
    return _chain_stabilizer_dim(jordan_chains(pair.nilpotent_part()),
                                 pair.v if include_v else None, pair.space.p)


def label_and_stabilizer_dim(pair):
    """(`exotic_type(pair)`, `stabilizer_dim(pair, include_v=True)`), both
    read off one `jordan_chains` of the nilpotent part."""
    blocks = jordan_chains(pair.nilpotent_part())
    p = pair.space.p
    return (_chain_labeler(blocks, p)(pair.v),
            _chain_stabilizer_dim(blocks, pair.v, p))


def _chain_stabilizer_dim(blocks, v, p):
    """dim {S' symmetric : S' N' symmetric (, S' v' = 0)}, for `blocks`
    the rows of P^-1 from `jordan_chains`, N' = P^-1 N P and v' = P^-1 v.

    Coordinate a is N^k u for row k of a chain, so N' sends it to a + 1,
    or to 0 at the chain's end, and (S' N')_ab = S'_(a, b+1).  The
    unknowns S'_ab, a <= b, are numbered 0 .. m(m+1)/2 - 1.  One row per
    a < b reads S'_(a, b+1) - S'_(b, a+1), at most two distinct unknowns,
    and the m rows of S' v' (with v) follow; one `sparse_rank` ranks all.
    """
    m = sum(map(len, blocks))
    ends = {end - 1 for end in accumulate(map(len, blocks))}
    unknown = [[0] * m for _ in range(m)]
    for k, (a, b) in enumerate(combinations_with_replacement(range(m), 2)):
        unknown[a][b] = unknown[b][a] = k
    rows = []
    for a in range(m):
        for b in range(a + 1, m):
            row = {}
            if b not in ends:
                row[unknown[a][b + 1]] = 1
            if a not in ends:
                row[unknown[b][a + 1]] = p - 1
            rows.append(row)
    if v is not None:
        coords = [(b, c) for b, c in enumerate(
            sum(map(mul, row, v)) % p for chain in blocks for row in chain)
            if c]
        rows += [{unknown[a][b]: c for b, c in coords} for a in range(m)]
    return m * (m + 1) // 2 - sparse_rank(rows, p)


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
