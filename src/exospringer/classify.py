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
no entry of x.  S' N' symmetric makes each block of S' between two
chains a Hankel matrix, zero past the shorter chain's length, so the
centralizer part is solved in closed form, sum over chain pairs i <= j
of min(l_i, l_j), and only the m rows of S' v' = 0 are ranked
(`_chain_stabilizer_dim`).  The line condition h w = t w of
`parabolic_stabilizer_dim` reads S w = t J w, i.e. S' w' = t g for
w' = P^-1 w and g = P^T J w, whose entry k is the pairing <P e_k, w> of
chain vector k with w: one inverse of the chain rows gives P, and the m
rows of S' w' = t g, over one more unknown t, join those of S' v' = 0.
"""

from operator import mul

from .bicomb import Bipartition, format_bipartition
from .ffield import (FpMatrix, Subspace, commutant_basis, induced_action,
                     jordan_chains, nilpotent_jordan_type, sparse_rank)


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


def _chain_stabilizer_dim(blocks, v, p, line=None):
    """dim {S' symmetric : S' N' symmetric (, S' v' = 0) (, S' w' in <g>)},
    for `blocks` the rows of P^-1 from `jordan_chains`, N' = P^-1 N P,
    v' = P^-1 v and, with `line` = (w, g), w' = P^-1 w.

    Coordinate (i, r) is N^r u_i, row r of chain i, so N' sends it to
    (i, r + 1), or to 0 at the chain's end, and (S' N')_ab = S'_(a, b+1).
    On the block B_ij of S' (rows on chain i, columns on chain j), S' N'
    symmetric reads B_ij(r, c + 1) = B_ij(r + 1, c), with entries past a
    chain's end read as 0: B_ij is constant on each anti-diagonal
    r + c = s, and zero for s >= min(l_i, l_j).  So the unknowns are one
    t_(i,j,s) per i <= j and s < min(l_i, l_j), and without v the
    dimension is their number.  With v, row (i, r) of S' v' = 0 is the
    sum over j and c < min(l_i, l_j) - r of v'_(j,c) t_({i,j}, r + c);
    one `sparse_rank` ranks these m rows.  A line adds the m rows of
    S' w' = t g, built so with one more unknown t at coefficient -g_k in
    row k; h fixes t, as w != 0, so t adds one unknown and no dimension.
    """
    lengths = tuple(map(len, blocks))
    first = {}              # (i, j) -> the number of t_(i,j,0), either order
    count = 0
    for i, li in enumerate(lengths):
        for j in range(i, len(lengths)):
            first[i, j] = first[j, i] = count
            count += min(li, lengths[j])
    if v is None:
        return count
    rows = []
    for u in (v,) if line is None else (v, line[0]):
        coords = [[sum(map(mul, row, u)) % p for row in chain]
                  for chain in blocks]
        for i, li in enumerate(lengths):
            for r in range(li):
                row = {}
                for j, (lj, uj) in enumerate(zip(lengths, coords)):
                    at = first[i, j] + r
                    for c in range(min(li, lj) - r):
                        if uj[c]:
                            row[at + c] = uj[c]
                rows.append(row)
    if line is not None:
        for row, gk in zip(rows[len(rows) // 2:], line[1]):
            if gk:
                row[count] = -gk % p
        count += 1
    return count - sparse_rank(rows, p)


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
    Solved in the chain basis, as the module docstring derives.
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
    pair, space = nf.pair, nf.pair.space
    blocks = jordan_chains(pair.nilpotent_part())
    # P inverts the stacked chain rows; g_k = <P e_k, w>, column k of P
    basis = FpMatrix._trusted(sum(blocks, ()), space.p).inverse()
    g = [space.pairing(u, w) for u in zip(*basis.entries)]
    return _chain_stabilizer_dim(blocks, pair.v, space.p, line=(w, g))
